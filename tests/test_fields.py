"""Hopf generator actions, quadratic normal ordering, mode brackets."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bfcorr import correspondence
from bfcorr.fields import (
    Field,
    act_hopf,
    heisenberg_field_A,
    mode_commutator,
    normal_ordered_quadratic,
    phi_A,
    phi_B,
    psi_A,
    residuals,
    twisted_heisenberg_field_B,
)
from bfcorr.fock import (
    VACUUM_A,
    VACUUM_B,
    FockVector,
    apply_mode_A,
    apply_mode_B,
    states_A,
    states_B,
)

VAC_A = FockVector.basis(VACUUM_A)
VAC_B = FockVector.basis(VACUUM_B)


# act_hopf applies a word letter by letter, so these words really compose
# their generators: with T the identity, DT = -TD fails.


def test_t_squared_is_identity_on_modes():
    for base in (phi_A(), psi_A(), phi_B()):
        tt = act_hopf("TT", base)
        basis = states_A(6) if base.space == "A" else states_B(6)
        for k in range(-5, 6):
            for s in basis[:10]:
                v = FockVector.basis(s)
                assert tt.coeff(k)(v) == base.coeff(k)(v)


def test_dt_anticommutes_with_td():
    for base in (phi_A(), phi_B()):
        dt = act_hopf("DT", base)
        td = act_hopf("TD", base)
        basis = states_A(6) if base.space == "A" else states_B(6)
        for k in range(-5, 6):
            for s in basis[:10]:
                v = FockVector.basis(s)
                assert dt.coeff(k)(v) + td.coeff(k)(v) == FockVector()


def test_unknown_hopf_generator_is_rejected():
    with pytest.raises(ValueError, match="unknown generator 'X'"):
        act_hopf("X", phi_A())


def test_derivative_mode_rule():
    # D phi at z^n is (n+1) phi_{n+1}
    dphi = act_hopf("D", phi_A())
    for n in range(-3, 4):
        got = dphi.coeff(n)(VAC_A)
        want = phi_A().coeff(n + 1)(VAC_A).scale(n + 1)
        assert got == want


def test_t_negates_odd_modes():
    tphi = act_hopf("T", phi_B())
    for n in range(0, 5):
        got = tphi.coeff(n)(VAC_B)
        assert got == phi_B().coeff(n)(VAC_B).scale((-1) ** n)


def test_label_map_is_kept_by_D_T_and_scaling():
    # h_B's mode h_m sits at z^{-m}; D, T and scalars change rows, not labels
    h = twisted_heisenberg_field_B()
    labels = (-3, -2, 0, 1, 4)
    for f in (h, act_hopf("T", h), act_hopf("D", h), act_hopf("DT", h), h.scaled(3)):
        assert [f.mode_zpow(m) for m in labels] == [3, 2, 0, -1, -4], f.name
    assert act_hopf("T", h).mode(1)(VAC_B) == act_hopf("T", h).coeff(-1)(VAC_B)


def test_field_property_window():
    # standard modes a_(n) vanish for n large on any fixed graded vector:
    # for phi_A, a_(n) = phi_{-n-1} needs a psi partner of index <= grade
    f = phi_A()
    for s in states_A(8):
        v = FockVector.basis(s)
        top = max(s.psis, default=-1)
        for n in range(top + 1, top + 6):
            assert f.coeff(-n - 1)(v).is_zero()


def test_normal_ordering_kills_vacuum_pairing():
    # the vacuum pairings: <0|phi_j psi_k|0> = 1 if k >= 0 and j + k = -1
    # (type A); <0|phi_j phi_k|0> = 2(-1)^k if j = -k and k > 0, 1 if
    # j = k = 0 (type B); 0 otherwise
    for j in range(-5, 6):
        for k in range(-5, 6):
            raw = apply_mode_A("phi", j, apply_mode_A("psi", k, VAC_A)).coefficient(VACUUM_A)
            pair = Fraction(1) if (k >= 0 and j + k == -1) else Fraction(0)
            assert raw - pair == 0
            raw = apply_mode_B(j, apply_mode_B(k, VAC_B)).coefficient(VACUUM_B)
            pair = 2 * (-1) ** k if (j == -k and k > 0) else int(j == k == 0)
            assert raw == pair, (j, k)
    # normal ordering subtracts them: <0| :a b:_K |0> = 0 for every K
    for field, vacuum in ((heisenberg_field_A(), VACUUM_A),
                          (normal_ordered_quadratic(psi_A(), phi_A()), VACUUM_A),
                          (normal_ordered_quadratic(phi_B(), phi_B()), VACUUM_B),
                          (twisted_heisenberg_field_B(), VACUUM_B)):
        for K in range(-8, 9):
            assert field.coeff(K)(FockVector.basis(vacuum)).coefficient(vacuum) == 0, (field.name, K)


def test_heisenberg_field_A_basic_brackets():
    h = heisenberg_field_A()
    assert mode_commutator(h, h, 1, -1, 8, Fraction(1)) == []
    assert mode_commutator(h, h, 2, -2, 8, Fraction(2)) == []
    assert mode_commutator(h, h, 2, -1, 8, Fraction(0)) == []
    assert mode_commutator(h, h, 1, -1, 8, Fraction(5)) != []


def test_heisenberg_annihilates_vacuum():
    h = heisenberg_field_A()
    for n in range(0, 5):
        assert h.mode(n)(VAC_A).is_zero()


def test_twisted_heisenberg_brackets():
    h = twisted_heisenberg_field_B()
    assert mode_commutator(h, h, 3, -3, 8, Fraction(3, 2)) == []
    assert mode_commutator(h, h, 1, -1, 8, Fraction(1, 2)) == []
    assert mode_commutator(h, h, 3, -1, 8, Fraction(0)) == []


def test_twisted_heisenberg_even_modes_vanish():
    h = twisted_heisenberg_field_B()
    for m in (-4, -2, 0, 2, 4):
        op = h.mode(m)
        for s in states_B(8):
            assert op(FockVector.basis(s)).is_zero()


def test_clifford_anticommutator_through_mode_commutator():
    # [phi_1, phi_-1]_+ = -2 on F_B (odd fields use the anticommutator)
    phi = phi_B()
    assert mode_commutator(phi, phi, 1, -1, 6, Fraction(-2)) == []
    assert mode_commutator(phi, phi, 2, -2, 6, Fraction(2)) == []


def test_quadratic_rejects_unsupported_pairs():
    with pytest.raises(ValueError):
        normal_ordered_quadratic(phi_A(), phi_B())
    with pytest.raises(ValueError):
        normal_ordered_quadratic(heisenberg_field_A(), phi_A())


def test_heisenberg_mode_grading():
    # h_{-1} raises energy2 by 2; h built from :phi psi: in standard form
    h = heisenberg_field_A()
    out = h.mode(-1)(VAC_A)
    from bfcorr.fock import energy2_A

    assert all(energy2_A(s) == 2 for s in out.terms)


# -- rows against definitions built on FockVectors ----------------------------

GRADE = 6
WINDOW = 6


def _phi_a(i, v):
    return apply_mode_A("phi", i, v)


def _psi_a(i, v):
    return apply_mode_A("psi", i, v)


def _quadratic_oracle(x, y, scalar, K, v, vacuum):
    """sum_{alpha+beta=K} scalar(beta) * (X_alpha Y_beta - <X_alpha Y_beta>) v
    over a beta range wide enough for states of grade <= GRADE."""
    reach = GRADE + abs(K) + 2
    total = FockVector()
    for beta in range(-reach, reach + 1):
        alpha = K - beta
        pair = x(alpha, y(beta, FockVector.basis(vacuum))).coefficient(vacuum)
        term = x(alpha, y(beta, v)) - v.scale(pair)
        total = total + term.scale(scalar(beta))
    return total


def _dpsi_a(i, v):
    """(D psi)'s coefficient of z^i, (i + 1) psi_{i+1}, on v."""
    return _psi_a(i + 1, v).scale(i + 1)


QUADRATICS = [
    ("h_A", heisenberg_field_A, _phi_a, _psi_a, lambda beta: 1, VACUUM_A),
    (":psi phi:", lambda: normal_ordered_quadratic(psi_A(), phi_A()), _psi_a, _phi_a,
     lambda beta: 1, VACUUM_A),
    # h_B = (1/4) :phi(z) phi(-z):, so phi_beta carries (-1)^beta
    ("h_B", twisted_heisenberg_field_B, apply_mode_B, apply_mode_B,
     lambda beta: Fraction(-1 if beta % 2 else 1, 4), VACUUM_B),
    (":phi_B phi_B:", lambda: normal_ordered_quadratic(phi_B(), phi_B()), apply_mode_B,
     apply_mode_B, lambda beta: 1, VACUUM_B),
    # the b-factor's clifford tag carries the shift 1: its z^beta row is psi_{beta+1}
    (":phi D psi:", lambda: normal_ordered_quadratic(phi_A(), act_hopf("D", psi_A())), _phi_a,
     _dpsi_a, lambda beta: 1, VACUUM_A),
]


@pytest.mark.parametrize("name,build,x,y,scalar,vacuum", QUADRATICS, ids=[q[0] for q in QUADRATICS])
def test_quadratic_rows_match_the_definition(name, build, x, y, scalar, vacuum):
    # rows asked for in any order, and again, come out the same: each state's
    # entry is built by whichever row reaches it first
    field = build()
    basis = states_A(GRADE) if field.space == "A" else states_B(GRADE)
    pairs = [(K, s) for K in range(-WINDOW, WINDOW + 1) for s in basis] * 2
    random.Random(20241021).shuffle(pairs)
    want = {}
    for K, s in pairs:
        v = FockVector.basis(s)
        if (K, s) not in want:
            want[K, s] = _quadratic_oracle(x, y, scalar, K, v, vacuum)
        assert all(type(c) is int for _, c in field.row(K, s))
        assert field.coeff(K)(v) == want[K, s], (K, s)


def _counting(field, calls):
    """``field`` with a row that records each (z-power, state) it is asked for."""
    row = field.row
    return Field(field.name, field.space, field.parity, field.mode_zpow,
                 lambda k, s: calls.append((k, s)) or row(k, s), field.den, field.clifford)


@pytest.mark.parametrize("a,b,x,y,scalar,vacuum", [
    (phi_A, psi_A, _phi_a, _psi_a, lambda beta: 1, VACUUM_A),
    (phi_B, lambda: act_hopf("T", phi_B()), apply_mode_B, apply_mode_B,
     lambda beta: -1 if beta % 2 else 1, VACUUM_B),
    (phi_A, lambda: act_hopf("D", psi_A()), _phi_a, _dpsi_a, lambda beta: 1, VACUUM_A),
], ids=[":phi psi:", ":phi_B T phi_B:", ":phi D psi:"])
def test_quadratic_builds_each_b_row_once(a, b, x, y, scalar, vacuum):
    # the b-factor's row b_k(s) is the same for every z-power K of :a b: that
    # needs it, so rows at every K of the window take it from s's entry; the
    # vacuum pairings read b's rows on the vacuum through the same entries
    calls = []
    field = normal_ordered_quadratic(a(), _counting(b(), calls))
    basis = states_A(GRADE) if field.space == "A" else states_B(GRADE)
    for K in range(-WINDOW, WINDOW + 1):
        for s in basis:
            v = FockVector.basis(s)
            assert field.coeff(K)(v) == _quadratic_oracle(x, y, scalar, K, v, vacuum), (K, s)
    counts = Counter(calls)
    assert len(counts) > len(basis)
    assert max(counts.values()) == 1, counts.most_common(3)


def _hopf_oracle(word, apply, k, v):
    """The z^k coefficient of D, T and DT applied to a free fermion X."""
    sign_t = -1 if k % 2 else 1
    if word == "D":
        return apply(k + 1, v).scale(k + 1)
    if word == "T":
        return apply(k, v).scale(sign_t)
    # DT = -T D
    return apply(k + 1, v).scale(-sign_t * (k + 1))


@pytest.mark.parametrize("word", ["D", "T", "DT"])
@pytest.mark.parametrize("base,apply", [(phi_A, _phi_a), (psi_A, _psi_a), (phi_B, apply_mode_B)])
def test_hopf_rows_match_their_closed_forms(word, base, apply):
    field = act_hopf(word, base())
    basis = states_A(4) if field.space == "A" else states_B(4)
    for k in range(-4, 5):
        for s in basis:
            v = FockVector.basis(s, Fraction(3, 2))
            assert field.coeff(k)(v) == _hopf_oracle(word, apply, k, v), (k, s)


def test_derivative_of_a_quadratic_shifts_and_scales_its_rows():
    h = heisenberg_field_A()
    dh = act_hopf("D", h)
    for k in range(-4, 5):
        for s in states_A(4):
            v = FockVector.basis(s)
            want = _quadratic_oracle(_phi_a, _psi_a, lambda beta: 1, k + 1, v, VACUUM_A)
            assert dh.coeff(k)(v) == want.scale(k + 1)


# -- mode_commutator failures and Clifford brackets ---------------------------


def test_mode_commutator_residuals_are_pinned():
    # [h_1, h_-1] = 1 on F_A and 1/2 on F_B, so expected=0 leaves that
    # multiple of the identity on every basis state, in basis order
    cases = ((heisenberg_field_A(), states_A(6), Fraction(1), "FockVector(1*|0>)"),
             (twisted_heisenberg_field_B(), states_B(6), Fraction(1, 2), "FockVector(1/2*|0>)"))
    for field, basis, value, vacuum_text in cases:
        got = mode_commutator(field, field, 1, -1, 6, Fraction(0))
        assert [s for s, _ in got] == basis
        for s, residual in got:
            assert residual == FockVector.basis(s, value)
            assert all(type(c) is Fraction for c in residual.terms.values())
        assert repr(got[0][1]) == vacuum_text


@pytest.mark.parametrize("name, field, text", [
    ("heisenberg-from-fermions-A", heisenberg_field_A,
     "(m,n)=(-1,1) on FermionStateA(phis=(), psis=()): residual FockVector(-3*|0>)"),
    ("twisted-heisenberg-from-fermions-B", twisted_heisenberg_field_B,
     "(m,n)=(-1,1) on FermionStateB(indices=()): residual FockVector(-3/2*|0>)"),
    ("heisenberg-fermions-A", heisenberg_field_A,
     "[h_-1, phi_-3] on FermionStateA(phis=(), psis=(1,)): residual FockVector(1*|0>)"),
    ("heisenberg-fermions-B", twisted_heisenberg_field_B,
     "[h_-1, phi_-5] on FermionStateB(indices=(4,)): residual FockVector(2*|0>)"),
], ids=["A", "B", "fermions-A", "fermions-B"])
def test_heisenberg_failure_witness_text(name, field, text, monkeypatch):
    # doubling h quadruples its bracket and doubles its action on a fermion,
    # so the first pair or case in loop order that sees it fails
    monkeypatch.setattr(correspondence, field.__name__, lambda: field().scaled(2))
    rep = correspondence.check_identity(name, {"mmax": 1, "grade": 4})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == text


def _clifford_bracket(pair, m, n):
    if pair in (("phi", "psi"), ("psi", "phi")):
        return int(m + n == -1)
    if pair == ("phiB", "phiB"):
        return 2 * (-1 if m % 2 else 1) if m == -n else 0
    return 0  # phi with phi, psi with psi on F_A


_FREE = {"phi": phi_A, "psi": psi_A, "phiB": phi_B}


@seed(20240811)
@settings(max_examples=80, deadline=None)
@given(pair=st.sampled_from([("phi", "psi"), ("psi", "phi"), ("phi", "phi"),
                             ("psi", "psi"), ("phiB", "phiB")]),
       m=st.integers(-6, 6), n=st.integers(-6, 6))
def test_clifford_anticommutators_property(pair, m, n):
    a, b = _FREE[pair[0]](), _FREE[pair[1]]()
    assert mode_commutator(a, b, m, n, 6, Fraction(_clifford_bracket(pair, m, n))) == []


@pytest.mark.parametrize("name,params,space", [
    ("heisenberg-from-fermions-A", {"mmax": 5, "grade": 12}, "A"),
    ("twisted-heisenberg-from-fermions-B", {"mmax": 7, "grade": 10}, "B"),
])
def test_heisenberg_checks_enumerate_their_basis_once(name, params, space, monkeypatch):
    # full sizes: 55 (type A) and 28 (type B) mode commutators share one basis
    import bfcorr.fields as fields

    calls = []
    for attr in ("states_A", "states_B"):
        original = getattr(fields, attr)
        monkeypatch.setattr(fields, attr,
                            lambda grade, attr=attr, f=original: calls.append(attr) or f(grade))
    fields.graded_basis.cache_clear()
    assert correspondence.check_identity(name, params).passed
    assert calls == [f"states_{space}"]


@pytest.mark.parametrize("field, grade, central", [
    (act_hopf("D", heisenberg_field_A()), 8, True),
    (act_hopf("D", twisted_heisenberg_field_B()), 8, True),
    (normal_ordered_quadratic(phi_A(), act_hopf("D", psi_A())), 8, False),
    (normal_ordered_quadratic(phi_B(), act_hopf("DT", phi_B())), 6, False),
], ids=["D h_A", "D h_B", ":phi D psi:", ":phi_B D T phi_B:"])
def test_mirror_pairs_negate_and_the_diagonal_is_empty(field, grade, central):
    # why the Heisenberg checks compute only m < n: for an even field the
    # residual of (n, m) is minus that of (m, n), state by state, and (m, m)
    # leaves nothing; this holds for the quadratic fields with D too, whose
    # brackets are not multiples of the identity
    assert field.parity == 0
    labels = range(-4, 5)
    residuals = noncentral = 0
    for m in labels:
        assert mode_commutator(field, field, m, m, grade) == []
        for n in labels:
            if m < n:
                forward = mode_commutator(field, field, m, n, grade)
                mirror = mode_commutator(field, field, n, m, grade)
                assert [s for s, _ in mirror] == [s for s, _ in forward]
                assert all(r == -q for (_, r), (_, q) in zip(mirror, forward)), (m, n)
                residuals += len(forward)
                noncentral += sum(r != FockVector.basis(s, r.coefficient(s)) for s, r in forward)
    assert residuals and bool(noncentral) != central


@pytest.mark.parametrize("name, labels", [
    ("heisenberg-from-fermions-A", range(-3, 4)),
    ("twisted-heisenberg-from-fermions-B", range(-3, 4, 2)),
])
def test_heisenberg_checks_compute_each_pair_once(name, labels, monkeypatch):
    assert _bracketed_pairs(monkeypatch, name, 3) == [(m, n) for m in labels for n in labels if m < n]


def test_twisted_heisenberg_at_even_mmax_brackets_only_odd_labels(monkeypatch):
    # mmax 4 adds the even labels -4 and 4, which must vanish, not be bracketed
    labels = range(-3, 4, 2)
    assert _bracketed_pairs(monkeypatch, "twisted-heisenberg-from-fermions-B", 4) == [
        (m, n) for m in labels for n in labels if m < n]


def _bracketed_pairs(monkeypatch, name, mmax):
    """The (m, n) of each ``mode_commutator`` call of the passing check."""
    calls = []

    def recording(a, b, m, n, *rest):
        calls.append((m, n))
        return mode_commutator(a, b, m, n, *rest)

    monkeypatch.setattr(correspondence, "mode_commutator", recording)
    assert correspondence.check_identity(name, {"mmax": mmax, "grade": 6}).passed
    return calls


# -- residuals: one rule for every operator identity ---------------------------


def test_a_word_composes_its_rows_rightmost_first():
    # a three-letter word and a Fraction multiple of the identity, against
    # the composed FockVector operators state by state
    h, phi = twisted_heisenberg_field_B(), phi_B()
    word = ((phi, 2), (h, -1), (phi, -3))
    got = dict(residuals("B", 4, [(Fraction(2, 3), word), (Fraction(1, 2), ())]))
    assert got
    for s in states_B(4):
        v = FockVector.basis(s)
        want = phi.coeff(2)(h.coeff(-1)(phi.coeff(-3)(v))).scale(Fraction(2, 3)) + v.scale(Fraction(1, 2))
        assert got.get(s, FockVector()) == want, s


def test_fields_of_another_space_are_rejected():
    with pytest.raises(ValueError, match="fields act on different spaces"):
        mode_commutator(phi_A(), phi_B(), 0, 0, 2)
    # every field of every word is checked, not only the first
    h = heisenberg_field_A()
    with pytest.raises(ValueError, match="fields act on different spaces"):
        residuals("A", 2, [(1, ((h, 0), (phi_A(), 0))), (1, ((h, 0), (phi_B(), 0)))])


def _fermion_shift_failures(h, f, sign, ns, ks):
    """How many (n, k) fail [h_n, f_k] = sign * f_{k-n} at grade 8."""
    return sum(bool(residuals(h.space, 8, [(1, ((h, h.mode_zpow(n)), (f, k))),
                                           (-1, ((f, k), (h, h.mode_zpow(n)))),
                                           (-sign, ((f, k - n),))]))
               for n in ns for k in ks)


_NONZERO = [n for n in range(-3, 4) if n]


@pytest.mark.parametrize("h, f, sign, ns, ks, flipped", [
    (heisenberg_field_A, phi_A, 1, _NONZERO, range(-5, 6), 57),
    (heisenberg_field_A, psi_A, -1, _NONZERO, range(-5, 6), 57),
    (twisted_heisenberg_field_B, phi_B, 1, range(-5, 6, 2), range(-6, 7), 74),
    (twisted_heisenberg_field_B, lambda: act_hopf("T", phi_B()), -1, range(-5, 6, 2), range(-6, 7), 74),
], ids=["phi_A", "psi_A", "phi_B", "T phi_B"])
def test_heisenberg_modes_shift_the_fermions(h, f, sign, ns, ks, flipped):
    # [h_n, phi(z)] = z^n phi(z) and the partner field takes -z^n: 66 (type
    # A) or 78 (type B, odd n) cases all hold, and with the sign flipped
    # most fail, so this relation sees the sign of h where [h, h] cannot
    h, f = h(), f()
    assert len(ns) * len(ks) == (66 if h.space == "A" else 78)
    assert _fermion_shift_failures(h, f, sign, ns, ks) == 0
    assert _fermion_shift_failures(h, f, -sign, ns, ks) == flipped
