"""VEV engines against closed forms, analytic continuation, named checks."""

from fractions import Fraction
from itertools import permutations, product

import pytest

import bfcorr.correspondence as correspondence
import bfcorr.fields as fields
from bfcorr.boson import BOSON_VACUUM_A, BOSON_VACUUM_B, vertex_A, vertex_B
from bfcorr.correspondence import (
    VevSpec,
    analytic_continuation_check,
    check_identity,
    closed_form,
    det_series,
    pf_series,
    vev,
    vev_boson,
    vev_fermion,
)
from bfcorr.fields import Field, phi_A, phi_B, twisted_heisenberg_field_B
from bfcorr.fock import VACUUM_A, VACUUM_B, FockVector, apply_mode_A, apply_mode_B
from bfcorr.poly import MultiPoly
from bfcorr.ratfun import RationalFn, diff_factor, rf_equal, sum_factor
from bfcorr.series import LaurentSeries, expand, raw_mul
from bfcorr.textio import format_series
from conftest import rf


def test_two_point_A_is_geometric_series():
    s = vev_fermion(VevSpec.standard_A("fermion", 1, 6))
    assert s.terms == {(-1 - k, k): Fraction(1) for k in range(6)}


def test_two_point_B_matches_mode_oracle():
    # oracle: <0|phi_j phi_k|0> = 2(-1)^k for j=-k<0, 1 for j=k=0
    s = vev_fermion(VevSpec.standard_B("fermion", 2, 6))
    oracle = {(0, 0): Fraction(1)}
    for k in range(1, 7):
        oracle[(-k, k)] = Fraction(2 * (-1) ** k)
    assert s.terms == oracle


def test_charge_unbalanced_word_vanishes():
    spec = VevSpec("A", "fermion", (("phi", "z"), ("phi", "w")), 5)
    assert vev_fermion(spec).is_zero()
    spec3 = VevSpec("A", "fermion", (("phi", "z"), ("psi", "w"), ("psi", "v")), 4)
    assert vev_fermion(spec3).is_zero()


def test_single_B_vertex_operator_has_no_vacuum_part():
    spec = VevSpec("B", "boson", (("+", "z"),), 5)
    assert vev_boson(spec).is_zero()


def test_odd_B_word_vanishes():
    spec = VevSpec("B", "fermion", (("phi", "z1"), ("phi", "z2"), ("phi", "z3")), 4)
    assert vev_fermion(spec).is_zero()


def test_closed_form_det_n1():
    assert closed_form("A", "determinant", 1) == rf(
        "(1) / ((z1-w1)^1)", ("z1", "w1"))


def test_closed_form_det_equals_product_n2():
    assert rf_equal(closed_form("A", "determinant", 2), closed_form("A", "product", 2))


def test_closed_form_pf_equals_product_2n4():
    assert rf_equal(closed_form("B", "pfaffian", 2), closed_form("B", "product", 2))


def test_det_series_grounds_to_generic_expand():
    for n, cutoff in [(2, 6), (3, 4)]:
        alpha = VevSpec.standard_A("fermion", n, cutoff).variables
        assert det_series(n, cutoff) == expand(closed_form("A", "determinant", n), alpha, cutoff)


def test_pf_series_grounds_to_generic_expand():
    assert pf_series(2, 6) == expand(closed_form("B", "pfaffian", 1), ("z1", "z2"), 6)
    assert pf_series(4, 5) == expand(closed_form("B", "pfaffian", 2),
                                     ("z1", "z2", "z3", "z4"), 5)
    assert pf_series(6, 3) == expand(closed_form("B", "pfaffian", 3), VevSpec.standard_B("fermion", 6, 3).variables, 3)


def _accumulate(total, sign, terms):
    for e, c in terms.items():
        total[e] = total.get(e, 0) + sign * c


def _det_series_oracle(n, cutoff):
    """The signed permutation sum of raw_mul products of expanded entries."""
    alpha = VevSpec.standard_A("fermion", n, cutoff).variables
    entries = {}
    for i in range(n):
        for j in range(n):
            atom, s = diff_factor(i, n + j)
            entries[i, j] = expand(RationalFn(MultiPoly.const(alpha, s), {atom: 1}), alpha, cutoff).terms
    total = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = {(0,) * (2 * n): Fraction(1)}
        for i in range(n):
            prod = raw_mul(prod, entries[i, perm[i]])
        _accumulate(total, (-1) ** (inv + n * (n - 1) // 2), prod)
    return LaurentSeries(alpha, cutoff, total)


def _matchings(points):
    """Signed perfect matchings of 0..points-1."""
    def rec(rest):
        if not rest:
            yield 1, []
            return
        first = rest[0]
        for pos, r in enumerate(rest[1:]):
            for sign, pairs in rec(tuple(x for x in rest[1:] if x != r)):
                yield (-1) ** pos * sign, [(first, r)] + pairs
    return list(rec(tuple(range(points))))


def _pf_series_oracle(points, cutoff):
    """The signed perfect-matching sum of raw_mul products of expanded entries."""
    alpha = VevSpec.standard_B("fermion", points, cutoff).variables
    entries = {}
    for i in range(points):
        for j in range(i + 1, points):
            f = RationalFn(MultiPoly.linear(alpha, i, j, -1), {sum_factor(i, j): 1})
            entries[i, j] = expand(f, alpha, cutoff).terms
    total = {}
    for sign, pairs in _matchings(points):
        prod = {(0,) * points: Fraction(1)}
        for pair in pairs:
            prod = raw_mul(prod, entries[pair])
        _accumulate(total, sign, prod)
    return LaurentSeries(alpha, cutoff, total)


def test_matchings_are_counted_and_signed():
    assert [len(_matchings(p)) for p in (2, 4, 6, 8)] == [1, 3, 15, 105]
    assert _matchings(4) == [(1, [(0, 1), (2, 3)]), (-1, [(0, 2), (1, 3)]), (1, [(0, 3), (1, 2)])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_det_series_matches_permutation_sum(n, cutoff):
    assert det_series(n, cutoff) == _det_series_oracle(n, cutoff)


@pytest.mark.parametrize("points", [2, 4, 6, 8])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_pf_series_matches_matching_sum(points, cutoff):
    assert pf_series(points, cutoff) == _pf_series_oracle(points, cutoff)


def test_series_entries_must_have_integer_coefficients():
    assert correspondence._int_terms(LaurentSeries(("z",), 2, {(1,): Fraction(-3)})) == {(1,): -3}
    with pytest.raises(ValueError, match="not an integer"):
        correspondence._int_terms(LaurentSeries(("z",), 2, {(1,): Fraction(1, 2)}))


def test_fermion_vev_equals_det_series_n2():
    assert vev_fermion(VevSpec.standard_A("fermion", 2, 7)) == det_series(2, 7)


def test_boson_vev_equals_product_expansion_n1():
    s = vev_boson(VevSpec.standard_A("boson", 1, 8))
    assert s == expand(closed_form("A", "product", 1), ("z1", "w1"), 8)


def test_boson_vev_equals_product_expansion_B():
    s = vev_boson(VevSpec.standard_B("boson", 2, 8))
    assert s == expand(closed_form("B", "product", 1), ("z1", "z2"), 8)


def test_vev_match_A_n3_small_cutoff():
    fer = vev_fermion(VevSpec.standard_A("fermion", 3, 4))
    bos = vev_boson(VevSpec.standard_A("boson", 3, 4))
    assert fer == bos == det_series(3, 4)


def test_product_formula_B_2n4_small_cutoff():
    s = vev_boson(VevSpec.standard_B("boson", 4, 5))
    assert s == expand(closed_form("B", "product", 2), ("z1", "z2", "z3", "z4"), 5)
    assert s == pf_series(4, 5)


@pytest.mark.parametrize("side", ["fermion", "boson"])
@pytest.mark.parametrize("model,size,cutoff", [("A", 1, 5), ("A", 2, 5), ("B", 2, 6), ("B", 4, 6)])
def test_vev_is_monotone_in_the_cutoff(side, model, size, cutoff):
    # the pruning bounds (wmax in _boson_series, the prefix window) must
    # only drop terms outside the box: a smaller cutoff is a restriction
    spec = VevSpec.standard_A if model == "A" else VevSpec.standard_B
    full = vev(spec(side, size, cutoff))
    assert not full.is_zero()
    for d in range(cutoff):
        assert full.restrict(d) == vev(spec(side, size, d)), d


def test_boson_vev_is_computed_once_per_spec(monkeypatch):
    calls = []

    def counted(op, terms, wmax):
        calls.append(op)
        return annihilate(op, terms, wmax)

    annihilate = correspondence.annihilate
    monkeypatch.setattr(correspondence, "annihilate", counted)
    spec = VevSpec("A", "boson", (("+", "a"), ("-", "b")), 3)
    first = vev_boson(spec)
    assert calls
    made = len(calls)
    first.terms.clear()  # callers own what they get back
    again = vev_boson(spec)
    assert len(calls) == made
    assert again == expand(rf("(1) / ((a-b)^1)", ("a", "b")), ("a", "b"), 3)


# every ordering of ++-- (type A), every +- pattern of 4 points (type B,
# '-' is e^alpha(-z)) and two type A words of nonzero charge
_ORACLE_WORDS = ([("A", w) for w in sorted(set(permutations("++--")))]
                 + [("B", w) for w in product("+-", repeat=4)]
                 + [("A", ("+", "+", "-")), ("A", ("+", "-", "-"))])


def _composed_vev(spec):
    """<0| word |0> by composing vertex_A/vertex_B on FockVectors from the
    right, one vector per exponent tuple, with no weight cap or exponent
    window.  The leftmost operator runs with wmax=0: only its weight-0
    part can hold the vacuum coefficient read off at the end."""
    vertex, vacuum = (vertex_A, BOSON_VACUUM_A) if spec.model == "A" else (vertex_B, BOSON_VACUUM_B)
    vecs = {(): FockVector.basis(vacuum)}
    for k, (sym, _) in enumerate(reversed(spec.word)):
        wmax = 0 if k == len(spec.word) - 1 else None
        vecs = {(ze,) + exps: out for exps, fv in vecs.items()
                for ze, out in vertex(1 if sym == "+" else -1, fv, spec.cutoff, wmax).items()}
    return LaurentSeries(tuple(v for _, v in spec.word), spec.cutoff,
                         {exps: fv.coefficient(vacuum) for exps, fv in vecs.items()})


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_boson_sweep_matches_composed_vertex_operators(cutoff):
    # the sweep splits each vertex operator and prunes by weight and by
    # exponent prefix; the composition here does neither
    for model, word in _ORACLE_WORDS:
        spec = VevSpec(model, "boson", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got = vev_boson(spec)
        assert got == _composed_vev(spec), (model, word)
        neutral = model == "B" or word.count("+") == word.count("-")
        assert got.is_zero() == (not neutral or (model == "A" and cutoff == 1)), (model, word)
        if neutral:
            product = expand(correspondence._product_form(spec), spec.variables, cutoff)
            assert got == product, (model, word)


# every ordering of phi phi psi psi and the two charged words of 3 fields
# (type A); the type B fermion word has one symbol, so one word of 4 points
_FERMION_WORDS = ([("A", w) for w in sorted(set(permutations(("phi", "phi", "psi", "psi"))))]
                  + [("A", ("phi", "phi", "psi")), ("A", ("phi", "psi", "psi")),
                     ("B", ("phi",) * 4)])


def _composed_fermion_vev(spec):
    """<0| word |0> by composing apply_mode_A/apply_mode_B on FockVectors
    from the right, one vector per exponent tuple, with no pruning: every
    field but the leftmost runs over every exponent a box monomial allows,
    [-D, k*D] for k fields.  The leftmost runs only over the exponents
    that put the whole tuple in the box, where its vacuum coefficient is
    read off."""
    D, k = spec.cutoff, len(spec.word)
    vacuum = VACUUM_A if spec.model == "A" else VACUUM_B

    def apply(sym, m, v):
        return apply_mode_A(sym, m, v) if spec.model == "A" else apply_mode_B(m, v)

    vecs = {(): FockVector.basis(vacuum)}
    for sym, _ in reversed(spec.word[1:]):
        vecs = {(m,) + exps: out for exps, fv in vecs.items() for m in range(-D, k * D + 1)
                if not (out := apply(sym, m, fv)).is_zero()}
    sym = spec.word[0][0]
    terms = {(m,) + exps: apply(sym, m, fv).coefficient(vacuum) for exps, fv in vecs.items()
             for m in range(max(-D, -D - sum(exps)), D - sum(exps) + 1)}
    return LaurentSeries(tuple(v for _, v in spec.word), D, terms)


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_fermion_sweep_matches_composed_modes(cutoff):
    # the sweep runs each field over [-D, D-1] (A) or [-D, D] (B) only and
    # drops states the fields to their left cannot remove; the composition
    # here does neither
    for model, word in _FERMION_WORDS:
        spec = VevSpec(model, "fermion", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got = vev_fermion(spec)
        assert got == _composed_fermion_vev(spec), (model, word)
        assert got == correspondence._wick_series(spec), (model, word)
        # a type A pair has total degree -1, so two pairs leave the box at D=1
        neutral = model == "B" or word.count("phi") == word.count("psi")
        assert got.is_zero() == (not neutral or (model == "A" and cutoff == 1)), (model, word)


def test_standard_order_product_misses_the_sign_of_a_reordered_word():
    # known false: for the word e^alpha(z2) e^alpha(z1) e^alpha(z3) e^alpha(z4)
    # the product taken in the standard order z1, z2, .. is -K(z2, z1) times
    # the word-order one, so it expands to -VEV
    spec = VevSpec("B", "boson", tuple(("+", v) for v in ("z2", "z1", "z3", "z4")), 4)
    got = vev_boson(spec)
    standard = expand(closed_form("B", "product", 2), spec.variables, 4)
    assert len(got.terms) == 65
    assert got != standard
    assert got == -standard == expand(correspondence._product_form(spec), spec.variables, 4)


@pytest.mark.parametrize("model,side,word,message", [
    ("C", "fermion", (("phi", "z"),), "unknown model/side"),
    ("A", "bosons", (("+", "z"),), "unknown model/side"),
    ("A", "fermion", (("chi", "z"),), "not 'chi'"),
    ("B", "fermion", (("psi", "z"),), "not 'psi'"),
    ("A", "boson", (("x", "z"),), "not 'x'"),
    ("B", "boson", (("phi", "z"),), "not 'phi'"),
    ("A", "fermion", (("phi", "z"), ("psi", "z")), "variables must be distinct"),
])
def test_vev_spec_rejects_bad_input(model, side, word, message):
    with pytest.raises(ValueError, match=message):
        VevSpec(model, side, word, 3)


def test_standard_word_needs_model_A_or_B():
    with pytest.raises(ValueError, match="unknown model 'C'"):
        VevSpec.standard("C", "fermion", 2, 3)


def test_analytic_continuation_examples():
    AL = ("z", "w")
    s_a = vev_fermion(VevSpec("A", "fermion", (("phi", "z"), ("psi", "w")), 6))
    assert analytic_continuation_check(s_a, rf("(1) / ((z-w)^1)", AL))
    assert not analytic_continuation_check(s_a, rf("(1) / ((z+w)^1)", AL))
    s_b = vev_fermion(VevSpec("B", "fermion", (("phi", "z"), ("phi", "w")), 6))
    assert analytic_continuation_check(s_b, rf("(z - w) / ((z+w)^1)", AL))


def test_check_identity_unknown_name():
    with pytest.raises(ValueError):
        check_identity("not-a-check")


@pytest.mark.parametrize("name,params", [
    ("cauchy", {"n": 3}),
    ("schur-pfaffian", {"n": 4}),
    ("det-formula-A", {"n": 2, "cutoff": 6}),
    ("product-formula-A", {"n": 1, "cutoff": 6}),
    ("pf-formula-B", {"n": 2, "cutoff": 6}),
    ("product-formula-B", {"n": 2, "cutoff": 6}),
    ("vev-match-A", {"n": 1, "cutoff": 6}),
    ("vev-match-B", {"n": 2, "cutoff": 6}),
    ("supercommutativity-A", {"cutoff": 6}),
    ("supercommutativity-B", {"cutoff": 6}),
    ("character-A", {"dmax": 8}),
    ("character-B", {"dmax": 10}),
    ("ope-residues", {"grade": 5}),
    ("hopf-relations", {"grade": 5, "window": 4}),
])
def test_named_checks_pass(name, params):
    report = check_identity(name, params)
    assert report.passed, report.witnesses.get("first_difference")


def test_report_json_shape():
    report = check_identity("cauchy", {"n": 2, "seed": 7})
    d = report.to_json_dict()
    assert set(d) == {"check", "params", "status", "witnesses", "elapsed_ms"}
    assert set(d["params"]) == {"model", "n", "cutoff", "seed"}
    assert d["params"]["seed"] == 7
    assert d["status"] == "pass"


def test_compare_series_formats_equal_series_once():
    from bfcorr.correspondence import IdentityReport, _compare_series

    a = det_series(2, 4)
    rep = IdentityReport("demo", {}, "pass")
    _compare_series(rep, [("lhs", "rhs", a, det_series(2, 4))])
    assert rep.status == "pass"
    assert list(rep.witnesses) == ["lhs", "rhs"]
    assert rep.witnesses["lhs"] is rep.witnesses["rhs"]
    assert rep.witnesses["lhs"] == str(a)


def test_compare_series_reports_both_sides_of_a_difference():
    from bfcorr.correspondence import IdentityReport, _compare_series

    a = det_series(2, 4)
    b = a.scale(2)
    rep = IdentityReport("demo", {}, "pass")
    _compare_series(rep, [("lhs", "rhs", a, b)])
    assert rep.status == "fail"
    assert list(rep.witnesses) == ["lhs", "rhs", "first_difference"]
    assert rep.witnesses["lhs"] == str(a) != rep.witnesses["rhs"] == str(b)
    assert rep.witnesses["first_difference"].startswith("lhs vs rhs at ")


def test_compare_series_fails_when_nothing_is_compared():
    from bfcorr.correspondence import IdentityReport, _compare_series

    # total degree -3 lies outside the cutoff-2 box, so both sides are 0
    a, b = det_series(3, 2), vev_fermion(VevSpec.standard_A("fermion", 3, 2))
    assert a.is_zero() and b.is_zero()
    rep = IdentityReport("demo", {}, "pass")
    _compare_series(rep, [("lhs", "rhs", a, b)])
    assert rep.status == "fail"
    assert rep.witnesses["lhs"] == rep.witnesses["rhs"] == "0"
    assert "no terms compared" in rep.witnesses["first_difference"]


def test_failing_check_reports_first_difference():
    # a deliberately broken comparison: series differ at the z^-1 monomial
    from bfcorr.correspondence import IdentityReport, _compare_series

    a = vev_fermion(VevSpec.standard_A("fermion", 1, 4))
    b = a + expand(rf("(1) / ((z1)^1)", ("z1", "w1")), ("z1", "w1"), 4)
    rep = IdentityReport("demo", {}, "pass")
    _compare_series(rep, [("lhs", "rhs", a, b)])
    assert rep.status == "fail"
    assert "z1^-1" in rep.witnesses["first_difference"]


def _with_rows(field, row):
    return Field(field.name, field.space, field.parity, field.mode_zpow, row, field.den,
                 field.clifford)


def test_ope_residues_reads_the_rows_of_phi_B(monkeypatch):
    # doubling the row of z^-1 doubles {phi_-1, phi_1} = -2 and no other bracket
    def doubled():
        phi = phi_B()
        return _with_rows(phi, lambda k, s: [(t, 2 * x) for t, x in phi.row(k, s)]
                          if k == -1 else phi.row(k, s))

    monkeypatch.setattr(correspondence, "phi_B", doubled)
    rep = check_identity("ope-residues", {"grade": 4})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == (
        "type B mode residue fails at k=1 on FermionStateB(indices=())")


def test_twisted_heisenberg_fails_on_nonzero_even_rows(monkeypatch):
    # even z-powers carry the vacuum; the odd rows, and so every bracket, stay
    def broken():
        h = twisted_heisenberg_field_B()
        return _with_rows(h, lambda k, s: h.row(k, s) if k % 2 else [(s, 1)])

    monkeypatch.setattr(correspondence, "twisted_heisenberg_field_B", broken)
    rep = check_identity("twisted-heisenberg-from-fermions-B", {"mmax": 3, "grade": 4})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == "h_-2 != 0 on FermionStateB(indices=())"


def test_supercommutativity_fails_on_a_symmetric_kernel(monkeypatch):
    # 1/(x_i + x_j) is swap-symmetric, so F(w, z) = -F(z, w) must fail
    def symmetric(model, alpha, i, j):
        return RationalFn(MultiPoly.const(alpha, 1), {sum_factor(i, j): 1})

    monkeypatch.setattr(correspondence, "_two_point", symmetric)
    rep = check_identity("supercommutativity-A", {"cutoff": 3})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == "candidate is not swap-antisymmetric"


def test_hopf_relations_fail_when_T_is_the_identity(monkeypatch):
    # T^2 = 1 still holds; DT = -TD becomes 2 D = 0, false at z^-2 on phi_A
    monkeypatch.setattr(fields, "_apply_T", lambda a: a)
    rep = check_identity("hopf-relations", {"grade": 2, "window": 2})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == "DT != -TD for phi at z^-2"


def test_hopf_relations_fail_on_a_negative_vacuum_power(monkeypatch):
    # phi_A(z)|0> gains a z^-1 term; T and D transform it, so T^2 = 1 and
    # DT = -TD still hold and only vacuum regularity fails
    def singular():
        phi = phi_A()
        return _with_rows(phi, lambda k, s: [(s, 1)] if (k, s) == (-1, VACUUM_A)
                          else phi.row(k, s))

    monkeypatch.setattr(correspondence, "phi_A", singular)
    rep = check_identity("hopf-relations", {"grade": 2, "window": 2})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == "phi(z)|0> has a negative z-power -1"


def test_hopf_relations_fail_on_a_scaled_creation_value(monkeypatch):
    def doubled():
        phi = phi_A()
        return _with_rows(phi, lambda k, s: [(t, 2 * x) for t, x in phi.row(k, s)]
                          if (k, s) == (0, VACUUM_A) else phi.row(k, s))

    monkeypatch.setattr(correspondence, "phi_A", doubled)
    rep = check_identity("hopf-relations", {"grade": 2, "window": 2})
    assert rep.status == "fail"
    assert rep.witnesses["first_difference"] == "phi(z)|0> at z=0 is not the projected state"


# one case per size: each is just below its minimum, where the check would
# pass with nothing tested
@pytest.mark.parametrize("name,params,message", [
    ("cauchy", {"n": 0}, "n must be >= 1"),
    ("supercommutativity-A", {"cutoff": 0}, "cutoff must be >= 1"),
    ("ope-residues", {"grade": -1}, "grade must be >= 0"),
    ("character-B", {"dmax": -1}, "dmax must be >= 0"),
    ("heisenberg-from-fermions-A", {"mmax": 0, "grade": 4}, "mmax must be >= 1"),
    ("hopf-relations", {"grade": 4, "window": 0}, "window must be >= 1"),
])
def test_sizes_below_their_minimum_are_rejected(name, params, message):
    with pytest.raises(ValueError, match=message):
        check_identity(name, params)


@pytest.mark.parametrize("name,params", [
    ("cauchy", {"n": 1}),
    ("supercommutativity-B", {"cutoff": 1}),
    ("ope-residues", {"grade": 0}),
    ("character-A", {"dmax": 0}),
    ("twisted-heisenberg-from-fermions-B", {"mmax": 1, "grade": 2}),
    ("hopf-relations", {"grade": 0, "window": 1}),
])
def test_sizes_at_their_minimum_pass(name, params):
    assert check_identity(name, params).passed


# one case per rejected name: a misspelt size, a size another check has,
# and a name that is no size at all
@pytest.mark.parametrize("name,params,bad", [
    ("cauchy", {"nn": 1}, "nn"),
    ("supercommutativity-A", {"n": 2}, "n"),
    ("character-B", {"charge": 0}, "charge"),
    ("hopf-relations", {"grade": 2, "model": "A"}, "model"),
])
def test_unknown_parameter_names_are_rejected(name, params, bad):
    with pytest.raises(ValueError, match=f"{name} takes no parameter {bad}$"):
        check_identity(name, params)


def test_every_check_takes_cutoff_and_seed():
    # the CLI passes both to every check, next to the check's own sizes
    from bfcorr.correspondence import CHECKS

    for check in CHECKS:
        rep = check_identity(check.name, {**check.quick, "cutoff": 3, "seed": 5})
        assert rep.passed and rep.params["seed"] == 5, check.name


def test_type_b_checks_need_an_even_number_of_points():
    with pytest.raises(ValueError, match="even number of points"):
        check_identity("pf-formula-B", {"n": 3, "cutoff": 2})


def test_missing_sizes_come_from_the_check_table():
    from bfcorr.correspondence import CHECKS, DEFAULT_CUTOFF

    sizes = {c.name: c.sizes for c in CHECKS}
    assert sizes["product-formula-B"] == {"n": 4, "cutoff": DEFAULT_CUTOFF}
    rep = check_identity("cauchy")
    assert rep.passed and rep.params == {"model": "A", "n": 3}
    rep = check_identity("hopf-relations", {"grade": 2})
    assert rep.passed and rep.params == {"grade": 2, "window": 6}


def test_vev_match_B_formats_each_series_once(monkeypatch):
    calls = []

    def counting(series):
        calls.append(series)
        return format_series(series)

    monkeypatch.setattr(correspondence, "format_series", counting)
    rep = check_identity("vev-match-B", {"n": 4, "cutoff": 6})
    assert rep.passed
    # the fermion series is the left side of both pairs and equals both right sides
    assert len(calls) == 1
    texts = [rep.witnesses[k] for k in ("fermion_series", "boson_series", "pfaffian_series")]
    assert texts == [format_series(calls[0])] * 3
