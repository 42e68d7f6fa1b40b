"""Heisenberg module actions and truncated vertex operators."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from bfcorr.boson import (
    BOSON_VACUUM_A,
    BOSON_VACUUM_B,
    BosonStateA,
    BosonStateB,
    _creation_table,
    _lowering_table,
    _pack,
    _unpack,
    heis_apply_A,
    heis_apply_B,
    mon_weight,
    vertex_A,
    vertex_B,
    vertex_op_A,
    vertex_op_B,
    vertex_terms,
)
from bfcorr.fock import FockVector
from bfcorr.partitions import odd_partition_count, partition_count

ONE_A = FockVector.basis(BOSON_VACUUM_A)
ONE_B = FockVector.basis(BOSON_VACUUM_B)


def test_commutator_on_highest_weight_vector():
    assert heis_apply_A(1, heis_apply_A(-1, ONE_A)) == ONE_A


def test_derivative_kills_missing_variable():
    x1 = heis_apply_A(-1, ONE_A)
    assert heis_apply_A(2, x1).is_zero()


def test_multiplication_convention():
    got = heis_apply_A(-3, ONE_A)
    assert got == FockVector.basis(BosonStateA(0, ((3, 1),))).scale(3)


def test_h0_not_represented():
    with pytest.raises(ValueError):
        heis_apply_A(0, ONE_A)
    with pytest.raises(ValueError):
        heis_apply_B(2, ONE_B)


def test_twisted_commutator_half():
    got = heis_apply_B(1, heis_apply_B(-1, ONE_B))
    assert got == ONE_B.scale(Fraction(1, 2))


def test_twisted_multiplication_convention():
    assert heis_apply_B(-3, ONE_B) == FockVector.basis(
        BosonStateB(0, ((3, 1),))).scale(Fraction(3, 2))
    assert heis_apply_B(5, heis_apply_B(-3, ONE_B)).is_zero()


def _monomials(max_weight, odd=False):
    out = [()]
    step = 2 if odd else 1
    start = 1
    def rec(prefix, rest, minvar):
        for v in range(minvar, rest + 1, step):
            for e in range(1, rest // v + 1):
                m = prefix + ((v, e),)
                out.append(m)
                rec(m, rest - v * e, v + step)
    rec((), max_weight, start)
    return out


def test_heisenberg_relations_on_monomials():
    # [h_m, h_n] = m delta_{m+n,0} exactly, energy2 <= 12
    states = [BosonStateA(0, m) for m in _monomials(6)]
    for m in range(-5, 6):
        for n in range(-5, 6):
            if m == 0 or n == 0:
                continue
            expected = Fraction(m) if m + n == 0 else Fraction(0)
            for s in states:
                if 2 * mon_weight(s.mon) > 12:  # the energy2 of a charge-0 state
                    continue
                v = FockVector.basis(s)
                got = heis_apply_A(m, heis_apply_A(n, v)) - heis_apply_A(n, heis_apply_A(m, v))
                assert got == v.scale(expected)


def test_twisted_heisenberg_relations_on_monomials():
    states = [BosonStateB(0, m) for m in _monomials(7, odd=True)]
    for m in range(-7, 8, 2):
        for n in range(-7, 8, 2):
            expected = Fraction(m, 2) if m + n == 0 else Fraction(0)
            for s in states:
                v = FockVector.basis(s)
                got = heis_apply_B(m, heis_apply_B(n, v)) - heis_apply_B(n, heis_apply_B(m, v))
                assert got == v.scale(expected)


def test_positive_modes_annihilate_highest_weight_states():
    for n in range(1, 6):
        assert heis_apply_A(n, FockVector.basis(BosonStateA(3, ()))).is_zero()
    for n in range(1, 6, 2):
        assert heis_apply_B(n, FockVector.basis(BosonStateB(1, ()))).is_zero()


# -- vertex operators ---------------------------------------------------------


def test_vertex_A_lowest_coefficients():
    # exp(sum x_n z^n) on the shifted vacuum: z^0 -> e^a, z^1 -> x1 e^a
    out = vertex_A(1, ONE_A, 5)
    assert out[0] == FockVector.basis(BosonStateA(1, ()))
    assert out[1] == FockVector.basis(BosonStateA(1, ((1, 1),)))
    # z^2 -> (x1^2/2 + x2) e^a from the exponential expansion
    assert out[2] == (FockVector.basis(BosonStateA(1, ((1, 2),))).scale(Fraction(1, 2))
                      + FockVector.basis(BosonStateA(1, ((2, 1),))))


def test_vertex_A_charge_factor():
    # on a charge-k state the z^{d_alpha} factor shifts exponents by k
    ek = FockVector.basis(BosonStateA(2, ()))
    out = vertex_A(1, ek, 5)
    assert min(out) == 2 and out[2] == FockVector.basis(BosonStateA(3, ()))


def test_vertex_B_lowest_coefficients():
    # derived by expanding exp(sum_k h_{-2k-1} z^{2k+1}/(k+1/2)): the z^1
    # coefficient is x1 e^a with the (n/2) x_n convention
    out = vertex_B(1, ONE_B, 5)
    assert out[0] == FockVector.basis(BosonStateB(1, ()))
    assert out[1] == FockVector.basis(BosonStateB(1, ((1, 1),)))
    assert out[2] == FockVector.basis(BosonStateB(1, ((1, 2),))).scale(Fraction(1, 2))
    assert out[3] == (FockVector.basis(BosonStateB(1, ((1, 3),))).scale(Fraction(1, 6))
                      + FockVector.basis(BosonStateB(1, ((3, 1),))))


def test_vertex_B_parity_flip():
    out = vertex_B(1, ONE_B, 4)
    assert all(s.parity == 1 for fv in out.values() for s in fv.terms)
    again = {k: vertex_B(1, fv, 4) for k, fv in out.items()}
    assert all(s.parity == 0 for d in again.values() for fv in d.values() for s in fv.terms)


def test_vertex_B_argument_sign_is_z_negation():
    plus = vertex_B(1, ONE_B, 6)
    minus = vertex_B(-1, ONE_B, 6)
    assert set(plus) == set(minus)
    for k, fv in plus.items():
        assert minus[k] == fv.scale((-1) ** k)


@pytest.mark.parametrize("sign", [1, -1])
def test_vertex_truncation_commutes(sign):
    x3 = heis_apply_A(-3, ONE_A)
    full = vertex_A(sign, x3, 7)
    small = vertex_A(sign, x3, 3)
    assert small == {k: fv for k, fv in full.items() if -3 <= k <= 3}
    fullb = vertex_B(sign, heis_apply_B(-3, ONE_B), 7)
    smallb = vertex_B(sign, heis_apply_B(-3, ONE_B), 3)
    assert smallb == {k: fv for k, fv in fullb.items() if -3 <= k <= 3}


def test_vertex_annihilation_part():
    # e^{-alpha}(z) on x1 e^{alpha}: z^{-d_alpha} gives z^{-1}, and the
    # annihilation exponential +h_1 z^{-1} turns x1 into 1, so the vacuum
    # appears at z^{-2} with coefficient +1
    x1_ea = FockVector.basis(BosonStateA(1, ((1, 1),)))
    out = vertex_A(-1, x1_ea, 4)
    assert out[-2].coefficient(BOSON_VACUUM_A) == Fraction(1)
    # with no lowering the whole creation exponential rides on top:
    # z^0 needs raising weight 2 on x1 (giving x1^2/2 + x2 with sign -1 each
    # power) minus the j=1 path after lowering; frozen from the expansion
    assert out[0] == (
        FockVector.basis(BosonStateA(0, ((1, 2),))).scale(Fraction(-1, 2))
        + FockVector.basis(BosonStateA(0, ((2, 1),))).scale(-1)
    )


# -- vertex operators against exponentials built from Heisenberg modes -------


def _exp_graded(step, graded, cap=None):
    """exp(X) on a z-graded vector, as sum_k X^k / k!.

    ``step(vec, room)`` lists (z-shift, vector) pairs whose sum is X on
    vec, leaving out shifts above ``room``: z-exponents above ``cap`` are
    dropped (X raises them, so nothing dropped can come back).
    """
    total = {}
    term, k = graded, 0
    while term:
        for ze, vec in term.items():
            total[ze] = total.get(ze, FockVector()) + vec
        k += 1
        nxt = {}
        for ze, vec in term.items():
            for dz, w in step(vec, None if cap is None else cap - ze):
                nxt[ze + dz] = nxt.get(ze + dz, FockVector()) + w.scale(Fraction(1, k))
        term = {ze: v for ze, v in nxt.items() if not v.is_zero()}
    return total


def _oracle(heis, modes, lower, raise_, start, cap):
    """exp(creation) exp(annihilation) on ``start`` up to z^cap.

    The annihilation exponential is exp(sum_n lower(n) h_n z^-n) and the
    creation one exp(sum_n raise_(n) h_{-n} z^n), n in ``modes``.
    """
    low = _exp_graded(lambda v, _: [(-n, heis(n, v).scale(lower(n))) for n in modes], start)
    return _exp_graded(lambda v, room: [(n, heis(-n, v).scale(raise_(n))) for n in modes if n <= room],
                       low, cap)


def _truncated(graded, cutoff, wmax, zsign=1):
    """The z-exponents in [-cutoff, cutoff] and monomial weights <= wmax,
    with z replaced by zsign*z: what vertex_* returns."""
    out = {}
    for ze, vec in graded.items():
        vec = FockVector({s: c * zsign ** (ze % 2) for s, c in vec.items()
                          if wmax is None or mon_weight(s.mon) <= wmax})
        if -cutoff <= ze <= cutoff and not vec.is_zero():
            out[ze] = vec
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_vertex_A_matches_heisenberg_exponentials(sign):
    for charge in (-1, 0, 1):
        for mon in _monomials(5):
            start = {sign * charge: FockVector.basis(BosonStateA(charge + sign, mon))}
            full = _oracle(heis_apply_A, range(1, 13), lambda n: Fraction(-sign, n),
                           lambda n: Fraction(sign, n), start, 5)
            v = FockVector.basis(BosonStateA(charge, mon))
            for cutoff in range(1, 6):
                for wmax in (None, 3):
                    want = _truncated(full, cutoff, wmax)
                    assert vertex_A(sign, v, cutoff, wmax) == want, (charge, mon, cutoff, wmax)


@pytest.mark.parametrize("arg_sign", [1, -1])
def test_vertex_B_matches_heisenberg_exponentials(arg_sign):
    for parity in (0, 1):
        for mon in _monomials(5, odd=True):
            start = {0: FockVector.basis(BosonStateB(1 - parity, mon))}
            full = _oracle(heis_apply_B, range(1, 13, 2), lambda n: Fraction(-2, n),
                           lambda n: Fraction(2, n), start, 5)
            v = FockVector.basis(BosonStateB(parity, mon))
            for cutoff in range(1, 6):
                for wmax in (None, 3):
                    want = _truncated(full, cutoff, wmax, arg_sign)
                    assert vertex_B(arg_sign, v, cutoff, wmax) == want, (parity, mon, cutoff, wmax)


@pytest.mark.parametrize("odd", [False, True])
def test_pack_round_trips_every_monomial_up_to_weight_12(odd):
    # at the least width the weight allows, and wider; at width 4 every key
    # is distinct, and adding keys multiplies the monomials
    mons = _monomials(12, odd)
    for mon in mons:
        for w in range(mon_weight(mon).bit_length(), 7):
            assert _unpack(_pack(mon, w), w) == mon, (mon, w)
    assert len({_pack(mon, 4) for mon in mons}) == len(mons)
    for a in mons[::7]:
        for b in mons[::5]:
            if mon_weight(a) + mon_weight(b) <= 15:
                want = tuple(sorted((Counter(dict(a)) + Counter(dict(b))).items()))
                assert _unpack(_pack(a, 4) + _pack(b, 4), 4) == want


def test_creation_tables_have_one_row_per_partition():
    # each row unpacks to a distinct partition of j, with its parity of
    # parts and j!/prod mult!; a wider width gives the same rows in order
    for j in range(21):
        assert len(_creation_table(j, False, j.bit_length())) == partition_count(j)
        assert len(_creation_table(j, True, j.bit_length())) == odd_partition_count(j)
        for odd in (False, True):
            rows = [(_unpack(mon, w), parts_odd, r) for w in (j.bit_length(), j.bit_length() + 2)
                    for mon, parts_odd, r in _creation_table(j, odd, w)]
            half = len(rows) // 2
            assert rows[:half] == rows[half:]
            mons = [mon for mon, _, _ in rows[:half]]
            assert len(set(mons)) == len(mons)
            assert all(mon_weight(m) == j for m in mons)
            if odd:
                assert all(n % 2 for m in mons for n, _ in m)
            for mon, parts_odd, r in rows[:half]:
                assert parts_odd == sum(e for _, e in mon) % 2
                assert r == factorial(j) // prod(factorial(e) for _, e in mon)


def _lowering_oracle(mon, factor):
    """exp(factor * sum_n (1/n) d/dx_n z^-n) on ``mon`` as (prod_n n^e_n,
    rows), one row (z-exponent, lowered monomial, weight) per choice of
    l_n <= e_n, the l of the last variable varying slowest."""
    rows = []
    for ls in product(*(range(e + 1) for _, e in reversed(mon))):
        ls = ls[::-1]
        rows.append((-sum(n * l for (n, _), l in zip(mon, ls)),
                     tuple((n, e - l) for (n, e), l in zip(mon, ls) if l < e),
                     prod(comb(e, l) * factor ** l * n ** (e - l) for (n, e), l in zip(mon, ls))))
    return prod(n ** e for n, e in mon), rows


@pytest.mark.parametrize("odd,factor", [(False, -1), (False, 1), (True, -2), (True, 2)])
def test_lowering_tables_are_cut_exactly_at_the_cap(odd, factor):
    # the cap only drops the rows whose lowered monomial is too heavy; the
    # denominator and the order of the rows kept do not change, and the cap
    # of the monomial's own weight keeps every row.  The width is the one
    # vertex_terms takes for the cap, so the packed monomial may have a
    # digit of 2^w or more that only its lowered rows fit
    for mon in _monomials(8, odd):
        den, rows = _lowering_oracle(mon, factor)
        assert len(rows) == prod(e + 1 for _, e in mon)
        for cap in (mon_weight(mon), -1, *range(9)):
            want = tuple(row for row in rows if mon_weight(row[1]) <= cap)
            w = max(cap, 0).bit_length()
            got_den, got = _lowering_table(mon, factor, w, cap)
            assert got_den == den, (mon, cap)
            assert tuple((zl, _unpack(low, w), x) for zl, low, x in got) == want, (mon, cap)


def _fractions(d, outs):
    """The output of vertex_terms as fractions."""
    return [{ze: {s: Fraction(n, d) for s, n in b.items()} for ze, b in out.items()} for out in outs]


def _per_term_sum(op, vectors, cutoff, wmax):
    """vertex_terms run on one state at a time, summed per vector as
    fractions; zero sums and empty buckets are dropped."""
    sums = []
    for vec in vectors:
        total = {}
        for state, c in vec.items():
            (out,) = _fractions(*vertex_terms(op, [{state: c}], cutoff, wmax))
            for ze, bucket in out.items():
                for s, x in bucket.items():
                    total.setdefault(ze, {}).setdefault(s, 0)
                    total[ze][s] += x
        sums.append({ze: {s: c for s, c in b.items() if c} for ze, b in total.items() if any(b.values())})
    return sums


def _graded_sum(parts):
    """The sum of {z-exponent: FockVector} dicts, zero vectors dropped."""
    total = {}
    for part in parts:
        for ze, fv in part.items():
            total[ze] = total.get(ze, FockVector()) + fv
    return {ze: fv for ze, fv in total.items() if not fv.is_zero()}


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("wmax", [None, 3])
def test_vertex_terms_is_linear_across_keys(model, wmax):
    # one call on vectors that mix labels equals the sum of one call per
    # state, and so does one on two states whose terms lowered to the
    # vacuum cancel: its z-exponent there gets no bucket.  The cap None
    # stands for the least one that drops nothing, the largest
    # weight + cutoff - shift over the states
    if model == "A":
        ops, labels, mons = [vertex_op_A(1), vertex_op_A(-1)], (-1, 0, 1), _monomials(3)
        make = BosonStateA
    else:
        ops, labels, mons = [vertex_op_B(1), vertex_op_B(-1)], (0, 1), _monomials(5, odd=True)
        make = BosonStateB
    basis = [make(label, mon) for label in labels for mon in mons[::2]]
    vectors = [{s: (-1) ** k * (k + q + 1) for k, s in enumerate(basis)} for q in range(3)]
    for op in ops:
        # x_n and x_1^n (n = 2 for type A, 3 for type B) both lower to 1 at
        # z^(shift - n), with factor/n and factor^n, factor = -sign * scale,
        # which these numerators cancel
        if model == "A":
            n, cancel = 2, {make(1, ((2, 1),)): 2, make(1, ((1, 2),)): op.sign}
        else:
            n, cancel = 3, {make(1, ((3, 1),)): 12, make(1, ((1, 3),)): -1}
        states = [s for vec in vectors + [cancel] for s in vec]
        cap = wmax if wmax is not None else max(mon_weight(s.mon) + 4 - op.split(s)[0] for s in states)
        d, outs = vertex_terms(op, vectors + [cancel], 4, cap)
        assert all(x for out in outs for b in out.values() for x in b.values())
        assert all(outs) and _fractions(d, outs) == _per_term_sum(op, vectors + [cancel], 4, cap)
        low = op.split(make(1, ()))[0] - n
        assert low not in outs[-1]
        assert all(low in vertex_terms(op, [{s: c}], 4, cap)[1][0] for s, c in cancel.items())


@pytest.mark.parametrize("wmax", [None, 8])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("model", ["A", "B"])
def test_vertex_outputs_reach_the_top_of_the_packed_width(model, sign, wmax):
    # on x_1^2 the weight bound W of vertex_terms is 8, the cap itself or,
    # with no cap, 2 + cutoff - shift: the output x_1^8 fills a 4-bit digit,
    # which one bit less would carry into x_2
    x1, top = ((1, 2),), ((1, 8),)
    if model == "A":
        op, labels, make, apply = vertex_op_A(sign), (-1, 0, 1), BosonStateA, vertex_A
    else:
        op, labels, make, apply = vertex_op_B(sign), (0, 1), BosonStateB, vertex_B
    shifts = {label: op.split(make(label, x1))[0] for label in labels}
    for label, shift in shifts.items():
        cutoff = 6 + shift + (wmax is not None)
        v = FockVector.basis(make(label, x1))
        if model == "A":
            start = {shift: FockVector.basis(BosonStateA(label + sign, x1))}
            full = _oracle(heis_apply_A, range(1, 13), lambda n: Fraction(-sign, n),
                           lambda n: Fraction(sign, n), start, cutoff)
            got = vertex_A(sign, v, cutoff, wmax)
            assert got == _truncated(full, cutoff, wmax), label
        else:
            start = {0: FockVector.basis(BosonStateB(1 - label, x1))}
            full = _oracle(heis_apply_B, range(1, 13, 2), lambda n: Fraction(-2, n),
                           lambda n: Fraction(2, n), start, cutoff)
            got = vertex_B(sign, v, cutoff, wmax)
            assert got == _truncated(full, cutoff, wmax, sign), label
        assert any(s.mon == top for fv in got.values() for s in fv.terms), label
    # every label in one vector: the states share their monomial but not
    # their shift, so with no cap W must come from the state of the least
    # shift, whichever of them comes first
    cutoff = 6 + min(shifts.values())
    mixed = [FockVector({make(label, x1): 1 for label in order}) for order in (labels, labels[::-1])]
    for v in mixed:
        got = apply(sign, v, cutoff, wmax)
        assert got == _graded_sum(apply(sign, FockVector.basis(make(label, x1)), cutoff, wmax)
                                  for label in labels)
        assert any(s.mon == top for fv in got.values() for s in fv.terms)
    if wmax is None:
        # W = 8 here, and on the vacuum at cutoff 8: every cap from W up
        # gives what no cap gives, and the cap W - 1 loses the outputs of
        # weight W
        for v, cutoff in [(v, cutoff) for v in mixed] + [(FockVector.basis(make(0, ())), 8)]:
            got = apply(sign, v, cutoff)
            assert all(apply(sign, v, cutoff, cap) == got for cap in range(8, 17))
            assert apply(sign, v, cutoff, 7) == _truncated(got, cutoff, 7) != got


@pytest.mark.parametrize("op", [vertex_op_A(1), vertex_op_A(-1), vertex_op_B(1), vertex_op_B(-1)])
@pytest.mark.parametrize("wmax", [None, 4])
def test_vertex_terms_counts_its_creation_updates(op, wmax):
    # on one state every creation update lands on its own output term, so
    # the count given to the guard is exactly the number of terms made.  The
    # cap None stands for the least one that drops nothing, the cutoff 8
    counts = []
    vacuum = BOSON_VACUUM_A if op.make is BosonStateA else BOSON_VACUUM_B
    _, (out,) = vertex_terms(op, [{vacuum: 1}], 8, 8 if wmax is None else wmax, counts.append)
    assert counts == [sum(map(len, out.values()))] and counts[0] > 5


@pytest.mark.parametrize("op", [vertex_op_A(1), vertex_op_A(-1), vertex_op_B(1), vertex_op_B(-1)])
def test_vertex_terms_counts_nothing_for_a_state_too_heavy_for_the_cap(op):
    # x_1^16 under the cap 4 at cutoff 8: a row under the cap lowers by at
    # least 12, and then no created part can reach the box and stay under
    # the cap, so nothing is made and the guard is told of no update
    counts = []
    vacuum = BOSON_VACUUM_A if op.make is BosonStateA else BOSON_VACUUM_B
    _, (out,) = vertex_terms(op, [{vacuum._replace(mon=((1, 16),)): 1}], 8, 4, counts.append)
    assert counts == [0] and out == {}
