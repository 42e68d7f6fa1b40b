"""VEV engines against closed forms, analytic continuation, named checks."""

from fractions import Fraction
from itertools import permutations, product

import pytest

import bfcorr.correspondence as correspondence
import bfcorr.fields as fields
from bfcorr.boson import BOSON_VACUUM_A, BOSON_VACUUM_B, vertex_A, vertex_B
from bfcorr.correspondence import (
    CHECKS,
    MIN_SIZES,
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
from conftest import in_lowest_terms, rf


def test_two_point_A_is_geometric_series():
    s = vev_fermion(VevSpec.standard_A("fermion", 1, 6))
    assert s.exponents() == {(-1 - k, k): Fraction(1) for k in range(6)}


def test_two_point_B_matches_mode_oracle():
    # oracle: <0|phi_j phi_k|0> = 2(-1)^k for j=-k<0, 1 for j=k=0
    s = vev_fermion(VevSpec.standard_B("fermion", 2, 6))
    oracle = {(0, 0): Fraction(1)}
    for k in range(1, 7):
        oracle[(-k, k)] = Fraction(2 * (-1) ** k)
    assert s.exponents() == oracle


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
            kernel = RationalFn(MultiPoly.const(alpha, s), {atom: 1})
            entries[i, j] = expand(kernel, alpha, cutoff).exponents()
    total = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = {(0,) * (2 * n): Fraction(1)}
        for i in range(n):
            prod = raw_mul(prod, entries[i, perm[i]])
        _accumulate(total, (-1) ** (inv + n * (n - 1) // 2), prod)
    return LaurentSeries.from_exponents(alpha, cutoff, total)


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
            entries[i, j] = expand(f, alpha, cutoff).exponents()
    total = {}
    for sign, pairs in _matchings(points):
        prod = {(0,) * points: Fraction(1)}
        for pair in pairs:
            prod = raw_mul(prod, entries[pair])
        _accumulate(total, sign, prod)
    return LaurentSeries.from_exponents(alpha, cutoff, total)


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
    # the pruning bounds (wmax in _boson_series, the fermion sweep's mode
    # range and kept states) must only drop terms outside the box: a
    # smaller cutoff is a restriction
    spec = VevSpec.standard_A if model == "A" else VevSpec.standard_B
    full = vev(spec(side, size, cutoff))
    assert not full.is_zero()
    for d in range(cutoff):
        assert LaurentSeries.from_exponents(full.ordering, d, full.exponents()) == vev(spec(side, size, d)), d


def _recording_sweep(monkeypatch):
    """Run the boson sweep's vertex_terms through a recorder; the list it
    returns gets one (wmax, [{state: numerator} per vector]) per call."""
    calls = []

    def recording(op, vectors, cutoff, wmax, guard):
        calls.append((wmax, vectors))
        return vertex_terms(op, vectors, cutoff, wmax, guard)

    vertex_terms = correspondence.vertex_terms
    monkeypatch.setattr(correspondence, "vertex_terms", recording)
    correspondence._boson_series.cache_clear()
    return calls


def test_boson_vev_is_computed_once_per_spec(monkeypatch):
    calls = _recording_sweep(monkeypatch)
    spec = VevSpec("A", "boson", (("+", "a"), ("-", "b")), 3)
    first = vev_boson(spec)
    assert calls
    made = len(calls)
    first.terms.clear()  # callers own what they get back
    again = vev_boson(spec)
    assert len(calls) == made
    assert again == expand(rf("(1) / ((a-b)^1)", ("a", "b")), ("a", "b"), 3)


def test_boson_vev_refuses_a_step_past_its_bound(monkeypatch):
    # each step's creation updates are counted before they are made; the
    # bound refuses the largest step of a spec and no smaller one
    counts = []

    def recording(op, vectors, cutoff, wmax, guard):
        return vertex_terms(op, vectors, cutoff, wmax, lambda count: counts.append(count) or guard(count))

    vertex_terms = correspondence.vertex_terms
    monkeypatch.setattr(correspondence, "vertex_terms", recording)
    spec = VevSpec.standard_A("boson", 2, 5)
    correspondence._boson_series.cache_clear()
    want = vev_boson(spec)
    peak = max(counts)
    step = counts.index(peak) + 1
    assert len(counts) == 4 and 0 < counts[0] < peak
    correspondence._boson_series.cache_clear()
    monkeypatch.setattr(correspondence, "MAX_STEP_UPDATES", peak - 1)
    with pytest.raises(ValueError) as exc:
        vev_boson(spec)
    assert str(exc.value) == (f"type A boson VEV of 4 vertex operators at z1, z2, w1, w2, cutoff 5: "
                              f"step {step} of 4 would make {peak} creation updates, more than {peak - 1}")
    monkeypatch.setattr(correspondence, "MAX_STEP_UPDATES", peak)
    assert vev_boson(spec) == want


@pytest.mark.parametrize("D", [3, 5])
def test_boson_sweep_caps_each_step_by_what_the_rest_can_absorb(monkeypatch, D):
    # e^a(z1) e^a(z2) e^-a(w1) e^-a(w2), applied right to left from charge 0,
    # meets charges 0, -1, -2, -1 and so shifts 0, 1, -2, -1: an operator
    # absorbs at most D + shift of weight, and a step's cap is the sum over
    # the operators still to come
    calls = _recording_sweep(monkeypatch)
    vev_boson(VevSpec.standard_A("boson", 2, D))
    assert [wmax for wmax, _ in calls] == [3 * D - 2, 2 * D - 3, D - 1, 0]


def _vertex(spec):
    """vertex_A or vertex_B for the spec's model, and its vacuum."""
    return (vertex_A, BOSON_VACUUM_A) if spec.model == "A" else (vertex_B, BOSON_VACUUM_B)


def _prefix_counts(spec, caps):
    """The prefixes each step of the boson sweep takes in, counted without
    merging: one FockVector per exponent tuple of the operators run so far,
    composed from the right with vertex_A/vertex_B under the sweep's weight
    caps, and kept while it is nonzero."""
    vertex, vacuum = _vertex(spec)
    vecs, counts = [FockVector.basis(vacuum)], []
    for (sym, _), cap in zip(reversed(spec.word), caps):
        counts.append(len(vecs))
        vecs = [out for fv in vecs for out in vertex(1 if sym == "+" else -1, fv, spec.cutoff, cap).values()]
    return counts


@pytest.mark.parametrize("spec,names", [(VevSpec.standard_A("boson", 2, 5), "type A boson VEV of 4 vertex "
                                         "operators at z1, z2, w1, w2, cutoff 5"),
                                        (VevSpec.standard_B("boson", 6, 2), "type B boson VEV of 6 vertex "
                                         "operators at z1, z2, z3, z4, z5, z6, cutoff 2")])
def test_boson_vev_refuses_to_take_in_too_many_terms(monkeypatch, spec, names):
    # the prefixes a step takes in are counted before they are built; the
    # bound refuses the largest step of a spec, at that step, and no smaller
    # one.  The counts come from composing the operators without merging
    calls = _recording_sweep(monkeypatch)
    want = vev_boson(spec)
    held = _prefix_counts(spec, [wmax for wmax, _ in calls])
    peak = max(held)
    step = held.index(peak) + 1
    assert len(calls) == len(spec.word) and held[0] == 1 and 1 < held[1] < peak
    correspondence._boson_series.cache_clear()
    monkeypatch.setattr(correspondence, "MAX_STEP_TERMS", peak - 1)
    calls.clear()
    with pytest.raises(ValueError) as exc:
        vev_boson(spec)
    assert len(calls) == step - 1
    assert str(exc.value) == (f"{names}: step {step} of {len(spec.word)} would take in {peak} prefixes, "
                              f"more than {peak - 1}")
    monkeypatch.setattr(correspondence, "MAX_STEP_TERMS", peak)
    assert vev_boson(spec) == want


def test_boson_sweep_runs_each_vector_once_up_to_scale(monkeypatch):
    # the sweep merges the prefixes whose partial states are multiples of
    # one vector, so no two vectors one step hands to vertex_terms are
    # proportional, and the middle steps of three pairs hand in fewer
    # vectors than they hold prefixes
    calls = _recording_sweep(monkeypatch)
    spec = VevSpec.standard_A("boson", 3, 6)
    assert vev_boson(spec) == expand(correspondence._product_form(spec), spec.variables, 6)
    held = _prefix_counts(spec, [wmax for wmax, _ in calls])
    for step, (_, vectors) in enumerate(calls, 1):
        # a vector over its coefficient at its least state, equal for multiples
        rays = {frozenset((s, Fraction(c, vec[min(vec)])) for s, c in vec.items())
                for vec in vectors}
        assert len(rays) == len(vectors) <= held[step - 1], step
        if step >= 3:
            assert len(vectors) < held[step - 1], step


# every ordering of ++-- (type A), every +- pattern of 4 points (type B,
# '-' is e^alpha(-z)) and two type A words of nonzero charge
_ORACLE_WORDS = ([("A", w) for w in sorted(set(permutations("++--")))]
                 + [("B", w) for w in product("+-", repeat=4)]
                 + [("A", ("+", "+", "-")), ("A", ("+", "-", "-"))])
# words of 5 and 6 operators, whose middle steps merge many prefixes in the
# sweep; they run up to cutoff 3, the least at which three pairs have a
# term in the box
_MERGING_WORDS = [("A", tuple(w)) for w in ("++-+-", "+-+-+-", "++-+--")] + [
    ("B", tuple(w)) for w in ("+-+-+-", "++-+--", "+--++-")]


def _composed_vev(spec):
    """<0| word |0> by composing vertex_A/vertex_B on FockVectors from the
    right, one vector per exponent tuple, each operator over its whole
    z-range [-D, D] with no weight cap.  The leftmost operator runs with
    wmax=0: only its weight-0 part can hold the vacuum coefficient read
    off at the end."""
    vertex, vacuum = _vertex(spec)
    vecs = {(): FockVector.basis(vacuum)}
    for k, (sym, _) in enumerate(reversed(spec.word)):
        wmax = 0 if k == len(spec.word) - 1 else None
        vecs = {(ze,) + exps: out for exps, fv in vecs.items()
                for ze, out in vertex(1 if sym == "+" else -1, fv, spec.cutoff, wmax).items()}
    return LaurentSeries.from_exponents(tuple(v for _, v in spec.word), spec.cutoff,
                                        {exps: fv.coefficient(vacuum) for exps, fv in vecs.items()})


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_boson_sweep_matches_composed_vertex_operators(cutoff):
    # the sweep merges the prefixes whose partial states are multiples of
    # one vector, sums each vertex operator's annihilation half over the
    # merged vectors and prunes by weight; the composition here does none
    # of these.  A neutral type A word of p pairs has no term in the box
    # below cutoff p
    for model, word in _ORACLE_WORDS + (_MERGING_WORDS if cutoff <= 3 else []):
        spec = VevSpec(model, "boson", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got = vev_boson(spec)
        assert got == _composed_vev(spec), (model, word)
        neutral = model == "B" or word.count("+") == word.count("-")
        assert got.is_zero() == (not neutral or (model == "A" and cutoff < len(word) // 2)), (model, word)
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
    return LaurentSeries.from_exponents(tuple(v for _, v in spec.word), D, terms)


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_fermion_sweep_matches_composed_modes(cutoff):
    # both halves of the sweep run each field over the box exponents
    # [-D, D] only, for both models, and drop a state reached by the field
    # at position j if it holds more than j modes, more than the fields to
    # its left can remove; the composition here does neither
    # both engines test the box where they make their keys and hand their
    # terms over untested, so every term must lie in the box.  A type A word
    # of D pairs has total exactly -D, and one of D + 1 pairs -D - 1: every
    # term kept or every one dropped, the two edges of the join's half-sum
    # test and of the Wick total.  The composition runs only up to 4 fields
    edges = [("A", ("phi", "psi") * pairs) for pairs in (cutoff, cutoff + 1)]
    for model, word in _FERMION_WORDS + edges:
        spec = VevSpec(model, "fermion", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got, wick = vev_fermion(spec), correspondence._wick_series(spec)
        if len(word) <= 4:
            assert got == _composed_fermion_vev(spec), (model, word)
        assert got == wick, (model, word)
        for series in (got, wick):
            assert series.codec.box(series.terms) == series.terms, (model, word)
        # a type A pair has total degree -1, so D + 1 pairs leave the box
        neutral = model == "B" or word.count("phi") == word.count("psi")
        assert got.is_zero() == (not neutral or (model == "A" and len(word) // 2 > cutoff)), (model, word)


def _one_directional_fermion_terms(spec):
    """<0| word |0> by one sweep right to left from the vacuum, over tables
    {state: {exponent prefix: coefficient}}, each field run over the box
    exponents and a state reached by the field at position j kept only if
    it holds at most j modes; the raw terms, before the cutoff box."""
    D, (vacuum, table) = spec.cutoff, correspondence.OPERATORS[spec.model, spec.side]
    fields = [table[sym] for sym, _ in spec.word]
    tables = {vacuum: {(): 1}}
    for pos in range(len(fields) - 1, -1, -1):
        row, new = fields[pos].row, {}
        for s, prefixes in tables.items():
            for m in range(D, -D - 1, -1):
                for t, c in row(m, s):
                    if sum(map(int.bit_count, t)) <= pos:
                        new.setdefault(t, {}).update({(m,) + p: c * v for p, v in prefixes.items()})
        tables = new
    return tables.get(vacuum, {})


# every locality word, the empty word, one field and odd lengths
_SWEEP_WORDS = ([("A", w) for n in (2, 3) for w in correspondence._locality_words("A", n)]
                + [("B", w) for n in (4, 6) for w in correspondence._locality_words("B", n)]
                + [("A", ()), ("B", ()), ("A", ("phi",)), ("A", ("psi",)), ("B", ("phi",)),
                   ("B", ("Tphi",)), ("A", ("psi", "phi", "phi")), ("A", ("phi", "psi", "psi", "phi", "psi")),
                   ("B", ("phi", "Tphi", "phi")), ("B", ("Tphi",) * 5)])


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_fermion_sweep_matches_the_one_directional_sweep(cutoff):
    # the halves meet in the middle; every term and its int type must be
    # those of the sweep from the vacuum alone
    for model, word in _SWEEP_WORDS:
        spec = VevSpec(model, "fermion", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got = vev_fermion(spec).exponents()
        raw = _one_directional_fermion_terms(spec)
        assert got == {e: c for e, c in raw.items() if -cutoff <= sum(e) <= cutoff}, (model, word)
        assert all(type(c) is int for c in got.values()), (model, word)
    assert vev_fermion(VevSpec("B", "fermion", (), cutoff)).exponents() == {(): 1}


@pytest.mark.parametrize("model, sizes", [("A", (2, 3)), ("B", (4, 6))])
def test_product_form_is_built_reduced(model, sizes):
    # nothing reduces a form, so each linear form x_i +- x_j must go to the
    # numerator or to the denominator, never to both
    for n in sizes:
        for word in correspondence._locality_words(model, n):
            spec = VevSpec(model, "fermion", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), 0)
            form = correspondence._product_form(spec)
            assert form.den and in_lowest_terms(form), word


@pytest.mark.parametrize("name, params", [("cauchy", {}), ("cauchy", {"n": 4}), ("schur-pfaffian", {}),
                                          ("schur-pfaffian", {"n": 6}), ("supercommutativity-A", {}),
                                          ("supercommutativity-B", {}), ("ope-residues", {})])
def test_printed_rational_functions_are_in_lowest_terms(monkeypatch, name, params):
    # nothing reduces a RationalFn, so every one a report prints must be
    # built in lowest terms: no pole atom divides its numerator
    printed = []
    witness = correspondence._rational_witness
    monkeypatch.setattr(correspondence, "_rational_witness", lambda f: printed.append(f) or witness(f))
    assert check_identity(name, params).passed
    assert printed and all(in_lowest_terms(f) for f in printed), [str(f) for f in printed]


def test_a_form_with_a_pair_on_both_sides_is_not_in_lowest_terms():
    AL = ("z", "w")
    assert in_lowest_terms(rf("(z - w) / ((z+w)^1)", AL))
    assert not in_lowest_terms(rf("(z^2 - w^2) / ((z+w)^1)", AL))
    assert not in_lowest_terms(rf("(z*w - w^2) / ((z)^1 (z-w)^1)", AL))
    assert not in_lowest_terms(rf("(z^2) / ((z)^1)", AL))


# longer words: the composed oracle is cheap only for 6 type B points at
# D=1 (the 3-pair type A words take about 40 s there), so the rest are
# checked against the Wick form alone
_LONG_FERMION_WORDS = [("B", ("phi",) * 6, range(1, 5)),
                       ("A", ("phi", "psi") * 3, range(3, 5)),
                       ("A", ("psi", "psi", "phi", "phi", "psi", "phi"), range(3, 5))]


@pytest.mark.parametrize("model, word, cutoffs", _LONG_FERMION_WORDS)
def test_fermion_sweep_matches_wick_form_on_six_fields(model, word, cutoffs):
    for cutoff in cutoffs:
        spec = VevSpec(model, "fermion", tuple((s, f"z{i + 1}") for i, s in enumerate(word)), cutoff)
        got = vev_fermion(spec)
        assert not got.is_zero(), cutoff
        assert got == correspondence._wick_series(spec), cutoff
        if model == "B" and cutoff == 1:
            assert got == _composed_fermion_vev(spec)


def test_wick_series_boxes_per_key_when_its_kernels_mix_totals(monkeypatch):
    # K(x_i, x_j) + x_i + x_j has terms of total -1 and 1, so the Pfaffian's
    # terms have totals -2, 0 and 2, and at D = 1 only those of total 0 are
    # in the box; closed_form reads the same patched kernel
    two_point = correspondence._two_point
    monkeypatch.setattr(correspondence, "_two_point", lambda model, alpha, i, j: two_point(model, alpha, i, j)
                        + RationalFn(MultiPoly.linear(alpha, i, j, 1), {}))
    for cutoff in (1, 2, 3):
        spec = VevSpec.standard_A("fermion", 2, cutoff)
        got = correspondence._wick_series(spec)
        assert got == expand(correspondence.closed_form("A", "determinant", 2), spec.variables, cutoff)
        assert {sum(e) for e in got.exponents()} == ({0} if cutoff == 1 else {-2, 0, 2}), cutoff


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


@pytest.mark.parametrize("model,n,words", [("A", 2, 6), ("B", 4, 16)])
def test_locality_passes_on_every_word(model, n, words):
    rep = check_identity(f"locality-{model}", {"n": n, "cutoff": 4})
    assert rep.passed, rep.witnesses
    assert rep.witnesses["words"] == str(words)
    assert int(rep.witnesses["coefficients"]) > 0


def test_locality_word_sets_of_verify_locality_n_3():
    assert len(correspondence._locality_words("A", 3)) == 20
    assert len(correspondence._locality_words("B", 6)) == 64


def test_locality_fails_on_the_product_form_in_sorted_symbol_order(monkeypatch):
    # known false: sorting the word drops the sign of reordering it
    product_form = correspondence._product_form

    def sorted_order(spec):
        word = tuple(sorted(spec.word, key=lambda field: field[0]))
        return product_form(VevSpec(spec.model, spec.side, word, spec.cutoff))

    monkeypatch.setattr(correspondence, "_product_form", sorted_order)
    rep = check_identity("locality-A", {"n": 2, "cutoff": 4})
    assert rep.status == "fail"
    # the whole witness, monomial and both coefficients, as tuple keys gave it
    assert rep.witnesses["first_difference"] == (
        "phi(z1) psi(z2) phi(z3) psi(z4): fermion_vev vs product_form at z1^-4*z2^-4*z3^3*z4^3: 1 vs -1")


def test_locality_fails_on_a_mixed_pair_without_the_twist(monkeypatch):
    # known false: phi(x_i) Tphi(x_j) paired by K(x_i, x_j), not K(x_i, -x_j)
    wick_series = correspondence._wick_series

    def untwisted(spec):
        word = tuple(("phi", var) for _, var in spec.word)
        return wick_series(VevSpec(spec.model, spec.side, word, spec.cutoff))

    monkeypatch.setattr(correspondence, "_wick_series", untwisted)
    rep = check_identity("locality-B", {"n": 4, "cutoff": 4})
    assert rep.status == "fail"
    # the whole witness, monomial and both coefficients, as tuple keys gave it
    assert rep.witnesses["first_difference"] == (
        "phi(z1) phi(z2) phi(z3) Tphi(z4): fermion_vev vs wick_form at z1^-4*z2^-3*z3^4*z4^3: -4 vs 4")


@pytest.mark.parametrize("model", ["A", "B"])
def test_locality_fails_on_an_expansion_in_the_reversed_region(model, monkeypatch):
    # known false: the region |z_n| >> .. >> |z_1|, reported in word order
    def reversed_region(f, ordering, cutoff):
        s = expand(f, tuple(reversed(ordering)), cutoff)
        return LaurentSeries.from_exponents(ordering, cutoff, {e[::-1]: c for e, c in s.exponents().items()})

    monkeypatch.setattr(correspondence, "expand", reversed_region)
    rep = check_identity(f"locality-{model}", {"n": 2 if model == "A" else 4, "cutoff": 4})
    assert rep.status == "fail"
    assert "fermion_vev vs wick_form at " in rep.witnesses["first_difference"]


def test_sides_come_in_comparison_order():
    sides = correspondence._sides(VevSpec.standard("B", "fermion", 2, 3))
    assert list(sides) == ["fermion_vev", "boson_vev", "wick_form", "product_form"]
    fermion, *others = (side() for side in sides.values())
    assert fermion.terms and others == [fermion] * 3


# a negated engine fails exactly the series rows that compare its side, and
# each failure starts with the witness labels of the two sides it compared
_SERIES_ROWS = ["det-formula-A", "pf-formula-B", "product-formula-A", "product-formula-B",
                "vev-match-A", "vev-match-B"]


@pytest.mark.parametrize("engine, failing", [
    ("_wick_series", {"det-formula-A": "mode_series vs determinant_series at ",
                      "pf-formula-B": "mode_series vs pfaffian_series at ",
                      "vev-match-B": "fermion_series vs pfaffian_series at "}),
    ("vev_boson", {"product-formula-A": "vertex_series vs product_series at ",
                   "product-formula-B": "vertex_series vs product_series at ",
                   "vev-match-A": "fermion_series vs boson_series at ",
                   "vev-match-B": "fermion_series vs boson_series at "}),
])
def test_series_rows_name_the_broken_side(engine, failing, monkeypatch):
    broken = getattr(correspondence, engine)
    monkeypatch.setattr(correspondence, engine, lambda spec: broken(spec).scale(-1))
    for name in _SERIES_ROWS:
        rep = check_identity(name, {"n": 2 if name.endswith("A") else 4, "cutoff": 4})
        if name in failing:
            assert rep.status == "fail", name
            assert rep.witnesses["first_difference"].startswith(failing[name]), name
        else:
            assert rep.passed, name


@pytest.mark.parametrize("model, n", [("A", 2), ("B", 4)])
def test_vev_match_reuses_the_boson_vev_of_product_formula(model, n, monkeypatch):
    # both rows ask for the boson VEV of one standard spec, computed once
    calls = []

    def counted(op, vectors, cutoff, wmax, guard):
        calls.append(op)
        return vertex_terms(op, vectors, cutoff, wmax, guard)

    vertex_terms = correspondence.vertex_terms
    monkeypatch.setattr(correspondence, "vertex_terms", counted)
    correspondence._boson_series.cache_clear()
    assert check_identity(f"product-formula-{model}", {"n": n, "cutoff": 5}).passed
    assert calls
    calls.clear()
    assert check_identity(f"vev-match-{model}", {"n": n, "cutoff": 5}).passed
    assert not calls


@pytest.mark.parametrize("model", ["A", "B"])
def test_heisenberg_fermions_runs_156_cases(model):
    rep = check_identity(f"heisenberg-fermions-{model}")
    assert rep.passed, rep.witnesses.get("first_difference")
    assert rep.witnesses["cases"] == "156"


@pytest.mark.parametrize("side, plain, twisted", [("fermion", "phi", "Tphi"), ("boson", "+", "-")])
def test_twist_negates_the_odd_powers_of_its_variable(side, plain, twisted):
    # phi(-z) = (T phi)(z) and e^alpha(-z): switching position i to the
    # twisted field multiplies each term by (-1)^(e_i), e_i its power of z_i
    cases = 0
    for symbols in product((plain, twisted), repeat=4):
        word = tuple((sym, f"z{k + 1}") for k, sym in enumerate(symbols))
        got = vev(VevSpec("B", side, word, 5))
        for i, (sym, var) in enumerate(word):
            if sym == plain:
                switched = vev(VevSpec("B", side, word[:i] + ((twisted, var),) + word[i + 1:], 5))
                want = {e: c * (-1) ** e[i] for e, c in got.exponents().items()}
                assert switched.exponents() == want, (symbols, i)
                cases += 1
    assert cases == 32


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


def test_ope_residues_stop_at_the_type_A_residue(monkeypatch):
    # doubling only the type A kernel fails the first comparison; the type B
    # residue and its shift are recorded before it
    two_point = correspondence._two_point

    def doubled_A(model, alpha, i, j):
        kernel = two_point(model, alpha, i, j)
        return RationalFn(kernel.num.scale(2), kernel.den) if model == "A" else kernel

    monkeypatch.setattr(correspondence, "_two_point", doubled_A)
    rep = check_identity("ope-residues", {"grade": 2})
    assert rep.status == "fail"
    assert rep.witnesses == {
        "type_A_residue": "2",
        "type_B_residue": "-2*w",
        "shifted_residue": "-2",
        "first_difference": "Res_{z=w} of the type A two-point function is not 1",
    }


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


def _size_grid(check):
    """The sizes of ``check`` from each MIN_SIZES value up to that value + 2,
    except that type B words have 2, 4 or 6 points, a type A word of n pairs
    runs only at cutoffs >= n (below, it has no terms), and locality keeps
    its 2 pairs or 4 points."""
    axes = {}
    for key in check.sizes:
        if key == "n" and check.target == "locality":
            axes[key] = [2 if check.model == "A" else 4]
        elif key == "n" and check.model == "B":
            axes[key] = [2, 4, 6]
        elif key in MIN_SIZES:
            axes[key] = range(MIN_SIZES[key], MIN_SIZES[key] + 3)
    grid = [dict(zip(axes, values)) for values in product(*axes.values())]
    return [p for p in grid if not (check.model == "A" and "cutoff" in p and p.get("n", 0) > p["cutoff"])]


@pytest.mark.parametrize("check", CHECKS, ids=[check.name for check in CHECKS])
def test_sizes_up_to_two_above_their_minimum_pass(check):
    # the explicit minimum cases above pin MIN_SIZES; this sweep, which starts
    # from MIN_SIZES, covers every row and the sizes just above
    for params in _size_grid(check):
        rep = check_identity(check.name, params)
        assert rep.passed, (params, rep.witnesses.get("first_difference"))


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
    for check in CHECKS:
        rep = check_identity(check.name, {**check.quick, "cutoff": 3, "seed": 5})
        assert rep.passed and rep.params["seed"] == 5, check.name


def test_type_b_series_checks_run_at_least_four_points():
    # at 2 points a Pfaffian or the type B product form has a single kernel,
    # so a series with its signs dropped could still pass
    series = [c for c in CHECKS if c.model == "B" and c.run.__qualname__.startswith("_series_check.")]
    assert sorted(c.name for c in series) == ["pf-formula-B", "product-formula-B", "vev-match-B"]
    for check in series:
        assert check.sizes["n"] >= 4 and check.quick["n"] >= 4, check.name


def test_type_b_checks_need_an_even_number_of_points():
    with pytest.raises(ValueError, match="even number of points"):
        check_identity("pf-formula-B", {"n": 3, "cutoff": 2})


def test_missing_sizes_come_from_the_check_table():
    from bfcorr.correspondence import DEFAULT_CUTOFF

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
