"""The linear-combination core shared by polynomials, Laurent series and
Fock vectors: one arithmetic, one linear extension, one coefficient gate."""

import random
from fractions import Fraction

import pytest

from bfcorr.correspondence import VevSpec, _wick_series, vev_fermion
from bfcorr.fields import phi_B
from bfcorr.fock import VACUUM_A, FockVector, _apply_phi_B, states_B
from bfcorr.poly import MultiPoly, collect, frame_codec, poly_codec
from bfcorr.ratfun import RationalFn, sum_factor, var_factor
from bfcorr.series import LaurentSeries, expand

AL = ("z", "w")
D = 3
STATES = states_B(6)


def _coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _int_coeff(rng):
    return rng.randint(-4, 4)


def _poly(rng, coeff=_coeff):
    return MultiPoly(AL, {(rng.randint(0, 3), rng.randint(0, 3)): coeff(rng) for _ in range(4)})


def _series(rng, coeff=_coeff):
    return LaurentSeries.from_exponents(AL, D, {(rng.randint(-D, D), rng.randint(-D, D)): coeff(rng)
                                                for _ in range(5)})


def _vector(rng, coeff=_coeff):
    return FockVector((rng.choice(STATES), coeff(rng)) for _ in range(4))


def _exponent_map(e):
    """A map on exponent pairs with colliding images and an empty image."""
    if e[0] == e[1]:
        return ()
    return (((e[1], e[0]), 2), ((max(e), max(e)), Fraction(-1, 2)))


def _packed_map(codec):
    """_exponent_map on the keys packed by ``codec``."""
    return lambda k: [(codec.pack(e), c) for e, c in _exponent_map(codec.decode(k))]


KINDS = {
    "poly": (_poly, _packed_map(poly_codec(len(AL)))),
    "series": (_series, _packed_map(frame_codec(len(AL), D))),
    "fock": (_vector, lambda s: [*_apply_phi_B(1, s), *_apply_phi_B(-2, s)]),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_sum_then_difference_returns_the_first(kind, rng):
    make, _ = kind
    for _ in range(30):
        a, b = make(rng), make(rng)
        assert (a + b) - b == a
        assert a - a == a.scale(0)


def test_a_zero_combination_is_falsy(kind, rng):
    make, _ = kind
    for _ in range(10):
        a = make(rng)
        for zero in (a - a, a + (-a), a.scale(0)):
            assert not zero and zero.is_zero()
        assert bool(a) == (not a.is_zero()) == bool(a.terms)
    for empty in (FockVector(), LaurentSeries(("z",), 2, {}), MultiPoly.zero(AL)):
        assert not empty and empty.is_zero()


def test_hash_agrees_with_equality(kind, rng):
    make, _ = kind
    for _ in range(30):
        a, b = make(rng), make(rng)
        again = (a + b) - b
        assert again == a and hash(again) == hash(a)
        assert len({a, again, a.scale(1)}) == 1


def test_apply_is_linear(kind, rng):
    make, action = kind
    for _ in range(30):
        a, b, c = make(rng), make(rng), _coeff(rng)
        assert (a + b).apply(action) == a.apply(action) + b.apply(action)
        assert a.scale(c).apply(action) == a.apply(action).scale(c)


def _all_int(combination):
    return all(type(c) is int for c in combination.terms.values())


def test_int_coefficients_stay_int(kind, rng):
    make, action = kind

    def int_action(k):
        return [(k2, x) for k2, x in action(k) if type(x) is int]

    for _ in range(20):
        a, b = make(rng, _int_coeff), make(rng, _int_coeff)
        for c in (a, b, a + b, a - b, -a, a.scale(-3), a.apply(int_action)):
            assert _all_int(c)
        if isinstance(a, MultiPoly):
            assert _all_int(a * b) and _all_int(a ** 3)


def test_an_int_and_the_equal_fraction_give_equal_combinations(kind):
    make, _ = kind
    for seed in range(20):
        a = make(random.Random(seed), _int_coeff)
        b = make(random.Random(seed), lambda r: Fraction(_int_coeff(r)))
        assert _all_int(a) and (b.is_zero() or not _all_int(b))
        assert a == b and hash(a) == hash(b)


def test_integer_expansions_and_vevs_keep_int_coefficients():
    f = RationalFn(MultiPoly(AL, {(1, 0): 2, (0, 1): -1}), {sum_factor(0, 1): 2, var_factor(0): 1})
    specs = [VevSpec.standard_A("fermion", 2, 3), VevSpec.standard_B("fermion", 4, 3)]
    for series in [expand(f, AL, 4), *map(vev_fermion, specs), *map(_wick_series, specs)]:
        assert series.terms and _all_int(series)


def test_collect_sums_like_keys_and_drops_zeros():
    assert collect([("x", 1), ("y", 2), ("x", -1), ("z", 0), ("y", 1)]) == {"y": 3}


def test_a_frame_mismatch_raises():
    p = MultiPoly(AL, {(1, 0): 1})
    with pytest.raises(ValueError):
        p + MultiPoly(("w", "z"), {(1, 0): 1})
    s = LaurentSeries.from_exponents(AL, D, {(1, 0): 1})
    for other in (LaurentSeries.from_exponents(("w", "z"), D, {(1, 0): 1}),
                  LaurentSeries.from_exponents(AL, D + 1, {(1, 0): 1})):
        assert s != other
        with pytest.raises(ValueError):
            s - other
        with pytest.raises(ValueError):
            s.first_difference(other)


def test_a_polynomial_never_equals_a_series():
    p = MultiPoly(AL, {(1, 2): 3})
    s = LaurentSeries.from_exponents(AL, D, {(1, 2): 3})
    assert p.exponents() == s.exponents()
    assert p != s and s != p
    with pytest.raises(ValueError):
        p + s


@pytest.mark.parametrize("build", [
    lambda c: FockVector.basis(VACUUM_A, c),
    lambda c: FockVector({VACUUM_A: c}),
    lambda c: FockVector.basis(VACUUM_A).scale(c),
    lambda c: MultiPoly.const(AL, c),
    lambda c: MultiPoly.var(AL, "z").scale(c),
    lambda c: LaurentSeries(AL, D, {0: c}),
    lambda c: RationalFn.const(AL, 1).scale(c),
    lambda c: phi_B().scaled(c),
], ids=["basis", "fock-init", "fock-scale", "const", "poly-scale", "series", "ratfun-scale",
        "field-scaled"])
def test_a_float_coefficient_is_refused(build):
    with pytest.raises(TypeError):
        build(0.1)
    build(Fraction(1, 10))
    build("1/10")
    build(3)


def test_an_exact_coefficient_keeps_its_value():
    assert FockVector.basis(VACUUM_A, Fraction(1, 10)).terms == {VACUUM_A: Fraction(1, 10)}
    assert MultiPoly.const(AL, "1/10") == MultiPoly.const(AL, Fraction(1, 10))
    halves = FockVector([(VACUUM_A, Fraction(1, 4)), (VACUUM_A, "1/4")])
    assert halves.terms == {VACUUM_A: Fraction(1, 2)}
