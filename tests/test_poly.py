"""Sparse polynomial arithmetic and the exact quotient by a pole atom."""

from fractions import Fraction

import pytest

from bfcorr.poly import MultiPoly
from bfcorr.ratfun import _divide_if_possible, diff_factor, factor_poly, sum_factor, var_factor
from conftest import poly_value

AL = ("z", "w")


def test_add_mul_basic():
    z = MultiPoly.var(AL, "z")
    w = MultiPoly.var(AL, "w")
    p = (z + w) * (z - w)
    assert p == MultiPoly(AL, {(2, 0): 1, (0, 2): -1})
    assert (p - p).is_zero()
    assert p * MultiPoly.zero(AL) == MultiPoly.zero(AL)


def test_no_zero_coefficients_stored():
    p = MultiPoly(AL, {(1, 0): 1}) + MultiPoly(AL, {(1, 0): -1})
    assert p.terms == {}


def test_pow_matches_repeated_mul():
    p = MultiPoly.linear(AL, 0, 1, 1)  # z + w
    q = MultiPoly.const(AL, 1)
    for _ in range(4):
        q = q * p
    assert p ** 4 == q
    assert p ** 0 == MultiPoly.const(AL, 1)


AL3 = ("z", "w", "x")
ATOMS = [var_factor(0), var_factor(2), diff_factor(0, 1)[0], sum_factor(0, 1),
         diff_factor(1, 2)[0], sum_factor(0, 2)]


def _random_poly(rng):
    """Four random terms over AL3, with Fraction coefficients among them."""
    return MultiPoly(AL3, {tuple(rng.randint(0, 3) for _ in AL3): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(4)})


def _at_root(p, atom):
    """p where the atom vanishes: z_i = 0, z_i = z_j (diff) or z_i = -z_j (sum)."""
    if atom[0] == "var":
        return MultiPoly(p.alphabet, {e: c for e, c in p.terms.items() if not e[atom[1]]})
    return p.substitute(atom[1], atom[2], 1 if atom[0] == "diff" else -1)


@pytest.mark.parametrize("atom", ATOMS, ids=lambda atom: "-".join(map(str, atom)))
def test_exact_quotient_undoes_the_product(atom, rng):
    factor = factor_poly(AL3, atom)
    for _ in range(40):
        q = _random_poly(rng)
        assert _divide_if_possible(factor * q, atom) == q


@pytest.mark.parametrize("atom", ATOMS, ids=lambda atom: "-".join(map(str, atom)))
def test_exact_quotient_is_none_exactly_off_the_root(atom, rng):
    factor = factor_poly(AL3, atom)
    divides = set()
    for _ in range(40):
        for p in (_random_poly(rng), factor * _random_poly(rng)):
            quot = _divide_if_possible(p, atom)
            assert (quot is None) == bool(_at_root(p, atom))
            if quot is not None:
                assert quot * factor == p
            divides.add(quot is not None)
    assert divides == {True, False}


def test_diff_and_eval():
    p = MultiPoly(AL, {(3, 1): 2})  # 2 z^3 w
    assert p.diff(0) == MultiPoly(AL, {(2, 1): 6})
    assert poly_value(p, [Fraction(1, 2), Fraction(3)]) == Fraction(3, 4)


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        MultiPoly(AL, {(1,): 1})
