"""Rational functions with restricted pole loci, kept as built, and residues."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from bfcorr.poly import MultiPoly, collect
from bfcorr.ratfun import RationalFn, diff_factor, factor_poly, residue_at, sum_factor
from bfcorr.series import LaurentSeries, expand
from conftest import poly_value, random_poly, random_ratfun, rf

AL = ("z", "w")


def test_reduce_cancels_common_factor():
    # equality cross-multiplies: a form whose atoms divide its numerator
    # equals its lowest terms, and differs from any other function
    assert rf("(z^2 - w^2) / ((z+w)^1)", AL) == rf("z - w", AL)
    assert rf("(z^2 - w^2) / ((z+w)^1)", AL) != rf("z + w", AL)
    assert rf("(z^2 - w^2) / ((z+w)^2)", AL) != rf("z - w", AL)


def test_reduce_full_cancellation():
    # every atom divides the numerator: the function equals a constant
    assert rf("(z^2 - w^2) / ((z-w)^1 (z+w)^1)", AL) == rf("1", AL)
    assert rf("(z^2 - w^2) / ((z-w)^1 (z+w)^1)", AL) != rf("-1", AL)


def test_a_function_keeps_the_form_it_was_built_with():
    f = rf("(z^2 - w^2) / ((z-w)^1 (z+w)^1)", AL)
    assert (f.num, f.den) == (rf("z^2 - w^2", AL).num, {("diff", 0, 1): 1, ("sum", 0, 1): 1})
    # a product keeps both sides' atoms; a sum keeps the common denominator
    g = rf("(z - w) / ((z+w)^1)", AL) * rf("(z + w) / ((z-w)^1)", AL)
    assert (g.num, g.den) == (f.num, f.den)
    h = rf("(1) / ((z-w)^1)", AL) + rf("(-1) / ((z-w)^1)", AL)
    assert h.is_zero() and h.den == {("diff", 0, 1): 1}


def test_add_common_denominator():
    got = rf("(1) / ((z-w)^1)", AL) + rf("(1) / ((z+w)^1)", AL)
    assert got == rf("(2*z) / ((z-w)^1 (z+w)^1)", AL)


def test_mul_inverse_pair():
    got = rf("(z - w) / ((z+w)^1)", AL) * rf("(z + w) / ((z-w)^1)", AL)
    assert got == rf("1", AL)


def test_add_zero_is_identity(rng):
    for _ in range(10):
        f = random_ratfun(rng)
        assert f + RationalFn.zero(AL) == f


def test_residue_simple_pole_type_B():
    # the type B two-point function has Res_{z=-w} equal to -2w
    f = rf("(z - w) / ((z+w)^1)", AL)
    assert residue_at(f, 0, -1, 1) == rf("-2*w", AL)


def test_residue_simple_pole_type_A():
    assert residue_at(rf("(1) / ((z-w)^1)", AL), 0, 1, 1) == rf("1", AL)


def test_residue_regular_point_is_zero():
    assert residue_at(rf("(1) / ((z-w)^1)", AL), 0, -1, 1).is_zero()


def test_residue_is_the_taylor_coefficient():
    # Res_{z=s*w} p/(z-s*w)^m is the (z-s*w)^(m-1) Taylor coefficient of p at
    # z = s*w: z^a = (s*w + (z-s*w))^a gives C(a, m-1) (s*w)^(a-m+1)
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, AL, max_deg=4)
        for m in (1, 2, 3):
            for s, atom in ((1, diff_factor(0, 1)[0]), (-1, sum_factor(0, 1))):
                taylor = collect(((0, a - m + 1 + b), c * comb(a, m - 1) * s ** (a - m + 1))
                                 for (a, b), c in p.terms.items() if a >= m - 1)
                got = residue_at(RationalFn(p, {atom: m}), 0, s, 1)
                assert got == RationalFn.from_poly(MultiPoly(AL, taylor)), (p, m, s)


def test_residue_higher_order_pole():
    # f = w / (z-w)^2: Res_{z=w} f = d/dz w = 0; with one power of (z-w): w
    f = rf("(w) / ((z-w)^2)", AL)
    assert residue_at(f, 0, 1, 1).is_zero()
    assert residue_at(f * rf("z - w", AL), 0, 1, 1) == rf("w", AL)


def test_residue_on_unreduced_input():
    # the pole order is read off den, so (z-w)/(z-w)^2 counts a double pole
    # at z = w where the true pole is simple; the derivative formula holds
    # for any order at least the true one
    assert residue_at(rf("(z - w) / ((z-w)^2)", AL), 0, 1, 1) == rf("1", AL)
    assert residue_at(rf("(z + w) / ((z+w)^2)", AL), 0, -1, 1) == rf("1", AL)
    assert residue_at(rf("(z - w) / ((z-w)^1)", AL), 0, 1, 1).is_zero()
    assert residue_at(rf("(w*z^2 - w^3) / ((z-w)^2 (z+w)^1)", AL), 0, 1, 1) == rf("w", AL)


def test_substitute_maps_atoms():
    f = rf("(1) / ((z-w)^1)", AL)
    g = f.substitute(0, 1, -1)  # z := -w gives 1/(-2w)
    assert g == rf("(-1/2) / ((w)^1)", AL)
    with pytest.raises(ZeroDivisionError):
        f.substitute(0, 1, 1)


def test_substitute_keeps_integer_numerators():
    # an atom rescaled by c^e = +-1 divides the numerator as an int: z := w
    # takes (z + 2w)/((z + v) w) to 3/(w + v), and the mixed type B kernel
    # (a + b)/(a - b) of the locality checks keeps int coefficients too
    g = rf("(z + 2*w) / ((z+v)^1 (w)^1)", ("z", "w", "v")).substitute(0, 1, 1)
    assert [(c, type(c)) for c in g.num.terms.values()] == [(3, int)]
    kernel = rf("(a - b) / ((a+b)^1)", ("a", "b")).substitute(1, 1, -1)
    assert kernel == rf("(a + b) / ((a-b)^1)", ("a", "b"))
    assert {type(c) for c in kernel.num.terms.values()} == {int}


def test_diff_quotient_rule():
    f = rf("(1) / ((z-w)^1)", AL)
    df = f.diff(0)
    assert df == RationalFn(MultiPoly.const(AL, -1), {("diff", 0, 1): 2})


def test_alphabet_mismatch_raises():
    with pytest.raises(ValueError):
        rf("z", ("z", "w")) + rf("z", ("z", "v"))


AL3 = ("z", "w", "v")


def _random_ratfun3(rng):
    """A random function over z, w, v with var, diff and sum poles."""
    num = random_poly(rng, AL3)
    if num.is_zero():
        num = MultiPoly.const(AL3, 1)
    den = {}
    for kind in rng.sample(["var", "diff", "sum"] * 2, rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(3), 2))
        atom = ("var", i) if kind == "var" else (kind, i, j)
        den[atom] = den.get(atom, 0) + rng.randint(1, 2)
    return RationalFn(num, den)


def _atom_value(atom, q):
    """A pole atom's linear form at the point q, written out by hand."""
    if atom[0] == "var":
        return q[atom[1]]
    return q[atom[1]] + (q[atom[2]] if atom[0] == "sum" else -q[atom[2]])


def _value(f, q):
    """f at the rational point q, written out by hand: ZeroDivisionError
    on a pole."""
    value = poly_value(f.num, q)
    for atom, e in f.den.items():
        value /= _atom_value(atom, q) ** e
    return value


@pytest.mark.parametrize("i, j, sign", [(i, j, s) for i in range(3) for j in range(3) for s in (1, -1)])
def test_substitute_agrees_with_evaluation(rng, i, j, sign):
    for _ in range(15):
        f = _random_ratfun3(rng)
        points = [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in AL3] for _ in range(4)]
        moved = [[sign * p[j] if k == i else x for k, x in enumerate(p)] for p in points]
        if any(all(_atom_value(atom, q) == 0 for q in moved) for atom in f.den):
            with pytest.raises(ZeroDivisionError):
                f.substitute(i, j, sign)
            continue
        g = f.substitute(i, j, sign)
        compared = 0
        for p, q in zip(points, moved):
            try:
                value = _value(f, q)
            except ZeroDivisionError:
                continue
            assert _value(g, p) == value
            compared += 1
        assert compared


@pytest.mark.parametrize("i", range(3))
def test_diff_is_the_termwise_derivative_of_the_expansion(rng, i):
    for _ in range(12):
        f = _random_ratfun3(rng)
        ordering = tuple(rng.sample(AL3, 3))
        D = rng.randint(0, 4)
        k = ordering.index(AL3[i])
        derivative = {e[:k] + (e[k] - 1,) + e[k + 1:]: e[k] * c
                      for e, c in expand(f, ordering, D + 1).exponents().items()}
        assert expand(f.diff(i), ordering, D) == LaurentSeries.from_exponents(ordering, D, derivative)


def test_expand_ignores_a_common_factor(rng):
    # p*q/(den*q) and p/den expand alike, for q a power of any atom kind, in
    # every region order and at two cutoffs
    compared = 0
    for _ in range(20):
        f = _random_ratfun3(rng)
        for kind in ("var", "diff", "sum"):
            i, j = sorted(rng.sample(range(3), 2))
            atom, e = (("var", i) if kind == "var" else (kind, i, j)), rng.randint(1, 2)
            g = RationalFn(f.num * factor_poly(AL3, atom) ** e, {**f.den, atom: f.den.get(atom, 0) + e})
            for ordering in permutations(AL3):
                for cutoff in (1, 3):
                    want = expand(f, ordering, cutoff)
                    assert expand(g, ordering, cutoff) == want, (f, atom, e, ordering, cutoff)
                    compared += bool(want.terms)
    assert compared > 300
