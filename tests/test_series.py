"""Region-ordered Laurent expansion: examples, exactness, ring laws."""

import random
from fractions import Fraction

import pytest

from bfcorr.ratfun import RationalFn
from bfcorr.series import LaurentSeries, expand, raw_mul
from conftest import random_ratfun, rf

AL = ("z", "w")


def test_expand_geometric():
    s = expand(rf("(1) / ((z-w)^1)", AL), ["z", "w"], 3)
    assert s.terms == {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1}


def test_expand_two_point_B_against_convolution_oracle():
    # oracle: (z-w)/(z+w) = (1 - t) * sum_k (-t)^k with t = w/z,
    # multiplied out term by term in the single ratio t
    oracle = {}
    for k in range(0, 8):
        oracle[k] = oracle.get(k, 0) + (-1) ** k
        oracle[k + 1] = oracle.get(k + 1, 0) - (-1) ** k
    s = expand(rf("(z - w) / ((z+w)^1)", AL), ["z", "w"], 2)
    assert s.terms == {(-k, k): Fraction(c) for k, c in oracle.items()
                       if c and k <= 2}
    assert s.terms == {(0, 0): 1, (-1, 1): -2, (-2, 2): 2}


def test_expand_opposite_region():
    # exponent tuples follow the expansion ordering, here (w, z)
    s = expand(rf("(1) / ((z-w)^1)", AL), ["w", "z"], 2)
    assert s.terms == {(-1, 0): -1, (-2, 1): -1}


def test_expand_polynomial_is_itself():
    s = expand(rf("z^2 - 2*z*w + w^2", AL), ["z", "w"], 4)
    assert s.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_expand_missing_variable_errors():
    with pytest.raises(ValueError):
        expand(rf("(1) / ((z-w)^1)", AL), ["z"], 3)


def test_expand_var_pole():
    s = expand(rf("(w) / ((z)^2)", AL), ["z", "w"], 3)
    assert s.terms == {(-2, 1): 1}


def test_cutoff_box_truncation():
    # exponents below -D or total degree beyond D are dropped
    s = expand(rf("(1) / ((z-w)^1)", AL), ["z", "w"], 5)
    assert all(e[0] >= -5 and abs(sum(e)) <= 5 for e in s.terms)
    assert (-5, 4) in s.terms and (-6, 5) not in s.terms


MARGIN = 8  # enough headroom for 2-variable test functions, see below


def _mul_to_cutoff(f, g, ordering, cutoff):
    """expand(f)*expand(g) with margin, truncated back: the dropped tails
    of a cutoff-(D+8) expansion cannot reach the cutoff-D box for these
    small functions (numerator degree <= 3 per variable, total denominator
    degree <= 4, poles among z, w, z-w, z+w)."""
    sf = expand(f, ordering, cutoff + MARGIN)
    sg = expand(g, ordering, cutoff + MARGIN)
    return LaurentSeries(ordering, cutoff, raw_mul(sf.terms, sg.terms))


def test_expand_is_multiplicative_to_cutoff(rng):
    for _ in range(100):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        direct = expand(f * g, AL, 5)
        assert _mul_to_cutoff(f, g, AL, 5) == direct


@pytest.mark.parametrize("text", ["(1) / ((z-w)^1)", "(1) / ((z+w)^1)", "(1) / ((z)^1)"])
def test_expand_times_inverse_is_one(text):
    f = rf(text, AL)
    inv = RationalFn(f.denominator_poly())
    one = expand(rf("1", AL), AL, 6)
    assert _mul_to_cutoff(f, inv, AL, 6) == one


def test_series_addition_and_comparability():
    a = expand(rf("(1) / ((z-w)^1)", AL), AL, 4)
    b = expand(rf("(-1) / ((z-w)^1)", AL), AL, 4)
    assert (a + b).is_zero()
    with pytest.raises(ValueError):
        a + expand(rf("1", AL), AL, 5)


def test_restrict_matches_direct_expansion(rng):
    for _ in range(20):
        f = random_ratfun(rng)
        assert expand(f, AL, 7).restrict(4) == expand(f, AL, 4)


def test_first_difference_is_lexicographic_minimum():
    a = LaurentSeries(AL, 3, {(0, 0): 1, (1, 1): 2})
    b = LaurentSeries(AL, 3, {(0, 0): 1, (1, 1): 3, (-1, 0): 5})
    assert a.first_difference(b) == (-1, 0)


def test_three_variable_region_chain():
    # 1/((z-w)(w-v)) in |z| >> |w| >> |v|; check against the double
    # geometric sum z^-1 w^-1 sum_{a,b} (w/z)^a (v/w)^b
    alpha = ("z", "w", "v")
    f = rf("(1) / ((z-w)^1 (w-v)^1)", alpha)
    s = expand(f, alpha, 4)
    expected = {}
    for a in range(0, 12):
        for b in range(0, 12):
            e = (-1 - a, a - 1 - b, b)
            if all(x >= -4 for x in e) and abs(sum(e)) <= 4:
                expected[e] = Fraction(1)
    assert s.terms == expected
