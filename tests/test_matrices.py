"""Exact determinants and Pfaffians over rational-function entries."""

import random
from itertools import permutations

import pytest

from bfcorr.matrices import det_expansion, determinant, pf_expansion, pfaffian
from bfcorr.poly import MultiPoly
from bfcorr.ratfun import RationalFn, diff_factor, rf_equal
from conftest import random_ratfun, rf

AL = ("z", "w")


def det_permutation_sum(m):
    """Brute-force oracle: sum over permutations of signed products."""
    n = len(m)
    alphabet = m[0][0].alphabet
    total = RationalFn.zero(alphabet)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = RationalFn.const(alphabet, (-1) ** inv)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def test_det_1x1():
    f = rf("(1) / ((z-w)^1)", AL)
    assert determinant([[f]]) == f


def test_det_identity_3x3():
    one, zero = rf("1", AL), RationalFn.zero(AL)
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert determinant(m) == one


def test_det_2x2_cauchy_matches_hand_oracle():
    # cofactor expansion by hand: 1/((z1-w1)(z2-w2)) - 1/((z1-w2)(z2-w1))
    # = -(z1-z2)(w1-w2) / prod(z_i - w_j)
    alpha = ("z1", "z2", "w1", "w2")
    def inv(i, j):
        atom, s = diff_factor(i, j)
        return RationalFn(MultiPoly.const(alpha, s), {atom: 1})
    m = [[inv(0, 2), inv(0, 3)], [inv(1, 2), inv(1, 3)]]
    expected = rf(
        "(-1*z1*w1 + z1*w2 + z2*w1 - z2*w2)"
        " / ((z1-w1)^1 (z1-w2)^1 (z2-w1)^1 (z2-w2)^1)",
        alpha,
    )
    assert determinant(m) == expected


def test_det_against_permutation_sum(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        m = [[random_ratfun(rng, max_den=1) for _ in range(n)] for _ in range(n)]
        assert rf_equal(determinant(m), det_permutation_sum(m))


def _int_mac(acc, sign, a, b):
    return acc + sign * a * b


def _int_det(m):
    return det_expansion(m, 1, int, _int_mac)


def _int_pf(m):
    return pf_expansion(m, 1, int, _int_mac)


def test_det_expansion_over_integers_matches_permutation_sum():
    rng = random.Random(4242)
    for n in range(1, 7):
        for _ in range(10):
            m = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(n)] for _ in range(n)]
            total = 0
            for perm in permutations(range(n)):
                inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
                prod = (-1) ** inv
                for i in range(n):
                    prod *= m[i][perm[i]]
                total += prod
            assert _int_det(m) == total


def test_pf_expansion_over_integers_squares_to_det():
    rng = random.Random(4243)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = rng.choice([0, 1, -1, 2, -3])
                    m[j][i] = -m[i][j]
            assert _int_pf(m) ** 2 == _int_det(m)
    # the standard symplectic form has Pf = 1
    j4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert _int_pf(j4) == 1


def test_pfaffian_2x2():
    a = rf("z", AL)
    zero = RationalFn.zero(AL)
    assert pfaffian([[zero, a], [-a, zero]]) == a


def test_pfaffian_zero_matrix():
    zero = RationalFn.zero(AL)
    m = [[zero] * 4 for _ in range(4)]
    assert pfaffian(m).is_zero()


def test_pfaffian_4x4_schur_matrix_is_product():
    alpha = tuple(f"z{i}" for i in range(1, 5))
    m = [[RationalFn.zero(alpha) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = rf(f"(z{i+1} - z{j+1}) / ((z{i+1}+z{j+1})^1)", alpha)
            m[i][j] = v
            m[j][i] = -v
    prod = rf("1", alpha)
    for i in range(4):
        for j in range(i + 1, 4):
            prod = prod * rf(f"(z{i+1} - z{j+1}) / ((z{i+1}+z{j+1})^1)", alpha)
    assert rf_equal(pfaffian(m), prod)


def _random_antisymmetric(rng, n):
    m = [[RationalFn.zero(AL) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = random_ratfun(rng, max_den=1)
            m[i][j] = v
            m[j][i] = -v
    return m


@pytest.mark.parametrize("size", [2, 4])
def test_pfaffian_squared_is_determinant(size):
    rng = random.Random(991 + size)
    for _ in range(50):
        m = _random_antisymmetric(rng, size)
        pf = pfaffian(m)
        assert rf_equal(pf * pf, determinant(m))


def test_pfaffian_input_validation():
    a = rf("z", AL)
    zero = RationalFn.zero(AL)
    with pytest.raises(ValueError):
        pfaffian([[zero, a], [a, zero]])  # not antisymmetric
    with pytest.raises(ValueError):
        pfaffian([[zero]])  # odd size
