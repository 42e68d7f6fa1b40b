import random
from fractions import Fraction
from math import prod

import pytest

from bfcorr.poly import MultiPoly
from bfcorr.ratfun import RationalFn, diff_factor, sum_factor, var_factor
from bfcorr.textio import parse_rational


def rf(text, alphabet):
    """Shorthand: build a RationalFn from its textual form."""
    return parse_rational(text, alphabet)


def poly_value(p, point):
    """The polynomial p at a rational point, summed term by term."""
    return sum((c * prod(x ** k for x, k in zip(point, e)) for e, c in p.exponents().items()), Fraction(0))


def in_lowest_terms(f):
    """True iff no pole atom of f divides its numerator.  The atom z_i -
    s*z_j (z_i - 0*z_i for z_i) divides a polynomial exactly when the
    polynomial vanishes at z_i = s*z_j, so the test is one substitution per
    atom."""
    for atom in f.den:
        i = atom[1]
        j, s = (i, 0) if atom[0] == "var" else (atom[2], 1 if atom[0] == "diff" else -1)
        if not f.num.substitute(i, j, s):
            return False
    return True


def random_poly(rng, alphabet, max_deg=2, terms=3):
    tmap = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_deg) for _ in alphabet)
        tmap[e] = Fraction(rng.randint(-4, 4))
    return MultiPoly(alphabet, tmap)


def random_ratfun(rng, alphabet=("z", "w"), max_den=2):
    """Random small rational function with poles among z, w, z-w, z+w."""
    num = random_poly(rng, alphabet)
    if num.is_zero():
        num = MultiPoly.const(alphabet, 1)
    atoms = [var_factor(0), var_factor(1), diff_factor(0, 1)[0], sum_factor(0, 1)]
    den = {}
    for atom in rng.sample(atoms, rng.randint(0, max_den)):
        den[atom] = rng.randint(1, 2)
    return RationalFn(num, den)


@pytest.fixture
def rng():
    return random.Random(20240811)
