"""Region-ordered Laurent expansion: examples, exactness, ring laws."""

import itertools
from collections.abc import Mapping
from fractions import Fraction

import pytest

from bfcorr.poly import MultiPoly, frame_codec
from bfcorr.ratfun import RationalFn, factor_poly
from bfcorr.series import LaurentSeries, expand, raw_mul
from bfcorr.textio import parse_series
from conftest import random_ratfun, rf

AL = ("z", "w")


def test_series_rejects_a_repeated_variable():
    with pytest.raises(ValueError, match="ordering repeats a variable"):
        LaurentSeries(("z", "w", "z"), 3, {0: Fraction(1)})
    with pytest.raises(ValueError, match="ordering repeats a variable"):
        expand(rf("(1) / ((z-w)^1)", ("z", "w")), ("z", "w", "z"), 3)
    with pytest.raises(ValueError, match="ordering repeats a variable"):
        parse_series("z^-1 + w", ("z", "w", "z"), 3)


def test_expand_geometric():
    s = expand(rf("(1) / ((z-w)^1)", AL), ["z", "w"], 3)
    assert s.exponents() == {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1}


def test_expand_two_point_B_against_convolution_oracle():
    # oracle: (z-w)/(z+w) = (1 - t) * sum_k (-t)^k with t = w/z,
    # multiplied out term by term in the single ratio t
    oracle = {}
    for k in range(0, 8):
        oracle[k] = oracle.get(k, 0) + (-1) ** k
        oracle[k + 1] = oracle.get(k + 1, 0) - (-1) ** k
    s = expand(rf("(z - w) / ((z+w)^1)", AL), ["z", "w"], 2)
    assert s.exponents() == {(-k, k): Fraction(c) for k, c in oracle.items()
                             if c and k <= 2}
    assert s.exponents() == {(0, 0): 1, (-1, 1): -2, (-2, 2): 2}


def test_expand_opposite_region():
    # exponent tuples follow the expansion ordering, here (w, z)
    s = expand(rf("(1) / ((z-w)^1)", AL), ["w", "z"], 2)
    assert s.exponents() == {(-1, 0): -1, (-2, 1): -1}


def test_expand_polynomial_is_itself():
    s = expand(rf("z^2 - 2*z*w + w^2", AL), ["z", "w"], 4)
    assert s.exponents() == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_expand_missing_variable_errors():
    with pytest.raises(ValueError):
        expand(rf("(1) / ((z-w)^1)", AL), ["z"], 3)


def test_expand_var_pole():
    s = expand(rf("(w) / ((z)^2)", AL), ["z", "w"], 3)
    assert s.exponents() == {(-2, 1): 1}


def test_cutoff_box_truncation():
    # exponents below -D or total degree beyond D are dropped
    s = expand(rf("(1) / ((z-w)^1)", AL), ["z", "w"], 5)
    assert all(e[0] >= -5 and abs(sum(e)) <= 5 for e in s.exponents())
    assert (-5, 4) in s.exponents() and (-6, 5) not in s.exponents()


MARGIN = 8  # enough headroom for 2-variable test functions, see below


def _mul_to_cutoff(f, g, ordering, cutoff):
    """expand(f)*expand(g) with margin, truncated back: the dropped tails
    of a cutoff-(D+8) expansion cannot reach the cutoff-D box for these
    small functions (numerator degree <= 3 per variable, total denominator
    degree <= 4, poles among z, w, z-w, z+w)."""
    sf = expand(f, ordering, cutoff + MARGIN)
    sg = expand(g, ordering, cutoff + MARGIN)
    return LaurentSeries.from_exponents(ordering, cutoff, raw_mul(sf.exponents(), sg.exponents()))


def test_expand_is_multiplicative_to_cutoff(rng):
    for _ in range(100):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        direct = expand(f * g, AL, 5)
        assert _mul_to_cutoff(f, g, AL, 5) == direct


def _denominator(f):
    """The product of f's pole atoms, multiplied out."""
    out = MultiPoly.const(f.alphabet, 1)
    for atom, e in f.den.items():
        out = out * factor_poly(f.alphabet, atom) ** e
    return out


@pytest.mark.parametrize("text", ["(1) / ((z-w)^1)", "(1) / ((z+w)^1)", "(1) / ((z)^1)"])
def test_expand_times_inverse_is_one(text):
    f = rf(text, AL)
    inv = RationalFn(_denominator(f))
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
        wide = expand(f, AL, 7)
        # keys belong to their frame's codec, so a series moves to another
        # cutoff through its exponents
        assert LaurentSeries.from_exponents(wide.ordering, 4, wide.exponents()) == expand(f, AL, 4)


def test_first_difference_is_lexicographic_minimum():
    a = LaurentSeries.from_exponents(AL, 3, {(0, 0): 1, (1, 1): 2})
    b = LaurentSeries.from_exponents(AL, 3, {(0, 0): 1, (1, 1): 3, (-1, 0): 5})
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
    assert s.exponents() == expected


def _brute_expand(f, ordering, cutoff, tail):
    """expand by brute force: every pole atom's own geometric series, to
    ``tail`` terms past its leading one, multiplied out with raw_mul and
    then cut to the box."""
    pos = [ordering.index(name) for name in f.alphabet]

    def unit(k, x):
        e = [0] * len(ordering)
        e[pos[k]] = x
        return tuple(e)

    terms = {tuple(e[f.alphabet.index(name)] for name in ordering): c for e, c in f.num.terms.items()}
    for atom, power in f.den.items():
        if atom[0] == "var":
            series = {unit(atom[1], -1): 1}
        else:
            # c_a z_a + c_b z_b with z_a leading: (1/c_a) z_a^-1 sum_t (-c_b z_b / (c_a z_a))^t
            (a, ca), (b, cb) = sorted([(atom[1], 1), (atom[2], 1 if atom[0] == "sum" else -1)],
                                      key=lambda v: pos[v[0]])
            series = {tuple(map(sum, zip(unit(a, -1 - t), unit(b, t)))): Fraction(-cb, ca) ** t / ca
                      for t in range(tail + 1)}
        for _ in range(power):
            terms = raw_mul(terms, series)
    return LaurentSeries.from_exponents(ordering, cutoff, terms)


def _random_near_degree_zero(rng, alphabet):
    """A random function over ``alphabet`` with var, diff and sum poles,
    whose numerator terms have degree within 1 of the denominator's, so
    that most of its expansion lands in small boxes."""
    n = len(alphabet)
    den = {}
    for power in [rng.randint(1, 2), 1, 1][:rng.randint(1, 3)]:
        kind = rng.choice(["var", "diff", "sum"])
        i, j = sorted(rng.sample(range(n), 2))
        atom = ("var", i) if kind == "var" else (kind, i, j)
        den[atom] = den.get(atom, 0) + power
    num = {}
    for _ in range(3):
        e = [0] * n
        for _ in range(max(sum(den.values()) + rng.randint(-1, 1), 0)):
            e[rng.randrange(n)] += 1
        num[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return RationalFn(MultiPoly(alphabet, num), den)


@pytest.mark.parametrize("alphabet, count", [(("z", "w", "v"), 8), (("z", "w", "v", "u"), 3)])
def test_expand_matches_brute_force_in_every_region(rng, alphabet, count):
    for _ in range(count):
        f = _random_near_degree_zero(rng, alphabet)
        for ordering in itertools.permutations(alphabet):
            D = rng.randint(0, 4)
            T = D + 4
            brute = _brute_expand(f, ordering, D, T)
            assert _brute_expand(f, ordering, D, 2 * T) == brute  # the tails reach past the box
            assert expand(f, ordering, D) == brute, (f, ordering, D)


class _ListExponents(Mapping):
    """Terms whose exponents come out as lists, as a caller's parser might give them."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return dict((tuple(e), c) for e, c in self.pairs)[tuple(key)]

    def __iter__(self):
        return iter([list(e) for e, _ in self.pairs])

    def __len__(self):
        return len(self.pairs)


def test_series_constructor_gates_every_coefficient():
    # a float is refused wherever it sits, also on a monomial the box drops
    # and on one outside the codec's domain
    for e in [(0, 0), (-9, 0), (5, 5)]:
        with pytest.raises(TypeError):
            LaurentSeries.from_exponents(AL, 3, {(1, 0): 1, e: 0.5})
    with pytest.raises(TypeError):
        LaurentSeries(AL, 3, {0: 0.5})
    # a str converts, a zero (also one a str converts to) is dropped, ints stay ints
    s = LaurentSeries.from_exponents(AL, 3, {(1, 0): "3/2", (0, 1): "0", (0, 0): 0, (-1, 0): 2,
                                             (2, 0): Fraction(0)})
    assert s.exponents() == {(1, 0): Fraction(3, 2), (-1, 0): 2}
    assert type(s.exponents()[(-1, 0)]) is int
    s = LaurentSeries.from_exponents(AL, 3, {(1, 0): 1, (0, -1): -4})
    assert all(type(c) is int for c in s.terms.values())
    # the box: an exponent below -cutoff or a total degree outside [-cutoff, cutoff] is dropped
    s = LaurentSeries.from_exponents(AL, 3, {(-4, 4): 1, (2, 2): 1, (-2, -2): 1, (3, 0): 1, (-3, 0): 1})
    assert s.exponents() == {(3, 0): 1, (-3, 0): 1}
    # exponents given as lists are read as tuples
    s = LaurentSeries.from_exponents(AL, 3, _ListExponents([((1, -1), 2), ((0, 0), "1/3")]))
    assert s.exponents() == {(1, -1): 2, (0, 0): Fraction(1, 3)}
    assert list(LaurentSeries.from_exponents(AL, 3, _ListExponents([((1, -1), 2)])).exponents()) == [(1, -1)]
    # an exponent of the wrong length is refused
    with pytest.raises(ValueError, match="does not match 2 variables"):
        LaurentSeries.from_exponents(AL, 3, {(1, 0, 0): 1})
    # the empty ordering holds only the constant, whose key is 0
    assert LaurentSeries.from_exponents((), 0, {(): 5}).terms == {0: 5}


def _box_per_term(terms, cutoff):
    """The cutoff box applied term by term: tuple keys, nonzero
    coefficients, every exponent >= -cutoff and total degree in
    [-cutoff, cutoff]."""
    return {tuple(e): c for e, c in terms.items()
            if c and min(e or (0,)) >= -cutoff and -cutoff <= sum(e) <= cutoff}


def test_series_constructor_keeps_the_per_term_box(rng):
    # the constructor tests every packed key against the box, and
    # from_exponents first drops the tuples outside the codec's domain,
    # [-2^(w-1), 2^(w-1)) per entry, which lie outside the box; both must
    # give the per-term rule's terms, with the same coefficient types
    for trial in range(400):
        nvars, cutoff = rng.randrange(0, 4), rng.randrange(0, 5)
        ordering = ("z", "w", "v")[:nvars]
        half = 1 << (nvars * cutoff).bit_length()
        terms = {}
        for _ in range(rng.randrange(0, 12)):
            e = tuple(rng.randrange(-cutoff, cutoff + 1) for _ in range(nvars))
            if -cutoff <= sum(e) <= cutoff:
                terms[e] = rng.choice([1, -3, 7, Fraction(2, 3), Fraction(-5, 4)])
        flaw, pad = trial % 8, (0,) * (nvars - 1)
        if flaw == 1 and nvars:  # an exponent below the box, at a degree inside it if it can be
            terms[(-cutoff - 1,) + (1,) * (nvars - 1)] = 1
        elif flaw == 4 and nvars:  # a degree above the box
            terms[(cutoff + 1,) + pad] = 2
        elif flaw == 5 and nvars > 1:  # a degree below the box, every exponent inside it
            terms[(-cutoff, -1) + pad[1:]] = 3
        elif flaw == 6:  # any tuple of the domain, mostly outside the box
            for _ in range(6):
                terms[tuple(rng.randrange(-half, half) for _ in range(nvars))] = 5
        elif flaw == 7 and nvars:  # outside the domain
            terms[(half,) + pad] = 6
            terms[(-half - 1,) + pad] = 6
        elif flaw == 2 and terms:  # a zero coefficient
            terms[next(iter(terms))] = rng.choice([0, Fraction(0)])
        elif flaw == 3 and terms:  # list keys
            terms = _ListExponents(list(terms.items()))
        want = _box_per_term(terms, cutoff)
        codec = frame_codec(nvars, cutoff)
        inside = {tuple(e): c for e, c in terms.items() if all(-half <= x < half for x in e)}
        assert codec.pack_terms(terms.items()) == {codec.pack(e): c for e, c in inside.items()}
        for series in (LaurentSeries(ordering, cutoff, codec.pack_terms(terms.items())),
                       LaurentSeries.from_exponents(ordering, cutoff, terms)):
            got = series.exponents()
            assert got == want, (ordering, cutoff, dict(terms.items()))
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert LaurentSeries((), 0, {0: 4}).terms == {0: 4}
    assert LaurentSeries((), 0, {0: 0}).terms == {}
