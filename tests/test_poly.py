"""Sparse polynomial arithmetic, quotients by a pole atom kept as built,
and the packed exponent codec."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfcorr.poly import MultiPoly, collect, frame_codec, poly_codec
from bfcorr.ratfun import RationalFn, diff_factor, factor_poly, sum_factor, var_factor
from bfcorr.series import expand
from conftest import in_lowest_terms, poly_value

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
    z, w = MultiPoly.var(AL, "z"), MultiPoly.var(AL, "w")
    for p in (z + w, z * z - w.scale(2) + MultiPoly.const(AL, Fraction(1, 3))):
        q = MultiPoly.const(AL, 1)
        for n in range(7):
            assert p ** n == q, (p, n)
            q = q * p


def test_pow_squares_only_while_a_higher_bit_is_left(monkeypatch):
    # n = 1 makes no product; n takes bit_length - 1 squarings and one
    # product per further set bit
    products = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    p = MultiPoly.linear(AL, 0, 1, -1)
    for n in range(1, 9):
        products.clear()
        p ** n
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_a_negative_exponent_is_refused():
    # it used to be kept, and its text read "0"
    for make in (lambda: MultiPoly.var(AL, 0, -4), lambda: MultiPoly(AL, {(-1, 0): 1}),
                 lambda: MultiPoly(AL, {(2, 0): 1, (0, -1): 0})):
        with pytest.raises(ValueError, match="negative exponent in a polynomial"):
            make()


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
        return MultiPoly(p.alphabet, {e: c for e, c in p.exponents().items() if not e[atom[1]]})
    return p.substitute(atom[1], atom[2], 1 if atom[0] == "diff" else -1)


def _expansion(f, ordering):
    """f's expansion in the region of ``ordering``, its exponents over AL3,
    on a box that holds every term of the polynomials below."""
    series = expand(f, ordering, 10)
    return {tuple(e[ordering.index(name)] for name in AL3): c for e, c in series.exponents().items()}


@pytest.mark.parametrize("atom", ATOMS, ids=lambda atom: "-".join(map(str, atom)))
def test_exact_quotient_undoes_the_product(atom, rng):
    # (atom * q) / atom equals q and expands as q in either region order
    factor = factor_poly(AL3, atom)
    for _ in range(40):
        q = _random_poly(rng)
        quotient = RationalFn(factor * q, {atom: 1})
        assert quotient == RationalFn.from_poly(q)
        for ordering in (AL3, AL3[::-1]):
            assert _expansion(quotient, ordering) == q.exponents()


@pytest.mark.parametrize("atom", ATOMS, ids=lambda atom: "-".join(map(str, atom)))
def test_exact_quotient_is_none_exactly_off_the_root(atom, rng):
    # p/atom is a polynomial exactly when p vanishes where the atom does, the
    # root test of in_lowest_terms; off the root p/atom has a true pole, so
    # its expansions in opposite region orders differ, or hold z_i^-1
    factor = factor_poly(AL3, atom)
    divides = set()
    for _ in range(40):
        for p in (_random_poly(rng), factor * _random_poly(rng)):
            f = RationalFn(p, {atom: 1})
            here, there = (_expansion(f, ordering) for ordering in (AL3, AL3[::-1]))
            polynomial = here == there and all(x >= 0 for e in here for x in e)
            assert polynomial == (not in_lowest_terms(f)) == (not _at_root(p, atom))
            divides.add(polynomial)
    assert divides == {True, False}


def test_diff_and_eval():
    p = MultiPoly(AL, {(3, 1): 2})  # 2 z^3 w
    assert p.diff(0) == MultiPoly(AL, {(2, 1): 6})
    assert poly_value(p, [Fraction(1, 2), Fraction(3)]) == Fraction(3, 4)


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        MultiPoly(AL, {(1,): 1})


def _key(e, width):
    """The packed key written out: entry k times 2^(width * (n-1-k)), entry 0
    the most significant digit."""
    return sum(x << width * (len(e) - 1 - k) for k, x in enumerate(e))


def _domain(n, D):
    """The frame's width and a strategy for one entry of its digit range,
    weighted towards the ends of the box, -D and nD, and of the range."""
    width = (n * D).bit_length() + 1
    half = 1 << (width - 1)
    return width, st.one_of(st.sampled_from([-D, n * D, -half, half - 1]), st.integers(-half, half - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 9), D=st.integers(0, 12))
def test_unpack_inverts_pack(data, n, D):
    # the frame's width, (nD).bit_length() + 1, and its digit order are the
    # inputs; n = 1 leaves the first half empty and odd n splits unevenly
    codec = frame_codec(n, D)
    width, entry = _domain(n, D)
    assert codec.width == width
    terms = data.draw(st.dictionaries(st.tuples(*[entry] * n), st.integers(-3, 3).filter(bool), max_size=6))
    packed = {_key(e, width): c for e, c in terms.items()}
    assert codec.pack_terms(terms.items()) == packed
    assert {codec.decode(k): c for k, c in packed.items()} == terms


@pytest.mark.parametrize("n", range(10))
def test_a_packed_sum_unpacks_to_the_entrywise_sum(n, rng):
    # the Wick series' case: two exponents on disjoint positions, entries in
    # [-D, D]; odd n splits its halves unevenly and n = 1 leaves the first
    # half empty
    for D in range(9):
        codec = frame_codec(n, D)
        width = (n * D).bit_length() + 1
        for _ in range(30):
            owner = [rng.randrange(2) for _ in range(n)]
            a, b = (tuple(rng.choice((-D, D, rng.randint(-D, D))) if o == side else 0 for o in owner)
                    for side in (0, 1))
            total = tuple(map(add, a, b))
            assert codec.pack(a) + codec.pack(b) == codec.pack(total) == _key(total, width)
            assert codec.decode(codec.pack(a) + codec.pack(b)) == total
        for edge in ((-D,) * n, (n * D,) * n, (-D, n * D) * (n // 2) + (-D,) * (n % 2)):
            assert codec.decode(_key(edge, width)) == edge


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 9), D=st.integers(0, 12))
def test_descending_keys_are_descending_tuples(data, n, D):
    # entry 0 is the most significant digit, so keys sort as their tuples do
    codec = frame_codec(n, D)
    _, entry = _domain(n, D)
    tuples = data.draw(st.lists(st.tuples(*[entry] * n), max_size=12, unique=True))
    assert sorted(tuples, key=codec.pack, reverse=True) == sorted(tuples, reverse=True)


# Packed polynomial arithmetic against a tuple-keyed reference.

def _ref_mul(a, b):
    return collect((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())


def _ref_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def _ref_substitute(a, i, j, sign):
    def move(e):
        e2 = list(e)
        e2[i] = 0
        e2[j] += e[i]
        return tuple(e2)

    return collect((move(e), c * sign ** e[i]) for e, c in a.items())


def _ref_pow(a, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


_COEFF = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 8))
def test_packed_arithmetic_matches_a_tuple_reference(data, n):
    alphabet = tuple(f"x{k}" for k in range(n))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 5)] * n), _COEFF, max_size=6)
    a, b = data.draw(terms), data.draw(terms)
    p, q = MultiPoly(alphabet, a), MultiPoly(alphabet, b)
    assert p.exponents() == collect(a.items())
    assert (p * q).exponents() == _ref_mul(a, b)
    assert (p + q).exponents() == collect([*a.items(), *b.items()])
    assert (p - q).exponents() == collect([*a.items(), *((e, -c) for e, c in b.items())])
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    sign = data.draw(st.sampled_from([1, -1, 2, 0]))
    assert p.diff(i).exponents() == _ref_diff(a, i)
    assert p.substitute(i, j, sign).exponents() == _ref_substitute(a, i, j, sign)
    k = data.draw(st.integers(0, 3))
    assert (p ** k).exponents() == _ref_pow(a, k, n)
    # text and equality read the keys: a tuple-built copy of the product is equal
    product = MultiPoly(alphabet, _ref_mul(a, b))
    assert product == p * q and hash(product) == hash(p * q) and str(product) == str(p * q)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_product_past_the_top_of_a_digit_is_refused_not_carried(n):
    # the width is the alphabet's alone; an entry up to 2^(w-1) - 1 is held,
    # and a product or a substitution that could pass it is refused, never
    # carried into the neighbouring variable's digit
    alphabet = tuple(f"x{k}" for k in range(n))
    codec = poly_codec(n)
    assert codec.width == (64 * n).bit_length() + 1
    top = (1 << (codec.width - 1)) - 1
    for i in range(n):
        def at(x, i=i):
            return tuple(x if k == i else 0 for k in range(n))

        def mono(x, i=i):
            return MultiPoly(alphabet, {at(x, i): 1})

        low, high = mono(top // 2), mono(top - top // 2)
        assert (low * high).exponents() == {at(top): 1}
        with pytest.raises(OverflowError):
            high * high
        with pytest.raises(OverflowError):
            mono(top) * MultiPoly.var(alphabet, i)
        with pytest.raises(ValueError):
            mono(top + 1)
        assert mono(top).diff(i).exponents() == {at(top - 1): top}
        assert str(mono(top)) == f"x{i}^{top}"
        if n > 1:
            j = (i + 1) % n
            with pytest.raises(OverflowError):
                (mono(top) * mono(1, j)).substitute(j, i, 1)
            assert (low * mono(1, j)).substitute(j, i, -1).exponents() == {at(top // 2 + 1): -1}
    # every entry just below the edge at once: the digits stay apart
    half = MultiPoly(alphabet, {(top // 2,) * n: 1, (0,) * n: 1})
    assert (half * half).exponents() == {(2 * (top // 2),) * n: 1, (top // 2,) * n: 2, (0,) * n: 1}
