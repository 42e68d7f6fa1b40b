"""The linear-combination core and sparse multivariate polynomials over
exact rationals.

``Terms`` is a finite linear combination: a sparse map from keys to
nonzero coefficients, each an int or a Fraction, in a frame, the data
two combinations must share to be added or compared.  It holds the one
copy of the vector space arithmetic (sum, negation, scaling, equality,
hashing) and of the linear extension ``apply`` of a map on keys;
``collect`` sums like keys and drops zeros.  A polynomial
(``MultiPoly``) and a truncated Laurent series, both keyed by packed
ints, and a Fock vector are ``Terms``.  ``exact`` is the one gate for a
caller's coefficient, so no floating point enters the system anywhere.
An int stays an int, so integer combinations never pay for Fraction
arithmetic; since ``3 == Fraction(3)`` and their hashes agree, equality
and hashing do not depend on which of the two a term holds.

A truncated Laurent series is keyed by packed ints, one ``Codec`` per
frame of n variables and cutoff D: an exponent tuple is written as one
int of n balanced digits in base 2^w, entry 0 the most significant, with
w = (nD).bit_length() + 1.  A box monomial has every entry >= -D and its
total <= D, so each entry lies in [-D, nD], and an engine's entries lie in
[-D, D]; both are inside the digit range [-2^(w-1), 2^(w-1)), since
2^(w-1) > nD.  Packing is linear, so the key of a product of monomials is
the sum of their keys, and with entry 0 on top, integer order is
lexicographic order: sorting keys sorts monomials as their tuples sort,
and the text, which lists terms in that order, is byte-identical to a
text written from tuples.  ``mac``, the Wick Pfaffian's
multiply-accumulate, adds keys.  A key splits into its first n//2 digits
and the rest, and each half is read through a table filled on first use:
its tuple, its text or its box value.

A polynomial in n variables is keyed in ``poly_codec(n)``, the codec of
the frame (n, 64): its width w = (64n).bit_length() + 1 is a function of
the alphabet alone, so equal polynomials have equal keys, and its
entries are exponents in [0, 2^(w-1)), which holds every exponent up to
64n.  The constructor refuses an entry outside that range.  The top bit
of each digit is a guard, clear in every stored key, so two keys add
digit by digit with no carry, each digit sum below 2^w; the sum is in
range iff no guard bit is set.  A product checks this once, not once per
term: the OR of an operand's keys bounds each of its entries, and the
product is refused (``OverflowError``) when the sum of the two ORs sets
a guard bit.  An OR's digit is less than twice that entry's largest
value, so a product is refused only once its operands' largest entries
sum past half the range, and never after a carry.  Arithmetic makes keys
from keys and trusts them (``MultiPoly._packed``); the text is written
from the same codec's tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul, or_
from typing import Callable, Iterable, Tuple

Rat = Fraction

Expo = Tuple[int, ...]


def exact(c):
    """A caller's coefficient as an int or a Fraction: an int or a Fraction
    is returned unchanged and a str converts to a Fraction; a float, whose
    binary value is not what was written, raises."""
    if type(c) is int or type(c) is Rat:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float: give an int, a str or a Fraction")
    return Rat(c)


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of (key, coefficient) pairs per key; zero sums are dropped."""
    out: dict = {}
    for k, c in pairs:
        s = out.get(k)
        out[k] = c if s is None else s + c
    return {k: c for k, c in out.items() if c}


class Table(dict):
    """A dict whose missing values ``make`` builds from their keys on first use."""

    def __init__(self, make, known=()):
        super().__init__(known)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Codec:
    """The packed keys of one frame's monomials: n entries, cutoff D.

    ``pack`` writes an exponent tuple as one int of n balanced digits in
    base 2^w, entry 0 the most significant: sum_k e_k 2^(w(n-1-k)).  The
    map is linear, so the key of a product of monomials is the sum of their
    keys, and ``pack`` inverts on entries in [-2^(w-1), 2^(w-1)), the
    codec's domain.  Width w = (nD).bit_length() + 1 gives 2^(w-1) > nD, so
    the domain holds every box monomial (each entry >= -D and the total
    <= D, so each entry <= D + (n-1)D = nD) and every engine entry, which
    lies in [-D, D].  Two keys in the domain compare as their tuples
    compare lexicographically: where the tuples first differ, the digit
    gap is worth at least one unit of that place, and all lower digits
    together move the key by less than one.

    Adding ``bias``, 2^(w-1) on every digit, puts each digit in [0, 2^w),
    so no carry crosses a digit and a key splits into its first n//2
    digits (``u >> shift``) and the rest (``u & mask``).  ``tables``
    gives two tables from those halves to a fold over their entries, each
    filled on first use: the half-tuple (``decode``), its text, or its box
    value, the sum of its entries with each entry below -D counted as too
    large for any key holding it to be in the box.  The cut n//2 is also
    where the fermion sweep meets (``correspondence.vev_fermion``): a key
    it joins is a left prefix, zero on the second half, plus a right
    suffix, zero on the first, so the key's box value is the prefix's
    first-half value plus the suffix's second-half value (``half_box``).
    """

    __slots__ = ("n", "cutoff", "width", "cut", "weights", "bias", "shift", "mask", "halves", "_box")

    def __init__(self, n: int, cutoff: int):
        self.n, self.cutoff, self.cut = n, cutoff, n // 2
        self.width = w = (n * cutoff).bit_length() + 1
        self.weights = tuple(1 << w * (n - 1 - k) for k in range(n))
        self.bias = sum(self.weights) << (w - 1)
        self.shift = w * (n - self.cut)
        self.mask = (1 << self.shift) - 1
        self.halves = self.tables(lambda acc, k, x: acc + (x,), ())
        # an entry below -D counts as far > nD, so the total of its key is
        # > nD - (n-1)D = D however the other entries, each >= -D, count
        far = n << w
        self._box = self.tables(lambda acc, k, x: acc + (x if x >= -cutoff else far), 0)

    def tables(self, step: Callable, init):
        """Tables from the first and the second half of a biased key to the
        fold of ``step(acc, k, entry k)`` over the half's entries from
        ``init``.  A half's value extends the value of the half without its
        last digit, so each is filled on first use with one step."""
        w, digit, half = self.width, (1 << self.width) - 1, 1 << (self.width - 1)

        def fold(start, stop):
            table = Table(lambda u: init)  # no digits: the one key 0
            for k in range(start, stop):
                table = Table(lambda u, prev=table, k=k: step(prev[u >> w], k, (u & digit) - half))
            return table

        return fold(0, self.cut), fold(self.cut, self.n)

    def pack(self, e) -> int:
        return sum(map(mul, e, self.weights))

    def pack_terms(self, pairs: Iterable[tuple]) -> dict:
        """(exponent sequence, c) pairs as {key: c}, for the n-entry
        sequences in the domain; the rest lie outside the box, and are
        dropped."""
        n, half = self.n, 1 << (self.width - 1)
        out = {}
        for e, c in pairs:
            if len(e) != n:
                raise ValueError(f"exponent {tuple(e)} does not match {n} variables")
            if -half <= min(e, default=0) and max(e, default=0) < half:
                out[self.pack(e)] = c
        return out

    def decode(self, key: int) -> Expo:
        u = key + self.bias
        return self.halves[0][u >> self.shift] + self.halves[1][u & self.mask]

    def half_box(self, key: int) -> Tuple[int, int]:
        """The box values of the key's first and second half: the key is in
        the box iff their sum lies in [-D, D].  The fermion sweep reads the
        first off one prefix and the second off one suffix per middle state,
        as every key of a half that meets at one state has the same value
        there (``correspondence.vev_fermion``)."""
        u = key + self.bias
        return self._box[0][u >> self.shift], self._box[1][u & self.mask]

    def box(self, terms: dict) -> dict:
        """The terms whose keys are in the cutoff box: every entry >= -D and
        the total in [-D, D]; zero coefficients are dropped too."""
        bias, shift, mask, D = self.bias, self.shift, self.mask, self.cutoff
        first, second = self._box
        return {k: c for k, c in terms.items()
                if c and -D <= first[(u := k + bias) >> shift] + second[u & mask] <= D}


@lru_cache(maxsize=64)
def frame_codec(n: int, cutoff: int) -> Codec:
    """The codec of a frame of n variables at ``cutoff``, shared with its
    filled tables by every series made in the frame while it is among the
    last 64 asked for; a series keeps its own, and two codecs of one frame
    pack alike."""
    return Codec(n, cutoff)


def poly_codec(n: int) -> Codec:
    """The codec of the polynomials in n variables, the frame (n, 64)'s:
    its width depends on n alone, and each digit's top bit is a guard (see
    the module docstring).  64 keeps keys short: in 8 variables they take
    88 bits, and at 1024 (120 bits) ``verify schur-pfaffian --n 4`` ran
    about 45% slower."""
    return frame_codec(n, 64)


def mac(acc: dict, sign: int, a: dict, b: dict) -> dict:
    """acc += sign * a * b on sparse maps keyed by packed exponents, in
    place; zero sums are dropped."""
    get = acc.get
    for k1, c1 in a.items():
        c1 *= sign
        for k2, c2 in b.items():
            k = k1 + k2
            v = get(k)
            v = c1 * c2 if v is None else v + c1 * c2
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


class Terms:
    """A sparse linear combination: ``terms`` maps keys to nonzero ints
    or Fractions.  A subclass gives its ``frame()`` and ``_like(terms)``, the
    combination in the same frame with the given (nonzero) terms."""

    __slots__ = ("terms",)

    def frame(self) -> tuple:
        return ()

    def _like(self, terms: dict):
        raise NotImplementedError

    def _check(self, other: "Terms"):
        if type(other) is not type(self) or other.frame() != self.frame():
            raise ValueError(f"{type(self).__name__} frames differ: only combinations "
                             "in one frame add or compare")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.frame() == other.frame() and self.terms == other.terms

    def __hash__(self):
        return hash((self.frame(), frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = exact(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def apply(self, action: Callable[[object], Iterable[tuple]]):
        """The linear extension of ``action``, which sends a key to
        (key, coefficient) pairs."""
        return self._like(collect((k2, c * x) for k, c in self.terms.items() for k2, x in action(k)))

    def items(self):
        return self.terms.items()


class MultiPoly(Terms):
    """Sparse polynomial over a fixed, ordered variable alphabet (e.g.
    ``("z1", "z2", "w1", "w2")``), the frame, keyed by packed ints in the
    alphabet's ``poly_codec``.  The public constructor takes exponent tuples,
    refuses a negative or too large entry, and packs each tuple once;
    ``exponents()`` gives the tuples back.  Arithmetic makes its keys from
    keys and hands them to ``_packed``, which tests nothing."""

    __slots__ = ("alphabet", "codec")

    def __init__(self, alphabet: Tuple[str, ...], terms: dict | None = None):
        self.alphabet = alphabet = tuple(alphabet)
        self.codec = codec = poly_codec(len(alphabet))
        n, top = len(alphabet), 1 << (codec.width - 1)
        clean = {}
        for e, c in (terms or {}).items():
            c = exact(c)
            if len(e) != n:
                raise ValueError(f"exponent {e} does not match alphabet of size {n}")
            if min(e, default=0) < 0:
                raise ValueError("negative exponent in a polynomial")
            if max(e, default=0) >= top:
                raise ValueError(f"exponent {tuple(e)} has an entry above {top - 1}, "
                                 f"the most a polynomial in {n} variables holds")
            if c:
                clean[codec.pack(e)] = c
        self.terms = clean

    @classmethod
    def _packed(cls, alphabet: Tuple[str, ...], codec: Codec, terms: dict) -> "MultiPoly":
        """The polynomial of ``terms``, nonzero int or Fraction coefficients
        of keys in ``codec``, the alphabet's, each entry in [0, 2^(w-1)).  No
        term is tested, and the dict is held, not copied."""
        p = object.__new__(cls)
        p.alphabet, p.codec, p.terms = alphabet, codec, terms
        return p

    def frame(self):
        return self.alphabet

    def _like(self, terms):
        return MultiPoly._packed(self.alphabet, self.codec, terms)

    def exponents(self) -> dict:
        """The terms keyed by exponent tuples."""
        decode = self.codec.decode
        return {decode(k): c for k, c in self.terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {})

    @classmethod
    def const(cls, alphabet, c):
        alphabet = tuple(alphabet)
        return cls(alphabet, {(0,) * len(alphabet): c})

    @classmethod
    def var(cls, alphabet, name_or_index, power: int = 1):
        alphabet = tuple(alphabet)
        i = name_or_index if isinstance(name_or_index, int) else alphabet.index(name_or_index)
        e = [0] * len(alphabet)
        e[i] = power
        return cls(alphabet, {tuple(e): 1})

    @classmethod
    def linear(cls, alphabet, i: int, j: int, sign: int):
        """The linear form z_i + sign*z_j."""
        p = cls(alphabet)
        weights = p.codec.weights
        p.terms = collect(((weights[i], 1), (weights[j], sign)))
        return p

    # -- arithmetic --------------------------------------------------------

    def _fits(self, bound: int, what: str) -> None:
        """Refuse a result that may set a guard bit: each digit of ``bound``,
        a sum of digits below 2^(w-1) each, bounds that entry of every key
        of the result."""
        if bound & self.codec.bias:
            top = (1 << (self.codec.width - 1)) - 1
            raise OverflowError(f"{what} may have an exponent above {top}, "
                                f"the most a polynomial in {len(self.alphabet)} variables holds")

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        a, b = self.terms, other.terms
        self._fits(reduce(or_, a, 0) + reduce(or_, b, 0), "the product")
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return self._like({})
        rows = iter(b.items())
        k2, c2 = next(rows)
        # the row of b's first term holds distinct keys and nonzero products
        acc = {k1 + k2: c1 * c2 for k1, c1 in a.items()}
        get = acc.get
        a = a.items()
        for k2, c2 in rows:
            for k1, c1 in a:
                k = k1 + k2
                v = get(k)
                if v is None:
                    acc[k] = c1 * c2
                elif v := v + c1 * c2:
                    acc[k] = v
                else:
                    del acc[k]
        return self._like(acc)

    def __pow__(self, n: int) -> "MultiPoly":
        """Square and multiply from the lowest bit of n, squaring only while
        a higher bit is left."""
        if n < 0:
            raise ValueError("negative power")
        if not n:
            return MultiPoly.const(self.alphabet, 1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- structure ---------------------------------------------------------

    def _place(self, i: int) -> Tuple[int, int, int]:
        """Variable i's weight, the shift that brings its digit down, and the
        digit's mask: entry i of key k is ``k >> shift & mask``."""
        weight = self.codec.weights[i]
        return weight, weight.bit_length() - 1, (1 << self.codec.width) - 1

    def diff(self, i: int) -> "MultiPoly":
        weight, shift, mask = self._place(i)
        return self._like({k - weight: c * x for k, c in self.terms.items() if (x := k >> shift & mask)})

    def substitute(self, i: int, j: int, sign: int) -> "MultiPoly":
        """Substitute z_i := sign*z_j: each key's entry i moves onto entry j,
        and its term takes the factor sign^(entry i)."""
        wi, shift, mask = self._place(i)
        wj = self.codec.weights[j]
        if i != j:
            bound = reduce(or_, self.terms, 0)
            self._fits(bound + (bound >> shift & mask) * wj, "the substitution")
        move = wj - wi
        return self._like(collect((k + x * move, c * sign ** x) for k, c in self.terms.items()
                                  for x in (k >> shift & mask,)))

    # -- display -----------------------------------------------------------

    def __str__(self):
        from .textio import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.alphabet}, {self.exponents()!r})"
