"""The linear-combination core and sparse multivariate polynomials over
exact rationals.

``Terms`` is a finite linear combination: a sparse map from keys to
nonzero coefficients, each an int or a Fraction, in a frame, the data
two combinations must share to be added or compared.  It holds the one
copy of the vector space arithmetic (sum, negation, scaling, equality,
hashing) and of the linear extension ``apply`` of a map on keys;
``collect`` sums like keys and drops zeros.  A polynomial (``MultiPoly``,
keyed by exponent tuples over its variable alphabet), a truncated
Laurent series (keyed by packed ints) and a Fock vector are ``Terms``.
``exact`` is the one gate for a caller's coefficient, so no floating
point enters the system anywhere.  An int stays an int, so integer
combinations never pay for Fraction arithmetic; since ``3 == Fraction(3)``
and their hashes agree, equality and hashing do not depend on which of
the two a term holds.

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
its tuple, its text or its box value.  ``MultiPoly`` stays on tuples,
since its products are many and small and packing each one costs more
than it saves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul
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
        the box iff their sum lies in [-D, D]."""
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
    """Sparse polynomial: exponent tuples over a fixed, ordered variable
    alphabet (e.g. ``("z1", "z2", "w1", "w2")``), the frame."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: Tuple[str, ...], terms: dict | None = None):
        self.alphabet = tuple(alphabet)
        clean = {}
        if terms:
            n = len(self.alphabet)
            for e, c in terms.items():
                c = exact(c)
                if not c:
                    continue
                if len(e) != n:
                    raise ValueError(f"exponent {e} does not match alphabet of size {n}")
                clean[tuple(e)] = c
        self.terms = clean

    def frame(self):
        return self.alphabet

    def _like(self, terms):
        return MultiPoly(self.alphabet, terms)

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
        alphabet = tuple(alphabet)
        ei = [0] * len(alphabet)
        ei[i] = 1
        ej = [0] * len(alphabet)
        ej[j] = 1
        return cls(alphabet, {tuple(ei): 1, tuple(ej): sign})

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = get(e)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        return MultiPoly(self.alphabet, acc)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.alphabet, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def diff(self, i: int) -> "MultiPoly":
        return self.apply(lambda e: ((e[:i] + (e[i] - 1,) + e[i + 1:], e[i]),) if e[i] else ())

    def substitute(self, i: int, j: int, sign: int) -> "MultiPoly":
        """Substitute z_i := sign*z_j (moves the exponent of i onto j)."""

        def move(e):
            e2 = list(e)
            e2[i] = 0
            e2[j] += e[i]
            return ((tuple(e2), sign ** e[i]),)

        return self.apply(move)

    # -- display -----------------------------------------------------------

    def __str__(self):
        from .textio import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.alphabet}, {self.terms!r})"
