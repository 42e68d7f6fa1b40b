"""The linear-combination core and sparse multivariate polynomials over
exact rationals.

``Terms`` is a finite linear combination: a sparse map from keys to
nonzero coefficients, each an int or a Fraction, in a frame, the data
two combinations must share to be added or compared.  It holds the one
copy of the vector space arithmetic (sum, negation, scaling, equality,
hashing) and of the linear extension ``apply`` of a map on keys;
``collect`` sums like keys and drops zeros.  A polynomial (``MultiPoly``,
keyed by exponent tuples over its variable alphabet), a truncated
Laurent series and a Fock vector are ``Terms``.  ``exact`` is the one
gate for a caller's coefficient, so no floating point enters the system
anywhere.  An int stays an int, so integer combinations never pay for
Fraction arithmetic; since ``3 == Fraction(3)`` and their hashes agree,
equality and hashing do not depend on which of the two a term holds.

A long product of sparse exponent maps runs on packed keys: ``pack``
writes an exponent tuple as one int of fixed-width balanced digits, entry
k the k-th digit from the bottom, so packing is linear and the key of a
product of monomials is the sum of their keys.  ``mac``, the Wick
Pfaffian's multiply-accumulate, adds keys, and ``unpack`` reads a packed
map back into tuple keys through two tables of half-tuples, the first
n//2 entries and the rest, each filled on first use.  The width is the
caller's: it must hold every entry of every key, which only the caller
can bound.  ``MultiPoly.__mul__`` multiplies tuples in place, because
its products are many and small and packing each one costs more than
it saves.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter
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


def pack(e: Expo, width: int) -> int:
    """The exponent tuple ``e`` as one int, entry k its k-th digit in base
    2^width from the bottom; a digit may be negative, so the map is linear
    on all tuples, and ``unpack`` inverts it on entries in
    [-2^(width-1), 2^(width-1))."""
    key = 0
    for x in reversed(e):
        key = (key << width) + x
    return key


def unpack(packed: dict, n: int, width: int) -> dict:
    """{pack(e, width): c} as {e: c} for n-tuples ``e`` whose entries lie
    in [-2^(width-1), 2^(width-1)).  Raising every digit by 2^(width-1)
    puts each in [0, 2^width), so no carry crosses a digit and the low
    n//2 digits and the rest are read apart, each through a table of
    half-tuples."""
    low_n = n // 2
    half, digit = 1 << (width - 1), (1 << width) - 1
    bias = pack((half,) * n, width)
    shift = width * low_n
    mask = (1 << shift) - 1

    def digits(count):
        return Table(lambda u: tuple(((u >> width * k) & digit) - half for k in range(count)))

    low, high = digits(low_n), digits(n - low_n)
    out = {}
    for key, c in packed.items():
        u = key + bias
        out[low[u & mask] + high[u >> shift]] = c
    return out


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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=itemgetter(0), reverse=True)


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
