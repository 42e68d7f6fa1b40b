"""The linear-combination core and sparse multivariate polynomials over
exact rationals.

``Terms`` is a finite linear combination: a sparse map from keys to
nonzero ``Fraction`` coefficients in a frame, the data two combinations
must share to be added or compared.  It holds the one copy of the vector
space arithmetic (sum, negation, scaling, equality, hashing) and of the
linear extension ``apply`` of a map on keys; ``collect`` sums like keys
and drops zeros.  A polynomial (``MultiPoly``, keyed by exponent tuples
over its variable alphabet), a truncated Laurent series and a Fock vector
are ``Terms``.  ``exact`` is the one gate for a caller's coefficient, so
no floating point enters the system anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Tuple

Rat = Fraction

Expo = Tuple[int, ...]


def exact(c) -> Rat:
    """A caller's coefficient as a Fraction: an int, a str or a Fraction
    converts; a float, whose binary value is not what was written, raises."""
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float: give an int, a str or a Fraction")
    return c if type(c) is Rat else Rat(c)


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of (key, coefficient) pairs per key; zero sums are dropped."""
    out: dict = {}
    for k, c in pairs:
        s = out.get(k)
        out[k] = c if s is None else s + c
    return {k: c for k, c in out.items() if c}


class Terms:
    """A sparse linear combination: ``terms`` maps keys to nonzero
    Fractions.  A subclass gives its ``frame()`` and ``_like(terms)``, the
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
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)


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
                if type(c) is not Rat:
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
        return cls(alphabet, {tuple(e): Rat(1)})

    @classmethod
    def linear(cls, alphabet, i: int, j: int, sign: int):
        """The linear form z_i + sign*z_j."""
        alphabet = tuple(alphabet)
        ei = [0] * len(alphabet)
        ei[i] = 1
        ej = [0] * len(alphabet)
        ej[j] = 1
        return cls(alphabet, {tuple(ei): Rat(1), tuple(ej): Rat(sign)})

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        t1, t2 = self.terms, other.terms
        if all(c.denominator == 1 for c in t1.values()) and all(c.denominator == 1 for c in t2.values()):
            # integer coefficients: multiply numerators, one Fraction per output term
            t1 = {e: c.numerator for e, c in t1.items()}
            t2 = {e: c.numerator for e, c in t2.items()}
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(self.alphabet, out)

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

    def max_exponent(self, i: int) -> int:
        """Largest exponent of variable i (0 for the zero polynomial)."""
        return max((e[i] for e in self.terms), default=0)

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

    def shift_var(self, i: int, k: int) -> "MultiPoly":
        """Multiply by z_i^k; requires the result to stay polynomial."""
        out = {}
        for e, c in self.terms.items():
            if e[i] + k < 0:
                raise ValueError("negative exponent after shift")
            e2 = list(e)
            e2[i] += k
            out[tuple(e2)] = c
        return MultiPoly(self.alphabet, out)

    def divmod_linear(self, i: int, j: int, sign: int):
        """Divide by the linear form z_i + sign*z_j via synthetic division.

        Returns (quotient, remainder) with remainder free of z_i
        (remainder = self evaluated at z_i = -sign*z_j).
        """
        # coefficients of z_i^k, each a polynomial in the other variables
        by_deg: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            e2 = list(e)
            e2[i] = 0
            by_deg.setdefault(k, {})[tuple(e2)] = c
        if not by_deg:
            return MultiPoly.zero(self.alphabet), MultiPoly.zero(self.alphabet)
        d = max(by_deg)
        s = -sign  # root is at z_i = -sign*z_j

        def shifted(term_map):
            # multiply by s*z_j
            out = {}
            for e, c in term_map.items():
                e2 = list(e)
                e2[j] += 1
                out[tuple(e2)] = c * s
            return out

        def added(a, b):
            out = dict(a)
            for e, c in b.items():
                v = out.get(e)
                v = c if v is None else v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
            return out

        quot: dict = {}
        carry: dict = {}
        for k in range(d, 0, -1):
            b = added(by_deg.get(k, {}), shifted(carry))
            for e, c in b.items():
                if c:
                    e2 = list(e)
                    e2[i] = k - 1
                    quot[tuple(e2)] = c
            carry = b
        rem = added(by_deg.get(0, {}), shifted(carry))
        return MultiPoly(self.alphabet, quot), MultiPoly(self.alphabet, rem)

    def divisible_by_var(self, i: int) -> bool:
        return bool(self.terms) and all(e[i] >= 1 for e in self.terms)

    def div_var(self, i: int) -> "MultiPoly":
        return self.shift_var(i, -1)

    def evaluate(self, point: Iterable[Rat]) -> Rat:
        point = list(point)
        total = Rat(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            total += v
        return total

    # -- display -----------------------------------------------------------

    def __str__(self):
        from .textio import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.alphabet}, {self.terms!r})"
