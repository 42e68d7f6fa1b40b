"""Region-ordered Laurent expansion of restricted rational functions.

``expand(f, ordering, D)`` computes the expansion of f in the region
|z_1| >> ... >> |z_n| given by ``ordering``, truncated to the cutoff box:
a monomial is kept iff every exponent is >= -D and its total degree lies
in [-D, D].  The result is exact on the box: each denominator atom
1/(z_a +- z_b) is expanded as a geometric series in z_b/z_a, and the
factors run in the order of their leading variable.  A tail term lowers
its leading variable and raises only a later one, so once the factors
leading from z_a start, nothing raises z_a again: a term whose z_a
exponent is x gets the tail terms t = 0 .. x - e + D of a factor
1/(z_a +- z_b)^e, and none when x - e < -D.  Tails have degree 0, so the
total degree is tested once, on the numerator, and the box drops the rest.

A series is keyed by packed ints (``poly.Codec``): its frame of n
variables and cutoff D fixes the width w = (nD).bit_length() + 1, which
holds every box entry, all in [-D, nD] (each entry >= -D and the total
<= D), and every engine entry, all in [-D, D].  Entry 0 is the most
significant digit, so keys order as their tuples do lexicographically,
and ``first_difference`` and the text do not change with the keys.

The box is tested once per key, by the code that makes the key.  The
public constructor tests every key it is given, and ``expand`` (which
runs its tails on tuples and packs its terms once, at the end), the boson
sweep and the series arithmetic rely on it.  Two producers test the box
before they make their keys and hand their terms to ``_in_box``, which
tests nothing: the fermion sweep (``correspondence.vev_fermion``), once
per pair of half-key groups at its join, and the Wick series
(``correspondence._wick_series``), once, on the total its kernels fix.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Dict, Tuple

from .poly import Rat, Terms, collect, exact, frame_codec
from .ratfun import RationalFn

Expo = Tuple[int, ...]


class LaurentSeries(Terms):
    """Truncated multivariate Laurent series: int or Fraction coefficients
    of monomials over the ordering, whose order of variables names the
    expansion region, inside the cutoff box.  The ordering and the cutoff
    are the frame, and fix the ``codec`` whose packed ints key the terms:
    a key must pack a tuple in the codec's domain, which holds the box.
    The constructor tests every term against the box, and drops the terms
    outside it; ``_in_box`` takes terms already tested.  An ordering that
    repeats a variable names no region and raises."""

    __slots__ = ("ordering", "cutoff", "codec")

    def __init__(self, ordering, cutoff: int, terms: Dict[int, Rat] | None = None):
        self.ordering = tuple(ordering)
        if len(set(self.ordering)) != len(self.ordering):
            raise ValueError(f"ordering repeats a variable: {', '.join(self.ordering)}")
        self.cutoff = cutoff = int(cutoff)
        self.codec = frame_codec(len(self.ordering), cutoff)
        terms = terms or {}
        if not set(map(type, terms.values())) <= {int, Rat}:
            terms = {k: exact(c) for k, c in terms.items()}
        self.terms = self.codec.box(terms)

    @classmethod
    def _in_box(cls, ordering, cutoff: int, terms: Dict[int, Rat]) -> "LaurentSeries":
        """The series of ``terms``, which the caller made inside the box:
        nonzero int or Fraction coefficients of keys in the frame's codec,
        each key in the cutoff box.  No term is tested, and the dict is
        held, not copied."""
        series = cls(ordering, cutoff)
        series.terms = terms
        return series

    @classmethod
    def from_exponents(cls, ordering, cutoff: int, terms) -> "LaurentSeries":
        """The series of {exponent sequence over the ordering: coefficient};
        every coefficient passes ``exact``, also one the box drops."""
        ordering = tuple(ordering)
        codec = frame_codec(len(ordering), int(cutoff))
        return cls(ordering, cutoff, codec.pack_terms((e, exact(c)) for e, c in terms.items()))

    def frame(self):
        return self.ordering, self.cutoff

    def _like(self, terms):
        return LaurentSeries(self.ordering, self.cutoff, terms)

    def exponents(self) -> Dict[Expo, Rat]:
        """The terms keyed by exponent tuples."""
        decode = self.codec.decode
        return {decode(k): c for k, c in self.terms.items()}

    def first_difference(self, other: "LaurentSeries"):
        """Lexicographically first monomial where the two series differ, as
        an exponent tuple; None if they are equal."""
        self._check(other)
        a, b = self.terms, other.terms
        diffs = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
        return self.codec.decode(min(diffs)) if diffs else None

    def __str__(self):
        from .textio import format_series

        return format_series(self)

    def __repr__(self):
        return f"LaurentSeries({self.ordering}, {self.cutoff}, {self.exponents()!r})"


def raw_mul(t1: Dict[Expo, Rat], t2: Dict[Expo, Rat]) -> Dict[Expo, Rat]:
    """Exact (untruncated) convolution of sparse exponent dicts."""
    return collect((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in t1.items() for e2, c2 in t2.items())


def expand(f: RationalFn, ordering, cutoff: int) -> LaurentSeries:
    """Expansion i_{ordering} f truncated (exactly) to the cutoff box."""
    ordering = tuple(ordering)
    pos = {name: k for k, name in enumerate(ordering)}
    nvars = len(ordering)

    used = set()
    for e in f.num.terms:
        for k, x in enumerate(e):
            if x:
                used.add(f.alphabet[k])
    for atom in f.den:
        for k in atom[1:]:
            used.add(f.alphabet[k])
    missing = used - set(pos)
    if missing:
        raise ValueError(f"ordering is missing variables {sorted(missing)}")

    # variable-power shifts from var atoms, geometric factors from the rest
    var_shift = [0] * nvars
    factors = []  # (lead, trail, sigma, e, sign)
    for atom, e in f.den.items():
        if atom[0] == "var":
            var_shift[pos[f.alphabet[atom[1]]]] -= e
            continue
        pi, pj = pos[f.alphabet[atom[1]]], pos[f.alphabet[atom[2]]]
        sigma = 1 if atom[0] == "sum" else -1
        if pi < pj:
            factors.append((pi, pj, sigma, e, 1))
        else:
            # z_i - z_j = -(z_j - z_i); z_i + z_j is symmetric
            sign = (-1) ** e if atom[0] == "diff" else 1
            factors.append((pj, pi, sigma, e, sign))
    factors.sort(key=lambda fac: (fac[0], fac[1]))

    # numerator terms over the ordering, shifted by the var atoms
    degree = -sum(fac[3] for fac in factors)
    placed = []
    for expo, c in f.num.terms.items():
        e = list(var_shift)
        for k, x in enumerate(expo):
            if x:
                e[pos[f.alphabet[k]]] += x
        if -cutoff <= sum(e) + degree <= cutoff:
            placed.append((tuple(e), c))
    current = collect(placed)

    # 1/(x + sigma*y)^e = x^-e sum_t C(e-1+t, t) (-sigma*y/x)^t; no later
    # factor raises x, so the tail stops where x's exponent leaves the box
    for lead, trail, sigma, e, sign in factors:
        top = max((expo[lead] for expo in current), default=0) - e + cutoff
        tail = [sign * (-sigma) ** t * comb(e - 1 + t, t) for t in range(top + 1)]
        acc: Dict[Expo, Rat] = {}
        get = acc.get
        for expo, c in current.items():
            head, x, middle, y, rest = (expo[:lead], expo[lead] - e, expo[lead + 1:trail], expo[trail],
                                        expo[trail + 1:])
            for t in range(x + cutoff + 1):
                k = head + (x - t,) + middle + (y + t,) + rest
                s = get(k)
                acc[k] = c * tail[t] if s is None else s + c * tail[t]
        current = {k: c for k, c in acc.items() if c}

    return LaurentSeries.from_exponents(ordering, cutoff, current)
