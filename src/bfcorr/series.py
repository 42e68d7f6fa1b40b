"""Region-ordered Laurent expansion of restricted rational functions.

``expand(f, ordering, D)`` computes the expansion of f in the region
|z_1| >> ... >> |z_n| given by ``ordering``, truncated to the cutoff box:
a monomial is kept iff every exponent is >= -D and its total degree lies
in [-D, D].  The result is exact on the box: each denominator atom
1/(z_a +- z_b) is expanded as a geometric series whose length is chosen
so that no discarded tail term can re-enter the box (the bound is solved
by induction along the ordering, since a factor tail lowers its leading
variable while raising the trailing one).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, Tuple

from .poly import Rat
from .ratfun import RationalFn

Expo = Tuple[int, ...]


class LaurentSeries:
    """Truncated multivariate Laurent series for a fixed expansion region;
    an ordering that repeats a variable names no region and raises."""

    __slots__ = ("ordering", "cutoff", "terms")

    def __init__(self, ordering, cutoff: int, terms: Dict[Expo, Rat] | None = None):
        self.ordering = tuple(ordering)
        if len(set(self.ordering)) != len(self.ordering):
            raise ValueError(f"ordering repeats a variable: {', '.join(self.ordering)}")
        self.cutoff = cutoff = int(cutoff)
        clean = {}
        if terms:
            # the cutoff box: every exponent >= -cutoff, total degree in [-cutoff, cutoff]
            for e, c in terms.items():
                if type(c) is not Rat:
                    c = Rat(c)
                if c and min(e, default=0) >= -cutoff and -cutoff <= sum(e) <= cutoff:
                    clean[tuple(e)] = c
        self.terms = clean

    def _check(self, other: "LaurentSeries"):
        if self.ordering != other.ordering or self.cutoff != other.cutoff:
            raise ValueError("series are comparable only with equal ordering and cutoff")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.ordering == other.ordering
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ordering, self.cutoff, frozenset(self.terms.items())))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentSeries(self.ordering, self.cutoff, out)

    def __neg__(self):
        return LaurentSeries(self.ordering, self.cutoff, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        c = Rat(c)
        if c == 0:
            return LaurentSeries(self.ordering, self.cutoff, {})
        return LaurentSeries(self.ordering, self.cutoff, {e: c * v for e, v in self.terms.items()})

    def restrict(self, cutoff: int) -> "LaurentSeries":
        if cutoff > self.cutoff:
            raise ValueError("cannot restrict to a larger cutoff")
        return LaurentSeries(self.ordering, cutoff, self.terms)

    def first_difference(self, other: "LaurentSeries"):
        """Lexicographically first monomial where the two series differ."""
        self._check(other)
        diffs = [e for e in set(self.terms) | set(other.terms)
                 if self.terms.get(e, Rat(0)) != other.terms.get(e, Rat(0))]
        return min(diffs) if diffs else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def __str__(self):
        from .textio import format_series

        return format_series(self)

    def __repr__(self):
        return f"LaurentSeries({self.ordering}, {self.cutoff}, {self.terms!r})"


def raw_mul(t1: Dict[Expo, Rat], t2: Dict[Expo, Rat]) -> Dict[Expo, Rat]:
    """Exact (untruncated) convolution of sparse exponent dicts."""
    out: Dict[Expo, Rat] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def geometric_terms(e: int, sigma: int, tmax: int):
    """Tail coefficients of 1/(x + sigma*y)^e = x^-e sum_t c_t (y/x)^t."""
    return [(t, Fraction(comb(e - 1 + t, t) * (-sigma) ** t)) for t in range(tmax + 1)]


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

    base: Dict[Expo, Rat] = {}
    for expo, c in f.num.terms.items():
        e = [0] * nvars
        for k, x in enumerate(expo):
            if x:
                e[pos[f.alphabet[k]]] += x
        for k in range(nvars):
            e[k] += var_shift[k]
        total = sum(e) - sum(fac[3] for fac in factors)
        if -cutoff <= total <= cutoff:
            key = tuple(e)
            s = base.get(key)
            base[key] = c if s is None else s + c
    base = {e: c for e, c in base.items() if c}

    if not base or not factors:
        return LaurentSeries(ordering, cutoff, base)

    num_max = [max(e[a] for e in base) for a in range(nvars)]

    # per-factor tail bounds, solved forward along the ordering
    tbound = [0] * len(factors)
    for a in range(nvars):
        leading = [k for k, fac in enumerate(factors) if fac[0] == a]
        if not leading:
            continue
        slack = cutoff + num_max[a] - sum(factors[k][3] for k in leading)
        slack += sum(tbound[k] for k, fac in enumerate(factors) if fac[1] == a)
        bound = max(slack, 0)
        for k in leading:
            tbound[k] = bound

    # future positive headroom per variable after factor k has been applied
    future = [[0] * nvars for _ in range(len(factors) + 1)]
    for k in range(len(factors) - 1, -1, -1):
        row = list(future[k + 1])
        row[factors[k][1]] += tbound[k]
        future[k] = row

    current = base
    for k, (lead, trail, sigma, e, sign) in enumerate(factors):
        tail = geometric_terms(e, sigma, tbound[k])
        headroom = future[k + 1]
        out: Dict[Expo, Rat] = {}
        for expo, c in current.items():
            for t, coeff in tail:
                ve = list(expo)
                ve[lead] -= e + t
                ve[trail] += t
                ok = True
                for a in range(nvars):
                    if ve[a] + headroom[a] < -cutoff:
                        ok = False
                        break
                if not ok:
                    continue
                key = tuple(ve)
                s = out.get(key)
                s = c * coeff * sign if s is None else s + c * coeff * sign
                if s:
                    out[key] = s
                else:
                    del out[key]
        current = out

    return LaurentSeries(ordering, cutoff, current)
