"""Rational functions with pole loci restricted to z_i, z_i - z_j, z_i + z_j.

The denominator is never expanded: it is a multiset of irreducible pole
atoms with positive exponents, so reduction to the unique canonical form
is a divisibility test per atom instead of a multivariate gcd.  Atoms are
normalized with i < j in alphabet order; any sign this forces is absorbed
into the numerator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .poly import MultiPoly, Rat

# atom encodings: ("var", i), ("diff", i, j), ("sum", i, j) with i < j
PoleFactor = Tuple


def var_factor(i: int) -> PoleFactor:
    return ("var", i)


def diff_factor(i: int, j: int):
    """Atom for z_i - z_j; returns (atom, sign) with the i<j normalization."""
    if i == j:
        raise ValueError("diff factor needs distinct indices")
    if i < j:
        return ("diff", i, j), 1
    return ("diff", j, i), -1


def sum_factor(i: int, j: int) -> PoleFactor:
    if i == j:
        raise ValueError("sum factor needs distinct indices")
    return ("sum", min(i, j), max(i, j))


def factor_poly(alphabet, atom: PoleFactor) -> MultiPoly:
    if atom[0] == "var":
        return MultiPoly.var(alphabet, atom[1])
    if atom[0] == "diff":
        return MultiPoly.linear(alphabet, atom[1], atom[2], -1)
    if atom[0] == "sum":
        return MultiPoly.linear(alphabet, atom[1], atom[2], 1)
    raise ValueError(f"unknown pole atom {atom!r}")


def _divide_if_possible(num: MultiPoly, atom: PoleFactor):
    """Exact quotient num/atom, or None when the atom does not divide."""
    if atom[0] == "var":
        if num.divisible_by_var(atom[1]):
            return num.div_var(atom[1])
        return None
    sign = -1 if atom[0] == "diff" else 1
    quot, rem = num.divmod_linear(atom[1], atom[2], sign)
    if rem.is_zero():
        return quot
    return None


def common_denominator(a: Dict[PoleFactor, int], b: Dict[PoleFactor, int]) -> Dict[PoleFactor, int]:
    """The least common factored denominator: each atom at its larger exponent."""
    return {atom: max(a.get(atom, 0), b.get(atom, 0)) for atom in {**a, **b}}


def lift(num: MultiPoly, den: Dict[PoleFactor, int], target: Dict[PoleFactor, int]) -> MultiPoly:
    """The numerator of num/den over the multiple ``target`` of ``den``."""
    for atom, e in target.items():
        k = e - den.get(atom, 0)
        if k:
            num = num * factor_poly(num.alphabet, atom) ** k
    return num


class RationalFn:
    """numerator / product of pole atoms, kept in reduced canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Dict[PoleFactor, int] | None = None, reduce: bool = True):
        self.num = num
        self.den = {a: e for a, e in (den or {}).items() if e}
        for a, e in self.den.items():
            if e < 0:
                raise ValueError("negative denominator exponent")
        if reduce:
            self._reduce()

    @property
    def alphabet(self):
        return self.num.alphabet

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RationalFn":
        return cls(num, {}, reduce=False)

    @classmethod
    def const(cls, alphabet, c) -> "RationalFn":
        return cls(MultiPoly.const(alphabet, c), {}, reduce=False)

    @classmethod
    def zero(cls, alphabet) -> "RationalFn":
        return cls(MultiPoly.zero(alphabet), {}, reduce=False)

    def _reduce(self):
        if self.num.is_zero():
            self.den = {}
            return
        for atom in list(self.den):
            while self.den.get(atom, 0) > 0:
                quot = _divide_if_possible(self.num, atom)
                if quot is None:
                    break
                self.num = quot
                self.den[atom] -= 1
            if self.den.get(atom) == 0:
                del self.den[atom]

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        # canonical form is unique, so structural equality is exact equality
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, frozenset(self.den.items())))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "RationalFn"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        den = common_denominator(self.den, other.den)
        return RationalFn(lift(self.num, self.den, den) + lift(other.num, other.den, den), den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, dict(self.den), reduce=False)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        den = dict(self.den)
        for a, e in other.den.items():
            den[a] = den.get(a, 0) + e
        return RationalFn(self.num * other.num, den)

    def scale(self, c) -> "RationalFn":
        if Rat(c) == 0:
            return RationalFn.zero(self.alphabet)
        return RationalFn(self.num.scale(c), dict(self.den), reduce=False)

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            raise ValueError("negative power")
        out = RationalFn.const(self.alphabet, 1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, i: int) -> "RationalFn":
        """Partial derivative with respect to variable i."""
        out = RationalFn(self.num.diff(i), dict(self.den))
        for atom, e in self.den.items():
            dp = _atom_derivative(self.alphabet, atom, i)
            if dp.is_zero():
                continue
            den2 = dict(self.den)
            den2[atom] = e + 1
            out = out + RationalFn(self.num.scale(-e) * dp, den2)
        return out

    def substitute(self, i: int, j: int, sign: int) -> "RationalFn":
        """Substitute z_i := sign*z_j; raises if a pole atom vanishes there."""
        num = self.num.substitute(i, j, sign)
        scale = Rat(1)
        den: Dict[PoleFactor, int] = {}

        def put(atom, e):
            den[atom] = den.get(atom, 0) + e

        for atom, e in self.den.items():
            if i not in atom[1:]:
                put(atom, e)
                continue
            # coefficients of the linear form c_a z_a + c_b z_b
            if atom[0] == "var":
                coeffs = {atom[1]: 1}
            elif atom[0] == "diff":
                coeffs = {atom[1]: 1, atom[2]: -1}
            else:
                coeffs = {atom[1]: 1, atom[2]: 1}
            new = {}
            for v, c in coeffs.items():
                t = j if v == i else v
                c = c * (sign if v == i else 1)
                new[t] = new.get(t, 0) + c
            new = {v: c for v, c in new.items() if c}
            if not new:
                raise ZeroDivisionError(f"pole atom {atom!r} vanishes at z_{i} = {sign}*z_{j}")
            if len(new) == 1:
                (v, c), = new.items()
                put(("var", v), e)
                scale /= Rat(c) ** e
            else:
                (a, ca), (b, cb) = sorted(new.items())
                if cb == ca:
                    put(("sum", a, b), e)
                else:
                    put(("diff", a, b), e)
                scale /= Rat(ca) ** e
        return RationalFn(num.scale(scale), den)

    def evaluate(self, point) -> Rat:
        """Evaluate at a rational point (raises ZeroDivisionError on a pole)."""
        point = list(point)
        val = self.num.evaluate(point)
        for atom, e in self.den.items():
            d = factor_poly(self.alphabet, atom).evaluate(point)
            val /= d ** e
        return val

    def denominator_poly(self) -> MultiPoly:
        out = MultiPoly.const(self.alphabet, 1)
        for atom, e in self.den.items():
            out = out * factor_poly(self.alphabet, atom) ** e
        return out

    def __str__(self):
        from .textio import format_rational

        return format_rational(self)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


def _atom_derivative(alphabet, atom: PoleFactor, i: int) -> MultiPoly:
    if atom[0] == "var":
        c = 1 if atom[1] == i else 0
    elif atom[0] == "diff":
        c = 1 if atom[1] == i else (-1 if atom[2] == i else 0)
    else:
        c = 1 if i in (atom[1], atom[2]) else 0
    return MultiPoly.const(alphabet, c)


def rf_reduce(f: RationalFn) -> RationalFn:
    """Return the canonical reduced representative (idempotent)."""
    return RationalFn(f.num, dict(f.den))


def rf_equal(f: RationalFn, g: RationalFn) -> bool:
    """Exact equality via cross-multiplication to polynomials.

    Both sides are lifted to their common denominator, so each numerator
    is multiplied only by the other side's excess pole atoms: the
    cross-multiplied comparison with the common content cancelled.
    """
    den = common_denominator(f.den, g.den)
    return lift(f.num, f.den, den) == lift(g.num, g.den, den)


def residue_at(f: RationalFn, i: int, point_sign: int, j: int, power: int = 0) -> RationalFn:
    """Res_{z_i = point_sign*z_j} of f*(z_i - point_sign*z_j)^power.

    Returns the zero function when no pole remains at the point.  Higher
    order poles are handled by the derivative formula
    Res = (1/(k-1)!) d^{k-1}/dz_i^{k-1} [f*(z_i - s z_j)^k] at z_i = s z_j.
    """
    if point_sign not in (1, -1):
        raise ValueError("point must be +z_j or -z_j")
    if power < 0:
        raise ValueError("power must be >= 0")
    alphabet = f.alphabet
    if point_sign == 1:
        atom, sgn = diff_factor(i, j)
    else:
        atom, sgn = sum_factor(i, j), 1
    lin = RationalFn.from_poly(factor_poly(alphabet, atom).scale(sgn))
    g = f * lin ** power
    k = g.den.get(atom, 0)
    if k == 0:
        return RationalFn.zero(alphabet)
    den = dict(g.den)
    del den[atom]
    # g = num/(atom^k * rest); atom = sgn*(z_i - s*z_j)
    h = RationalFn(g.num.scale(Rat(sgn) ** k), den, reduce=False)
    for _ in range(k - 1):
        h = h.diff(i)
    h = h.substitute(i, j, point_sign)
    return h.scale(Fraction(1, math.factorial(k - 1)))
