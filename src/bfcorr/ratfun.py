"""Rational functions with pole loci restricted to z_i, z_i - z_j, z_i + z_j.

The denominator is never expanded: it is a multiset of irreducible pole
atoms with positive exponents.  Atoms are normalized with i < j in
alphabet order; any sign this forces is absorbed into the numerator.  A
function keeps the numerator and atoms it was built with, even where an
atom divides the numerator: equality cross-multiplies, and expansion,
substitution and residues are exact on any form of a function.

An atom is substituted and differentiated as its linear form
``factor_poly(alphabet, atom)``: under z_i := sign*z_j the form becomes
zero (a pole is hit) or c times one atom, and its z_i-derivative is the
constant that the quotient rule needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .poly import MultiPoly, exact

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
    """numerator / product of pole atoms, kept as built: an atom may divide
    the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Dict[PoleFactor, int] | None = None):
        self.num = num
        self.den = {a: e for a, e in (den or {}).items() if e}
        for a, e in self.den.items():
            if e < 0:
                raise ValueError("negative denominator exponent")

    @property
    def alphabet(self):
        return self.num.alphabet

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RationalFn":
        return cls(num)

    @classmethod
    def const(cls, alphabet, c) -> "RationalFn":
        return cls(MultiPoly.const(alphabet, c))

    @classmethod
    def zero(cls, alphabet) -> "RationalFn":
        return cls(MultiPoly.zero(alphabet))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalFn) and rf_equal(self, other)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "RationalFn"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        den = common_denominator(self.den, other.den)
        return RationalFn(lift(self.num, self.den, den) + lift(other.num, other.den, den), den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, dict(self.den))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        den = dict(self.den)
        for a, e in other.den.items():
            den[a] = den.get(a, 0) + e
        return RationalFn(self.num * other.num, den)

    def scale(self, c) -> "RationalFn":
        c = exact(c)
        if not c:
            return RationalFn.zero(self.alphabet)
        return RationalFn(self.num.scale(c), dict(self.den))

    def diff(self, i: int) -> "RationalFn":
        """Partial derivative with respect to variable i."""
        out = RationalFn(self.num.diff(i), dict(self.den))
        for atom, e in self.den.items():
            dp = factor_poly(self.alphabet, atom).diff(i)
            if dp.is_zero():
                continue
            den2 = dict(self.den)
            den2[atom] = e + 1
            out = out + RationalFn(self.num.scale(-e) * dp, den2)
        return out

    def substitute(self, i: int, j: int, sign: int) -> "RationalFn":
        """Substitute z_i := sign*z_j; raises if a pole atom vanishes there,
        also where the numerator vanishes with it (a removable pole).

        Each atom's linear form becomes zero or c times one atom, which
        takes the atom's place while the numerator is divided by c^e (a
        c^e of +-1 divides as an int, keeping integer numerators ints)."""
        den: Dict[PoleFactor, int] = {}
        scale = 1
        for atom, e in self.den.items():
            form = factor_poly(self.alphabet, atom).substitute(i, j, sign)
            if not form:
                raise ZeroDivisionError(f"pole atom {atom!r} vanishes at z_{i} = {sign}*z_{j}")
            (a, c), *rest = sorted((x.index(1), c) for x, c in form.items())
            atom = ("var", a) if not rest else ("sum" if rest[0][1] == c else "diff", a, rest[0][0])
            den[atom] = den.get(atom, 0) + e
            scale *= c ** e
        num = self.num.substitute(i, j, sign)
        return RationalFn(num.scale(scale) if scale in (1, -1) else num.scale(Fraction(1, scale)), den)

    def __str__(self):
        from .textio import format_rational

        return format_rational(self)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


def rf_equal(f: RationalFn, g: RationalFn) -> bool:
    """Exact equality via cross-multiplication to polynomials.

    Both sides are lifted to their common denominator, so each numerator
    is multiplied only by the other side's excess pole atoms: the
    cross-multiplied comparison with the common content cancelled.
    """
    den = common_denominator(f.den, g.den)
    return lift(f.num, f.den, den) == lift(g.num, g.den, den)


def residue_at(f: RationalFn, i: int, point_sign: int, j: int) -> RationalFn:
    """Res_{z_i = point_sign*z_j} of f.

    Returns the zero function when f has no pole atom at the point.  A
    pole of order k is handled by the derivative formula
    Res = (1/(k-1)!) d^{k-1}/dz_i^{k-1} [f*(z_i - s z_j)^k] at z_i = s z_j.
    k is read off ``f.den``, so where the atom divides the numerator it
    overstates the true order, and the formula stays exact: it holds for
    any k at least the true order.
    """
    if point_sign not in (1, -1):
        raise ValueError("point must be +z_j or -z_j")
    if point_sign == 1:
        atom, sgn = diff_factor(i, j)
    else:
        atom, sgn = sum_factor(i, j), 1
    k = f.den.get(atom, 0)
    if k == 0:
        return RationalFn.zero(f.alphabet)
    den = dict(f.den)
    del den[atom]
    # f = num/(atom^k * rest); atom = sgn*(z_i - s*z_j)
    h = RationalFn(f.num.scale(sgn ** k), den)
    for _ in range(k - 1):
        h = h.diff(i)
    h = h.substitute(i, j, point_sign)
    return h.scale(Fraction(1, math.factorial(k - 1)))
