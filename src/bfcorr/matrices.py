"""Exact determinants and Pfaffians.

Both concepts have one expansion each, generic over the ring of the
entries: ``det_expansion`` expands along the rows by cofactors with one
memoized minor per (row, remaining columns), and ``pf_expansion`` expands
along the first row with one memoized sub-Pfaffian per remaining index
tuple.  The ring enters only through a multiply-accumulate, so the same
expansions serve rational-function matrices here and integer Laurent
series in ``correspondence``.

Matrices stay tiny at desk scale (<= 8x8), so exactness wins over
asymptotics.  ``determinant`` and ``pfaffian`` run their expansion on
unreduced (numerator, factored denominator) pairs, scaling each sum to
the least common factored denominator, and reduce once at the end.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from .poly import MultiPoly
from .ratfun import RationalFn, factor_poly


def det_expansion(m: Sequence[Sequence], one, zero: Callable, mac: Callable):
    """det(m) by cofactors along the rows; falsy entries count as zero.

    ``mac(acc, sign, a, b)`` returns acc + sign*a*b and may update ``acc``
    in place; ``zero()`` makes a fresh accumulator and ``one`` is the
    empty minor.  Cached minors are only ever read.
    """
    cache: Dict = {}

    def minor(row: int, cols: tuple):
        if not cols:
            return one
        key = (row, cols)
        hit = cache.get(key)
        if hit is not None:
            return hit
        total = zero()
        for pos, c in enumerate(cols):
            a = m[row][c]
            if a:
                total = mac(total, -1 if pos % 2 else 1, a, minor(row + 1, cols[:pos] + cols[pos + 1:]))
        cache[key] = total
        return total

    return minor(0, tuple(range(len(m))))


def pf_expansion(m: Sequence[Sequence], one, zero: Callable, mac: Callable):
    """Pf(m) = sum_j (-1)^(j-1) m_1j Pf(m without rows/columns 1, j), with
    the same conventions as ``det_expansion``."""
    cache: Dict = {}

    def pf(rows: tuple):
        if not rows:
            return one
        hit = cache.get(rows)
        if hit is not None:
            return hit
        first, rest = rows[0], rows[1:]
        total = zero()
        for pos, r in enumerate(rest):
            a = m[first][r]
            if a:
                total = mac(total, -1 if pos % 2 else 1, a, pf(rest[:pos] + rest[pos + 1:]))
        cache[rows] = total
        return total

    return pf(tuple(range(len(m))))


def _raw_scale_to(num: MultiPoly, den: Dict, target: Dict, alphabet) -> MultiPoly:
    for atom, e in target.items():
        k = e - den.get(atom, 0)
        if k:
            num = num * factor_poly(alphabet, atom) ** k
    return num


def _rational(expansion: Callable, m: Sequence[Sequence[RationalFn]]) -> RationalFn:
    """Run ``expansion`` on rational-function entries, accumulating unreduced
    (numerator, factored denominator) pairs and reducing once at the end."""
    alphabet = m[0][0].alphabet

    def mac(acc, sign, a: RationalFn, b):
        total_num, total_den = acc
        sub_num, sub_den = b
        num = a.num * sub_num
        den = dict(a.den)
        for atom, e in sub_den.items():
            den[atom] = den.get(atom, 0) + e
        merged = {x: max(total_den.get(x, 0), den.get(x, 0)) for x in set(total_den) | set(den)}
        total_num = _raw_scale_to(total_num, total_den, merged, alphabet)
        num = _raw_scale_to(num, den, merged, alphabet)
        return total_num + (num if sign > 0 else -num), merged

    entries = [[None if x.is_zero() else x for x in row] for row in m]
    num, den = expansion(entries, (MultiPoly.const(alphabet, 1), {}),
                         lambda: (MultiPoly.zero(alphabet), {}), mac)
    return RationalFn(num, den)


def _check_square(m: Sequence[Sequence]) -> None:
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")


def determinant(m: Sequence[Sequence[RationalFn]]) -> RationalFn:
    """Exact determinant."""
    _check_square(m)
    return _rational(det_expansion, m)


def pfaffian(m: Sequence[Sequence[RationalFn]]) -> RationalFn:
    """Exact Pfaffian of an antisymmetric matrix of even size."""
    _check_square(m)
    n = len(m)
    if n % 2 != 0:
        raise ValueError("Pfaffian needs even size")
    for i in range(n):
        for j in range(i, n):
            if not (m[i][j] == -m[j][i]):
                raise ValueError(f"matrix is not antisymmetric at ({i}, {j})")
    return _rational(pf_expansion, m)
