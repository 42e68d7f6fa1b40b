"""Exact determinants and Pfaffians.

One expansion, generic over the ring of the entries: ``pf_expansion``
expands along the first row with one memoized sub-Pfaffian per remaining
index tuple.  A determinant is the Pfaffian of [[0, m'], [-m'^T, 0]], m'
being m with its columns reversed, which cancels the block Pfaffian's
sign (-1)^{n(n-1)/2}.  The ring enters only through a multiply-accumulate,
so the expansion serves rational-function matrices here and integer
Laurent series in ``correspondence``.

Matrices stay tiny at desk scale (<= 8x8), so exactness wins over
asymptotics.  ``determinant`` and ``pfaffian`` run the expansion over
``RationalFn``, whose sums lift to the common factored denominator and
are never reduced.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from .ratfun import RationalFn


def det_expansion(m: Sequence[Sequence], one, zero: Callable, mac: Callable):
    """det(m) as the Pfaffian of [[0, m'], [-m'^T, 0]]; ``pf_expansion``
    reads only the upper triangle, so the lower blocks are never built."""
    n = len(m)
    block = [[None] * n + list(reversed(row)) for row in m] + [[None] * (2 * n)] * n
    return pf_expansion(block, one, zero, mac)


def pf_expansion(m: Sequence[Sequence], one, zero: Callable, mac: Callable):
    """Pf(m) = sum_j (-1)^(j-1) m_1j Pf(m without rows/columns 1, j),
    reading only the entries above the diagonal; falsy entries count as
    zero.

    ``mac(acc, sign, a, b)`` returns acc + sign*a*b and may update ``acc``
    in place; ``zero()`` makes a fresh accumulator and ``one`` is the
    empty Pfaffian.  Cached sub-Pfaffians are only ever read.
    """
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


def _rational(expansion: Callable, m: Sequence[Sequence[RationalFn]]) -> RationalFn:
    """Run ``expansion`` on rational-function entries."""
    alphabet = m[0][0].alphabet
    entries = [[None if x.is_zero() else x for x in row] for row in m]
    return expansion(entries, RationalFn.const(alphabet, 1), lambda: RationalFn.zero(alphabet),
                     lambda acc, sign, a, b: acc + (a * b if sign > 0 else -(a * b)))


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
