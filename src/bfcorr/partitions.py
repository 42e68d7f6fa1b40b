"""Independent integer-partition counters (oracles for the characters)."""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _partition_table(n: int, odd_only: bool) -> tuple:
    """Coin-style DP: number of partitions of 0..n (optionally odd parts)."""
    table = [0] * (n + 1)
    table[0] = 1
    parts = range(1, n + 1, 2) if odd_only else range(1, n + 1)
    for p in parts:
        for total in range(p, n + 1):
            table[total] += table[total - p]
    return tuple(table)


def partition_count(n: int) -> int:
    if n < 0:
        return 0
    return _partition_table(n, False)[n]


def odd_partition_count(n: int) -> int:
    if n < 0:
        return 0
    return _partition_table(n, True)[n]

