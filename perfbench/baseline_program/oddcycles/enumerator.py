"""Brute-force enumeration of odd-drop cycles.

This module is the independent oracle the symbolic routes are checked
against: it realizes the class by exhausting all (n-1)! canonical
representatives (entries[0] fixed to 1, tails walked in lexicographic
order) and filtering on the drop condition.

Two walks are available.  The default examines every tail permutation and
tests membership afterwards.  The optional pruned walk abandons a prefix
as soon as a committed drop lands on an even entry; it visits the same
members in the same order, which the test suite verifies by direct
comparison for small n.

Aggregation partitions the search space by the entry following the leading
1, giving n-1 shards with no shared state; shard tables are summed, so the
result does not depend on worker count or scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations
from math import ceil
from typing import Iterator

from .cycles import Cycle
from .polynomials import BigPoly, BiPoly

#: Default ceiling for brute-force work: 11! tails at n=12 is seconds of work.
DEFAULT_BRUTEFORCE_MAX = 12


@dataclass(frozen=True)
class StatTable:
    """Counts of odd-drop cycles on [n] by (odd-odd, even-odd) drop pair."""

    n: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        bound = ceil(self.n / 2)
        for (oo, eo), c in self.counts.items():
            if oo < 0 or eo < 0 or c < 0:
                raise ValueError(f"negative entry at {(oo, eo)}: {c}")
            if oo + eo > bound:
                raise ValueError(f"stat pair {(oo, eo)} exceeds bound {bound} for n={self.n}")

    def total(self) -> int:
        return sum(self.counts.values())

    def as_bipoly(self) -> BiPoly:
        """The table read as the joint polynomial sum of x^oo * y^eo."""
        return BiPoly({key: c for key, c in self.counts.items()})

    def oo_marginal(self) -> BigPoly:
        """Polynomial in x counting members by odd-odd drops (y set to 1)."""
        out: dict[int, int] = {}
        for (oo, _), c in self.counts.items():
            out[oo] = out.get(oo, 0) + c
        return BigPoly(out.get(i, 0) for i in range(max(out, default=0) + 1))

    def eo_marginal(self) -> BigPoly:
        """Polynomial in y counting members by even-odd drops (x set to 1)."""
        out: dict[int, int] = {}
        for (_, eo), c in self.counts.items():
            out[eo] = out.get(eo, 0) + c
        return BigPoly(out.get(j, 0) for j in range(max(out, default=0) + 1))


def _check_n(n: int, max_n: int) -> None:
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n}, got {n}")


def _tail_is_member(tail: tuple[int, ...]) -> bool:
    # Pair (1, tail[0]) is never a drop; the wrap pair lands on 1, always odd.
    prev = tail[0]
    for v in tail[1:]:
        if v < prev and not v & 1:
            return False
        prev = v
    return True


def _iter_tails_pruned(prev: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # Lexicographic DFS over the unused values; a committed drop onto an
    # even entry kills the whole subtree.
    if not remaining:
        yield ()
        return
    for i, v in enumerate(remaining):
        if v < prev and not v & 1:
            continue
        rest = remaining[:i] + remaining[i + 1:]
        for suffix in _iter_tails_pruned(v, rest):
            yield (v,) + suffix


def iter_odd_drop_cycles(
    n: int,
    *,
    prune: bool = False,
    max_n: int = DEFAULT_BRUTEFORCE_MAX,
) -> Iterator[Cycle]:
    """Yield every odd-drop cycle on [n] exactly once, tails in lex order."""
    _check_n(n, max_n)
    if n == 1:
        yield Cycle((1,))
        return
    vals = tuple(range(2, n + 1))
    if prune:
        for tail in _iter_tails_pruned(1, vals):
            yield Cycle((1,) + tail)
    else:
        for tail in permutations(vals):
            if _tail_is_member(tail):
                yield Cycle((1,) + tail)


def _scan_shard_full(n: int, second: int) -> dict[tuple[int, int], int]:
    # Hot loop: inlined membership test plus stat bookkeeping per tail.
    counts: dict[tuple[int, int], int] = {}
    rest = [k for k in range(2, n + 1) if k != second]
    for p in permutations(rest):
        prev = second
        oo = 0
        eo = 0
        good = True
        for v in p:
            if v < prev:
                if not v & 1:
                    good = False
                    break
                if prev & 1:
                    oo += 1
                else:
                    eo += 1
            prev = v
        if good:
            if prev & 1:
                oo += 1
            else:
                eo += 1
            key = (oo, eo)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _scan_shard_pruned(n: int, second: int) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}

    def rec(prev: int, remaining: tuple[int, ...], oo: int, eo: int) -> None:
        if not remaining:
            key = (oo + 1, eo) if prev & 1 else (oo, eo + 1)
            counts[key] = counts.get(key, 0) + 1
            return
        for i, v in enumerate(remaining):
            rest = remaining[:i] + remaining[i + 1:]
            if v < prev:
                if not v & 1:
                    continue
                if prev & 1:
                    rec(v, rest, oo + 1, eo)
                else:
                    rec(v, rest, oo, eo + 1)
            else:
                rec(v, rest, oo, eo)

    rest = tuple(k for k in range(2, n + 1) if k != second)
    rec(second, rest, 0, 0)
    return counts


def _scan_shard(args: tuple[int, int, bool]) -> dict[tuple[int, int], int]:
    n, second, prune = args
    return _scan_shard_pruned(n, second) if prune else _scan_shard_full(n, second)


def joint_table(
    n: int,
    *,
    threads: int | None = None,
    prune: bool = False,
    max_n: int = DEFAULT_BRUTEFORCE_MAX,
) -> StatTable:
    """Count odd-drop cycles on [n] by their (odd-odd, even-odd) pair.

    threads=None uses one worker per logical core; shard results are merged
    by summation, so the table is identical for every worker count.
    """
    _check_n(n, max_n)
    if n == 1:
        return StatTable(1, {(0, 0): 1})
    if threads is None:
        threads = os.cpu_count() or 1
    shards = [(n, second, prune) for second in range(2, n + 1)]
    if threads <= 1 or len(shards) <= 1:
        results = map(_scan_shard, shards)
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(shards))) as pool:
            results = list(pool.map(_scan_shard, shards))
    merged: dict[tuple[int, int], int] = {}
    for part in results:
        for key, c in part.items():
            merged[key] = merged.get(key, 0) + c
    return StatTable(n, merged)


def count_even_odd_only(
    length: int,
    *,
    threads: int | None = None,
    prune: bool = False,
    max_n: int = DEFAULT_BRUTEFORCE_MAX,
) -> int:
    """Number of cycles on [length] all of whose drops are even-odd.

    The one-element cycle's formal drop has no parity, so it is not
    even-odd and the count for length 1 is 0.
    """
    _check_n(length, max_n)
    if length == 1:
        return 0
    table = joint_table(length, threads=threads, prune=prune, max_n=max_n)
    return sum(c for (oo, _), c in table.counts.items() if oo == 0)


def count_odd_odd_only(
    length: int,
    *,
    threads: int | None = None,
    prune: bool = False,
    max_n: int = DEFAULT_BRUTEFORCE_MAX,
) -> int:
    """Number of cycles on [length] all of whose drops are odd-odd.

    Zero for length 1, for the same reason as count_even_odd_only.
    """
    _check_n(length, max_n)
    if length == 1:
        return 0
    table = joint_table(length, threads=threads, prune=prune, max_n=max_n)
    return sum(c for (_, eo), c in table.counts.items() if eo == 0)
