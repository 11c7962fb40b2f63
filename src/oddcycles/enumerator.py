"""Exact enumeration oracle for odd-drop cycles.

This module is the independent oracle the symbolic routes are checked
against.  It reads only the definition: a cycle on [n] is stored as its
representative (1, a_2, ..., a_n), and it is a member when every drop
(a consecutive pair, the wrap pair (a_n, 1) included, whose first entry is
larger) lands on an odd entry.

Two methods share that definition.  ``joint_table`` counts members by
their (odd-odd, even-odd) drop pair with a dynamic program over the
state (set of used values, last value), the transfer-matrix / Held-Karp
subset method: it takes about 2^n * n^2 steps rather than (n-1)!, so
tables up to MAX_N take well under a second.  ``iter_odd_drop_words``
lists the members themselves, as canonical words, by a depth-first walk
over tails in lexicographic order.  The walk enters a prefix only if it
completes to a member: its drops land on odd entries, and the smallest
unused value is odd or larger than its last entry.  That test is exact.
If the smallest unused value is even and below the last entry,
everything that could precede it is larger, so some drop lands on it.
Otherwise the unused values in increasing order complete the prefix: the
only drops they add land on that smallest value, which is then odd, and
on the leading 1.  With two values left, low < high, the walk finishes
the prefix itself instead of entering two more prefixes: low then high
always completes it, and high then low exactly when low is odd (the drop
onto it) and high is odd or above the last entry.
"""

from __future__ import annotations

from math import ceil
from typing import Iterator

from . import MAX_N  # the largest n any function here accepts
from .polynomials import BiPoly


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def iter_odd_drop_words(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical word of every odd-drop cycle on [n] once, in lex order."""
    _check_n(n)
    # Stack of (last entry, unused values in increasing order, word so far),
    # children pushed in reverse.  The exact prune of the module docstring
    # holds for every entry, so an even smallest unused value is larger than
    # the last entry and must come next: any other choice leaves it even and
    # below the new last entry.  An odd smallest value never trips the prune.
    stack = [(1, tuple(range(2, n + 1)), (1,))]
    while stack:
        prev, rest, word = stack.pop()
        if len(rest) <= 2:
            yield word + rest
            # high then low: (high, low) drops onto low, and (prev, high)
            # drops onto high unless high is above prev
            if len(rest) == 2 and rest[0] & 1 and (rest[1] > prev or rest[1] & 1):
                yield word + rest[::-1]
            continue
        low = rest[0]
        if not low & 1:
            stack.append((low, rest[1:], word + (low,)))
            continue
        for i in range(len(rest) - 1, -1, -1):
            v = rest[i]
            if v < prev and not v & 1:
                continue  # a drop onto an even entry
            stack.append((v, rest[:i] + rest[i + 1:], word + (v,)))


def _with_drop(dist: dict[tuple[int, int], int], former: int) -> dict[tuple[int, int], int]:
    # one more drop onto an odd entry: odd-odd or even-odd by former's parity
    return {((oo + 1, eo) if former & 1 else (oo, eo + 1)): c for (oo, eo), c in dist.items()}


def joint_table(n: int) -> BiPoly:
    """Count odd-drop cycles on [n] by their (odd-odd, even-odd) pair.

    The result is the joint polynomial: the coefficient of x^oo * y^eo is the
    number of members with oo odd-odd and eo even-odd drops.

    Dynamic program over the tails of (1, ...): a state is the set of values
    placed so far (bit v for value v) and the last of them, and it carries
    the drop pairs of the prefixes that reach it, with their counts.
    """
    _check_n(n)
    if n == 1:
        return BiPoly.one()
    values = range(2, n + 1)
    # the pair (1, a_2) is never a drop
    layer = {(1 << v, v): {(0, 0): 1} for v in values}
    for _ in range(n - 2):
        nxt: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        for (used, prev), dist in layer.items():
            dropped = None
            for v in values:
                if used >> v & 1:
                    continue
                if v < prev:
                    if not v & 1:
                        continue
                    if dropped is None:
                        dropped = _with_drop(dist, prev)
                    step = dropped
                else:
                    step = dist
                key = (used | 1 << v, v)
                target = nxt.get(key)
                if target is None:
                    nxt[key] = dict(step)
                else:
                    for pair, c in step.items():
                        target[pair] = target.get(pair, 0) + c
        layer = nxt
    counts: dict[tuple[int, int], int] = {}
    for (_, last), dist in layer.items():
        # the wrap pair (last, 1) is always a drop, and it lands on 1
        for pair, c in _with_drop(dist, last).items():
            counts[pair] = counts.get(pair, 0) + c
    # a drop lands on an odd entry, and no two drops share one
    bound = ceil(n / 2)
    for pair in counts:
        if sum(pair) > bound:
            raise ValueError(f"stat pair {pair} exceeds bound {bound} for n={n}")
    return BiPoly(counts)


def count_only(table: BiPoly, kind: int) -> int:
    """Number of members, read off a joint table, all of whose drops are of
    one kind: odd-odd for kind 0, even-odd for kind 1.  A member counts when
    it has a drop of that kind and none of the other, so the one-element
    cycle, whose formal drop has no parity, counts for neither."""
    return sum(c for pair, c in table.terms.items() if pair[kind] and not pair[1 - kind])


def count_even_odd_only(length: int) -> int:
    """Number of cycles on [length] all of whose drops are even-odd.

    The one-element cycle's formal drop has no parity, so it is not
    even-odd and the count for length 1 is 0.
    """
    return count_only(joint_table(length), 1)


def count_odd_odd_only(length: int) -> int:
    """Number of cycles on [length] all of whose drops are odd-odd.

    Zero for length 1, for the same reason as count_even_odd_only.
    """
    return count_only(joint_table(length), 0)
