"""Exact enumeration oracle for odd-drop cycles.

This module is the independent oracle the symbolic routes are checked
against.  It reads only the definition: a cycle on [n] is its canonical
word, the rotation (1, a_2, ..., a_n) as ``bytes`` with one byte per entry,
which MAX_N keeps below 256.  Slicing, joining, sorting and comparing words
then run in C, and iterating over a word yields its entries as ints.  A
cycle is a member when every drop (a consecutive pair, the wrap pair
(a_n, 1) included, whose first entry is larger) lands on an odd entry.

Two methods share that definition.  ``joint_table`` counts members by
their (odd-odd, even-odd) drop pair with a dynamic program over the
state (set of used values, last value), the transfer-matrix / Held-Karp
subset method: it takes about 2^n * n^2 steps rather than (n-1)!, so
tables up to MAX_N take well under a second.  ``iter_odd_drop_words``
lists the members themselves, as (word, oo, eo) records with canonical
``bytes`` words, by a depth-first walk over tails in lexicographic
order.  It counts each drop as it places the entry the drop lands on,
and the wrap drop onto 1 at the end.  The walk enters a prefix only if
it completes to a member: its drops land on odd entries, and the
smallest unused value is odd or larger than its last entry.  That test
is exact.  If the smallest unused value is even and below the last
entry, everything that could precede it is larger, so some drop lands
on it.  Otherwise the unused values in increasing order complete the
prefix: the only drops they add land on that smallest value, which is
then odd, and on the leading 1.  The completions of a prefix depend
only on its last entry and its unused values, so once few values are
left the walk reads them from a memo, built by the same placement rule.
"""

from __future__ import annotations

from math import ceil, factorial
from typing import TYPE_CHECKING, Iterator

from . import MAX_N  # the largest n any function here accepts

if TYPE_CHECKING:
    from .polynomials import BiPoly


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def iter_odd_drop_words(n: int) -> Iterator[tuple[bytes, int, int]]:
    """Yield (word, oo, eo) for every odd-drop cycle on [n] once, words in lex order.

    oo and eo count the member's odd-odd and even-odd drops: each drop as
    the walk places the entry it lands on, the wrap drop onto 1 at the end.
    """
    _check_n(n)
    if n == 1:
        yield b"\x01", 0, 0  # the formal drop has no parity
        return
    # Stack of (last entry, unused values in increasing order, word so far,
    # its drops), children pushed in reverse.  The exact prune of the module
    # docstring holds for every entry, so an even smallest unused value is
    # larger than the last entry and must come next: any other choice leaves
    # it even and below the new last entry.  An odd smallest value never
    # trips the prune.
    stack, tails = [(1, bytes(range(2, n + 1)), b"\x01", 0, 0)], {}
    while stack:
        prev, rest, word, oo, eo = stack.pop()
        if len(rest) <= _TAIL:
            for tail, a, b in _tails(prev, rest, tails):
                yield word + tail, oo + a, eo + b
            continue
        low = rest[0]
        if not low & 1:
            stack.append((low, rest[1:], word + rest[:1], oo, eo))
            continue
        doo, deo = oo + (prev & 1), eo + 1 - (prev & 1)  # after a drop from prev
        for i in range(len(rest) - 1, -1, -1):
            v = rest[i]
            if v > prev:
                stack.append((v, rest[:i] + rest[i + 1:], word + rest[i : i + 1], oo, eo))
            elif v & 1:  # a drop onto an odd entry
                stack.append((v, rest[:i] + rest[i + 1:], word + rest[i : i + 1], doo, deo))


_TAIL = 4  # the most values left to a prefix that _tails completes


def _tails(prev: int, rest: bytes, memo: dict) -> list[tuple[bytes, int, int]]:
    # Every completion of a prefix ending in prev by the values rest, in lex
    # order, with the drops it adds, the wrap drop (last entry, 1) included;
    # made once per walk for all the prefixes that share prev and rest.
    if not rest:
        return [(b"", prev & 1, 1 - (prev & 1))]
    if (prev, rest) not in memo:
        memo[prev, rest] = out = []
        for i, v in enumerate(rest):
            if v > prev:
                oo = eo = 0
            elif v & 1:  # a drop onto an odd entry
                oo, eo = prev & 1, 1 - (prev & 1)
            else:
                continue
            for tail, a, b in _tails(v, rest[:i] + rest[i + 1:], memo):
                out.append((rest[i : i + 1] + tail, oo + a, eo + b))
    return memo[prev, rest]


def joint_table(n: int) -> BiPoly:
    """Count odd-drop cycles on [n] by their (odd-odd, even-odd) pair.

    The result is the joint polynomial: the coefficient of x^oo * y^eo is the
    number of members with oo odd-odd and eo even-odd drops.

    Dynamic program over the tails of (1, ...): a state is the set of values
    placed so far (bit v for value v) and the last of them, and it carries
    the drop pairs of the prefixes that reach it, with their counts, packed
    into one integer: the count of (oo, eo) in slot oo*(n+1) + eo, each slot
    one bit wider than (n-1)!.  A drop moves every count of a state up a
    fixed number of slots, a shift, and two states merge by an add.
    """
    from .polynomials import BiPoly  # here, so that listing members loads no polynomials

    return BiPoly(_pair_counts(n))


def _pair_counts(n: int) -> dict[tuple[int, int], int]:
    # joint_table's dynamic program: its counts by drop pair, in a plain dict
    _check_n(n)
    if n == 1:
        return {(0, 0): 1}
    width = factorial(n - 1).bit_length() + 1
    drop = _drop_shifts(n, width)
    values = range(2, n + 1)
    # a state's key: its set above bit 5, its last value below.  Per last
    # value, what may follow it, with its key bits and whether it drops
    follow = {p: [(v, 1 << v + 5 | v, v < p) for v in _successors(p, values)] for p in values}
    # the pair (1, a_2) is never a drop
    layer = {1 << v + 5 | v: 1 for v in values}
    for _ in range(n - 2):
        nxt: dict[int, int] = {}
        for key, dist in layer.items():
            prev = key & 31
            dropped = dist << drop[prev & 1]
            for v, bits, drops in follow[prev]:
                if not key >> v + 5 & 1:
                    target = key ^ prev | bits
                    nxt[target] = nxt.get(target, 0) + (dropped if drops else dist)
        layer = nxt
    # the wrap pair (last, 1) is always a drop, and it lands on 1
    packed = sum(dist << drop[key & 1] for key, dist in layer.items())
    counts = {}
    # a drop lands on an odd entry, and no two drops share one
    bound = ceil(n / 2)
    for slot in range(packed.bit_length() // width + 1):
        c = packed >> slot * width & (1 << width) - 1
        if c:
            pair = divmod(slot, n + 1)
            if sum(pair) > bound:
                raise ValueError(f"stat pair {pair} exceeds bound {bound} for n={n}")
            counts[pair] = c
    return counts


def _successors(prev: int, values: range) -> list[int]:
    # the values that may follow prev: above it, or below it and odd
    return [v for v in values if v > prev or v & 1]


def _drop_shifts(n: int, width: int) -> tuple[int, int]:
    # a drop from an even entry adds one to eo, a slot up; from an odd, to oo
    return width, (n + 1) * width


def count_only(table: BiPoly, kind: int) -> int:
    """Number of members, read off a joint table, all of whose drops are of
    one kind: odd-odd for kind 0, even-odd for kind 1.  A member counts when
    it has a drop of that kind and none of the other, so the one-element
    cycle, whose formal drop has no parity, counts for neither."""
    return sum(c for pair, c in table.terms.items() if pair[kind] and not pair[1 - kind])

