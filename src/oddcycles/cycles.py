"""Cycles on {1, ..., n} and their drop statistics.

A cycle is an equivalence class of permutations of {1, ..., n} under cyclic
rotation.  Each class is stored through its canonical representative, the
unique rotation starting with 1, so cyclic equality becomes plain sequence
equality.  Indices wrap: the pair after the last entry is the leading 1.

A *drop* is a cyclically consecutive pair whose first entry exceeds its
second.  Every cycle of length >= 2 has at least one drop, namely the wrap
pair (last entry, 1).  The one-element cycle is assigned a single formal
drop onto 1 whose former entry has no parity, so that drop is neither
odd-odd nor even-odd.

Drops are classified by the parities of their two entries.  The class of
interest here consists of the cycles all of whose drops land on an odd
entry ("odd-drop cycles"); within it the counts of odd-odd and even-odd
drops are the two statistics everything else in this package is built on.
The tests check the one-pass functions here against a literal
transcription of this definition in ``tests/reference.py``.

``Cycle`` validates its entries, which is what the API edge wants.  Code
that builds its words from permutations it already knows to be valid, as
the generating-tree check does for hundreds of thousands of them, reads
the statistics off the plain word with ``word_drop_stats`` and
``is_odd_drop_word``; ``drop_stats`` is the wrapper over the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

#: Largest cycle length canonicalize accepts; n! representatives make
#: anything much beyond this uncomputable anyway.
MAX_N = 20


class StatVector(NamedTuple):
    """Pair (oo, eo): counts of odd-odd and even-odd drops."""

    oo: int
    eo: int


@dataclass(frozen=True)
class Cycle:
    """Canonical representative of a cycle: entries[0] is always 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("cycle must be nonempty")
        if self.entries[0] != 1:
            raise ValueError(f"canonical cycle must start with 1, got {self.entries}")
        if set(self.entries) != set(range(1, n + 1)):
            raise ValueError(f"entries must be a permutation of 1..{n}, got {self.entries}")

    def __repr__(self) -> str:
        return f"Cycle{self.entries}"


def canonicalize(perm: Sequence[int]) -> Cycle:
    """Rotate a permutation of {1, ..., n} to start with 1.

    All rotations of the same word map to the same Cycle.  Rejects input
    that is not a permutation of a contiguous range starting at 1, and
    lengths beyond MAX_N.
    """
    word = tuple(perm)
    n = len(word)
    if n == 0:
        raise ValueError("empty input")
    if n > MAX_N:
        raise ValueError(f"length {n} exceeds the maximum {MAX_N}")
    if set(word) != set(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    pivot = word.index(1)
    return Cycle(word[pivot:] + word[:pivot])


def is_odd_drop_word(word: tuple[int, ...]) -> bool:
    """True when every drop of a canonical word lands on an odd entry.

    The word is not re-validated.  One pass over the cyclic pairs, the wrap
    pair first; the one-element word qualifies, its formal drop landing on 1.
    Tested against ``tests/reference.py``, which is the definition.
    """
    prev = word[-1]
    for v in word:
        if v < prev and not v & 1:
            return False
        prev = v
    return True


def word_drop_stats(word: tuple[int, ...]) -> tuple[int, int]:
    """``drop_stats`` on a canonical word, which is not re-validated.

    One pass over the cyclic pairs, the wrap pair first (for n = 1 that pair
    is (1, 1), no drop, so the formal drop counts toward neither statistic);
    tested against the tally in ``tests/reference.py``, which is the
    definition.
    """
    oo = 0
    eo = 0
    prev = word[-1]
    for v in word:
        if v < prev and v & 1:
            if prev & 1:
                oo += 1
            else:
                eo += 1
        prev = v
    return oo, eo


def drop_stats(cycle: Cycle) -> StatVector:
    """Counts of odd-odd and even-odd drops of a cycle."""
    return StatVector(*word_drop_stats(cycle.entries))
