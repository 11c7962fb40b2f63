"""Cycles on {1, ..., n} and their drop statistics.

A cycle is an equivalence class of permutations of {1, ..., n} under cyclic
rotation.  Each class is stored through its canonical representative, the
unique rotation starting with 1, so cyclic equality becomes plain sequence
equality.  Indices wrap: the pair after the last entry is the leading 1.

A *drop* is a cyclically consecutive pair whose first entry exceeds its
second.  Every cycle of length >= 2 has at least one drop, namely the wrap
pair (last entry, 1).  The one-element cycle is assigned a single formal
drop (STAR, 1); STAR has no parity, so that drop is neither odd-odd nor
even-odd.

Drops are classified by the parities of their two entries.  The class of
interest here consists of the cycles all of whose drops land on an odd
entry ("odd-drop cycles"); within it the counts of odd-odd and even-odd
drops are the two statistics everything else in this package is built on.

``Cycle`` validates its entries, which is what the API edge wants.  Code
that builds its words from permutations it already knows to be valid, as
the generating-tree check does for hundreds of thousands of them, reads
the statistics off the plain word with ``word_drop_stats`` and
``is_odd_drop_word``; the ``Cycle`` functions are wrappers over those.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, Union


class _Star:
    """Sentinel former entry of the one-element cycle's formal drop.

    Deliberately not an integer: its parity must be unaskable.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "STAR"


STAR = _Star()

#: Largest cycle length canonicalize accepts; n! representatives make
#: anything much beyond this uncomputable anyway.
MAX_N = 20


class DropKind(Enum):
    ODD_ODD = "odd-odd"
    EVEN_ODD = "even-odd"
    ODD_EVEN = "odd-even"
    EVEN_EVEN = "even-even"
    STAR = "star"


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

    @property
    def n(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Cycle{self.entries}"


@dataclass(frozen=True)
class Drop:
    """A descent pair (former, latter) at a 1-based cyclic position.

    The wrap pair (entries[n], entries[1]) is reported at position n.
    STAR occurs only as the former entry of the n=1 cycle's formal drop.
    """

    former: Union[int, _Star]
    latter: int
    position: int

    def __post_init__(self):
        if not isinstance(self.former, _Star) and self.former <= self.latter:
            raise ValueError(f"not a drop: {self.former} <= {self.latter}")


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


def drops(cycle: Cycle) -> list[Drop]:
    """All drops of a cycle, ordered by position.

    For n = 1 this is the single formal drop (STAR, 1).  For n >= 2 the
    wrap pair (entries[n], 1) is always a drop.
    """
    entries = cycle.entries
    n = len(entries)
    if n == 1:
        return [Drop(STAR, 1, 1)]
    found = []
    for i in range(n):
        former = entries[i]
        latter = entries[(i + 1) % n]
        if former > latter:
            found.append(Drop(former, latter, i + 1))
    return found


def classify(drop: Drop) -> DropKind:
    """Parity class of a drop; STAR drops are a class of their own."""
    if isinstance(drop.former, _Star):
        return DropKind.STAR
    former_odd = drop.former % 2 == 1
    latter_odd = drop.latter % 2 == 1
    if former_odd:
        return DropKind.ODD_ODD if latter_odd else DropKind.ODD_EVEN
    return DropKind.EVEN_ODD if latter_odd else DropKind.EVEN_EVEN


def is_odd_drop_word(word: tuple[int, ...]) -> bool:
    """``is_odd_drop_cycle`` on a canonical word, which is not re-validated.

    One pass over the cyclic pairs, the wrap pair first; tested against
    ``drops()``, which is the definition.
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
    is (1, 1), no drop); tested against the tally of ``classify`` over
    ``drops()``, which is the definition.
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


def is_odd_drop_cycle(cycle: Cycle) -> bool:
    """True when every drop lands on an odd entry.

    The n=1 cycle qualifies: its formal drop lands on 1.
    """
    return is_odd_drop_word(cycle.entries)


def drop_stats(cycle: Cycle) -> StatVector:
    """Counts of odd-odd and even-odd drops; STAR counts toward neither."""
    return StatVector(*word_drop_stats(cycle.entries))
