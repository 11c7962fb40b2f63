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
The tests check drop_stats, and the enumerator's records of the members,
against a literal transcription of this definition in ``tests/reference.py``.

A cycle is its canonical word: a ``bytes`` object with one byte per entry,
which MAX_N keeps far below 256.  Slicing, joining, sorting and comparing
words then run in C, and iterating over a word yields its entries as ints.
``canonicalize`` is the one check at the API edge; the functions that read
a word do not re-check it, since the enumerator and the generating tree
build theirs from permutations they already know to be valid.
"""

from __future__ import annotations

from typing import Sequence

#: Largest cycle length canonicalize accepts; n! representatives make
#: anything much beyond this uncomputable anyway.
MAX_N = 20


def canonicalize(perm: Sequence[int]) -> bytes:
    """Rotate a permutation of {1, ..., n} to start with 1: the canonical word.

    All rotations of the same word map to the same bytes.  Rejects entries
    that are not ints, input that is not a permutation of a contiguous range
    starting at 1, and lengths beyond MAX_N.
    """
    word = tuple(perm)
    n = len(word)
    if n == 0:
        raise ValueError("empty input")
    if n > MAX_N:
        raise ValueError(f"length {n} exceeds the maximum {MAX_N}")
    if any(type(v) is not int for v in word) or set(word) != set(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    pivot = word.index(1)
    return bytes(word[pivot:] + word[:pivot])


def drop_stats(word: bytes) -> tuple[int, int]:
    """Counts (oo, eo) of odd-odd and even-odd drops of a canonical word.

    The word is not re-validated.  One pass over the cyclic pairs, the wrap
    pair first (for n = 1 that pair is (1, 1), no drop, so the formal drop
    counts toward neither statistic); tested against the tally in
    ``tests/reference.py``, which is the definition.
    """
    oo = eo = 0
    prev = word[-1]
    for v in word:
        if v < prev and v & 1:
            if prev & 1:
                oo += 1
            else:
                eo += 1
        prev = v
    return oo, eo
