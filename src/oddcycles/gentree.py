"""The generating tree on odd-drop cycles, in two equivalent forms.

Cycle level: every odd-drop cycle on [m+1] arises exactly once by taking an
odd-drop cycle on [m] and inserting the new maximum m+1 immediately before
one of its odd entries (the new maximum always starts a drop, and that drop
must land odd; deleting the maximum inverts the step).  Inserting before
the leading 1 means appending at the end of the canonical word, so children
are canonical by construction.

Polynomial level: the same step acts on the joint polynomial f, the sum
of x^oo * y^eo, as f -> k*y*f + y*(1-x)*f_x + y*(1-y)*f_y into length 2k and
as its mirror in x and y into length 2k+1.  In F(a, b) = f(1+a, 1+b) these
read F -> (1+b)*(k-deg)*F and (1+a)*(k-deg)*F, deg the total degree, so the
walk from the one-element cycle holds F as one integer per total degree d, a
shell, with the coefficient of a^i*b^(d-i) at bit W*i and a guard bit to
spare, and at the end two Taylor shifts by -1 turn F back into f.

The per-insertion effect on (oo, eo) splits into three cases by what the
insertion lands in (see _word_delta); verify_level asserts that case
analysis against statistics recomputed from scratch, and the tests assert
it against the drop definition in ``tests/reference.py``.
"""

from __future__ import annotations

from math import ceil, prod

from .cycles import drop_stats, is_odd_drop_word
from .polynomials import BiPoly

Word = tuple[int, ...]


def _odd_positions(word: Word) -> list[int]:
    """Indices of odd entries, each a legal spot for the next maximum.

    Index 0 (the leading 1) stands for appending at the end of the word.
    """
    return [i for i, v in enumerate(word) if v & 1]


def _child_word(word: Word, pos: int) -> Word:
    """Insert n+1 immediately before the entry at pos (pos 0: append)."""
    new = len(word) + 1
    if pos == 0:
        return word + (new,)
    return word[:pos] + (new,) + word[pos:]


def _word_delta(word: Word, pos: int) -> tuple[int, int]:
    """Predicted change of (oo, eo) when the next maximum lands before pos.

    Three cases each way: the insertion either splits an existing drop of
    one kind or another, or sits where there was no drop.  n = 1 is the
    lone special case: the formal drop onto 1 counts as no drop, and
    appending 2 creates the even-odd wrap drop (2, 1).
    """
    n = len(word)
    new = n + 1
    former = word[pos - 1] if pos else word[-1]
    latter = word[pos]
    splits_drop = n > 1 and former > latter
    if new & 1:
        if not splits_drop:
            return (1, 0)
        if former & 1:
            return (0, 0)  # odd-odd drop replaced by odd-odd (new, latter)
        return (1, -1)  # even-odd drop replaced by odd-odd
    if not splits_drop:
        return (0, 1)
    if former & 1:
        return (-1, 1)  # odd-odd drop replaced by even-odd (new, latter)
    return (0, 0)  # even-odd drop replaced by even-odd


def _step(shells: list[int], k: int, shift: int) -> list[int]:
    # in place, into length 2k (shift 0: times 1+b) or 2k+1 (shift W: times
    # 1+a, a slot up): shell d scaled by k-d feeds shells d and d+1.  A shell
    # beyond degree k, or a negative one, would break the packing.
    for d, shell in enumerate(shells):
        if shell < 0:
            raise ValueError(f"transfer step {k}: negative coefficient in the shell of degree {d}")
        if shell and d > k:
            raise ValueError(f"transfer step {k}: a term of degree {d} exceeds the bound {k}")
    shells[:] = [*shells, 0][: k + 1]
    for d in range(k, 0, -1):
        below = (k - d + 1) * shells[d - 1]
        shells[d] = (k - d) * shells[d] + (below << shift if shift else below)
    shells[0] *= k
    return shells


def _slots(packed: int, length: int, size: int) -> list[bytes]:
    # a negative term sets a guard bit: it borrows from the slot above, or is the sign
    raw = packed.to_bytes(length * size, "little", signed=True)
    slots = [raw[at : at + size] for at in range(0, len(raw), size)]
    if any(slot[-1] & 0x80 for slot in slots):
        raise ValueError("transfer steps produced a negative coefficient")
    return slots


def _transpose(packed: list[int], lengths: range, size: int) -> list[int]:
    # slot s of each integer, in turn, goes to integer s; packed is emptied
    out = [bytearray() for _ in packed]
    for length in lengths:
        for s, slot in enumerate(_slots(packed.pop(0), length, size)):
            out[s] += slot
    return [int.from_bytes(b, "little") for b in out]


def _shift_down(packed: list[int]) -> list[int]:
    # p(t) -> p(t - 1) in place by synthetic division, slots side by side
    for low in range(len(packed) - 1):
        for i in range(len(packed) - 2, low - 1, -1):
            packed[i] -= packed[i + 1]
    return packed


def _decode(shells: list[int], width: int) -> BiPoly:
    # f(x, y) = F(x - 1, y - 1): the shells regrouped into rows (slot j of
    # row i holds a^i*b^j) shift in x, the rows regrouped into columns in y
    size, top = width // 8, len(shells) - 1
    rows = _shift_down(_transpose(shells, range(1, top + 2), size))
    columns = _shift_down(_transpose(rows, range(top + 1, 0, -1), size))
    terms = {}
    for j in range(top + 1):
        for i, c in enumerate(_slots(columns.pop(0), top + 1 - j, size)):
            terms[i, j] = int.from_bytes(c, "little")
    return BiPoly(terms)


def joint_poly(n: int) -> BiPoly:
    """Joint polynomial of the odd-drop cycles on [n] via the transfer steps.

    Starts from the one-element cycle (polynomial 1); length 2k comes from
    the even step with parameter k, length 2k+1 from the odd step with
    parameter k.  Never enumerates a cycle.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    # W, whole bytes: F's terms are at most f(2, 2) <= 2^(n//2) * f(1, 1), plus a guard bit
    members = prod(children_count(m) for m in range(1, n))
    width, shells = ((members << n // 2).bit_length() + 8) // 8 * 8, [1]
    for target in range(2, n + 1):
        shells = _step(shells, target // 2, width if target & 1 else 0)
    return _decode(shells, width)


def children_count(n: int) -> int:
    """Number of children of any odd-drop cycle on [n]: its odd entries."""
    return ceil(n / 2)


def verify_level(parents: list[Word]) -> tuple[list[Word], list[str]]:
    """Grow one tree level of canonical words, checking the case analysis.

    The parents are member words, such as the level this returned last
    time: every child it grows is checked for membership.  Returns the
    children of all parents plus a list of discrepancy messages (statistics
    recomputed from scratch not matching the predicted deltas, a wrong
    child count, or a non-member child), which write each word as Cycle(...).
    """
    next_level: list[Word] = []
    problems: list[str] = []
    for parent in parents:
        oo, eo = drop_stats(parent)
        positions = _odd_positions(parent)
        expected = children_count(len(parent))
        if len(positions) != expected:
            problems.append(f"Cycle{parent}: {len(positions)} children, expected {expected}")
        for pos in positions:
            kid = _child_word(parent, pos)
            if not is_odd_drop_word(kid):
                problems.append(f"Cycle{parent} pos {pos}: child Cycle{kid} not an odd-drop cycle")
            doo, deo = _word_delta(parent, pos)
            predicted = (oo + doo, eo + deo)
            actual = drop_stats(kid)
            if predicted != actual:
                problems.append(f"Cycle{parent} pos {pos}: predicted stats {predicted}, got {actual}")
            next_level.append(kid)
    return next_level, problems
