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
insertion lands in (see _word_delta); verify_level predicts each child's
pair with it, verify's tree-partition check compares the predictions with
the enumerator's records, and the tests compare the case analysis with
the drop definition in ``tests/reference.py``.
"""

from __future__ import annotations

from math import ceil, prod

from .polynomials import BiPoly, _shift_down


def _odd_positions(word: bytes) -> list[int]:
    """Indices of odd entries, each a legal spot for the next maximum.

    Index 0 (the leading 1) stands for appending at the end of the word.
    """
    return [i for i, v in enumerate(word) if v & 1]


def _child_word(word: bytes, pos: int) -> bytes:
    """Insert n+1 immediately before the entry at pos (pos 0: append)."""
    new = bytes((len(word) + 1,))
    if pos == 0:
        return word + new
    return word[:pos] + new + word[pos:]


def _word_delta(word: bytes, pos: int) -> tuple[int, int]:
    """Predicted change of (oo, eo) when the next maximum lands before pos.

    Three cases each way: the insertion either splits an existing drop of
    one kind or another, or sits where there was no drop.  n = 1 needs no
    case of its own: the pair around the spot is (1, 1), no drop, so the
    formal drop onto 1 counts as none, and appending 2 creates the
    even-odd wrap drop (2, 1).
    """
    former, latter = word[pos - 1], word[pos]  # pos 0: the wrap pair
    if len(word) & 1:  # the new maximum is even
        if former <= latter:
            return (0, 1)
        return (-1, 1) if former & 1 else (0, 0)  # a drop replaced by even-odd (new, latter)
    if former <= latter:
        return (1, 0)
    return (0, 0) if former & 1 else (1, -1)  # a drop replaced by odd-odd (new, latter)


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
    below = 0
    for d, shell in enumerate(shells):
        scaled = (k - d) * shell
        shells[d] = scaled + (below << shift if shift else below)
        below = scaled
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


def verify_level(parents: list[tuple[bytes, int, int]]) -> tuple[list[tuple], list[str]]:
    """Grow one tree level of (word, oo, eo) records, words as in ``cycles``.

    The parents are member records, such as the level this returned last
    time; each child's pair is its parent's plus _word_delta.  Returns the
    children of all parents plus a list of discrepancy messages, one per
    parent with a wrong child count, which write the word as Cycle(...).
    """
    next_level: list[tuple] = []
    problems: list[str] = []
    for parent, oo, eo in parents:
        positions = _odd_positions(parent)
        expected = children_count(len(parent))
        if len(positions) != expected:
            problems.append(f"Cycle{tuple(parent)}: {len(positions)} children, expected {expected}")
        for pos in positions:
            doo, deo = _word_delta(parent, pos)
            next_level.append((_child_word(parent, pos), oo + doo, eo + deo))
    return next_level, problems
