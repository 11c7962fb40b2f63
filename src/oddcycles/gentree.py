"""The generating tree on odd-drop cycles, in two equivalent forms.

Cycle level: every odd-drop cycle on [m+1] arises exactly once by taking an
odd-drop cycle on [m] and inserting the new maximum m+1 immediately before
one of its odd entries (the new maximum always starts a drop, and that drop
must land odd; deleting the maximum inverts the step).  Inserting before
the leading 1 means appending at the end of the canonical word, so children
are canonical by construction.

Polynomial level: the same step acts on the joint polynomial
sum of x^oo * y^eo as a linear transfer operator whose coefficients depend
only on the parity of the new length.  Alternating the two operators from
the one-element cycle rebuilds the joint polynomial of any length without
touching cycles at all.  The walk carries the coefficients as one dense
square grid, grid[i][j] being the coefficient of x^i*y^j, and wraps them in
a BiPoly once, at the end.  The two operators are one grid body: the odd
step is the even step with x and y exchanged, on its input and on its
output, which on the grid is the body conjugated by a transpose.

The per-insertion effect on (oo, eo) splits into three cases by what the
insertion lands in (see _word_delta); verify_level asserts that case
analysis against statistics recomputed from scratch, and the tests assert
it against the drop definition in ``tests/reference.py``.
"""

from __future__ import annotations

from math import ceil

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


def _to_grid(terms: dict[tuple[int, int], int], n: int) -> list[list[int]]:
    # terms within the degree bound i + j <= n fit a side of n + 1
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), c in terms.items():
        grid[i][j] = c
    return grid


def _transpose(grid: list[list[int]]) -> list[list[int]]:
    return [list(column) for column in zip(*grid)]


def _odd_step(grid: list[list[int]], n: int) -> list[list[int]]:
    return _transpose(_step(_transpose(grid), n))


def _step(grid: list[list[int]], n: int) -> list[list[int]]:
    # the even step, length 2n-1 to 2n, on a square grid of side at least
    # n + 1: each c*x^i*y^j contributes
    # c * (i*x^(i-1)*y^(j+1) + j*x^i*y^j + (n-i-j)*x^i*y^(j+1)).  Checking
    # each nonzero entry's degree and sign keeps every image inside the grid
    # and nonnegative.  The messages hold on the transposed grid too.
    side = len(grid)
    out = [[0] * side for _ in range(side)]
    for i, row in enumerate(grid):
        kept, lowered = out[i], out[i - 1]
        for j, c in enumerate(row):
            if not c:
                continue
            fresh = n - i - j
            if fresh < 0:
                raise ValueError(f"transfer step {n}: a term of degree {i + j} exceeds the bound {n}")
            if c < 0:
                raise ValueError(f"transfer step {n}: negative coefficient {c}")
            if i:
                lowered[j + 1] += c * i
            kept[j] += c * j
            if fresh:
                kept[j + 1] += c * fresh
    return out


def _to_bipoly(grid: list[list[int]]) -> BiPoly:
    terms = {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row) if c}
    for (i, j), c in terms.items():
        if c < 0:
            raise ValueError(f"transfer steps produced a negative coefficient {c} at x^{i}*y^{j}")
    return BiPoly(terms)


def joint_poly(n: int) -> BiPoly:
    """Joint polynomial of the odd-drop cycles on [n] via the transfer steps.

    Starts from the one-element cycle (polynomial 1); length 2k comes from
    the even step with parameter k, length 2k+1 from the odd step with
    parameter k.  Never enumerates a cycle.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    grid = _to_grid({(0, 0): 1}, n // 2)
    for target in range(2, n + 1):
        step = _odd_step if target & 1 else _step
        grid = step(grid, target // 2)
    return _to_bipoly(grid)


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
