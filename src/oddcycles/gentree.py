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
insertion lands in; insertion_delta exposes that case analysis so tests can
assert it against statistics recomputed from scratch.
"""

from __future__ import annotations

from math import ceil

from .cycles import Cycle, drop_stats, is_odd_drop_cycle
from .polynomials import BiPoly


def insertion_positions(cycle: Cycle) -> list[int]:
    """Indices of odd entries, each a legal spot for the next maximum.

    Index 0 (the leading 1) stands for appending at the end of the word.
    """
    return [i for i, v in enumerate(cycle.entries) if v & 1]


def child_at(cycle: Cycle, pos: int) -> Cycle:
    """Insert n+1 immediately before the entry at pos (pos 0: append)."""
    entries = cycle.entries
    new = len(entries) + 1
    if pos == 0:
        return Cycle(entries + (new,))
    return Cycle(entries[:pos] + (new,) + entries[pos:])


def insertion_delta(cycle: Cycle, pos: int) -> tuple[int, int]:
    """Predicted change of (oo, eo) when the next maximum lands before pos.

    Three cases each way: the insertion either splits an existing drop of
    one kind or another, or sits where there was no drop.  n = 1 is the
    lone special case: the formal (STAR, 1) drop counts as no drop, and
    appending 2 creates the even-odd wrap drop (2, 1).
    """
    entries = cycle.entries
    n = len(entries)
    new = n + 1
    former = entries[pos - 1] if pos else entries[-1]
    latter = entries[pos]
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


def children(cycle: Cycle) -> list[Cycle]:
    """All odd-drop cycles obtained by inserting the next maximum.

    The input must itself be an odd-drop cycle; the children partition the
    next level, ceil(n/2) of them per parent (one per odd entry).
    """
    if not is_odd_drop_cycle(cycle):
        raise ValueError(f"not an odd-drop cycle: {cycle}")
    return [child_at(cycle, pos) for pos in insertion_positions(cycle)]


def _check_joint_input(poly: BiPoly, n: int) -> None:
    if n < 1:
        raise ValueError(f"step parameter must be positive, got {n}")
    for (i, j), c in poly.terms.items():
        if i + j > n:
            raise ValueError(f"term x^{i}*y^{j} violates the degree bound i+j <= {n}")
        if c < 0:
            raise ValueError(f"negative coefficient {c} at x^{i}*y^{j}")


def joint_step_even(poly: BiPoly, n: int) -> BiPoly:
    """Transfer the joint polynomial from length 2n-1 to length 2n.

    Each monomial c*x^i*y^j contributes
    c * (i*x^(i-1)*y^(j+1) + j*x^i*y^j + (n-i-j)*x^i*y^(j+1)).
    """
    _check_joint_input(poly, n)
    return _to_bipoly(_step(_to_grid(poly.terms, n), n))


def joint_step_odd(poly: BiPoly, n: int) -> BiPoly:
    """Transfer the joint polynomial from length 2n to length 2n+1.

    Each monomial c*x^i*y^j contributes
    c * (i*x^i*y^j + j*x^(i+1)*y^(j-1) + (n-i-j)*x^(i+1)*y^j),
    which is the even step's contribution with x and y (and i and j)
    exchanged term by term, so the odd step is the even step conjugated by
    that swap.  The input check runs on the caller's polynomial so that its
    messages name the caller's terms.
    """
    _check_joint_input(poly, n)
    return _to_bipoly(_odd_step(_to_grid(poly.terms, n), n))


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
    # the even step on a square grid of side at least n + 1; checking each
    # nonzero entry's degree and sign keeps every image inside the grid and
    # nonnegative.  The messages hold on the transposed grid too.
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


def verify_level(parent_level: list[Cycle]) -> tuple[list[Cycle], list[str]]:
    """Grow one tree level, checking the per-insertion case analysis.

    Returns the children of all parents plus a list of discrepancy
    messages (statistics recomputed from scratch not matching the
    predicted deltas, a wrong child count, or a non-member child).
    """
    next_level: list[Cycle] = []
    problems: list[str] = []
    for parent in parent_level:
        stats = drop_stats(parent)
        kids = children(parent)
        if len(kids) != children_count(parent.n):
            problems.append(
                f"{parent}: {len(kids)} children, expected {children_count(parent.n)}"
            )
        for pos, kid in zip(insertion_positions(parent), kids):
            if not is_odd_drop_cycle(kid):
                problems.append(f"{parent} pos {pos}: child {kid} not an odd-drop cycle")
            doo, deo = insertion_delta(parent, pos)
            predicted = (stats.oo + doo, stats.eo + deo)
            actual = tuple(drop_stats(kid))
            if predicted != actual:
                problems.append(
                    f"{parent} pos {pos}: predicted stats {predicted}, got {actual}"
                )
        next_level.extend(kids)
    return next_level, problems
