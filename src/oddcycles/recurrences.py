"""First-order polynomial recurrences for the two drop statistics.

oo_poly(n) is the distribution of odd-odd drops over odd-drop cycles on [n]
(the x-marginal of the joint polynomial), eo_poly(n) the distribution of
even-odd drops (the y-marginal).  Both are built from the same two steps in
the marked variable v,

    free step:    p  |->  k*p + (1-v)*p'
    forced step:  p  |->  v * (k*p + (1-v)*p')

which are the specializations y=1 resp. x=1 of the bivariate transfer
operators in gentree, as the cross-check tests pin down.  The forced step is
the one into lengths where every cycle has a drop of the marked kind: odd
lengths for the odd-odd statistic, even lengths for the even-odd one.  So
oo_poly alternates (even: free, odd: forced) and eo_poly the same steps with
the phases swapped.

Lengths pair up as 2k -> even step with parameter k, 2k+1 -> odd step with
parameter k, so the walk picks the step by the parity of the target length
and passes k = target // 2.

The walk, _eigen_walk, runs in the eigenbasis a = v - 1 of the free step
and yields every length.  There P(a) = p(1 + a), the free step is
P_i -> (k-i)*P_i and the forced step also multiplies by 1 + a.  Each free
step's factor is held until the forced step after it, so a pair of lengths
costs one multiply by the small integer (k-i)*(k'-i) and one add per
coefficient.  Each length comes out as its coefficients, updated in place,
and the free step still held, which a reader applies as it reads: applying
it to a copy at every length would double the walk's time.  _in_v reads a
length as p(v), ending on one Taylor shift by -1, and oo_poly and eo_poly
read the walk's last length so.  _at reads a length at an integer a: the
count f(1) = P(0) and the value at v = 0, P(-1), need no shift.  The series
suite reads every length against the closed forms in u = 1 - v = -a, so
neither side shifts.
"""

from __future__ import annotations

from typing import Iterator

from .polynomials import BigPoly, _shift_down


def _lift(coeffs: list[int], k: int, held: int) -> None:
    # in place: the held free step (none if 0) and the forced step k, that
    # is coefficient i times (held-i)*(k-i), then the whole times 1 + a
    below = 0
    for i, c in enumerate(coeffs):
        c *= (held - i) * (k - i) if held else k - i
        coeffs[i] = c + below
        below = c
    coeffs.append(below)


def _eigen_walk(n: int, forced: int) -> Iterator[tuple[list[int], int]]:
    """Lengths 1..n of one statistic in a = v - 1 as (coeffs, held), coeffs
    updated in place, forced the parity of the lengths the forced step goes
    into.  Coefficient i of a length is (held-i)*coeffs[i], or coeffs[i]
    when held, the parameter of a free step not yet applied, is 0."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    coeffs, held = [1], 0
    yield coeffs, held
    for target in range(2, n + 1):
        if target & 1 == forced:
            _lift(coeffs, target // 2, held)
            held = 0
        else:
            held = target // 2
        yield coeffs, held


def _applied(coeffs: list[int], held: int) -> list[int]:
    # a copy of one length's coefficients in a, its held free step applied
    return [(held - i) * c for i, c in enumerate(coeffs)] if held else coeffs[:]


def _in_v(coeffs: list[int], held: int) -> BigPoly:
    """One length of the walk as the polynomial p(v) it stands for."""
    return BigPoly(_shift_down(_applied(coeffs, held)))


def _at(coeffs: list[int], held: int, a: int) -> int:
    """One length of the walk at the integer a: P(a) = p(1 + a)."""
    return sum(c * a**i for i, c in enumerate(_applied(coeffs, held)))


def _at_length(n: int, forced: int) -> BigPoly:
    # the walk to length n alone, read once at the end
    for coeffs, held in _eigen_walk(n, forced):
        pass
    return _in_v(coeffs, held)


def oo_poly(n: int) -> BigPoly:
    """Odd-odd drop distribution over odd-drop cycles on [n], in x."""
    return _at_length(n, 1)


def eo_poly(n: int) -> BigPoly:
    """Even-odd drop distribution over odd-drop cycles on [n], in y."""
    return _at_length(n, 0)
