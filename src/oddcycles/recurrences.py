"""First-order polynomial recurrences for the two drop statistics.

oo_poly(n) is the distribution of odd-odd drops over odd-drop cycles on [n]
(the x-marginal of the joint polynomial), eo_poly(n) the distribution of
even-odd drops (the y-marginal).  Both are built from the same two steps in
the marked variable v,

    free_step:    p  |->  k*p + (1-v)*p'
    forced_step:  p  |->  v * (k*p + (1-v)*p')

which are the specializations y=1 resp. x=1 of the bivariate transfer
operators in gentree, as the cross-check tests pin down.  The forced step is
the one into lengths where every cycle has a drop of the marked kind: odd
lengths for the odd-odd statistic, even lengths for the even-odd one.  So
oo_poly alternates (even: free, odd: forced) and eo_poly the same steps with
the phases swapped.

Lengths pair up as 2k -> even step with parameter k, 2k+1 -> odd step with
parameter k, so a walk picks the step by the parity of the target length
and passes k = target // 2.  There are two walks.

The walk over every length runs in v: oo_polys(n)/eo_polys(n) hand out the
polynomials of lengths 1..n lazily, one step at a time, so a caller that
needs every length runs one walk and holds one polynomial of it at a time.
The free step is fused into one pass over the coefficients: coefficient i
of k*p + p' - v*p' is (k-i)*p[i] + (i+1)*p[i+1].

The walk in the eigenbasis a = v - 1 of the free step, _eigen_walk, also
yields every length.  There P(a) = p(1 + a), the free step is
P_i -> (k-i)*P_i and the forced step also multiplies by 1 + a.  Each free
step's factor is held until the forced step after it, so a pair of lengths
costs one multiply by the small integer (k-i)*(k'-i) and one add per
coefficient.  Each length comes out as its coefficients, updated in place,
and the free step still held, which a reader applies as it reads: applying
it to a copy at every length would double the walk's time.  oo_poly and
eo_poly drain the walk and Taylor-shift by -1 to p(v).  The series suite
reads every length against the closed forms in u = 1 - v = -a, so neither
side shifts, and sequence --kind cno_count reads the counts f(1) = P(0).
The walk in v stays for the checks against the enumeration and the
Genocchi values.
"""

from __future__ import annotations

from typing import Iterator

from .polynomials import BigPoly, _shift_down


def free_step(poly: BigPoly, k: int) -> BigPoly:
    """One length step that forces no marked drop: k*p + (1-v)*p'."""
    p = poly.coeffs
    if not p:
        return poly
    deg = len(p) - 1
    return BigPoly(
        [(k - i) * p[i] + (i + 1) * p[i + 1] for i in range(deg)] + [(k - deg) * p[deg]]
    )


def forced_step(poly: BigPoly, k: int) -> BigPoly:
    """One length step that forces a marked drop: v * free_step(p, k)."""
    return free_step(poly, k).shift(1)


def _walk(n: int, even_step, odd_step) -> Iterator[BigPoly]:
    # checked here, not in the generator, so a bad n fails at the call
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def lengths():
        poly = BigPoly.one()
        yield poly
        for target in range(2, n + 1):
            step = odd_step if target & 1 else even_step
            poly = step(poly, target // 2)
            yield poly

    return lengths()


def oo_polys(n: int) -> Iterator[BigPoly]:
    """oo_poly(1), ..., oo_poly(n) from one walk, computed as they are read."""
    return _walk(n, free_step, forced_step)


def eo_polys(n: int) -> Iterator[BigPoly]:
    """eo_poly(1), ..., eo_poly(n) from one walk, computed as they are read."""
    return _walk(n, forced_step, free_step)


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


def _at_length(n: int, forced: int) -> BigPoly:
    # the walk to length n alone, its held free step applied once at the end
    for coeffs, held in _eigen_walk(n, forced):
        pass
    if held:
        for i, c in enumerate(coeffs):
            coeffs[i] = (held - i) * c
    return BigPoly(_shift_down(coeffs))


def oo_poly(n: int) -> BigPoly:
    """Odd-odd drop distribution over odd-drop cycles on [n], in x."""
    return _at_length(n, 1)


def eo_poly(n: int) -> BigPoly:
    """Even-odd drop distribution over odd-drop cycles on [n], in y."""
    return _at_length(n, 0)
