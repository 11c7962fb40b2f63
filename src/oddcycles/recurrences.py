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

The free step is fused into one pass over the coefficients: coefficient i
of k*p + p' - v*p' is (k-i)*p[i] + (i+1)*p[i+1].

Lengths pair up as 2k -> even step with parameter k, 2k+1 -> odd step with
parameter k, so the walk picks the step by the parity of the target length
and passes k = target // 2.  The walk yields every length 1..n in turn:
oo_polys(n)/eo_polys(n) hand it out lazily, and oo_poly(n)/eo_poly(n) keep
only its last element, so a caller that needs every length runs one walk,
and no caller holds more than one polynomial of it at a time.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .polynomials import BigPoly


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


def oo_poly(n: int) -> BigPoly:
    """Odd-odd drop distribution over odd-drop cycles on [n], in x."""
    return deque(oo_polys(n), maxlen=1)[0]


def eo_poly(n: int) -> BigPoly:
    """Even-odd drop distribution over odd-drop cycles on [n], in y."""
    return deque(eo_polys(n), maxlen=1)[0]
