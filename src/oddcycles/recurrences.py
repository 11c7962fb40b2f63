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
parameter k, so the walk picks the step by the parity of the target length
and passes k = target // 2.
"""

from __future__ import annotations

from .polynomials import BigPoly


def free_step(poly: BigPoly, k: int) -> BigPoly:
    """One length step that forces no marked drop: k*p + (1-v)*p'."""
    d = poly.derivative()
    return poly * k + d - d.shift(1)


def forced_step(poly: BigPoly, k: int) -> BigPoly:
    """One length step that forces a marked drop: v * free_step(p, k)."""
    return free_step(poly, k).shift(1)


def _walk(n: int, even_step, odd_step) -> BigPoly:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    poly = BigPoly.one()
    for target in range(2, n + 1):
        step = odd_step if target & 1 else even_step
        poly = step(poly, target // 2)
    return poly


def oo_poly(n: int) -> BigPoly:
    """Odd-odd drop distribution over odd-drop cycles on [n], in x."""
    return _walk(n, free_step, forced_step)


def eo_poly(n: int) -> BigPoly:
    """Even-odd drop distribution over odd-drop cycles on [n], in y."""
    return _walk(n, forced_step, free_step)
