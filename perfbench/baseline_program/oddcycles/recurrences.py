"""First-order polynomial recurrences for the two drop statistics.

oo_poly(n) is the distribution of odd-odd drops over odd-drop cycles on [n]
(the x-marginal of the joint polynomial), eo_poly(n) the distribution of
even-odd drops (the y-marginal).  Both satisfy two-phase recurrences that
alternate with the parity of the target length; each step is
    p  |->  a*p + b*p'
with polynomial coefficients a, b read off below.  The steps are the
specializations y=1 resp. x=1 of the bivariate transfer operators in
gentree, which is what the cross-check tests pin down.

Lengths pair up as 2k -> even step with parameter k, 2k+1 -> odd step with
parameter k; step_plan exposes that pairing.
"""

from __future__ import annotations

from .polynomials import BigPoly

_X = BigPoly.variable()


def step_plan(target: int) -> tuple[str, int]:
    """Which step produces the polynomial of the given length, and its k."""
    if target < 2:
        raise ValueError(f"no step produces length {target}")
    if target % 2 == 0:
        return ("even", target // 2)
    return ("odd", (target - 1) // 2)


def oo_step_even(poly: BigPoly, k: int) -> BigPoly:
    """Length 2k-1 to 2k for the odd-odd statistic: k*p + (1-x)*p'."""
    d = poly.derivative()
    return poly * k + d - _X * d


def oo_step_odd(poly: BigPoly, k: int) -> BigPoly:
    """Length 2k to 2k+1 for the odd-odd statistic: k*x*p + x*(1-x)*p'."""
    d = poly.derivative()
    return _X * (poly * k + d - _X * d)


def eo_step_even(poly: BigPoly, k: int) -> BigPoly:
    """Length 2k-1 to 2k for the even-odd statistic: k*y*p + y*(1-y)*p'."""
    d = poly.derivative()
    return _X * (poly * k + d - _X * d)


def eo_step_odd(poly: BigPoly, k: int) -> BigPoly:
    """Length 2k to 2k+1 for the even-odd statistic: k*p + (1-y)*p'."""
    d = poly.derivative()
    return poly * k + d - _X * d


def oo_poly(n: int) -> BigPoly:
    """Odd-odd drop distribution over odd-drop cycles on [n], in x."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    poly = BigPoly.one()
    for target in range(2, n + 1):
        phase, k = step_plan(target)
        poly = oo_step_even(poly, k) if phase == "even" else oo_step_odd(poly, k)
    return poly


def eo_poly(n: int) -> BigPoly:
    """Even-odd drop distribution over odd-drop cycles on [n], in y."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    poly = BigPoly.one()
    for target in range(2, n + 1):
        phase, k = step_plan(target)
        poly = eo_step_even(poly, k) if phase == "even" else eo_step_odd(poly, k)
    return poly
