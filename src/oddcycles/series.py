"""Truncated power series in t with exact univariate polynomial coefficients.

Everything here is exact integer arithmetic; there is no floating point and
no tolerance anywhere.  Each generating function marks one statistic with
one variable (x for odd-odd drops, y for even-odd drops).  That variable
belongs to the family and is named once, in its FAMILIES row; a series
holds only BigPoly coefficients and an order.  A TruncSeries knows the
order through which its coefficients are trustworthy, and every operation
recomputes that bound honestly (multiplying by t gains one order, and a sum
is exact to the lower of its terms' orders).  No series is multiplied by
another; a product scales each coefficient by an integer or a polynomial.
Residual checks read their valid order off the result instead of guessing
it.

The module builds four closed-form generating functions whose t^m coefficients
are the drop-statistic polynomials of odd-drop cycles:

  oo_even (variable x, lengths 2m):    sum of m!(m-1)! t^m / prod(1+k^2(1-x)t)
  oo_odd  (variable x, lengths 2m-1):  sum of ((m-1)!)^2 t^m / prod(1+k^2(1-x)t)
  eo_even (variable y, lengths 2m):    (y-1)t + sum of m!(m-1)! t^m / prod(1+k(k+1)(1-y)t)
  eo_odd  (variable y, lengths 2m-1):  sum of ((m-1)!)^2 t^m / prod(1+k(k-1)(1-y)t)

with products over k = 1..m.  The m-th summand starts at t^m, so partial
sums through m = N give the series exactly to order N; the m = N+1 summand
contributing nothing at order N is asserted by a test, not assumed.  The
builder reads each coefficient of that sum off a triangle of integers, the
complete homogeneous symmetric polynomials in the factors' a_k, as a
polynomial in u = 1 - v, and then rewrites it in v.  Only the
summand-recurrence check builds summands one at a time, by series
division, so it shares no series code with the builder it checks.
Interleaving even and odd lengths as S_even(t^2) + t^(-1) S_odd(t^2), one
coefficient at a time, yields the full-distribution series oo_series and
eo_series.

What differs between the four families is data, one FAMILIES row each: the
variable, the summand numerators and denominator factors, the coefficient
zeroth of the prefix zeroth*(1-v)*t (-1 for eo_even's (y-1)t, 0 elsewhere)
and the two first-order coefficients of the family's PDE.  One builder,
closed_form_series, reads a row; no code branches on the family name.

Specializing the variable to 0 (closed_form_at_zero) turns the oo_even
family's summands into the Genocchi number generating function and the
eo_odd family's into the Genocchi median one; the other two families'
summands collapse to t exactly, which the identities suite checks.

Each closed form satisfies a second-order PDE in its original variables;
the four share their second-order part, and the row's zeroth also fixes the
source term t*(1 + zeroth*(1-v)).  pde_residual_of substitutes a truncated
series coefficient by coefficient, sharing only BigPoly arithmetic with the
builder it checks, and returns the residual, whose tracked order states
exactly how far the zero check is meaningful.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, NamedTuple

from .polynomials import BigPoly, _as_bigpoly


class TruncSeries:
    """Power series in t, exact through self.order.

    coeffs has length order+1 and holds BigPoly coefficients.  The series
    names no variable: a family's variable lives in its FAMILIES row, and
    an integer series is one whose coefficients are all constant.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=(), order: int | None = None):
        cs = [_as_bigpoly(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([BigPoly.zero()] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls((), order)

    @classmethod
    def t_monomial(cls, k: int, order: int, coeff=1) -> "TruncSeries":
        """The series coeff * t^k."""
        if not 0 <= k <= order:
            raise ValueError(f"exponent {k} outside order {order}")
        return cls([0] * k + [coeff], order)

    # -- inspection ------------------------------------------------------

    def coeff(self, n: int) -> BigPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond tracked order {self.order}")
        return self.coeffs[n]

    def coeff_int(self, n: int) -> int:
        """Coefficient of t^n as an integer; requires a constant coefficient."""
        c = self.coeff(n)
        if c.degree() > 0:
            raise ValueError(f"coefficient of t^{n} is not constant: {c.format()}")
        return c.coeff(0)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def first_nonzero(self) -> tuple[int, BigPoly] | None:
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return (i, c)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(c.format() for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncSeries(order={self.order}, coeffs=[{head}{tail}])"

    # -- ring operations -------------------------------------------------

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncSeries(self.coeffs[: order + 1], order)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "TruncSeries":
        return self + -other

    def __mul__(self, other) -> "TruncSeries":
        """Each coefficient times an int or a BigPoly."""
        if isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries([c * other for c in self.coeffs], self.order)

    def shift_up(self) -> "TruncSeries":
        """Multiply by t; the new constant coefficient is exactly zero."""
        return TruncSeries((BigPoly.zero(),) + self.coeffs, self.order + 1)

    def substitute(self, value: int) -> "TruncSeries":
        """Evaluate the coefficients' variable at an integer: an integer series."""
        return TruncSeries([c(value) for c in self.coeffs], self.order)

    def divide_linear(self, c) -> "TruncSeries":
        """Exact division by the unit factor (1 + c*t), an int or BigPoly c,
        coefficient by coefficient: out_j = self_j - c*out_(j-1)."""
        out = [self.coeffs[0]]
        for j in range(1, self.order + 1):
            out.append(self.coeffs[j] - c * out[j - 1])
        return TruncSeries(out, self.order)


# -- closed forms --------------------------------------------------------


class _Family(NamedTuple):
    var: str  # polynomial variable v of the full series
    numerator: Callable[[int], int]  # of the m-th summand
    ratio: Callable[[int], int]  # numerator(m) / numerator(m-1)
    denom: Callable[[int], int]  # a_k in the factor (1 + a_k*(1-v)*t)
    # coefficient of s = (1-v)*t in the constant-in-xi term: the series
    # carries the prefix zeroth*(1-v)*t, and the PDE's source term is
    # t*(1 + zeroth*(1-v))
    zeroth: int
    pde_v: BigPoly | int  # coefficient of S_v in the family's PDE
    pde_t: BigPoly | int  # coefficient of t*S_t in the family's PDE


# m!(m-1)! steps by m(m-1), ((m-1)!)^2 by (m-1)^2
_MIXED = (lambda m: factorial(m) * factorial(m - 1), lambda m: m * (m - 1))
_SQUARE = (lambda m: factorial(m - 1) ** 2, lambda m: (m - 1) ** 2)
# the family variable v and u = 1 - v, as polynomials
_V = BigPoly.variable()
_U = 1 - _V

FAMILIES = {
    "oo_even": _Family("x", *_MIXED, lambda k: k * k, 0, _U * _U, 1 + _V),
    "oo_odd": _Family("x", *_SQUARE, lambda k: k * k, 0, -_V * _U, _V),
    "eo_even": _Family("y", *_MIXED, lambda k: k * (k + 1), -1, 0, 2 * _V),
    "eo_odd": _Family("y", *_SQUARE, lambda k: k * (k - 1), 0, _U * (1 - 2 * _V), 1),
}


def _check_family(which: str) -> _Family:
    if which not in FAMILIES:
        raise ValueError(f"unknown family {which!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[which]


def _summand_series(fam: _Family, m: int, order: int, u: int | BigPoly) -> TruncSeries:
    """The m-th summand numerator(m) * t^m / prod_{k=1..m} (1 + a_k*u*t) of
    a family.  With u = 1 - v it is the series in the family variable v;
    with u = 1 it is the integer series at v = 0, which is also the series
    in s = (1-v)*t."""
    if m < 1:
        raise ValueError(f"summand index must be positive, got {m}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if m > order:
        return TruncSeries.zero(order)
    s = TruncSeries.t_monomial(m, order, fam.numerator(m))
    for k in range(1, m + 1):
        a = fam.denom(k)
        if a:
            s = s.divide_linear(u * a)
    return s


def _summand_sum_in_u(fam: _Family, order: int) -> list[list[int]]:
    """The family's summands through m = order, summed, as polynomials in
    u: entry n lists the coefficients of t^n * u^j, j = 0..n-1.

    Expanding 1/prod_{k<=m} (1 + a_k*u*t) as sum_j (-u*t)^j * h_j(a_1..a_m),
    with h_j the complete homogeneous symmetric polynomial, puts
    (-1)^j * numerator(m) * h_j(a_1..a_m) at t^(m+j) * u^j.  The triangle
    H[m][j] = h_j(a_1..a_m) fills by H[m][j] = H[m-1][j] + a_m*H[m][j-1]
    from H[0][j] = [j == 0], one row at a time, through m + j = order.  It
    reads only the row's numerator and denom: no series division, and not
    the ratio that the summand-recurrence check tests.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    out = [[0] * n for n in range(order + 1)]
    row = [1] + [0] * (order - 1)  # H[m][j] for j < order, updated in place
    for m in range(1, order + 1):
        a = fam.denom(m)
        for j in range(1, order - m + 1):
            row[j] += a * row[j - 1]
        num = fam.numerator(m)
        for j in range(order - m + 1):
            out[m + j][j] = -num * row[j] if j & 1 else num * row[j]
    return out


def _u_to_v(coeffs: list[int]) -> BigPoly:
    """sum of coeffs[j] * u^j at u = 1 - v: a Taylor shift by 1, by repeated
    synthetic division (additions only), then the odd powers negated."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += c[k + 1]
    return BigPoly(-x if k & 1 else x for k, x in enumerate(c))


def closed_form_series(which: str, order: int) -> TruncSeries:
    """The full series of one family, in its variable v: its summands
    through m = order plus the prefix zeroth*(1-v)*t."""
    fam = _check_family(which)
    total = TruncSeries([_u_to_v(c) for c in _summand_sum_in_u(fam, order)], order)
    return total + TruncSeries.t_monomial(1, order, fam.zeroth * _U)


def _interleave(even: str, odd: str, order: int) -> TruncSeries:
    """even(t^2) + odd(t^2)/t for two families, through t^order: t^n is the
    even family's t^(n/2) for even n, the odd family's t^((n+1)/2) for odd n.
    The odd-length series has no constant term for the division to drop."""
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    half = (order + 1) // 2
    evens, odds = closed_form_series(even, half), closed_form_series(odd, half)
    cs = [odds.coeff((n + 1) // 2) if n % 2 else evens.coeff(n // 2) for n in range(order + 1)]
    return TruncSeries(cs, order)


def oo_series(order: int) -> TruncSeries:
    """Full odd-odd distribution series: coefficient of t^n is the polynomial
    over odd-drop cycles on [n], every n >= 1, interleaving the even- and
    odd-length series."""
    return _interleave("oo_even", "oo_odd", order)


def eo_series(order: int) -> TruncSeries:
    """Full even-odd distribution series, interleaved like oo_series."""
    return _interleave("eo_even", "eo_odd", order)


# -- integer specializations ---------------------------------------------


def closed_form_at_zero(which: str, order: int) -> TruncSeries:
    """The family's summands through m = order at v = 0, where u = 1: an
    integer series."""
    return TruncSeries([sum(c) for c in _summand_sum_in_u(_check_family(which), order)], order)


def genocchi_sequence(count: int) -> list[int]:
    """The first count Genocchi numbers, starting at index 1: the t^n
    coefficients of sum of m!(m-1)! t^m / prod(1+k^2 t)."""
    series = closed_form_at_zero("oo_even", count)
    return [series.coeff_int(n) for n in range(1, count + 1)]


def genocchi(n: int) -> int:
    """n-th Genocchi number (1, 1, 3, 17, 155, ...), n >= 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return genocchi_sequence(n)[-1]


def genocchi_median_sequence(count: int) -> list[int]:
    """The first count Genocchi medians, starting at index 0: the t^(n+2)
    coefficients of sum of ((m-1)!)^2 t^m / prod(1+k(k-1) t)."""
    series = closed_form_at_zero("eo_odd", count + 1)
    return [series.coeff_int(n + 2) for n in range(count)]


def genocchi_median(n: int) -> int:
    """n-th Genocchi median (1, 2, 8, 56, 608, ...), n >= 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return genocchi_median_sequence(n + 1)[-1]


# -- PDE residuals --------------------------------------------------------


def pde_residual_of(series: TruncSeries, which: str) -> TruncSeries:
    """Residual of the second-order PDE the family satisfies, evaluated on an
    arbitrary series (so a perturbed input serves as a negative control).
    The input's coefficients are read as polynomials in the family's
    variable v, the one its FAMILIES row names.

    The returned series' .order states how far the residual is meaningful:
    one order below the input's, lost to the t division on the source side.
    Writing S for the input, v for the family variable and u = 1 - v:

      oo_even: (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + u^2*S_v + (1+v)*t*S_t
      oo_odd:  (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             - v*u*S_v + v*t*S_t
      eo_even: (S - v*t)/t = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + 2*v*t*S_t        (no first-order S_v term)
      eo_odd:  (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + u*(1-2*v)*S_v + t*S_t

    The second-order part is common to all four; the family table supplies
    the rest: the coefficients of S_v (pde_v) and of t*S_t (pde_t), and
    zeroth, which makes the source term t*(1 + zeroth*u).

    With S_n the t^n coefficient of S and ' the derivative in v, the
    residual's t^n coefficient, n = 0..order-1, is read off directly; the
    division by t needs S_0 = 0:

      S_(n+1) - [n=0]*(1 + zeroth*u)
        - (v*u^2*S_n'' + (2n*v*u + pde_v)*S_n' + (n(n-1)*v + n*pde_t)*S_n)
    """
    fam = _check_family(which)
    if series.order < 3:
        raise ValueError(f"order {series.order} too small for a PDE residual")
    if not series.coeffs[0].is_zero():
        raise ValueError(f"cannot divide by t^1: coefficient of t^0 is {series.coeffs[0].format()}")
    vuu, vu = _V * _U * _U, _V * _U
    out = []
    for n in range(series.order):
        s = series.coeffs[n]
        ds = s.derivative()
        rhs = vuu * ds.derivative() + (2 * n * vu + fam.pde_v) * ds
        rhs = rhs + (n * (n - 1) * _V + n * fam.pde_t) * s
        out.append(series.coeffs[n + 1] - rhs)
    out[0] = out[0] - (1 + fam.zeroth * _U)
    return TruncSeries(out, series.order - 1)


# -- summand recurrences ---------------------------------------------------


def _geometric_base(a: int, num: int, order: int) -> TruncSeries:
    """num * s / (1 + a*s) expanded directly: coefficient of s^j is
    num * (-a)^(j-1).  Independent of the division routines on purpose."""
    coeffs = [0] * (order + 1)
    power = num
    for j in range(1, order + 1):
        coeffs[j] = power
        power *= -a
    return TruncSeries(coeffs, order)


def summand_recurrence_check(which: str, bound: int, order: int) -> bool:
    """Verify the first-order recurrence between consecutive summands.

    Works in the single variable s standing for (1-v)*t.  Checks, for
    m = 2..bound, the multiplied-out relation

        summand_m * (1 + a_m*s)  ==  ratio(m) * s * summand_(m-1)

    with both sides built from the closed forms, plus the stated m=1 base
    cases (s/(1+s) for the two oo families, s/(1+2s) and s for eo_even and
    eo_odd) against an independent geometric expansion, plus the stated
    constant-in-xi terms (0 except eo_even's -s, which in original variables
    is exactly the (y-1)t prefix).
    """
    fam = _check_family(which)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if order < 2 * bound:
        raise ValueError(f"order {order} too small for bound {bound}")
    stated_zeroth = {"oo_even": 0, "oo_odd": 0, "eo_even": -1, "eo_odd": 0}
    if fam.zeroth != stated_zeroth[which]:
        return False
    base = _summand_series(fam, 1, order, 1)
    if base != _geometric_base(fam.denom(1), fam.numerator(1), order):
        return False
    prev = base
    for m in range(2, bound + 1):
        cur = _summand_series(fam, m, order, 1)
        lhs = cur + (cur * fam.denom(m)).shift_up().truncate(order)
        rhs = (prev * fam.ratio(m)).shift_up().truncate(order)
        if lhs != rhs:
            return False
        prev = cur
    return True
