"""Truncated power series in t with exact univariate polynomial coefficients.

Everything here is exact integer arithmetic; there is no floating point and
no tolerance anywhere.  Each generating function marks one statistic with
one variable v (x for odd-odd drops, y for even-odd drops), and every
closed form here is a function of u = 1 - v, so its series is built, and
checked, as polynomials in u.  A TruncSeries only holds those
coefficients, one BigPoly per power of t, and is exact through its last
one: its order is one less than their number.  It has no arithmetic; every
builder and check computes on integer coefficient lists.  The PDE residual
is one order shorter than its input, and its check reads how far it
reaches off that order instead of guessing it.

The module builds four closed-form generating functions whose t^m coefficients
are the drop-statistic polynomials of odd-drop cycles:

  oo_even (variable x, lengths 2m):    sum of m!(m-1)! t^m / prod(1+k^2(1-x)t)
  oo_odd  (variable x, lengths 2m-1):  sum of ((m-1)!)^2 t^m / prod(1+k^2(1-x)t)
  eo_even (variable y, lengths 2m):    (y-1)t + sum of m!(m-1)! t^m / prod(1+k(k+1)(1-y)t)
  eo_odd  (variable y, lengths 2m-1):  sum of ((m-1)!)^2 t^m / prod(1+k(k-1)(1-y)t)

with products over k = 1..m.  The m-th summand starts at t^m, so partial
sums through m = N give the series exactly to order N; the m = N+1 summand
contributing nothing at order N is asserted by a test, not assumed.  The
builder, closed_form_in_u, reads each coefficient of that sum off a
triangle of integers, the complete homogeneous symmetric polynomials in the
factors' a_k, as a polynomial in u; nothing rewrites it in v.  Only the
summand-recurrence check builds summands one at a time, as integer lists
by its own list division, so it shares no code with the builder it checks.

What differs between the four families is data, one FAMILIES row each: the
summand numerators and denominator factors, the coefficient zeroth of the
prefix zeroth*u*t (-1 for eo_even's (y-1)t, 0 elsewhere) and the two
first-order coefficients of the family's PDE, as integer tuples in u.
One builder reads a row; no code branches on the family name.

Specializing the variable to 0, which is u = 1 (closed_form_at_zero), turns
the oo_even family's summands into the Genocchi number generating function
and the eo_odd family's into the Genocchi median one; the other two
families' summands collapse to t exactly, which the identities suite
checks.

Each closed form satisfies a second-order PDE in its original variables;
the four share their second-order part, and the row's zeroth also fixes the
source term t*(1 + zeroth*u).  pde_residual_of substitutes a truncated
series in u coefficient by coefficient, on the integers of each power of
t, sharing no code with the builder it checks, and returns the residual,
whose order states exactly how far the zero check is meaningful.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, NamedTuple

from .polynomials import BigPoly


class TruncSeries:
    """Power series in t, exact through self.order = len(coeffs) - 1.

    coeffs holds one BigPoly per power of t, built from a BigPoly or from a
    list of integer coefficients.  The series names no variable: a closed
    form's coefficients are polynomials in u.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs):
        cs = tuple(c if isinstance(c, BigPoly) else BigPoly(c) for c in coeffs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", len(cs) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def coeff(self, n: int) -> BigPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond tracked order {self.order}")
        return self.coeffs[n]

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
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(c.format() for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncSeries(order={self.order}, coeffs=[{head}{tail}])"


# -- closed forms --------------------------------------------------------


class _Family(NamedTuple):
    numerator: Callable[[int], int]  # of the m-th summand
    ratio: Callable[[int], int]  # numerator(m) / numerator(m-1)
    denom: Callable[[int], int]  # a_k in the factor (1 + a_k*u*t)
    # coefficient of s = u*t in the constant-in-xi term: the series carries
    # the prefix zeroth*u*t, and the PDE's source term is t*(1 + zeroth*u)
    zeroth: int
    # the coefficients in u, lowest degree first, of S_u and of t*S_t in
    # the family's PDE
    pde_v: tuple[int, ...]
    pde_t: tuple[int, ...]


# m!(m-1)! steps by m(m-1), ((m-1)!)^2 by (m-1)^2
_MIXED = (lambda m: factorial(m) * factorial(m - 1), lambda m: m * (m - 1))
_SQUARE = (lambda m: factorial(m - 1) ** 2, lambda m: (m - 1) ** 2)
# pde_v and pde_t in u = 1 - v: -u^2 and 1 + v, v*u and v, 0 and 2*v,
# -u*(1 - 2*v) and 1
FAMILIES = {
    "oo_even": _Family(*_MIXED, lambda k: k * k, 0, (0, 0, -1), (2, -1)),
    "oo_odd": _Family(*_SQUARE, lambda k: k * k, 0, (0, 1, -1), (1, -1)),
    "eo_even": _Family(*_MIXED, lambda k: k * (k + 1), -1, (), (2, -2)),
    "eo_odd": _Family(*_SQUARE, lambda k: k * (k - 1), 0, (0, 1, -2), (1,)),
}


def _check_family(which: str) -> _Family:
    if which not in FAMILIES:
        raise ValueError(f"unknown family {which!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[which]


def _divide_linear(coeffs: list[int], c: int) -> None:
    """Divide a coefficient list by (1 + c*s) in place:
    out_j = coeffs_j - c*out_(j-1)."""
    for j in range(1, len(coeffs)):
        coeffs[j] -= c * coeffs[j - 1]


def _summand_series(fam: _Family, m: int, order: int, u: int) -> list[int]:
    """The t^0..t^order coefficients of the m-th summand
    numerator(m) * t^m / prod_{k=1..m} (1 + a_k*u*t) of a family at an
    integer u.  With u = 1 they are the series at v = 0, which is also the
    series in s = u*t."""
    if m < 1:
        raise ValueError(f"summand index must be positive, got {m}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (order + 1)
    if m > order:
        return out
    out[m] = fam.numerator(m)
    for k in range(1, m + 1):
        a = fam.denom(k)
        if a:
            _divide_linear(out, u * a)
    return out


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


def closed_form_in_u(which: str, order: int) -> TruncSeries:
    """The full series of one family in u = 1 - v: its summands through
    m = order, read off the triangle, plus the prefix zeroth*u*t, the u^1
    entry of the triangle's row 1."""
    fam = _check_family(which)
    rows = _summand_sum_in_u(fam, order)
    rows[1].append(fam.zeroth)
    return TruncSeries(rows)


# -- integer specializations ---------------------------------------------


def closed_form_at_zero(which: str, order: int) -> list[int]:
    """The family's summands through m = order at v = 0, where u = 1: the
    integer coefficients of t^0..t^order."""
    return [sum(c) for c in _summand_sum_in_u(_check_family(which), order)]


def genocchi_sequence(count: int) -> list[int]:
    """The first count Genocchi numbers, starting at index 1: the t^n
    coefficients of sum of m!(m-1)! t^m / prod(1+k^2 t)."""
    return closed_form_at_zero("oo_even", count)[1:]


def genocchi_median_sequence(count: int) -> list[int]:
    """The first count Genocchi medians, starting at index 0: the t^(n+2)
    coefficients of sum of ((m-1)!)^2 t^m / prod(1+k(k-1) t)."""
    return closed_form_at_zero("eo_odd", count + 1)[2:]


# -- PDE residuals --------------------------------------------------------


def pde_residual_of(series: TruncSeries, which: str) -> TruncSeries:
    """Residual of the second-order PDE the family satisfies, evaluated on an
    arbitrary series (so a perturbed input serves as a negative control).
    The input's coefficients are read as polynomials in u = 1 - v, with v
    the family's variable.

    The returned series' .order states how far the residual is meaningful:
    one order below the input's, lost to the t division on the source side.
    Writing S for the input, each family's equation in v is

      oo_even: (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + u^2*S_v + (1+v)*t*S_t
      oo_odd:  (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             - v*u*S_v + v*t*S_t
      eo_even: (S - v*t)/t = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + 2*v*t*S_t        (no first-order S_v term)
      eo_odd:  (S - t)/t   = v*u^2*S_vv + 2*v*u*t*S_vt + v*t^2*S_tt
                             + u*(1-2*v)*S_v + t*S_t

    The second-order part is common to all four; the family table supplies
    the rest in u: the coefficients of S_u = -S_v (pde_v) and of t*S_t
    (pde_t), and zeroth, which makes the source term t*(1 + zeroth*u).

    With S_n the t^n coefficient of S and ' the derivative in u, so that
    d/dv = -d/du, the residual's t^n coefficient, n = 0..order-1, is read
    off directly; the division by t needs S_0 = 0:

      S_(n+1) - [n=0]*(1 + zeroth*u)
        - ((1-u)*u^2*S_n'' + (pde_v - 2n*(1-u)*u)*S_n'
           + (n(n-1)*(1-u) + n*pde_t)*S_n)

    on integer coefficient lists in u.  With s_j the u^j coefficient of S_n,
    the common part (1-u)*(u^2*S_n'' - 2n*u*S_n' + n(n-1)*S_n) collapses to
    ((j-n)^2 - j - n)*s_j at u^j and its negative at u^(j+1); pde_v*S_n'
    and n*pde_t*S_n are short convolutions.
    """
    fam = _check_family(which)
    if series.order < 3:
        raise ValueError(f"order {series.order} too small for a PDE residual")
    if not series.coeff(0).is_zero():
        constant = series.coeff(0).format("u")
        raise ValueError(f"cannot divide by t^1: coefficient of t^0 is {constant}")
    out = []
    for n in range(series.order):
        s = series.coeffs[n].coeffs
        # S_(n+1), with room for the right-hand side's top degree
        res = [*series.coeffs[n + 1].coeffs, *[0] * (len(s) + len(fam.pde_v) + len(fam.pde_t) + 2)]
        for j, c in enumerate(s):
            common = ((j - n) ** 2 - j - n) * c
            res[j] -= common
            res[j + 1] += common
            for i, p in enumerate(fam.pde_t):
                res[i + j] -= n * p * c
        for j, c in enumerate(s[1:]):  # S_n' holds (j+1)*s_(j+1) at u^j
            for i, p in enumerate(fam.pde_v):
                res[i + j] -= p * (j + 1) * c
        out.append(res)
    out[0][0] -= 1
    out[0][1] -= fam.zeroth
    return TruncSeries(out)


# -- summand recurrences ---------------------------------------------------


def _geometric_base(a: int, num: int, order: int) -> list[int]:
    """num * s / (1 + a*s) expanded directly: coefficient of s^j is
    num * (-a)^(j-1).  Independent of the division routine on purpose."""
    return [0] + [num * (-a) ** (j - 1) for j in range(1, order + 1)]


def summand_recurrence_check(which: str, bound: int, order: int) -> bool:
    """Verify the first-order recurrence between consecutive summands.

    Works in the single variable s standing for u*t, on integer lists:
    each summand is built on its own by _divide_linear, not read off the
    builder's triangle.  Checks, for m = 2..bound, the multiplied-out relation

        summand_m * (1 + a_m*s)  ==  ratio(m) * s * summand_(m-1)

    through s^order, plus the stated m=1 base cases (s/(1+s) for the two oo
    families, s/(1+2s) and s for eo_even and eo_odd) against an independent
    geometric expansion, plus the stated constant-in-xi terms (0 except
    eo_even's -s, which in original variables is exactly the (y-1)t prefix).
    """
    fam = _check_family(which)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if order < 2 * bound:
        raise ValueError(f"order {order} too small for bound {bound}")
    stated_zeroth = {"oo_even": 0, "oo_odd": 0, "eo_even": -1, "eo_odd": 0}
    if fam.zeroth != stated_zeroth[which]:
        return False
    prev = _summand_series(fam, 1, order, 1)
    if prev != _geometric_base(fam.denom(1), fam.numerator(1), order):
        return False
    for m in range(2, bound + 1):
        cur = _summand_series(fam, m, order, 1)
        a, ratio = fam.denom(m), fam.ratio(m)
        # s^j of each side; s times a series has no s^0 term
        if [c + a * d for c, d in zip(cur, [0, *cur])] != [ratio * d for d in [0, *prev[:-1]]]:
            return False
        prev = cur
    return True
