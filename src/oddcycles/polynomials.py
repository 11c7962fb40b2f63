"""Exact polynomials over Python's arbitrary-precision integers, as values.

Two representations are provided:

* ``BigPoly`` -- dense univariate polynomials as coefficient tuples,
  ``coeffs[i]`` being the coefficient of degree ``i``.  The tuple never ends
  in a zero; the zero polynomial is the empty tuple.  Degrees stay small in
  this package (at most half the cycle length) while coefficients grow
  factorially, so dense storage with bigint entries is the right trade.

* ``BiPoly`` -- sparse bivariate polynomials in the counting variables
  ``x`` (odd-odd drops) and ``y`` (even-odd drops), stored as a map from
  ``(x_degree, y_degree)`` to a nonzero integer coefficient.

Neither type has arithmetic: the routes compute on their own integer lists
and tables and wrap the result once, to compare, evaluate, format or take a
marginal.  Both types are immutable value objects that compare by content.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

VARIABLES = ("x", "y")


def _fmt_power(var: str, exp: int) -> str:
    return var if exp == 1 else f"{var}^{exp}"


class BigPoly:
    """Dense univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BigPoly is immutable")

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        if isinstance(other, BigPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def format(self, var: str = "x") -> str:
        """Render as '+'-separated monomials in ascending degree."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(_fmt_power(var, i))
            else:
                parts.append(f"{c}*{_fmt_power(var, i)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BigPoly({self.format()!r})"


def _shift_down(coeffs: list[int]) -> list[int]:
    # p(t) -> p(t - 1) in place by synthetic division; each entry may be a
    # plain coefficient or several packed side by side in one integer
    for low in range(len(coeffs) - 1):
        for i in range(len(coeffs) - 2, low - 1, -1):
            coeffs[i] -= coeffs[i + 1]
    return coeffs


class BiPoly:
    """Sparse bivariate polynomial in x and y with integer coefficients.

    ``terms`` maps ``(i, j)`` to the coefficient of ``x^i * y^j``; zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        cleaned = {}
        for (i, j), c in (terms or {}).items():
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            cleaned[(i, j)] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    def coeff(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {(0, 0): other})
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def marginal(self, var: str) -> BigPoly:
        """The polynomial in var obtained by setting the other variable to 1."""
        if var not in VARIABLES:
            raise ValueError(f"unknown variable {var!r}")
        axis = VARIABLES.index(var)
        out = [0] * (max((key[axis] for key in self.terms), default=-1) + 1)
        for key, c in self.terms.items():
            out[key[axis]] += c
        return BigPoly(out)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in graded lexicographic order (total degree, then x, then y)."""
        return iter(sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])))

    def format(self, explicit_units: bool = False) -> Iterator[str]:
        """Yield the '+'-separated monomials in graded lexicographic order, one
        at a time: the first alone, each later one after its ' + '."""
        if not self.terms:
            yield "0"
        sep = ""
        for (i, j), c in self.sorted_terms():
            factors = []
            if i:
                factors.append(_fmt_power("x", i))
            if j:
                factors.append(_fmt_power("y", j))
            if not factors or c != 1 or explicit_units:
                factors.insert(0, str(c))
            yield sep + "*".join(factors)
            sep = " + "

    def __repr__(self) -> str:
        return f"BiPoly({''.join(self.format())!r})"

