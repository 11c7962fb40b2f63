"""Exact polynomial value types: no arithmetic, only values to compare, evaluate and format."""

import pytest

from oddcycles.polynomials import BigPoly, BiPoly


class TestBigPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert BigPoly((1, 2, 0, 0)) == BigPoly((1, 2))

    def test_zero_degree(self):
        assert BigPoly().degree() == -1
        assert BigPoly().is_zero()

    def test_constant_and_variable(self):
        assert BigPoly((7,)).coeff(0) == 7
        assert BigPoly((0, 1)).degree() == 1

    def test_coeff_out_of_range_is_zero(self):
        assert BigPoly((1, 2)).coeff(10) == 0

    def test_int_equality(self):
        assert BigPoly((4,)) == 4
        assert BigPoly() == 0
        assert BigPoly((0, 1)) != 1

    def test_immutable(self):
        p = BigPoly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_evaluate_horner(self):
        p = BigPoly((1, 2, 3))
        assert p(0) == 1
        assert p(1) == 6
        assert p(2) == 17
        assert p(-1) == 2


class TestBigPolyFormat:
    def test_zero(self):
        assert BigPoly().format() == "0"

    def test_unit_coefficients_elided(self):
        assert BigPoly((0, 1, 1)).format() == "x + x^2"

    def test_variable_name(self):
        assert BigPoly((2, 0, 1)).format(var="y") == "2 + y^2"


class TestBiPolyBasics:
    def test_zero_terms_dropped(self):
        assert BiPoly({(1, 1): 0}) == BiPoly()
        assert BiPoly({(1, 1): 0}).terms == {}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    def test_degree_per_variable(self):
        p = BiPoly({(2, 0): 1, (1, 3): 2})
        assert p.marginal("x").degree() == 2
        assert p.marginal("y").degree() == 3
        assert BiPoly().marginal("x").degree() == -1
        with pytest.raises(ValueError):
            p.marginal("t")

    def test_int_equality(self):
        assert BiPoly({(0, 0): 4}) == 4
        assert BiPoly() == 0
        assert BiPoly({(1, 0): 1}) != 1

    def test_immutable(self):
        p = BiPoly({(1, 0): 1})
        with pytest.raises(AttributeError):
            p.terms = {}


class TestBiPolyArithmetic:
    """The one reduction a BiPoly keeps: its marginals."""

    def test_substitute(self):
        # each marginal sets the other variable to 1
        p = BiPoly({(1, 1): 2, (0, 1): 1})
        assert p.marginal("y") == BigPoly((0, 3))
        assert p.marginal("x") == BigPoly((1, 2))

    def test_as_univariate(self):
        p = BiPoly({(0, 0): 1, (2, 0): 5})
        assert p.marginal("x") == BigPoly((1, 0, 5))
        assert p.marginal("y") == BigPoly((6,))
        assert BiPoly({(1, 1): 1}).marginal("x") == BigPoly((0, 1))

    def test_as_univariate_constant_works_for_both(self):
        c = BiPoly({(0, 0): 9})
        assert c.marginal("x") == 9
        assert c.marginal("y") == 9
        assert BiPoly().marginal("x") == 0


class TestBiPolyOrderingAndFormat:
    def test_sorted_terms_graded_lex(self):
        p = BiPoly({(0, 2): 1, (1, 0): 1, (0, 0): 1, (1, 1): 1})
        keys = [key for key, _ in p.sorted_terms()]
        # total degree first, then exponent pair
        assert keys == [(0, 0), (1, 0), (0, 2), (1, 1)]
        assert keys == sorted(keys, key=lambda k: (k[0] + k[1], k))

    def test_format(self):
        # one monomial at a time, each later one after its separator
        p = BiPoly({(0, 1): 1, (1, 1): 1})
        assert list(p.format()) == ["y", " + x*y"]

    def test_format_explicit(self):
        assert list(BiPoly({(1, 0): 1}).format(explicit_units=True)) == ["1*x"]
        assert list(BiPoly().format()) == ["0"]
