"""Single-variable recurrences for the two marginal polynomial families."""

import math

import pytest

from oddcycles import recurrences
from oddcycles.polynomials import BigPoly
from oddcycles.recurrences import eo_poly, forced_step, free_step, oo_poly


class TestStepPlan:
    """The walk's rule: length 2k comes from the even step with parameter k,
    length 2k+1 from the odd step with parameter k."""

    @pytest.mark.parametrize(
        "target,parity,k",
        [(2, "even", 1), (3, "odd", 1), (4, "even", 2), (5, "odd", 2), (12, "even", 6), (13, "odd", 6)],
    )
    def test_mapping(self, target, parity, k):
        # odd-odd is forced into odd lengths, even-odd into even lengths
        oo_step, eo_step = (free_step, forced_step) if parity == "even" else (forced_step, free_step)
        assert oo_poly(target) == oo_step(oo_poly(target - 1), k)
        assert eo_poly(target) == eo_step(eo_poly(target - 1), k)

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_targets(self, bad, monkeypatch):
        # no step produces a length below 2: length 1 is the base case, and
        # lower lengths are refused before any step runs
        def no_step(poly, k):
            raise AssertionError(f"step {k} applied")

        monkeypatch.setattr(recurrences, "free_step", no_step)
        monkeypatch.setattr(recurrences, "forced_step", no_step)
        if bad == 1:
            assert oo_poly(bad) == 1
            assert eo_poly(bad) == 1
        else:
            with pytest.raises(ValueError):
                oo_poly(bad)
            with pytest.raises(ValueError):
                eo_poly(bad)


class TestPinnedPolynomials:
    def test_odd_odd_family(self):
        assert oo_poly(1) == 1
        assert oo_poly(2) == 1
        assert oo_poly(3) == BigPoly((0, 1))
        assert oo_poly(4) == BigPoly((1, 1))
        assert oo_poly(5) == BigPoly((0, 3, 1))
        assert oo_poly(6) == BigPoly((3, 8, 1))

    def test_even_odd_family(self):
        assert eo_poly(1) == 1
        assert eo_poly(2) == BigPoly((0, 1))
        assert eo_poly(3) == 1
        assert eo_poly(4) == BigPoly((0, 2))
        assert eo_poly(5) == BigPoly((2, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oo_poly(0)
        with pytest.raises(ValueError):
            eo_poly(-1)


class TestStepOperators:
    def test_zero_is_fixed(self):
        z = BigPoly.zero()
        assert free_step(z, 4) == 0
        assert forced_step(z, 4) == 0

    def test_single_step_values(self):
        # one step of each family reproduces the next pinned polynomial:
        # odd-odd is forced into odd lengths, even-odd into even lengths
        assert forced_step(oo_poly(4), 2) == oo_poly(5)
        assert free_step(oo_poly(5), 3) == oo_poly(6)
        assert free_step(eo_poly(4), 2) == eo_poly(5)
        assert forced_step(eo_poly(3), 2) == eo_poly(4)

    def test_derivative_term_matters(self):
        # the operators are not plain multiplication: degree can stay put
        p = BigPoly((0, 0, 1))
        assert free_step(p, 1) != p


class TestFamilyInvariants:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_shared_total_count(self, n):
        expected = math.factorial((n - 1) // 2) * math.factorial(n // 2)
        assert oo_poly(n)(1) == expected
        assert eo_poly(n)(1) == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_degree_bounds(self, n):
        assert oo_poly(n).degree() <= (n + 1) // 2
        assert eo_poly(n).degree() <= n // 2

    @pytest.mark.parametrize("n", range(1, 31))
    def test_nonnegative_coefficients(self, n):
        assert all(c >= 0 for c in oo_poly(n).coeffs)
        assert all(c >= 0 for c in eo_poly(n).coeffs)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_forced_drop_constants(self, n):
        # odd length forces an odd-odd drop, even length forces an even-odd one
        assert oo_poly(2 * n - 1)(0) == 0
        assert eo_poly(2 * n)(0) == 0

    @pytest.mark.parametrize("n", range(3, 21))
    def test_minimum_one_odd_odd_drop_in_odd_lengths(self, n):
        # stronger form: the whole coefficient of x^0 vanishes, so the
        # polynomial is divisible by x
        if n % 2 == 1:
            assert oo_poly(n).coeff(0) == 0
