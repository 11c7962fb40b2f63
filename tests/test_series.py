"""The series type, the closed-form generating functions and their checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import SECOND_ORDER, _add, at_one_minus, pde_residual_by_operators
from test_faults import FAULTS

from oddcycles import series, verify
from oddcycles.polynomials import BigPoly, BiPoly
from oddcycles.recurrences import eo_poly, oo_poly
from oddcycles.series import (
    FAMILIES,
    TruncSeries,
    _divide_linear,
    _summand_series,
    _summand_sum_in_u,
    closed_form_at_zero,
    closed_form_in_u,
    genocchi_median_sequence,
    genocchi_sequence,
    pde_residual_of,
)

GENOCCHI = [1, 1, 3, 17, 155, 2073, 38227, 929569]
MEDIANS = [1, 2, 8, 56, 608, 9440, 198272, 5410688]

def in_u(poly: BigPoly) -> BigPoly:
    """A polynomial in v written in u = 1 - v, by the binomial theorem."""
    return BigPoly(at_one_minus(list(poly.coeffs)))


def at_v_zero(s: TruncSeries) -> list[int]:
    """A series in u read at v = 0, which is u = 1: its integer coefficients."""
    return [c(1) for c in s.coeffs]


def t_alone(order: int) -> list[int]:
    """The integer coefficients of the series t, through t^order."""
    return [0, 1] + [0] * (order - 1)


def with_constant_added(s: TruncSeries, n: int) -> TruncSeries:
    """s with 1 added to the u^0 coefficient of its t^n coefficient."""
    rows = [list(c.coeffs) for c in s.coeffs]
    rows[n] = _add(rows[n], [1])
    return TruncSeries(rows)


class TestTruncSeriesBasics:
    def test_order_inferred_from_coefficients(self):
        s = TruncSeries([[1], [], [3, 1]])
        assert s.order == 2
        assert s.coeff(2) == BigPoly((3, 1))
        assert TruncSeries([BigPoly((1,)), [], [3, 1]]) == s

    def test_validation(self):
        # a coefficient is a BigPoly or a list of integers, never a bare int
        for coeff in (BiPoly({(1, 0): 1}), 5):
            with pytest.raises(TypeError):
                TruncSeries([coeff])

    def test_coeff_beyond_order_raises(self):
        s = TruncSeries([[1], [], []])
        with pytest.raises(IndexError):
            s.coeff(3)

    def test_valuation(self):
        assert TruncSeries([[], [], [5], [], []]).first_nonzero() == (2, BigPoly((5,)))
        assert TruncSeries([[]] * 4).first_nonzero() is None
        assert TruncSeries([[]] * 4).is_zero()

    def test_immutable(self):
        s = TruncSeries([[1], [], []])
        with pytest.raises(AttributeError):
            s.order = 5


class TestClosedFormSummands:
    def test_divide_linear_multiplies_back(self):
        # the summands' list division
        for c in (5, -3):
            s = [1, 1, 1, 1, 0, 0, 0]
            q = list(s)
            _divide_linear(q, c)
            # q * (1 + c*t), through the order q is exact to
            assert [a + c * b for a, b in zip(q, [0, *q])] == s
            assert q[3] == 1 - c + c * c - c * c * c

    @pytest.mark.parametrize(
        "which,m,num",
        [
            ("oo_even", 3, math.factorial(3) * math.factorial(2)),
            ("oo_odd", 4, math.factorial(3) ** 2),
            ("eo_even", 2, math.factorial(2) * math.factorial(1)),
            ("eo_odd", 5, math.factorial(4) ** 2),
        ],
    )
    def test_numerators(self, which, m, num):
        assert FAMILIES[which].numerator(m) == num

    def test_denominator_factors(self):
        def factors(which):
            return [FAMILIES[which].denom(k) for k in (1, 2, 3)]

        assert factors("oo_even") == [1, 4, 9]
        assert factors("eo_even") == [2, 6, 12]
        assert factors("eo_odd") == [0, 2, 6]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            closed_form_in_u("oo", 4)
        with pytest.raises(ValueError):
            _summand_series(FAMILIES["oo_even"], 0, 4, 1)

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_summand_starts_at_degree_m(self, which, m):
        fam = FAMILIES[which]
        s = _summand_series(fam, m, 8, 2)
        assert next(n for n, c in enumerate(s) if c) == m
        # below its own degree the summand contributes nothing at all
        assert not any(_summand_series(fam, m, m - 1, 2))

    @pytest.mark.parametrize("which", ["oo_even", "oo_odd"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_eta_series_is_x_zero_specialization(self, which, m):
        # with v = 0 the factor u = 1 - v is 1, so s = u*t is t; at any other
        # u the summand is numerator * t^m times a series in s, so its t^n
        # coefficient is u^(n-m) times the one at v = 0
        fam = FAMILIES[which]
        at_zero = _summand_series(fam, m, 9, 1)
        for u in (-1, 0, 3):
            scaled = [u ** (n - m) * c if n >= m else c for n, c in enumerate(at_zero)]
            assert _summand_series(fam, m, 9, u) == scaled


def summands_summed(fam, order, u):
    """The summands m = 1..order of a family at an integer u, each built by
    list division, summed."""
    summands = [_summand_series(fam, m, order, u) for m in range(1, order + 1)]
    return [sum(column) for column in zip(*summands)]


def closed_form_at(which, order, u):
    """closed_form_in_u without its prefix zeroth*u*t, read at an integer u."""
    values = [c(u) for c in closed_form_in_u(which, order).coeffs]
    values[1] -= FAMILIES[which].zeroth * u
    return values


class TestTriangleBuild:
    """closed_form_in_u and closed_form_at_zero read the summands' sum off
    an integer triangle; here it is summed one divided summand at a time.
    Each of its coefficients in u has degree below order + 1, so it is
    fixed by its values at the order + 2 integers u = -1..order."""

    @pytest.mark.parametrize("order", range(1, 15))
    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_triangle_is_the_sum_of_the_summands(self, which, order):
        fam = FAMILIES[which]
        for u in range(-1, order + 1):
            assert closed_form_at(which, order, u) == summands_summed(fam, order, u)
        assert closed_form_at_zero(which, order) == summands_summed(fam, order, 1)

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_odd_powers_left_unnegated_disagree(self, monkeypatch, which):
        # negative control: without its sign the triangle sums the summands
        # at -u; the verify checks it trips are listed in test_faults.py
        fam = FAMILIES[which]
        FAULTS["triangle-sign-dropped"].patch(monkeypatch)
        assert closed_form_at(which, 6, 1) != summands_summed(fam, 6, 1)
        assert closed_form_at(which, 6, 1) == summands_summed(fam, 6, -1)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order must be at least 1, got 0"):
            _summand_sum_in_u(FAMILIES["oo_even"], 0)


def length_in_v(stat: str, n: int, order: int) -> BigPoly:
    """Length n of a statistic read off the closed forms: row (n + 1) // 2
    of its even or odd family, rewritten from u in v by the binomial
    theorem."""
    row = closed_form_in_u(f"{stat}_{'odd' if n & 1 else 'even'}", order).coeff((n + 1) // 2)
    return BigPoly(at_one_minus(list(row.coeffs)))


class TestSeriesAgainstRecurrences:
    @pytest.mark.parametrize("n", range(1, 26))
    def test_oo_series_coefficients(self, n):
        assert length_in_v("oo", n, 13) == oo_poly(n)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_eo_series_coefficients(self, n):
        assert length_in_v("eo", n, 13) == eo_poly(n)

    def test_even_length_slice(self):
        s = closed_form_in_u("oo_even", 6)
        assert s.coeff(1) == BigPoly((1,))
        assert s.coeff(2) == BigPoly((2, -1)) == in_u(BigPoly((1, 1)))
        assert s.coeff(3) == in_u(oo_poly(6))

    def test_odd_length_slice(self):
        s = closed_form_in_u("oo_odd", 6)
        assert s.coeff(1) == BigPoly((1,))
        assert s.coeff(2) == BigPoly((1, -1))
        assert s.coeff(3) == in_u(oo_poly(5))

    def test_eo_even_prefix_term(self):
        # the correction term (y - 1)t = -u*t cancels the telescoped sum's
        # lone t, turning the constant 1 at t^1 into the true coefficient y
        s = closed_form_in_u("eo_even", 5)
        assert s.coeff(1) == BigPoly((1, -1))
        assert s.coeff(2) == in_u(eo_poly(4))
        assert s.coeff(3) == in_u(eo_poly(6))

    def test_eo_odd_slice(self):
        s = closed_form_in_u("eo_odd", 5)
        assert s.coeff(1) == BigPoly((1,))
        assert s.coeff(3) == in_u(eo_poly(5))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            closed_form_in_u("oo_even", 0)
        with pytest.raises(ValueError):
            closed_form_in_u("eo_odd", -2)

    def test_series_suite_builds_each_series_once(self, monkeypatch):
        built = []
        build = series.closed_form_in_u

        def counted(which, order):
            built.append((which, order))
            return build(which, order)

        monkeypatch.setattr(series, "closed_form_in_u", counted)
        assert all(c.passed for c in verify.suite_series(10))
        assert sorted(built) == [(which, 10) for which in sorted(FAMILIES)]


class TestSpecialValues:
    def test_genocchi_sequence(self):
        assert genocchi_sequence(8) == GENOCCHI

    def test_median_sequence(self):
        assert genocchi_median_sequence(8) == MEDIANS

    @pytest.mark.parametrize("n,value", list(enumerate(GENOCCHI, start=1)))
    def test_genocchi_single(self, n, value):
        assert genocchi_sequence(n)[-1] == value

    @pytest.mark.parametrize("n,value", list(enumerate(MEDIANS)))
    def test_median_single(self, n, value):
        assert genocchi_median_sequence(n + 1)[-1] == value

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_at_zero_is_the_v_zero_slice(self, which):
        # the two builds differ only in the factor u: 1 - v, or 1 at v = 0
        assert closed_form_at_zero(which, 10) == closed_form_at(which, 10, 1)

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_at_zero_depends_on_u(self, which):
        # negative control: the sum in u read at u = 2 is another series
        at_two = [BigPoly(c)(2) for c in _summand_sum_in_u(FAMILIES[which], 10)]
        assert at_two != closed_form_at_zero(which, 10)

    def test_eo_even_vanishes_at_y_zero(self):
        # every even length forces an even-odd drop, and the prefix (y-1)t
        # cancels the lone t that the telescoped sum contributes
        assert not any(at_v_zero(closed_form_in_u("eo_even", 12)))

    def test_oo_odd_at_x_zero_is_t(self):
        assert at_v_zero(closed_form_in_u("oo_odd", 12)) == t_alone(12)


class TestIdentities:
    @pytest.mark.parametrize("order", [1, 2, 5, 30])
    def test_squares_telescope(self, order):
        assert closed_form_at_zero("oo_odd", order) == t_alone(order)

    @pytest.mark.parametrize("order", [1, 2, 5, 30])
    def test_products_telescope(self, order):
        assert closed_form_at_zero("eo_even", order) == t_alone(order)


class TestPdeResiduals:
    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_residual_vanishes_with_tracked_order(self, which):
        res = pde_residual_of(closed_form_in_u(which, 12), which)
        assert res.order == 11
        assert res.is_zero()

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_operator_form_agrees_on_the_closed_form(self, which):
        # the operator form reads v, the residual u
        closed = closed_form_in_u(which, 10)
        s = [at_one_minus(list(c.coeffs)) for c in closed.coeffs]
        got = [at_one_minus(list(c.coeffs)) for c in pde_residual_of(closed, which).coeffs]
        assert pde_residual_by_operators(s, which) == got == [[]] * 10
        # negative control: half the S_vt coefficient, v*u for 2*v*u
        wrong = {**SECOND_ORDER, "vt": [0, 1, -1]}
        assert pde_residual_by_operators(s, which, wrong) != got

    def test_negative_control(self):
        tainted = with_constant_added(closed_form_in_u("oo_even", 12), 3)
        res = pde_residual_of(tainted, "oo_even")
        assert not res.is_zero()

    def test_integer_series_read_in_family_variable(self):
        res = pde_residual_of(TruncSeries([[], [1], *[[]] * 7]), "eo_odd")
        assert res.order == 7
        # t alone is no solution: its t*S_t term is left over at t^1
        assert res.first_nonzero() == (1, BigPoly((-1,)))

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order 2 too small"):
            pde_residual_of(closed_form_in_u("oo_even", 2), "oo_even")

    def test_nonzero_constant_term_raises(self):
        s = TruncSeries([[1, 1], *closed_form_in_u("oo_even", 6).coeffs[1:]])
        message = "cannot divide by t\\^1: coefficient of t\\^0 is 1 \\+ u"
        with pytest.raises(ValueError, match=message):
            pde_residual_of(s, "oo_even")

    def test_suite_builds_each_closed_form_once(self, monkeypatch):
        built = []
        build = series.closed_form_in_u

        def counted(which, order):
            built.append(which)
            return build(which, order)

        monkeypatch.setattr(series, "closed_form_in_u", counted)
        assert all(c.passed for c in verify.suite_pde(8))
        assert sorted(built) == sorted(FAMILIES)


def _summand_check(which: str, series_order: int) -> verify.CheckResult:
    """The family's summand-recurrence check out of the identities suite."""
    name = f"summand-recurrence-{which}"
    return next(c for c in verify.suite_identities(series_order) if c.name == name)


class TestSummandRecurrences:
    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_families_satisfy_recurrence(self, which):
        assert _summand_check(which, 14).status == "PASS"

    @pytest.mark.parametrize("which", sorted(FAMILIES))
    def test_check_catches_a_division_reading_two_back(self, monkeypatch, which):
        # each family fails on its own, with the detail its fault-table row names
        fault = FAULTS["division-reads-two-back"]
        fault.patch(monkeypatch)
        check = _summand_check(which, fault.series_order)
        assert (check.status, check.detail) == ("FAIL", fault.fails[check.name])


# -- the list division's order, against the same division three orders wider --

SLACK = 3
_small = st.integers(-20, 20)


@st.composite
def wide_series(draw):
    """(narrow, wide): the integer coefficients of a random series exact
    through N, and of the same series known SLACK orders further.  It may
    start with zero coefficients."""
    n = draw(st.integers(0, 7))
    cs = draw(st.lists(_small, min_size=n + SLACK + 1, max_size=n + SLACK + 1))
    zeros = draw(st.integers(0, n + SLACK + 1))
    cs[:zeros] = [0] * zeros
    return cs[: n + 1], cs


_property = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@_property
@given(wide_series(), _small)
def test_divide_linear_order_is_honest(a, divisor):
    # every coefficient the narrow quotient claims is the wide one's
    narrow, wide = (list(cs) for cs in a)
    _divide_linear(narrow, divisor)
    _divide_linear(wide, divisor)
    assert narrow == wide[: len(narrow)]


# -- the PDE residual against its operator form ----------------------------


@st.composite
def series_without_constant_term(draw):
    """A polynomial series of order 3..8 whose t^0 coefficient is zero."""
    order = draw(st.integers(3, 8))
    tail = draw(st.lists(st.lists(_small, max_size=4), min_size=order, max_size=order))
    return [[]] + tail


@pytest.mark.parametrize("which", sorted(FAMILIES))
@_property
@given(series_without_constant_term())
def test_residual_matches_the_operator_form(which, s):
    # s is read in u by the residual, and written in v for the operator form
    res = pde_residual_of(TruncSeries(s), which)
    assert res.order == len(s) - 2
    in_v = [at_one_minus(c) for c in s]
    assert [at_one_minus(list(c.coeffs)) for c in res.coeffs] == pde_residual_by_operators(in_v, which)
