"""Single-variable recurrences for the two marginal polynomial families."""

import math
from functools import cache
from itertools import islice

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from reference import marginal_step_by_definition, marginal_walk_by_definition
from test_faults import FAULTS

from oddcycles import cli, recurrences, verify
from oddcycles.polynomials import BigPoly
from oddcycles.recurrences import eo_poly, oo_poly


def _step(poly: BigPoly, k: int, forced: bool) -> BigPoly:
    """The reference step on a polynomial in v: k*p + (1-v)*p', times v when forced."""
    return BigPoly(marginal_step_by_definition(list(poly.coeffs), k, forced))


def _read_in_v(walk) -> list[BigPoly]:
    """Every length of a walk in a = v - 1, read in v as it is yielded."""
    return [recurrences._in_v(coeffs, held) for coeffs, held in walk]


class TestStepPlan:
    """The walk's rule: length 2k comes from the even step with parameter k,
    length 2k+1 from the odd step with parameter k."""

    @pytest.mark.parametrize(
        "target,parity,k",
        [(2, "even", 1), (3, "odd", 1), (4, "even", 2), (5, "odd", 2), (12, "even", 6), (13, "odd", 6)],
    )
    def test_mapping(self, target, parity, k):
        # odd-odd is forced into odd lengths, even-odd into even lengths
        odd = parity == "odd"
        assert oo_poly(target) == _step(oo_poly(target - 1), k, forced=odd)
        assert eo_poly(target) == _step(eo_poly(target - 1), k, forced=not odd)

    def test_mapping_along_one_walk(self):
        # every length 2..40 of one walk, read in v, follows the same rule
        oo_walk, eo_walk = (_read_in_v(recurrences._eigen_walk(40, forced)) for forced in (1, 0))
        assert len(oo_walk) == len(eo_walk) == 40
        assert oo_walk[0] == eo_walk[0] == 1
        for n in range(2, 41):
            assert oo_walk[n - 1] == _step(oo_walk[n - 2], n // 2, forced=n & 1)
            assert eo_walk[n - 1] == _step(eo_walk[n - 2], n // 2, forced=not n & 1)

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_targets(self, bad, monkeypatch):
        # no step produces a length below 2: length 1 is the base case, and
        # lower lengths are refused before any step runs
        def no_step(coeffs, k, held):
            raise AssertionError(f"step {k} applied")

        monkeypatch.setattr(recurrences, "_lift", no_step)
        if bad == 1:
            assert oo_poly(bad) == 1
            assert eo_poly(bad) == 1
            assert _read_in_v(recurrences._eigen_walk(bad, 1)) == _read_in_v(recurrences._eigen_walk(bad, 0)) == [1]
        else:
            with pytest.raises(ValueError):
                oo_poly(bad)
            with pytest.raises(ValueError):
                eo_poly(bad)
            # refused before the walk yields its first length
            for forced in (1, 0):
                with pytest.raises(ValueError):
                    next(recurrences._eigen_walk(bad, forced))


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
    """The reference step that the walk is pinned against."""

    def test_zero_is_fixed(self):
        assert marginal_step_by_definition([], 4, forced=False) == []
        assert marginal_step_by_definition([], 4, forced=True) == []

    def test_single_step_values(self):
        # one step of each family reproduces the next pinned polynomial:
        # odd-odd is forced into odd lengths, even-odd into even lengths
        assert _step(oo_poly(4), 2, forced=True) == oo_poly(5)
        assert _step(oo_poly(5), 3, forced=False) == oo_poly(6)
        assert _step(eo_poly(4), 2, forced=False) == eo_poly(5)
        assert _step(eo_poly(3), 2, forced=True) == eo_poly(4)

    def test_derivative_term_matters(self):
        # the step is not plain multiplication: at k = 1, v^2 goes to
        # v^2 + 2v - 2v^2
        assert _step(BigPoly((0, 0, 1)), 1, forced=False) == BigPoly((0, 2, -1))


class TestFamilyInvariants:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_shared_total_count(self, n):
        expected = math.factorial((n - 1) // 2) * math.factorial(n // 2)
        assert oo_poly(n)(1) == expected
        assert eo_poly(n)(1) == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_degree_bounds(self, n):
        # a polynomial of degree d has d + 1 coefficients
        assert len(oo_poly(n).coeffs) <= (n + 1) // 2 + 1
        assert len(eo_poly(n).coeffs) <= n // 2 + 1

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


@pytest.fixture
def walks(monkeypatch):
    """Records the walks started, as (n, forced), and the forced steps they
    run, by parameter k."""
    counted = {"walks": [], "lifts": []}
    walk, lift = recurrences._eigen_walk, recurrences._lift

    def counted_walk(n, forced):
        counted["walks"].append((n, forced))
        return walk(n, forced)

    def counted_lift(coeffs, k, held):
        counted["lifts"].append(k)
        lift(coeffs, k, held)

    monkeypatch.setattr(recurrences, "_eigen_walk", counted_walk)
    monkeypatch.setattr(recurrences, "_lift", counted_lift)
    return counted


class TestOneWalk:
    """Each caller that needs every length reads one walk per statistic."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_poly_walks_once(self, walks, n):
        # one walk to n: one forced step into each odd length 3..n
        oo_poly(n)
        assert walks == {"walks": [(n, 1)], "lifts": [target // 2 for target in range(3, n + 1, 2)]}

    def test_walk_is_lazy(self, walks):
        oo_head = _read_in_v(islice(recurrences._eigen_walk(10**9, 1), 3))
        eo_head = _read_in_v(islice(recurrences._eigen_walk(10**9, 0), 3))
        # reading three lengths ran one forced step per walk: into length 3
        # for odd-odd, into length 2 for even-odd
        assert walks["lifts"] == [1, 1]
        assert oo_head == [oo_poly(1), oo_poly(2), oo_poly(3)]
        assert eo_head == [eo_poly(1), eo_poly(2), eo_poly(3)]

    def test_series_suite(self, walks):
        # lengths 1..20 of each statistic, all from one walk
        assert all(c.passed for c in verify.suite_series(10))
        assert sorted(walks["walks"]) == [(20, 0), (20, 1)]

    def test_genocchi_suite(self, walks):
        assert all(c.passed for c in verify.suite_genocchi(10, max_n=4))
        # odd-odd to length 20 for the Genocchi numbers, even-odd to length 19
        # for the medians
        assert walks["walks"] == [(20, 1), (19, 0)]

    def test_oracle_suite(self, walks):
        assert all(c.passed for c in verify.suite_oracle(7))
        # each marginal check walks its statistic to 7 for every length, and
        # once more for the single polynomial poly --kind f|g prints; the
        # count check walks both
        assert walks["walks"] == [(7, 1), (7, 1), (7, 0), (7, 0), (7, 1), (7, 0)]

    def test_cno_count_sequence(self, walks, capsys):
        assert cli.main(["sequence", "--kind", "cno_count", "--limit", "30"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 31
        assert walks["walks"] == [(30, 1)]


@pytest.mark.parametrize(
    "series_order, status, detail",
    [
        (1, "SKIP", "medians equal odd-odd-only recurrence count for m=2..1"),
        # negative control: one median to compare
        (2, "PASS", "medians equal odd-odd-only recurrence count for m=2..2"),
    ],
)
def test_median_recurrence_check_skips_an_empty_range(series_order, status, detail):
    checks = verify.run_suites("genocchi", max_n=4, series_order=series_order)
    result = {c.name: c for c in checks}["median-vs-recurrence"]
    assert (result.status, result.detail) == (status, detail)


@pytest.mark.parametrize(
    "row,detail",
    [
        pytest.param("walk-ends-early", "recurrence walk stops at length 19 of 20", id="short"),
        pytest.param("walk-ends-late", "recurrence walk yields more than 20 lengths", id="long"),
    ],
)
def test_verify_reports_a_walk_of_the_wrong_length_as_a_failed_check(monkeypatch, capsys, row, detail):
    FAULTS[row].patch(monkeypatch)
    argv = ["verify", "--suite", "series", "--max-n", "4", "--series-order", "10", "--format", "csv"]
    status = cli.main(argv)
    out = capsys.readouterr().out
    # a failed check, exit 1, not a usage error
    assert status == 1
    assert detail in out


# -- sequence --kind cno_count, its walk one coefficient wide ----------------

_at, _eigen_walk = recurrences._at, recurrences._eigen_walk


def _first_count_off_the_full_walk(capsys, limit: int) -> int | None:
    """The first length at which sequence --kind cno_count prints another
    count than P(0) of the full walk, or None."""
    assert cli.main(["sequence", "--kind", "cno_count", "--limit", str(limit), "--format", "csv"]) == 0
    rows = [tuple(map(int, line.split(","))) for line in capsys.readouterr().out.splitlines()[1:]]
    full = [(n, _at(coeffs, held, 0)) for n, (coeffs, held) in enumerate(_eigen_walk(limit, 1), 1)]
    assert len(rows) == limit
    return next((row[0] for row, want in zip(rows, full) if row != want), None)


def test_cno_count_equals_the_full_walk_at_every_length(capsys):
    assert _first_count_off_the_full_walk(capsys, 400) is None


def test_cno_count_pin_catches_a_step_that_reads_ahead(capsys, monkeypatch):
    # were coefficient 0 of a forced step to read coefficient 1 as well, the
    # walk cut to one coefficient would part from the full walk at the
    # first forced step that meets a coefficient 1 it no longer has
    lift = recurrences._lift

    def reading_ahead(coeffs, k, held):
        ahead = coeffs[1] if len(coeffs) > 1 else 0
        lift(coeffs, k, held)
        coeffs[0] += ahead

    monkeypatch.setattr(recurrences, "_lift", reading_ahead)
    assert _first_count_off_the_full_walk(capsys, 400) == 5


# -- the walk to one length, read in v, against the reference walk -----------

REFERENCE_LENGTHS = 400


@cache
def _reference_walk(forced: int) -> list[BigPoly]:
    """Lengths 1..400 of one statistic, stepped in v by the reference step."""
    return [BigPoly(p) for p in marginal_walk_by_definition(REFERENCE_LENGTHS, forced)]


def _single_walk_agrees(n: int) -> bool:
    return oo_poly(n) == _reference_walk(1)[n - 1] and eo_poly(n) == _reference_walk(0)[n - 1]


NO_SHRINK = settings(max_examples=100, derandomize=True, database=None, phases=[Phase.generate])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 400))
@example(1)
@example(2)
@example(399)
@example(400)
def test_single_walk_equals_the_last_length(n):
    assert _single_walk_agrees(n)


def test_single_walk_property_catches_a_scale_off_by_one(monkeypatch):
    FAULTS["lift-scale-off-by-one"].patch(monkeypatch)
    # raises NoSuchExample if the property cannot tell the broken walk apart
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)


def test_single_walk_property_catches_a_dropped_last_free_step(monkeypatch):
    FAULTS["walk-hides-held"].patch(monkeypatch)
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)


def test_single_walk_controls_break_only_what_they_name(monkeypatch):
    # unbroken, the dropping walk's body is the real walk wherever no free
    # step ends it, so the controls above fail for the fault they name
    FAULTS["walk-hides-held"].patch(monkeypatch)
    assert all(oo_poly(n) == _reference_walk(1)[n - 1] for n in range(1, 40, 2))
    assert all(eo_poly(n) == _reference_walk(0)[n - 1] for n in range(2, 40, 2))


# -- the walk in a over every length, read in v, against the reference walk --


def _every_length_walk_agrees(n: int) -> bool:
    return all(
        _read_in_v(recurrences._eigen_walk(n, forced)) == _reference_walk(forced)[:n]
        for forced in (1, 0)
    )


# each example shifts every length, so it costs n^3: fewer examples
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200))
@example(1)
@example(2)
@example(199)
@example(200)
def test_every_length_walk_in_a_equals_the_walk_in_v(n):
    assert _every_length_walk_agrees(n)


def test_every_length_walk_property_catches_a_scale_off_by_one(monkeypatch):
    FAULTS["lift-scale-off-by-one"].patch(monkeypatch)
    find(st.integers(1, 200), lambda n: not _every_length_walk_agrees(n), settings=NO_SHRINK)
