"""Single-variable recurrences for the two marginal polynomial families."""

import math
from functools import cache
from itertools import islice

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from reference import marginal_step_by_definition, marginal_walk_by_definition

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


def _walk_with_a_skipped_step(monkeypatch, length):
    """Patch the walk to yield `length` twice, before it moves on: every
    later length is one step behind, and the walk still yields n lengths."""
    walk = recurrences._eigen_walk

    def skipping(n, forced):
        def lengths():
            for i, item in enumerate(walk(n, forced), 1):
                yield item
                if i == length:
                    yield item

        return islice(lengths(), n)

    monkeypatch.setattr(recurrences, "_eigen_walk", skipping)


def test_series_suite_catches_a_walk_that_skips_a_step(monkeypatch):
    _walk_with_a_skipped_step(monkeypatch, 5)
    results = {c.name: c for c in verify.suite_series(10)}
    for stat in ("oo", "eo"):
        result = results[f"{stat}-series-vs-recurrence"]
        assert not result.passed
        assert result.detail.startswith("t^6: ")


def test_oracle_suite_catches_a_walk_that_skips_a_step(monkeypatch):
    _walk_with_a_skipped_step(monkeypatch, 5)
    results = {c.name: (c.status, c.detail) for c in verify.suite_oracle(7)}
    assert results["oo-marginal-vs-recurrence"] == ("FAIL", "n=6: degree 0: 3 != 0")
    assert results["eo-marginal-vs-recurrence"] == ("FAIL", "n=6: degree 0: 0 != 2")


def _walk_of_wrong_length(monkeypatch, extra):
    """Patch the walk to stop one length early (extra=-1) or to yield its
    last length twice (extra=1).  It updates its coefficients in place, so
    it is read as it yields."""
    walk = recurrences._eigen_walk

    def wrong_length(n, forced):
        if extra < 0:
            yield from islice(walk(n, forced), n - 1)
            return
        for item in walk(n, forced):
            yield item
        yield item

    monkeypatch.setattr(recurrences, "_eigen_walk", wrong_length)


WRONG_LENGTH = [
    pytest.param(-1, "recurrence walk stops at length {top_less_one} of {top}", id="short"),
    pytest.param(1, "recurrence walk yields more than {top} lengths", id="long"),
]


@pytest.mark.parametrize("extra,detail", WRONG_LENGTH)
def test_suites_fail_a_walk_of_the_wrong_length(monkeypatch, extra, detail):
    _walk_of_wrong_length(monkeypatch, extra)
    series_checks = {c.name: c for c in verify.suite_series(10)}
    oracle_checks = {c.name: c for c in verify.suite_oracle(7)}
    genocchi_checks = {c.name: c for c in verify.suite_genocchi(10, max_n=4)}
    failing = [
        (series_checks["oo-series-vs-recurrence"], 20),
        (series_checks["eo-series-vs-recurrence"], 20),
        (oracle_checks["oo-marginal-vs-recurrence"], 7),
        (oracle_checks["eo-marginal-vs-recurrence"], 7),
        (oracle_checks["counts-all-routes"], 7),
        (genocchi_checks["genocchi-vs-recurrence"], 20),
        (genocchi_checks["median-vs-recurrence"], 19),
    ]
    for result, top in failing:
        assert not result.passed, result.name
        assert result.detail == detail.format(top=top, top_less_one=top - 1), result.name


def test_count_check_reads_the_second_walk_to_its_end(monkeypatch):
    # only the even-odd walk, read second, runs one length long
    walk = recurrences._eigen_walk

    def one_long(n, forced):
        for item in walk(n, forced):
            yield item
        if not forced:
            yield item

    monkeypatch.setattr(recurrences, "_eigen_walk", one_long)
    result = {c.name: c for c in verify.suite_oracle(7)}["counts-all-routes"]
    assert not result.passed
    assert result.detail == "recurrence walk yields more than 7 lengths"


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


@pytest.mark.parametrize("extra,detail", WRONG_LENGTH)
def test_verify_reports_a_walk_of_the_wrong_length_as_a_failed_check(
    monkeypatch, capsys, extra, detail
):
    _walk_of_wrong_length(monkeypatch, extra)
    argv = ["verify", "--suite", "series", "--max-n", "4", "--series-order", "10", "--format", "csv"]
    status = cli.main(argv)
    out = capsys.readouterr().out
    # a failed check, exit 1, not a usage error
    assert status == 1
    assert detail.format(top=20, top_less_one=19) in out


# -- the readers at an integer, P(0) and P(-1), without the held step --------

_at, _eigen_walk = recurrences._at, recurrences._eigen_walk


def _at_dropping_held(value):
    """The reader at an integer a, but at a = value it ignores the held free step."""
    return lambda coeffs, held, a: _at(coeffs, 0 if a == value else held, a)


def test_count_check_catches_a_reader_that_drops_the_held_step(monkeypatch):
    monkeypatch.setattr(recurrences, "_at", _at_dropping_held(0))
    checks = {c.name: (c.status, c.detail) for c in verify.suite_oracle(7)}
    assert checks["counts-all-routes"] == ("FAIL", "n=4: table 2, marginals 1/2, product formula 2")
    # the reader at a = -1, the values at v = 0, is untouched
    assert all(c.passed for c in verify.suite_genocchi(10, max_n=4))


def test_genocchi_checks_catch_a_reader_that_drops_the_held_step(monkeypatch):
    monkeypatch.setattr(recurrences, "_at", _at_dropping_held(-1))
    checks = {c.name: (c.status, c.detail) for c in verify.suite_genocchi(10, max_n=4)}
    assert checks["genocchi-vs-recurrence"] == ("FAIL", "m=2: 1 != recurrence 0")
    assert checks["median-vs-recurrence"] == ("FAIL", "m=2: 1 != recurrence 0")
    # the reader at a = 0, the counts, is untouched
    assert {c.name: c.passed for c in verify.suite_oracle(7)}["counts-all-routes"]


# -- sequence --kind cno_count, its walk one coefficient wide ----------------


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


def _lift_off_by_one(coeffs, k, held):
    # the real body, but the forced step scales coefficient i by k-i+1
    below = 0
    for i, c in enumerate(coeffs):
        c *= (held - i) * (k - i + 1) if held else k - i + 1
        coeffs[i] = c + below
        below = c
    coeffs.append(below)


def _walk_hiding_held(n, forced):
    # the real walk, but every length reports no held free step, so a
    # reader never applies one
    for coeffs, _ in _eigen_walk(n, forced):
        yield coeffs, 0


def _marginal_checks(max_n):
    checks = {c.name: c for c in verify.suite_oracle(max_n)}
    return checks["oo-marginal-vs-recurrence"], checks["eo-marginal-vs-recurrence"]


def test_single_walk_property_catches_a_scale_off_by_one(monkeypatch):
    monkeypatch.setattr(recurrences, "_lift", _lift_off_by_one)
    # raises NoSuchExample if the property cannot tell the broken walk apart
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)
    # the first forced step goes into length 3 for odd-odd, 2 for even-odd
    oo, eo = _marginal_checks(7)
    assert (oo.status, oo.detail) == ("FAIL", "n=3: degree 1: 1 != 2")
    assert (eo.status, eo.detail) == ("FAIL", "n=2: degree 1: 1 != 2")


def test_single_walk_property_catches_a_dropped_last_free_step(monkeypatch):
    monkeypatch.setattr(recurrences, "_eigen_walk", _walk_hiding_held)
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)
    # a held free step changes a length once it meets a coefficient of a^1
    # or above: even-odd holds one at length 3, odd-odd first at length 4
    oo, eo = _marginal_checks(3)
    assert (oo.passed, eo.status, eo.detail) == (True, "FAIL", "n=3: degree 0: 1 != 0")
    oo, _ = _marginal_checks(4)
    assert (oo.status, oo.detail) == ("FAIL", "n=4: degree 0: 1 != 0")


def test_single_walk_controls_break_only_what_they_name(monkeypatch):
    # unbroken, the dropping walk's body is the real walk wherever no free
    # step ends it, so the controls above fail for the fault they name
    monkeypatch.setattr(recurrences, "_eigen_walk", _walk_hiding_held)
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
    monkeypatch.setattr(recurrences, "_lift", _lift_off_by_one)
    find(st.integers(1, 200), lambda n: not _every_length_walk_agrees(n), settings=NO_SHRINK)


def test_series_suite_catches_a_reader_that_ignores_the_held_step(monkeypatch):
    # lengths 2k are free steps for odd-odd, lengths 2k+1 for even-odd; the
    # first whose held factor is not 1 on a nonzero coefficient fails
    monkeypatch.setattr(recurrences, "_eigen_walk", _walk_hiding_held)
    details = {c.name: (c.status, c.detail) for c in verify.suite_series(10)}
    assert details["oo-series-vs-recurrence"] == ("FAIL", "t^4: u^0: 2 != 1")
    assert details["eo-series-vs-recurrence"] == ("FAIL", "t^3: u^1: 0 != -1")
