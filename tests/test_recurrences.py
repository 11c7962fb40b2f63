"""Single-variable recurrences for the two marginal polynomial families."""

import math
from itertools import islice

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from reference import at_one_minus

from oddcycles import cli, recurrences, verify
from oddcycles.polynomials import BigPoly
from oddcycles.recurrences import eo_poly, eo_polys, forced_step, free_step, oo_poly, oo_polys


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

    def test_mapping_along_one_walk(self):
        # every length 2..40 of one walk follows the same rule
        oo_walk, eo_walk = list(oo_polys(40)), list(eo_polys(40))
        assert len(oo_walk) == len(eo_walk) == 40
        assert oo_walk[0] == eo_walk[0] == 1
        for n in range(2, 41):
            oo_step, eo_step = (forced_step, free_step) if n & 1 else (free_step, forced_step)
            assert oo_walk[n - 1] == oo_step(oo_walk[n - 2], n // 2)
            assert eo_walk[n - 1] == eo_step(eo_walk[n - 2], n // 2)

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
            assert list(oo_polys(bad)) == list(eo_polys(bad)) == [1]
        else:
            with pytest.raises(ValueError):
                oo_poly(bad)
            with pytest.raises(ValueError):
                eo_poly(bad)
            # refused at the call, before the walk is read
            with pytest.raises(ValueError):
                oo_polys(bad)
            with pytest.raises(ValueError):
                eo_polys(bad)


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


@pytest.fixture
def steps(monkeypatch):
    """Counts the steps the walks apply, by parameter k.

    Every step runs free_step once, directly or inside forced_step, so the
    free list holds every step and the forced list the forced ones.
    """
    counted = {"free": [], "forced": []}
    for name, fn in (("free", free_step), ("forced", forced_step)):

        def count(poly, k, fn=fn, seen=counted[name]):
            seen.append(k)
            return fn(poly, k)

        monkeypatch.setattr(recurrences, f"{name}_step", count)
    return counted


class TestOneWalk:
    """Each caller that needs every length reads one walk per statistic."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_poly_walks_once(self, steps, n):
        # the single length walks in a = v - 1 and runs no step in v
        oo_poly(n)
        assert steps == {"free": [], "forced": []}
        # the walk over every length: one step into each length 2..n,
        # forced into the odd ones
        list(oo_polys(n))
        assert steps["free"] == [target // 2 for target in range(2, n + 1)]
        assert steps["forced"] == [target // 2 for target in range(3, n + 1, 2)]

    def test_walk_is_lazy(self, steps):
        oo_head = list(islice(oo_polys(10**9), 3))
        eo_head = list(islice(eo_polys(10**9), 3))
        # reading three lengths ran two steps per walk
        assert steps["free"] == [1, 1, 1, 1]
        assert oo_head == [oo_poly(1), oo_poly(2), oo_poly(3)]
        assert eo_head == [eo_poly(1), eo_poly(2), eo_poly(3)]

    def test_series_suite(self, steps, monkeypatch):
        # lengths 1..20 of each statistic, all from one walk in a = v - 1
        # and none from a step in v
        walks = []
        walk = recurrences._eigen_walk

        def counted(n, forced):
            walks.append((n, forced))
            return walk(n, forced)

        monkeypatch.setattr(recurrences, "_eigen_walk", counted)
        assert all(c.passed for c in verify.suite_series(10))
        assert sorted(walks) == [(20, 0), (20, 1)]
        assert steps == {"free": [], "forced": []}

    def test_genocchi_suite(self, steps):
        assert all(c.passed for c in verify.suite_genocchi(10, max_n=4))
        # odd-odd to length 20 for the Genocchi numbers, even-odd to length 19
        # for the medians
        assert len(steps["free"]) == 19 + 18

    def test_oracle_suite(self, steps):
        assert all(c.passed for c in verify.suite_oracle(7))
        # each marginal check walks its statistic to 7 once in v, for every
        # length (the single polynomial poly --kind f|g prints runs no step in
        # v), and the count check walks both
        assert len(steps["free"]) == 4 * 6

    def test_cno_count_sequence(self, steps, capsys):
        # the counts come from the walk in a, which runs no step in v
        assert cli.main(["sequence", "--kind", "cno_count", "--limit", "30"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 31
        assert steps == {"free": [], "forced": []}


def _walk_with_a_skipped_step(monkeypatch, length):
    """Patch the walk to yield `length` twice: every later length is one step
    behind, and the walk still yields n polynomials."""
    walk = recurrences._walk

    def skipping(n, even_step, odd_step):
        def polys():
            for i, poly in enumerate(walk(n, even_step, odd_step), 1):
                yield poly
                if i == length:
                    yield poly

        return islice(polys(), n)

    monkeypatch.setattr(recurrences, "_walk", skipping)


def _eigen_walk_with_a_skipped_step(monkeypatch, length):
    """The same fault in the walk in a: `length` is yielded twice, before
    the walk moves on, so every later length is one step behind."""
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
    _eigen_walk_with_a_skipped_step(monkeypatch, 5)
    results = {c.name: c for c in verify.suite_series(10)}
    for stat in ("oo", "eo"):
        result = results[f"{stat}-series-vs-recurrence"]
        assert not result.passed
        assert result.detail.startswith("t^6: ")


def test_oracle_suite_catches_a_walk_that_skips_a_step(monkeypatch):
    _walk_with_a_skipped_step(monkeypatch, 5)
    results = {c.name: c for c in verify.suite_oracle(7)}
    for stat in ("oo", "eo"):
        result = results[f"{stat}-marginal-vs-recurrence"]
        assert not result.passed
        assert result.detail.startswith("n=6: ")


def _walk_of_wrong_length(monkeypatch, extra):
    """Patch both walks, in v and in a, to stop one length early (extra=-1)
    or to yield their last length twice (extra=1).  The walk in a updates
    its coefficients in place, so it is read as it yields."""
    walk, eigen_walk = recurrences._walk, recurrences._eigen_walk

    def wrong_length(n, even_step, odd_step):
        polys = list(walk(n, even_step, odd_step))
        return iter(polys[:-1] if extra < 0 else polys + polys[-1:])

    def eigen_wrong_length(n, forced):
        if extra < 0:
            yield from islice(eigen_walk(n, forced), n - 1)
            return
        for item in eigen_walk(n, forced):
            yield item
        yield item

    monkeypatch.setattr(recurrences, "_walk", wrong_length)
    monkeypatch.setattr(recurrences, "_eigen_walk", eigen_wrong_length)


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
    eo_walk = recurrences.eo_polys

    def one_long(n):
        polys = list(eo_walk(n))
        return iter(polys + polys[-1:])

    monkeypatch.setattr(recurrences, "eo_polys", one_long)
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


# -- the fused step against the ring-operation formula ----------------------


@st.composite
def step_input(draw):
    """A random polynomial, zero and negative coefficients included, and k >= 0."""
    coeffs = draw(st.lists(st.integers(-(10**20), 10**20), max_size=8))
    return BigPoly(coeffs), draw(st.integers(0, 12))


def _ring_step(poly: BigPoly, k: int) -> BigPoly:
    # reference: k*p + (1-v)*p' with one ring operation at a time
    d = poly.derivative()
    return poly * k + d - d.shift(1)


def _fused_agrees(case, step=free_step) -> bool:
    poly, k = case
    return step(poly, k) == _ring_step(poly, k) and forced_step(poly, k) == _ring_step(poly, k).shift(1)


NO_SHRINK = settings(max_examples=100, derandomize=True, database=None, phases=[Phase.generate])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(step_input())
def test_fused_step_equals_ring_formula(case):
    assert _fused_agrees(case)


def test_fused_step_property_catches_an_off_by_one_weight():
    def off_by_one(poly, k):
        p = poly.coeffs
        if not p:
            return poly
        deg = len(p) - 1
        return BigPoly(
            [(k - i - 1) * p[i] + (i + 1) * p[i + 1] for i in range(deg)] + [(k - deg - 1) * p[deg]]
        )

    # raises NoSuchExample if the property cannot tell the broken step apart
    find(step_input(), lambda case: not _fused_agrees(case, off_by_one), settings=NO_SHRINK)


# -- the walk to one length, in a = v - 1, against the walk over every length --


def _single_walk_agrees(n: int) -> bool:
    return oo_poly(n) == list(oo_polys(n))[-1] and eo_poly(n) == list(eo_polys(n))[-1]


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


_eigen_walk = recurrences._eigen_walk


def _walk_hiding_held(n, forced):
    # the real walk, but every length reports no held free step, so a
    # reader never applies one: a free step that ends the walk is dropped
    for coeffs, _ in _eigen_walk(n, forced):
        yield coeffs, 0


def _marginal_checks(max_n):
    checks = {c.name: c for c in verify.suite_oracle(max_n)}
    return checks["oo-marginal-vs-recurrence"], checks["eo-marginal-vs-recurrence"]


def test_single_walk_property_catches_a_scale_off_by_one(monkeypatch):
    monkeypatch.setattr(recurrences, "_lift", _lift_off_by_one)
    # raises NoSuchExample if the property cannot tell the broken walk apart
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)
    for result in _marginal_checks(7):
        assert not result.passed
        assert result.detail.startswith("n=7: ")


def test_single_walk_property_catches_a_dropped_last_free_step(monkeypatch):
    monkeypatch.setattr(recurrences, "_eigen_walk", _walk_hiding_held)
    find(st.integers(1, 400), lambda n: not _single_walk_agrees(n), settings=NO_SHRINK)
    # odd-odd ends on a free step at even lengths, even-odd at odd ones
    oo, eo = _marginal_checks(6)
    assert (oo.passed, eo.passed) == (False, True)
    assert oo.detail.startswith("n=6: ")
    oo, eo = _marginal_checks(7)
    assert (oo.passed, eo.passed) == (True, False)
    assert eo.detail.startswith("n=7: ")


def test_single_walk_controls_break_only_what_they_name(monkeypatch):
    # unbroken, the dropping walk's body is the real walk wherever no free
    # step ends it, so the controls above fail for the fault they name
    monkeypatch.setattr(recurrences, "_eigen_walk", _walk_hiding_held)
    assert all(oo_poly(n) == list(oo_polys(n))[-1] for n in range(1, 40, 2))
    assert all(eo_poly(n) == list(eo_polys(n))[-1] for n in range(2, 40, 2))


# -- the walk in a over every length, against the walk in v ------------------


def _last(walk):
    for item in walk:
        pass
    return item


def _a_walk_in_u(n: int, forced: int) -> BigPoly:
    """Length n of the walk in a, written in u = -a: coefficient j is
    (-1)^j times (held-j)*coeffs[j], or coeffs[j] when held is 0."""
    coeffs, held = _last(recurrences._eigen_walk(n, forced))
    return BigPoly((held - j if held else 1) * (-c if j & 1 else c) for j, c in enumerate(coeffs))


def _every_length_walk_agrees(n: int) -> bool:
    # the walk in v rewritten in u by the binomial theorem, no Taylor shift
    return all(
        _a_walk_in_u(n, forced) == BigPoly(at_one_minus(list(_last(walk(n)).coeffs)))
        for forced, walk in ((1, oo_polys), (0, eo_polys))
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
