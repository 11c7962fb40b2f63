"""Cross-verification suites tying the four computation routes together.

Each suite runs named checks and returns CheckResult records; nothing here
prints or exits, that is the command line's job.  A check compares two
independently computed objects for exact equality, and on failure the detail
string names the first differing coefficient, so a regression points at a
specific polynomial term rather than a boolean.

Suites:
  oracle     brute-force table vs generating tree vs recurrence marginals,
             plus the tree's partition and per-insertion bookkeeping
  series     interleaved closed-form series vs the recurrence polynomials
  genocchi   pinned Genocchi and median values, recomputed by every route
  identities the two telescoping sums and the summand recurrences
  pde        residuals of the four closed-form equations plus a negative
             control
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from . import enumerator, gentree, recurrences, series
from .polynomials import BiPoly, BigPoly

GENOCCHI_VALUES = [1, 1, 3, 17, 155, 2073, 38227, 929569]
MEDIAN_VALUES = [1, 2, 8, 56, 608, 9440, 198272, 5410688]

SUITES = ("oracle", "series", "genocchi", "identities", "pde")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class CheckFailure(Exception):
    """Raised inside a check body with the failure detail."""


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        return CheckResult(name, True, detail, time.perf_counter() - start)
    except CheckFailure as exc:
        return CheckResult(name, False, str(exc), time.perf_counter() - start)


def _first_bipoly_diff(a: BiPoly, b: BiPoly) -> str:
    keys = sorted(set(a.terms) | set(b.terms), key=lambda k: (k[0] + k[1], k))
    for i, j in keys:
        if a.coeff(i, j) != b.coeff(i, j):
            return f"x^{i}*y^{j}: {a.coeff(i, j)} != {b.coeff(i, j)}"
    return "no differing coefficient"


def _first_bigpoly_diff(a: BigPoly, b: BigPoly) -> str:
    for d in range(max(a.degree(), b.degree()) + 1):
        if a.coeff(d) != b.coeff(d):
            return f"degree {d}: {a.coeff(d)} != {b.coeff(d)}"
    return "no differing coefficient"


def _series_nonzero_detail(s: series.TruncSeries) -> str:
    hit = s.first_nonzero()
    if hit is None:
        return "zero"
    return f"t^{hit[0]}: {hit[1].format(s.var or 'x')}"


# -- oracle suite ----------------------------------------------------------


def suite_oracle(max_n: int = enumerator.DEFAULT_BRUTEFORCE_MAX) -> list[CheckResult]:
    tables = {}

    def table(n):
        if n not in tables:
            tables[n] = enumerator.joint_table(n, max_n=max_n)
        return tables[n]

    def check_table_vs_tree():
        for n in range(1, max_n + 1):
            got = table(n).as_bipoly()
            want = gentree.joint_poly(n)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_bipoly_diff(got, want)}")
        return f"joint table equals tree polynomial for n=1..{max_n}"

    def check_oo_marginal():
        for n in range(1, max_n + 1):
            got = table(n).oo_marginal()
            want = recurrences.oo_poly(n)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_bigpoly_diff(got, want)}")
        return f"odd-odd marginal equals recurrence for n=1..{max_n}"

    def check_eo_marginal():
        for n in range(1, max_n + 1):
            got = table(n).eo_marginal()
            want = recurrences.eo_poly(n)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_bigpoly_diff(got, want)}")
        return f"even-odd marginal equals recurrence for n=1..{max_n}"

    def check_totals():
        for n in range(1, max_n + 1):
            total = table(n).total()
            f1 = recurrences.oo_poly(n)(1)
            g1 = recurrences.eo_poly(n)(1)
            closed = factorial((n - 1) // 2) * factorial(n // 2)
            if not total == f1 == g1 == closed:
                raise CheckFailure(
                    f"n={n}: table {total}, marginals {f1}/{g1}, product formula {closed}"
                )
        return f"cycle counts agree on all four routes for n=1..{max_n}"

    def check_tree_partition():
        level = [next(enumerator.iter_odd_drop_cycles(1))]
        for n in range(1, max_n):
            level, problems = gentree.verify_level(level)
            if problems:
                raise CheckFailure(f"n={n}: {problems[0]}")
            grown = set(level)
            if len(level) != len(grown):
                raise CheckFailure(f"n={n}: children lists overlap")
            want = set(enumerator.iter_odd_drop_cycles(n + 1, max_n=max_n))
            if grown != want:
                missing = sorted(c.entries for c in want - grown)[:1]
                extra = sorted(c.entries for c in grown - want)[:1]
                raise CheckFailure(f"n={n}: missing {missing}, extra {extra}")
        return f"children partition the next level for n=1..{max_n - 1}"

    return [
        _run("table-vs-tree", check_table_vs_tree),
        _run("oo-marginal-vs-recurrence", check_oo_marginal),
        _run("eo-marginal-vs-recurrence", check_eo_marginal),
        _run("counts-all-routes", check_totals),
        _run("tree-partition", check_tree_partition),
    ]


# -- series suite ----------------------------------------------------------


def suite_series(series_order: int = series.DEFAULT_ORDER) -> list[CheckResult]:
    top = 2 * series_order
    built = {}

    def full(build):
        if build not in built:
            built[build] = build(top)
        return built[build]

    def check_oo():
        s = full(series.oo_series)
        for n in range(1, top + 1):
            got = s.coeff(n)
            want = recurrences.oo_poly(n)
            if got != want:
                raise CheckFailure(f"t^{n}: {_first_bigpoly_diff(got, want)}")
        return f"odd-odd series matches recurrence for n=1..{top}"

    def check_eo():
        s = full(series.eo_series)
        for n in range(1, top + 1):
            got = s.coeff(n)
            want = recurrences.eo_poly(n)
            if got != want:
                raise CheckFailure(f"t^{n}: {_first_bigpoly_diff(got, want)}")
        return f"even-odd series matches recurrence for n=1..{top}"

    def check_constant_terms():
        # no odd length >= 3 avoids odd-odd drops; no even length avoids
        # even-odd drops
        oo0 = full(series.oo_series).substitute(0)
        eo0 = full(series.eo_series).substitute(0)
        for n in range(3, top + 1, 2):
            if not oo0.coeff(n).is_zero():
                raise CheckFailure(f"odd-odd constant term at t^{n}: {oo0.coeff(n)}")
        for n in range(2, top + 1, 2):
            if not eo0.coeff(n).is_zero():
                raise CheckFailure(f"even-odd constant term at t^{n}: {eo0.coeff(n)}")
        return f"forced-drop constant terms vanish for n<={top}"

    return [
        _run("oo-series-vs-recurrence", check_oo),
        _run("eo-series-vs-recurrence", check_eo),
        _run("forced-drops-vanish", check_constant_terms),
    ]


# -- genocchi suite ---------------------------------------------------------


def suite_genocchi(
    series_order: int = series.DEFAULT_ORDER,
    max_n: int = enumerator.DEFAULT_BRUTEFORCE_MAX,
) -> list[CheckResult]:
    def check_genocchi_values():
        got = series.genocchi_sequence(len(GENOCCHI_VALUES))
        if got != GENOCCHI_VALUES:
            i = next(i for i, (a, b) in enumerate(zip(got, GENOCCHI_VALUES)) if a != b)
            raise CheckFailure(f"index {i + 1}: {got[i]} != {GENOCCHI_VALUES[i]}")
        return f"Genocchi numbers 1..{len(GENOCCHI_VALUES)} match"

    def check_median_values():
        got = series.genocchi_median_sequence(len(MEDIAN_VALUES))
        if got != MEDIAN_VALUES:
            i = next(i for i, (a, b) in enumerate(zip(got, MEDIAN_VALUES)) if a != b)
            raise CheckFailure(f"index {i}: {got[i]} != {MEDIAN_VALUES[i]}")
        return f"Genocchi medians 0..{len(MEDIAN_VALUES) - 1} match"

    def check_genocchi_vs_recurrence():
        values = series.genocchi_sequence(series_order)
        for m in range(1, series_order + 1):
            want = recurrences.oo_poly(2 * m)(0)
            if values[m - 1] != want:
                raise CheckFailure(f"m={m}: {values[m - 1]} != recurrence {want}")
        return f"Genocchi equals even-odd-only recurrence count for m=1..{series_order}"

    def check_median_vs_recurrence():
        values = series.genocchi_median_sequence(series_order - 1)
        for m in range(2, series_order + 1):
            want = recurrences.eo_poly(2 * m - 1)(0)
            if values[m - 2] != want:
                raise CheckFailure(f"m={m}: {values[m - 2]} != recurrence {want}")
        return f"medians equal odd-odd-only recurrence count for m=2..{series_order}"

    def check_genocchi_vs_enumeration():
        for m in range(1, max_n // 2 + 1):
            got = enumerator.count_even_odd_only(2 * m, max_n=max_n)
            want = series.genocchi(m)
            if got != want:
                raise CheckFailure(f"length {2 * m}: enumerated {got} != {want}")
        return f"enumeration confirms Genocchi for lengths 2..{2 * (max_n // 2)}"

    def check_median_vs_enumeration():
        for m in range(2, (max_n + 1) // 2 + 1):
            got = enumerator.count_odd_odd_only(2 * m - 1, max_n=max_n)
            want = series.genocchi_median(m - 2)
            if got != want:
                raise CheckFailure(f"length {2 * m - 1}: enumerated {got} != {want}")
        return f"enumeration confirms medians for lengths 3..{2 * ((max_n + 1) // 2) - 1}"

    return [
        _run("genocchi-values", check_genocchi_values),
        _run("median-values", check_median_values),
        _run("genocchi-vs-recurrence", check_genocchi_vs_recurrence),
        _run("median-vs-recurrence", check_median_vs_recurrence),
        _run("genocchi-vs-enumeration", check_genocchi_vs_enumeration),
        _run("median-vs-enumeration", check_median_vs_enumeration),
    ]


# -- identities suite --------------------------------------------------------


def suite_identities(series_order: int = series.DEFAULT_ORDER) -> list[CheckResult]:
    def residual_check(fn):
        def body():
            res = fn(series_order)
            if not res.is_zero():
                raise CheckFailure(_series_nonzero_detail(res))
            return f"zero series through order {res.order}"

        return body

    def summand_check(which):
        def body():
            bound = max(2, min(15, series_order // 2))
            if not series.summand_recurrence_check(which, bound, series_order):
                raise CheckFailure(f"recurrence broken for some m <= {bound}")
            return f"term ratios and bases hold for m<={max(2, min(15, series_order // 2))}"

        return body

    checks = [
        _run("identity-squares-telescopes", residual_check(series.identity_residual_1)),
        _run("identity-products-telescopes", residual_check(series.identity_residual_2)),
    ]
    for which in series.FAMILIES:
        checks.append(_run(f"summand-recurrence-{which}", summand_check(which)))
    return checks


# -- pde suite ----------------------------------------------------------------


def suite_pde(series_order: int = series.DEFAULT_ORDER) -> list[CheckResult]:
    def residual_check(which):
        def body():
            res = series.pde_residual(which, series_order)
            if res.order != series_order - 1:
                raise CheckFailure(
                    f"expected residual order {series_order - 1}, got {res.order}"
                )
            if not res.is_zero():
                raise CheckFailure(_series_nonzero_detail(res))
            return f"zero residual through order {res.order}"

        return body

    def negative_control():
        tainted = series.series_oo_even(series_order) + series.TruncSeries.t_monomial(
            3, series_order
        )
        res = series.pde_residual_of(tainted, "oo_even")
        if res.is_zero():
            raise CheckFailure("perturbed series still satisfies the equation")
        return f"perturbation detected at {_series_nonzero_detail(res)}"

    checks = [_run(f"pde-{which}", residual_check(which)) for which in series.FAMILIES]
    checks.append(_run("pde-negative-control", negative_control))
    return checks


def run_suites(
    suite: str,
    *,
    max_n: int = enumerator.DEFAULT_BRUTEFORCE_MAX,
    series_order: int = series.DEFAULT_ORDER,
) -> list[CheckResult]:
    """Run one named suite, or all of them in order."""
    if suite == "all":
        names = SUITES
    elif suite in SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    out: list[CheckResult] = []
    for name in names:
        if name == "oracle":
            out.extend(suite_oracle(max_n))
        elif name == "series":
            out.extend(suite_series(series_order))
        elif name == "genocchi":
            out.extend(suite_genocchi(series_order, max_n))
        elif name == "identities":
            out.extend(suite_identities(series_order))
        else:
            out.extend(suite_pde(series_order))
    return out
