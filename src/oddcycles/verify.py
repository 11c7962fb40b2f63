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
from itertools import islice
from math import factorial
from typing import NamedTuple

from . import SUITES, enumerator, gentree, recurrences, series
from .polynomials import BiPoly, BigPoly

GENOCCHI_VALUES = [1, 1, 3, 17, 155, 2073, 38227, 929569]
MEDIAN_VALUES = [1, 2, 8, 56, 608, 9440, 198272, 5410688]


class CheckResult(NamedTuple):
    """One check's outcome.  A skipped check compared nothing; it counts as
    passed for the exit status but reports SKIP, not PASS."""

    name: str
    passed: bool
    detail: str
    seconds: float
    skipped: bool = False

    @property
    def status(self) -> str:
        if not self.passed:
            return "FAIL"
        return "SKIP" if self.skipped else "PASS"


class CheckFailure(Exception):
    """Raised inside a check body with the failure detail."""


class NothingCompared(Exception):
    """Raised inside a check body whose range is empty, with its usual detail."""


def _run(name: str, check, *args) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = check(*args)
        return CheckResult(name, True, detail, time.perf_counter() - start)
    except CheckFailure as exc:
        return CheckResult(name, False, str(exc), time.perf_counter() - start)
    except NothingCompared as exc:
        return CheckResult(name, True, str(exc), time.perf_counter() - start, skipped=True)


def _walked(walk, top: int):
    """Number the lengths 1..top of a recurrence walk as (n, poly).

    A walk that yields fewer or more than top lengths fails the check, so a
    short walk cannot pass by comparing less.
    """
    n = 0
    for n, poly in enumerate(walk, 1):
        if n > top:
            raise CheckFailure(f"recurrence walk yields more than {top} lengths")
        yield n, poly
    if n < top:
        raise CheckFailure(f"recurrence walk stops at length {n} of {top}")


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


def _series_nonzero_detail(s: series.TruncSeries, var: str) -> str:
    """The first nonzero coefficient of s, written in the variable var."""
    hit = s.first_nonzero()
    if hit is None:
        return "zero"
    return f"t^{hit[0]}: {hit[1].format(var)}"


class JointTables(dict):
    """The enumerator's joint tables by length, each built on first use.
    run_suites makes one per run, so the oracle suite and the genocchi
    suite's counts read the same tables."""

    def __missing__(self, n: int) -> BiPoly:
        table = self[n] = enumerator.joint_table(n)
        return table


# -- oracle suite ----------------------------------------------------------


def suite_oracle(max_n: int, tables: JointTables | None = None) -> list[CheckResult]:
    tables = JointTables() if tables is None else tables

    def check_table_vs_tree():
        for n in range(1, max_n + 1):
            got = tables[n]
            want = gentree.joint_poly(n)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_bipoly_diff(got, want)}")
        return f"joint table equals tree polynomial for n=1..{max_n}"

    def check_marginal(label, var, walk, last):
        # the walk at every length, and the single polynomial that
        # poly --kind f|g prints at the top one
        for n, want in _walked(walk(max_n), max_n):
            got = tables[n].marginal(var)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_bigpoly_diff(got, want)}")
        got, want = tables[max_n].marginal(var), last(max_n)
        if got != want:
            raise CheckFailure(f"n={max_n}: {_first_bigpoly_diff(got, want)}")
        return f"{label} marginal equals recurrence for n=1..{max_n}"

    def check_totals():
        walks = (recurrences.oo_polys(max_n), recurrences.eo_polys(max_n))
        # strict: once one walk ends, the other is read once more, so a
        # longer second walk fails in _walked
        for (n, f), (_, g) in zip(*(_walked(w, max_n) for w in walks), strict=True):
            total = sum(tables[n].terms.values())
            f1, g1 = f(1), g(1)
            closed = factorial((n - 1) // 2) * factorial(n // 2)
            if not total == f1 == g1 == closed:
                raise CheckFailure(
                    f"n={n}: table {total}, marginals {f1}/{g1}, product formula {closed}"
                )
        return f"cycle counts agree on all four routes for n=1..{max_n}"

    def check_tree_partition():
        # On (word, oo, eo) records: grown by the tree, each pair predicted
        # from its parent's, and listed by the walk, each pair counted by
        # the drop definition.  The walk yields strictly increasing words,
        # so equality with the sorted level also rules out a child grown
        # twice; the maps that tell an overlap, a missing member or a wrong
        # pair apart are built only on a mismatch.
        detail = f"children partition the next level for n=1..{max_n - 1}"
        if max_n < 2:
            raise NothingCompared(detail)
        level = list(enumerator.iter_odd_drop_words(1))
        for n in range(1, max_n):
            level, problems = gentree.verify_level(level)
            if problems:
                raise CheckFailure(f"n={n}: {problems[0]}")
            level.sort()
            want = list(enumerator.iter_odd_drop_words(n + 1))
            if level != want:
                grown, listed = ({rec[0]: rec[1:] for rec in recs} for recs in (level, want))
                if len(level) != len(grown):
                    raise CheckFailure(f"n={n}: children lists overlap")
                missing = [tuple(w) for w in sorted(listed.keys() - grown)[:1]]
                extra = [tuple(w) for w in sorted(grown.keys() - listed)[:1]]
                if missing or extra:
                    raise CheckFailure(f"n={n}: missing {missing}, extra {extra}")
                w = min(w for w in grown if grown[w] != listed[w])
                raise CheckFailure(f"n={n}: Cycle{tuple(w)} grown with stats {grown[w]}, listed with {listed[w]}")
        return detail

    marginals = (
        ("oo", "odd-odd", "x", recurrences.oo_polys, recurrences.oo_poly),
        ("eo", "even-odd", "y", recurrences.eo_polys, recurrences.eo_poly),
    )
    return [
        _run("table-vs-tree", check_table_vs_tree),
        *(_run(f"{stat}-marginal-vs-recurrence", check_marginal, *row) for stat, *row in marginals),
        _run("counts-all-routes", check_totals),
        _run("tree-partition", check_tree_partition),
    ]


# -- series suite ----------------------------------------------------------


def suite_series(series_order: int) -> list[CheckResult]:
    top = 2 * series_order
    built = {}

    def full(build):
        if build not in built:
            built[build] = build(top)
        return built[build]

    # per statistic: its words, its series and recurrence walk, and the least
    # of the lengths n, n + 2, ... at which every cycle has a drop of its kind
    stats = (
        ("oo", "odd-odd", series.oo_series, recurrences.oo_polys, 3),
        ("eo", "even-odd", series.eo_series, recurrences.eo_polys, 2),
    )

    def check_vs_recurrence(label, build, walk):
        s = full(build)
        for n, want in _walked(walk(top), top):
            got = s.coeff(n)
            if got != want:
                raise CheckFailure(f"t^{n}: {_first_bigpoly_diff(got, want)}")
        return f"{label} series matches recurrence for n=1..{top}"

    def check_constant_terms():
        # no odd length >= 3 avoids odd-odd drops; no even length avoids
        # even-odd drops
        for _, label, build, _, forced in stats:
            const = full(build).substitute(0)
            for n in range(forced, top + 1, 2):
                if not const.coeff(n).is_zero():
                    raise CheckFailure(f"{label} constant term at t^{n}: {const.coeff(n)}")
        return f"forced-drop constant terms vanish for n<={top}"

    return [
        *(
            _run(f"{stat}-series-vs-recurrence", check_vs_recurrence, label, build, walk)
            for stat, label, build, walk, _ in stats
        ),
        _run("forced-drops-vanish", check_constant_terms),
    ]


# -- genocchi suite ---------------------------------------------------------


def suite_genocchi(
    series_order: int, max_n: int, tables: JointTables | None = None
) -> list[CheckResult]:
    # Both sequences, indexed by the parity odd of the lengths 2m - odd they
    # count: the Genocchi numbers (odd = 0) count the cycles on [2m], m >= 1,
    # with only even-odd drops (kind 1 of the pair (oo, eo)), the medians
    # (odd = 1) those on [2m - 1], m >= 2, with only odd-odd drops (kind 0).
    pinned = (GENOCCHI_VALUES, MEDIAN_VALUES)
    sequence = (series.genocchi_sequence, series.genocchi_median_sequence)
    walk = (recurrences.oo_polys, recurrences.eo_polys)
    tables = JointTables() if tables is None else tables

    def check_values(odd):
        want, first = pinned[odd], 1 - odd
        got = sequence[odd](len(want))
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise CheckFailure(f"index {i + first}: {got[i]} != {want[i]}")
        label = ("Genocchi numbers", "Genocchi medians")[odd]
        return f"{label} {first}..{len(want) - 1 + first} match"

    def check_vs_recurrence(odd):
        lo = 1 + odd
        claim = ("Genocchi equals even-odd-only", "medians equal odd-odd-only")[odd]
        detail = f"{claim} recurrence count for m={lo}..{series_order}"
        if lo > series_order:
            raise NothingCompared(detail)
        values = sequence[odd](series_order - odd)
        # one walk to the top length, read at lengths 2m - odd, m >= lo;
        # the walk comes first in zip so that it is read to its end
        top = 2 * series_order - odd
        polys = islice(_walked(walk[odd](top), top), 2 * lo - odd - 1, None, 2)
        for (n, poly), value in zip(polys, values):
            m = (n + odd) // 2
            want = poly(0)
            if value != want:
                raise CheckFailure(f"m={m}: {value} != recurrence {want}")
        return detail

    def check_vs_enumeration(odd):
        top = (max_n + odd) // 2
        label = ("Genocchi", "medians")[odd]
        detail = f"enumeration confirms {label} for lengths {2 + odd}..{2 * top - odd}"
        if top < 1 + odd:
            raise NothingCompared(detail)
        values = sequence[odd](top - odd)
        for m, want in zip(range(1 + odd, top + 1), values, strict=True):
            got = enumerator.count_only(tables[2 * m - odd], 1 - odd)
            if got != want:
                raise CheckFailure(f"length {2 * m - odd}: enumerated {got} != {want}")
        return detail

    checks = (
        ("values", check_values),
        ("vs-recurrence", check_vs_recurrence),
        ("vs-enumeration", check_vs_enumeration),
    )
    return [
        _run(f"{name}-{kind}", check, odd)
        for kind, check in checks
        for odd, name in enumerate(("genocchi", "median"))
    ]


# -- identities suite --------------------------------------------------------


def suite_identities(series_order: int) -> list[CheckResult]:
    bound = max(2, min(15, series_order // 2))

    def residual_check(which):
        # the family's summands at v = 0 telescope to t exactly
        t = series.TruncSeries.t_monomial(1, series_order)
        res = series.closed_form_at_zero(which, series_order) - t
        if not res.is_zero():
            raise CheckFailure(_series_nonzero_detail(res, series.FAMILIES[which].var))
        return f"zero series through order {res.order}"

    def summand_check(which):
        if not series.summand_recurrence_check(which, bound, series_order):
            raise CheckFailure(f"recurrence broken for some m <= {bound}")
        return f"term ratios and bases hold for m<={bound}"

    checks = [
        _run("identity-squares-telescopes", residual_check, "oo_odd"),
        _run("identity-products-telescopes", residual_check, "eo_even"),
    ]
    for which in series.FAMILIES:
        checks.append(_run(f"summand-recurrence-{which}", summand_check, which))
    return checks


# -- pde suite ----------------------------------------------------------------


def suite_pde(series_order: int) -> list[CheckResult]:
    # each closed form is built once; the negative control perturbs the
    # build that oo_even's residual check read
    built = {}

    def residual_check(which):
        built[which] = series.closed_form_series(which, series_order)
        res = series.pde_residual_of(built[which], which)
        if res.order != series_order - 1:
            raise CheckFailure(f"expected residual order {series_order - 1}, got {res.order}")
        if not res.is_zero():
            raise CheckFailure(_series_nonzero_detail(res, series.FAMILIES[which].var))
        return f"zero residual through order {res.order}"

    def negative_control():
        perturbation = series.TruncSeries.t_monomial(3, series_order)
        res = series.pde_residual_of(built["oo_even"] + perturbation, "oo_even")
        if res.is_zero():
            raise CheckFailure("perturbed series still satisfies the equation")
        detail = _series_nonzero_detail(res, series.FAMILIES["oo_even"].var)
        return f"perturbation detected at {detail}"

    checks = [_run(f"pde-{which}", residual_check, which) for which in series.FAMILIES]
    checks.append(_run("pde-negative-control", negative_control))
    return checks


def run_suites(suite: str, *, max_n: int, series_order: int) -> list[CheckResult]:
    """Run one named suite, or all of them in order."""
    if suite == "all":
        names = SUITES
    elif suite in SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    # each suite_<name> is looked up when it runs, so a patched one is called;
    # the genocchi suite's counts read the tables the oracle suite built
    tables = JointTables()
    runners = {
        "oracle": lambda: suite_oracle(max_n, tables),
        "series": lambda: suite_series(series_order),
        "genocchi": lambda: suite_genocchi(series_order, max_n, tables),
        "identities": lambda: suite_identities(series_order),
        "pde": lambda: suite_pde(series_order),
    }
    out: list[CheckResult] = []
    for name in names:
        out.extend(runners[name]())
    return out
