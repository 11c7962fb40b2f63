"""Cross-verification suites tying the four computation routes together.

Each suite runs named checks and returns CheckResult records; nothing here
prints or exits, that is the command line's job.  A check compares two
independently computed objects for exact equality, and on failure the detail
string names the first differing coefficient, as "<where>: <got> != <want>"
from one reader, _first_diff, so a regression points at a specific
polynomial term rather than a boolean; a check in u = 1 - v names the power
of u, as in "t^3: u^1: 1 != -1".  A route that raises fails its check with
the exception named, and the later checks still run.

Suites:
  oracle     brute-force table vs generating tree vs recurrence marginals,
             plus the tree's partition and per-insertion bookkeeping
  series     the closed forms in u vs the recurrence walked in a = v - 1
             = -u, every length, neither side rewritten in another basis
  genocchi   pinned Genocchi and median values, recomputed by every route
  identities the two telescoping sums, and each family's summands, built
             one at a time, against its stated zeroth, its m = 1 summand
             and the first-order recurrence between consecutive ones
  pde        residuals of the four closed-form equations, in u, plus a
             negative control
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import islice, zip_longest
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
    except Exception as exc:  # a route that raises fails its check, not the run
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}", time.perf_counter() - start)


def _walked(walk, top: int):
    """Number the lengths 1..top of a recurrence walk as (n, length).

    A walk that yields fewer or more than top lengths fails the check, so a
    short walk cannot pass by comparing less.
    """
    n = 0
    for n, length in enumerate(walk, 1):
        if n > top:
            raise CheckFailure(f"recurrence walk yields more than {top} lengths")
        yield n, length
    if n < top:
        raise CheckFailure(f"recurrence walk stops at length {n} of {top}")


def _first_diff(got, want, name, missing=0) -> str:
    """'<name(i)>: <got> != <want>' at the first index i where two unequal
    coefficient lists differ.  Past its end the shorter list reads as
    missing: 0, as a polynomial's coefficients do, unless told otherwise."""
    for i, (a, b) in enumerate(zip_longest(got, want, fillvalue=missing)):
        if a != b:
            return f"{name(i)}: {a} != {b}"


def _series_nonzero_detail(s: series.TruncSeries) -> str:
    """The first nonzero coefficient of s, written in u."""
    hit = s.first_nonzero()
    if hit is None:
        return "zero"
    return f"t^{hit[0]}: {hit[1].format('u')}"


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
                # the terms in graded order: total degree, then x, then y
                keys = sorted(got.terms.keys() | want.terms.keys(), key=lambda k: (sum(k), k))
                got, want = ([p.coeff(*k) for k in keys] for p in (got, want))
                raise CheckFailure(f"n={n}: {_first_diff(got, want, lambda i: 'x^{}*y^{}'.format(*keys[i]))}")
        return f"joint table equals tree polynomial for n=1..{max_n}"

    def check_marginal(label, var, forced, last):
        # the walk in a at every length, read in v, and the single
        # polynomial that poly --kind f|g prints at the top one
        for n, (coeffs, held) in _walked(recurrences._eigen_walk(max_n, forced), max_n):
            got, want = tables[n].marginal(var), recurrences._in_v(coeffs, held)
            if got != want:
                raise CheckFailure(f"n={n}: {_first_diff(got.coeffs, want.coeffs, 'degree {}'.format)}")
        got, want = tables[max_n].marginal(var), last(max_n)
        if got != want:
            raise CheckFailure(f"n={max_n}: {_first_diff(got.coeffs, want.coeffs, 'degree {}'.format)}")
        return f"{label} marginal equals recurrence for n=1..{max_n}"

    def check_totals():
        walks = (recurrences._eigen_walk(max_n, forced) for forced in (1, 0))
        # strict: once one walk ends, the other is read once more, so a
        # longer second walk fails in _walked; f(1) = P(0) needs no shift
        for (n, f), (_, g) in zip(*(_walked(w, max_n) for w in walks), strict=True):
            total = sum(tables[n].terms.values())
            f1, g1 = recurrences._at(*f, 0), recurrences._at(*g, 0)
            closed = factorial((n - 1) // 2) * factorial(n // 2)
            if not total == f1 == g1 == closed:
                raise CheckFailure(
                    f"n={n}: table {total}, marginals {f1}/{g1}, product formula {closed}"
                )
        return f"cycle counts agree on all four routes for n=1..{max_n}"

    def check_tree_partition():
        # Each member the walk lists on [n+1] must be a member of level n,
        # its parent, with n+1 inserted before an odd entry: the entry after
        # n+1, or the leading 1 when n+1 is last.  The walk's pair must be
        # the parent's plus the insertion's.  Distinct members then sit at
        # distinct spots, so a count equal to the spots proves the
        # partition; only a wrong count walks again, to name one.  A level
        # holds each pair as one int, oo << 4 | eo, a third less memory than
        # a tuple at n = 13; eo <= ceil(n/2) < 16, and a negative difference
        # packs to a negative int, which matches no pair.
        detail = f"children partition the next level for n=1..{max_n - 1}"
        if max_n < 2:
            raise NothingCompared(detail)
        delta = gentree._word_delta
        level = {w: oo << 4 | eo for w, oo, eo in enumerator.iter_odd_drop_words(1)}
        for n in range(1, max_n):
            grown, prev, members, keep, top = {}, b"", 0, n + 1 < max_n, n + 1
            for members, (w, oo, eo) in enumerate(enumerator.iter_odd_drop_words(top), 1):
                if w <= prev:
                    raise CheckFailure(f"n={n}: Cycle{tuple(w)} listed {'twice' if w == prev else 'out of order'}")
                i = w.index(top)
                stats = level.get(w[:i] + w[i + 1 :])
                latter = w[i + 1] if i < n else 1
                # i = 0 would be a rotation of a child that appends top
                if stats is None or not i or not latter & 1:
                    raise CheckFailure(f"n={n}: Cycle{tuple(w)} not grown from level {n}")
                doo, deo = delta(w[i - 1], latter, top)
                if (oo - doo) << 4 | (eo - deo) != stats:
                    want = ((stats >> 4) + doo, (stats & 15) + deo)
                    raise CheckFailure(f"n={n}: Cycle{tuple(w)} grown with stats {want}, listed with {(oo, eo)}")
                if keep:
                    grown[w] = oo << 4 | eo
                prev = w
            each = gentree.children_count(n)
            if members != len(level) * each:
                hits = Counter(w.replace(bytes((top,)), b"") for w, _, _ in enumerator.iter_odd_drop_words(top))
                w = next(w for w in level if hits[w] != each)
                raise CheckFailure(f"n={n}: Cycle{tuple(w)}: {hits[w]} children, expected {each}")
            level = grown
        return detail

    marginals = (
        ("oo", "odd-odd", "x", 1, recurrences.oo_poly),
        ("eo", "even-odd", "y", 0, recurrences.eo_poly),
    )
    return [
        _run("table-vs-tree", check_table_vs_tree),
        *(_run(f"{stat}-marginal-vs-recurrence", check_marginal, *row) for stat, *row in marginals),
        _run("counts-all-routes", check_totals),
        _run("tree-partition", check_tree_partition),
    ]


# -- series suite ----------------------------------------------------------


def suite_series(series_order: int) -> list[CheckResult]:
    # The closed forms are read in u = 1 - v, the recurrence walked in
    # a = v - 1 = -u, so coefficient j of one is (-1)^j times coefficient j
    # of the other, and neither is rewritten.  Length n is row (n + 1) // 2
    # of the even family for even n, of the odd one for odd n.
    top = 2 * series_order
    built = {}

    def family(which):
        if which not in built:
            built[which] = series.closed_form_in_u(which, series_order)
        return built[which]

    # per statistic: its words, its families of even and odd lengths, the
    # parity of the lengths its forced step goes into, and the least of the
    # lengths n, n + 2, ... at which every cycle has a drop of its kind
    stats = (
        ("oo", "odd-odd", ("oo_even", "oo_odd"), 1, 3),
        ("eo", "even-odd", ("eo_even", "eo_odd"), 0, 2),
    )

    def check_vs_recurrence(label, families, forced):
        rows = [family(which) for which in families]
        for n, (coeffs, held) in _walked(recurrences._eigen_walk(top, forced), top):
            got = rows[n & 1].coeff((n + 1) // 2)
            want = BigPoly(-c if j & 1 else c for j, c in enumerate(recurrences._applied(coeffs, held)))
            if got != want:
                raise CheckFailure(f"t^{n}: {_first_diff(got.coeffs, want.coeffs, 'u^{}'.format)}")
        return f"{label} series matches recurrence for n=1..{top}"

    def check_constant_terms():
        # no odd length >= 3 avoids odd-odd drops; no even length avoids
        # even-odd drops.  v = 0 is u = 1: the sum of a row's coefficients
        for _, label, families, _, least in stats:
            for n in range(least, top + 1, 2):
                const = family(families[n & 1]).coeff((n + 1) // 2)(1)
                if const:
                    raise CheckFailure(f"{label} constant term at t^{n}: {const}")
        return f"forced-drop constant terms vanish for n<={top}"

    return [
        *(
            _run(f"{stat}-series-vs-recurrence", check_vs_recurrence, label, families, forced)
            for stat, label, families, forced, _ in stats
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
    tables = JointTables() if tables is None else tables

    def closed_form(odd, count, span):
        # a sequence of another length fails here, before a zip stops at
        # its shorter side
        values = sequence[odd](count)
        if len(values) != count:
            raise CheckFailure(f"closed form gives {len(values)} values for {span}")
        return values

    def check_values(odd):
        want, first = pinned[odd], 1 - odd
        got = sequence[odd](len(want))
        if got != want:
            raise CheckFailure(_first_diff(got, want, lambda i: f"index {i + first}", "missing"))
        label = ("Genocchi numbers", "Genocchi medians")[odd]
        return f"{label} {first}..{len(want) - 1 + first} match"

    def check_vs_recurrence(odd):
        lo = 1 + odd
        claim = ("Genocchi equals even-odd-only", "medians equal odd-odd-only")[odd]
        detail = f"{claim} recurrence count for m={lo}..{series_order}"
        if lo > series_order:
            raise NothingCompared(detail)
        values = closed_form(odd, series_order - odd, f"m={lo}..{series_order}")
        # one walk to the top length, odd-odd for the Genocchi numbers and
        # even-odd for the medians, read at lengths 2m - odd, m >= lo, at
        # v = 0, which is P(-1); the walk comes first in zip so that it is
        # read to its end
        top = 2 * series_order - odd
        lengths = islice(_walked(recurrences._eigen_walk(top, 1 - odd), top), 2 * lo - odd - 1, None, 2)
        for (n, length), value in zip(lengths, values):
            m = (n + odd) // 2
            want = recurrences._at(*length, -1)
            if value != want:
                raise CheckFailure(f"m={m}: {value} != recurrence {want}")
        return detail

    def check_vs_enumeration(odd):
        top = (max_n + odd) // 2
        label = ("Genocchi", "medians")[odd]
        span = f"lengths {2 + odd}..{2 * top - odd}"
        detail = f"enumeration confirms {label} for {span}"
        if top < 1 + odd:
            raise NothingCompared(detail)
        values = closed_form(odd, top - odd, span)
        for m, want in zip(range(1 + odd, top + 1), values):
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
        got = series.closed_form_at_zero(which, series_order)
        for n, c in enumerate(got):
            excess = c - (n == 1)
            if excess:
                raise CheckFailure(f"t^{n}: {excess}")
        return f"zero series through order {len(got) - 1}"

    def check_summands(which):
        # In s = u*t, on integer lists through s^series_order: each summand
        # is built on its own by series._divide_linear, not read off the
        # closed forms' triangle.  The stated zeroth is -1 for eo_even's
        # prefix (y-1)t, which is -s, and 0 elsewhere; the stated m = 1
        # summands, s/(1+s) for the oo families, s/(1+2s) for eo_even and s
        # for eo_odd, are numerator(1) * s / (1 + a_1*s) expanded directly.
        fam = series.FAMILIES[which]
        stated = {"oo_even": 0, "oo_odd": 0, "eo_even": -1, "eo_odd": 0}[which]
        if fam.zeroth != stated:
            raise CheckFailure(f"zeroth: {fam.zeroth} != {stated}")
        prev = series._summand_series(fam, 1, series_order, 1)
        a, num = fam.denom(1), fam.numerator(1)
        base = [0] + [num * (-a) ** (j - 1) for j in range(1, series_order + 1)]
        if prev != base:
            raise CheckFailure(f"m=1: {_first_diff(prev, base, 's^{}'.format)}")
        for m in range(2, bound + 1):
            # summand_m * (1 + a_m*s) == ratio(m) * s * summand_(m-1), at
            # each power of s; s times a series has no s^0 term
            cur = series._summand_series(fam, m, series_order, 1)
            a, ratio = fam.denom(m), fam.ratio(m)
            got = [c + a * d for c, d in zip(cur, [0, *cur])]
            want = [ratio * d for d in [0, *prev[:-1]]]
            if got != want:
                raise CheckFailure(f"m={m}: {_first_diff(got, want, 's^{}'.format)}")
            prev = cur
        return f"term ratios and bases hold for m<={bound}"

    checks = [
        _run("identity-squares-telescopes", residual_check, "oo_odd"),
        _run("identity-products-telescopes", residual_check, "eo_even"),
    ]
    for which in series.FAMILIES:
        checks.append(_run(f"summand-recurrence-{which}", check_summands, which))
    return checks


# -- pde suite ----------------------------------------------------------------


def suite_pde(series_order: int) -> list[CheckResult]:
    # each closed form is built once, in u; the negative control adds 1 to
    # the u^0 coefficient of t^3 in the build that oo_even's residual check
    # read
    built = {}

    def residual_check(which):
        built[which] = series.closed_form_in_u(which, series_order)
        res = series.pde_residual_of(built[which], which)
        if res.order != series_order - 1:
            raise CheckFailure(f"expected residual order {series_order - 1}, got {res.order}")
        if not res.is_zero():
            raise CheckFailure(_series_nonzero_detail(res))
        return f"zero residual through order {res.order}"

    def negative_control():
        rows = list(built["oo_even"].coeffs)
        rows[3] = [rows[3].coeff(0) + 1, *rows[3].coeffs[1:]]
        res = series.pde_residual_of(series.TruncSeries(rows), "oo_even")
        if res.is_zero():
            raise CheckFailure("perturbed series still satisfies the equation")
        detail = _series_nonzero_detail(res)
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
