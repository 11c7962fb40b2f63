"""Every verify check, shown failing: one table of faults, each run through run_suites.

This is the one place where a check is shown failing.  A row patches a
route function, a FAMILIES row or a pinned list, never a check body.  It
holds the limits that reach the fault and, for each check the fault trips,
the exact FAIL detail.  Each row runs every suite, which takes a few
milliseconds at these limits, and every check the row does not name must
PASS, so a fault that starts or stops tripping another check shows too.

At the default limits, max_n 5 and series_order 8, no check is skipped; a
row takes larger ones only where its details name a length beyond them.  A
check that no row trips fails test_every_check_has_a_fault, so a new check
fails Tier-1 until it brings a row.
"""

from collections import Counter
from itertools import chain, islice
from typing import Callable, NamedTuple

import pytest
from reference import W, _add

from oddcycles import enumerator, gentree, recurrences, series, verify
from oddcycles.polynomials import BiPoly

MAX_N, SERIES_ORDER = 5, 8


class Fault(NamedTuple):
    patch: Callable[[pytest.MonkeyPatch], None]
    fails: dict[str, str]  # each check the fault trips, with its FAIL detail
    max_n: int = MAX_N
    series_order: int = SERIES_ORDER


def wrapping(owner, name: str, wrap):
    """A fault that replaces owner.name by wrap(the real one)."""
    return lambda mp: mp.setattr(owner, name, wrap(getattr(owner, name)))


def listing(change):
    """A fault in the listing walk: on [n] it lists change(real records, n)."""
    return wrapping(enumerator, "iter_odd_drop_words", lambda walk: lambda n: change(walk(n), n))


def recurrence(change):
    """A fault in the recurrence walk: it yields change(real lengths, n, forced)."""
    return wrapping(recurrences, "_eigen_walk", lambda walk: lambda n, forced: change(walk(n, forced), n, forced))


def family_row(which: str, **change):
    """A fault in FAMILIES[which]: each named field f becomes change[f](its value)."""

    def fault(mp):
        row = series.FAMILIES[which]
        changed = {field: g(getattr(row, field)) for field, g in change.items()}
        mp.setitem(series.FAMILIES, which, row._replace(**changed))

    return fault


# -- the listing walk, read by tree-partition ---------------------------------


def wrap_as_odd_odd(records, n):
    # scores the wrap pair (a_n, 1) as odd-odd whatever a_n's parity
    for w, oo, eo in records:
        yield (w, oo + 1, eo - 1) if n > 1 and not w[-1] & 1 else (w, oo, eo)


def stutter(records, n):
    # the right set with one word twice: no member is missing, extra or
    # miscounted, so only the listing's order tells
    for rec in records:
        yield from [rec] * (2 if rec[0] == W(1, 2, 3, 4) else 1)


def first_two_swapped(records, n):
    records = list(records)
    if n == 5:
        records[:2] = records[1::-1]
    return iter(records)


def last_rotated(records, n):
    # the last member on [6] swapped for a rotation of (1, 2, 5, 3, 4, 6)
    # with its pair: it deletes to the same parent and spot as that member,
    # so the count of spots holds
    records = list(records)
    if n == 6:
        stats = next(rec[1:] for rec in records if rec[0] == W(1, 2, 5, 3, 4, 6))
        records[-1] = (W(6, 1, 2, 5, 3, 4), *stats)
    return iter(records)


def one_more_odd_odd(case):
    """A fault in _word_delta: one more odd-odd drop in one of its six cases,
    by the new maximum's parity and the drop it splits."""
    delta = gentree._word_delta

    def wrong(former, latter, top):
        doo, deo = delta(former, latter, top)
        split = "none" if former <= latter else ("odd" if former & 1 else "even")
        return (doo + 1, deo) if (top & 1, split) == case else (doo, deo)

    return lambda mp: mp.setattr(gentree, "_word_delta", wrong)


def table_without_wrap(n):
    """A broken joint table: it scores the wrap pair (a_n, 1) as no drop."""
    pairs = Counter()
    for w, oo, eo in enumerator.iter_odd_drop_words(n):
        pairs[(oo, eo) if n == 1 else (oo - 1, eo) if w[-1] & 1 else (oo, eo - 1)] += 1
    return BiPoly(pairs)


# -- the recurrence walk and its readers --------------------------------------


def skips_a_step(lengths, n, forced):
    # length 5 twice before the walk moves on: every later length is one
    # step behind, and the walk still yields n lengths
    return islice(chain.from_iterable([item] * (2 if i == 5 else 1) for i, item in enumerate(lengths, 1)), n)


def ends_late(lengths, n, forced):
    # the last length twice; the walk updates its coefficients in place, so
    # it is read as it yields
    for item in lengths:
        yield item
    yield item


def lift_off_by_one(coeffs, k, held):
    # the real body, but the forced step scales coefficient i by k-i+1
    below = 0
    for i, c in enumerate(coeffs):
        c *= (held - i) * (k - i + 1) if held else k - i + 1
        coeffs[i] = c + below
        below = c
    coeffs.append(below)


def at_dropping_held(value):
    """A fault in the reader at an integer a: at a = value it ignores the held free step."""
    return wrapping(recurrences, "_at", lambda at: lambda c, held, a: at(c, 0 if a == value else held, a))


# -- the series ---------------------------------------------------------------


def sign_dropped(triangle):
    return lambda fam, order: [[abs(c) for c in row] for row in triangle(fam, order)]


def division_body(lag: int):
    """A fault in the summands' list division: its step reads coeffs[j - lag]; lag 1 is the real body."""

    def divide(coeffs, c):
        for j in range(1, len(coeffs)):
            coeffs[j] -= c * coeffs[j - lag]

    return lambda mp: mp.setattr(series, "_divide_linear", divide)


def one_short(name: str):
    """A fault in a closed-form sequence: it gives one value fewer than asked for."""
    return wrapping(series, name, lambda sequence: lambda count: sequence(count)[:-1])


def residual_blind_after_the_families(mp):
    # the four family checks read the true residual; from the next call on,
    # the residual is all zero at the order it would have had, so the
    # negative control's perturbed series reads as a solution
    real, calls = series.pde_residual_of, []

    def blind(s, which):
        calls.append(which)
        res = real(s, which)
        if len(calls) <= len(series.FAMILIES):
            return res
        return series.TruncSeries([[]] * (res.order + 1))

    mp.setattr(series, "pde_residual_of", blind)


# -- the table ----------------------------------------------------------------

# each fault in the listing walk, with the tree-partition detail it gives
LISTING_FAULTS = {
    # the count falls one short, and the recount names the skipped member's parent
    "walk-skips-a-member": (
        lambda records, n: (rec for rec in records if rec[0] != W(1, 2, 4, 3, 5)),
        "n=4: Cycle(1, 2, 4, 3): 1 children, expected 2",
    ),
    # the words still agree; the first listed child, (1, 2), does not
    "walk-scores-the-wrap-as-odd-odd": (
        wrap_as_odd_odd, "n=1: Cycle(1, 2) grown with stats (0, 1), listed with (1, 0)"
    ),
    # (1, 4, 2, 3) in place of (1, 2, 4, 3): 4 went in before the even 2 of
    # (1, 2, 3) and drops onto it.  The count is still right, so only the
    # parity of the spot tells.
    "walk-lists-a-non-member": (
        lambda records, n: ((W(1, 4, 2, 3), 1, 1) if rec[0] == W(1, 2, 4, 3) else rec for rec in records),
        "n=3: Cycle(1, 4, 2, 3) not grown from level 3",
    ),
    "walk-lists-a-member-twice": (stutter, "n=3: Cycle(1, 2, 3, 4) listed twice"),
    "walk-lists-out-of-order": (first_two_swapped, "n=4: Cycle(1, 2, 3, 4, 5) listed out of order"),
    "walk-lists-a-rotated-member": (last_rotated, "n=5: Cycle(6, 1, 2, 5, 3, 4) not grown from level 5"),
    # the walk's length is checked against the count of spots: a check that
    # only tests the records it is given passes these two.  The last member,
    # (1, 2, 6, 5, 3, 4), deletes to (1, 2, 5, 3, 4); the record after it
    # sorts above it, so the listing stays in order
    "walk-ends-a-member-early": (
        lambda records, n: iter(list(records)[:-1]) if n == 6 else records,
        "n=5: Cycle(1, 2, 5, 3, 4): 2 children, expected 3",
    ),
    "walk-ends-a-member-late": (
        lambda records, n: chain(records, [(W(1, 6, 5, 4, 3, 2), 1, 1)] if n == 6 else []),
        "n=5: Cycle(1, 6, 5, 4, 3, 2) not grown from level 5",
    ),
}

# the first member each case of _word_delta predicts wrong when it adds one
# more odd-odd drop, by the new maximum's parity and the drop it splits
DELTA_CASES = {
    (1, "none"): "n=4: Cycle(1, 2, 5, 3, 4) grown with stats (2, 1), listed with (1, 1)",
    (1, "odd"): "n=4: Cycle(1, 2, 4, 3, 5) grown with stats (2, 1), listed with (1, 1)",
    (1, "even"): "n=2: Cycle(1, 2, 3) grown with stats (2, 0), listed with (1, 0)",
    (0, "none"): "n=1: Cycle(1, 2) grown with stats (1, 1), listed with (0, 1)",
    (0, "odd"): "n=3: Cycle(1, 2, 3, 4) grown with stats (1, 1), listed with (0, 1)",
    (0, "even"): "n=5: Cycle(1, 2, 4, 6, 3, 5) grown with stats (2, 1), listed with (1, 1)",
}

# the detail of each family's pde check when the u^0 term of its S_u
# (pde_v) or t*S_t (pde_t) coefficient is one too large
PDE_COEFFICIENT_OFF = {
    ("oo_even", "pde_v"): "t^2: 1",
    ("oo_even", "pde_t"): "t^1: -1",
    ("oo_odd", "pde_v"): "t^2: 1",
    ("oo_odd", "pde_t"): "t^1: -1",
    ("eo_even", "pde_v"): "t^1: 1",
    ("eo_even", "pde_t"): "t^1: -1 + u",
    ("eo_odd", "pde_v"): "t^3: 2",
    ("eo_odd", "pde_t"): "t^1: -1",
}

# the summand check's detail when a family's ratio is one too large: the
# relation at m = 2 already fails at its lowest power, s^2
RATIO_OFF = {
    "oo_even": "m=2: s^2: 2 != 3",
    "oo_odd": "m=2: s^2: 1 != 2",
    "eo_even": "m=2: s^2: 2 != 3",
    "eo_odd": "m=2: s^2: 1 != 2",
}

# at these limits each check that reads a recurrence walk walks to its top
# length: 7 for the oracle, 20 for the series and the Genocchi numbers and
# 19 for the medians
WALK_LIMITS = {"max_n": 7, "series_order": 10}
WALK_TOPS = {
    "oo-marginal-vs-recurrence": 7,
    "eo-marginal-vs-recurrence": 7,
    "counts-all-routes": 7,
    "oo-series-vs-recurrence": 20,
    "eo-series-vs-recurrence": 20,
    "genocchi-vs-recurrence": 20,
    "median-vs-recurrence": 19,
}

# what a walk that hides its held free step trips.  A held free step changes
# a length once it meets a coefficient of a^1 or above: even-odd holds one
# at length 3, odd-odd first at length 4.  A reader that drops the step at
# a = 0, where the counts are read, or at a = -1, where the Genocchi values
# are, trips the same details in the checks that read it there.
HELD_HIDDEN = {
    "oo-marginal-vs-recurrence": "n=4: degree 0: 1 != 0",
    "eo-marginal-vs-recurrence": "n=3: degree 0: 1 != 0",
    "counts-all-routes": "n=4: table 2, marginals 1/2, product formula 2",
    "oo-series-vs-recurrence": "t^4: u^0: 2 != 1",
    "eo-series-vs-recurrence": "t^3: u^1: 0 != -1",
    "genocchi-vs-recurrence": "m=2: 1 != recurrence 0",
    "median-vs-recurrence": "m=2: 1 != recurrence 0",
}

# what a walk that skips a step trips at max_n 5, below the oracle's reach
SKIPPED_STEP = {
    "oo-series-vs-recurrence": "t^6: u^0: 12 != 4",
    "eo-series-vs-recurrence": "t^6: u^0: 12 != 4",
    "genocchi-vs-recurrence": "m=3: 3 != recurrence 0",
    "median-vs-recurrence": "m=4: 8 != recurrence 0",
}

FAULTS = {
    # -- the listing walk, the child count and _word_delta, read by
    # tree-partition, whose details name lengths up to 6
    **{
        name: Fault(listing(change), {"tree-partition": detail}, max_n=6)
        for name, (change, detail) in LISTING_FAULTS.items()
    },
    "children-count-off-at-3": Fault(
        # a tree that counts three insertion spots in (1, 2, 3), which has two
        wrapping(gentree, "children_count", lambda count: lambda n: 3 if n == 3 else count(n)),
        {"tree-partition": "n=3: Cycle(1, 2, 3): 2 children, expected 3"},
        max_n=6,
    ),
    **{
        f"delta-{'odd' if top else 'even'}-top-{split}-split": Fault(
            one_more_odd_odd((top, split)), {"tree-partition": detail}, max_n=6
        )
        for (top, split), detail in DELTA_CASES.items()
    },
    # -- the joint table
    "table-without-wrap": Fault(
        lambda mp: mp.setattr(enumerator, "joint_table", table_without_wrap),
        {
            "table-vs-tree": "n=2: x^0*y^0: 1 != 0",
            "oo-marginal-vs-recurrence": "n=3: degree 0: 1 != 0",
            "eo-marginal-vs-recurrence": "n=2: degree 0: 1 != 0",
            "genocchi-vs-enumeration": "length 2: enumerated 0 != 1",
            "median-vs-enumeration": "length 3: enumerated 0 != 1",
        },
    ),
    "table-drops-onto-even": Fault(
        # any unused value may follow, so a drop may land on an even entry:
        # (1, 3, 2) counts at n = 3.  At n = 4, (1, 4, 3, 2) has three
        # drops, which joint_table refuses, so the row stops at 3
        lambda mp: mp.setattr(enumerator, "_successors", lambda prev, values: list(values)),
        {
            "table-vs-tree": "n=3: x^1*y^1: 1 != 0",
            "oo-marginal-vs-recurrence": "n=3: degree 1: 2 != 1",
            "eo-marginal-vs-recurrence": "n=3: degree 1: 1 != 0",
            "counts-all-routes": "n=3: table 2, marginals 1/1, product formula 1",
        },
        max_n=3,
    ),
    # -- the recurrence walk, its readers and the polynomials that poly
    # --kind f|g prints; a fault in the walk reaches every check that reads it
    "walk-skips-a-step": Fault(
        recurrence(skips_a_step),
        {
            "oo-marginal-vs-recurrence": "n=6: degree 0: 3 != 0",
            "eo-marginal-vs-recurrence": "n=6: degree 0: 0 != 2",
            "counts-all-routes": "n=6: table 12, marginals 4/4, product formula 12",
            **SKIPPED_STEP,
        },
        **WALK_LIMITS,
    ),
    "walk-ends-early": Fault(
        recurrence(lambda lengths, n, forced: islice(lengths, n - 1)),
        {check: f"recurrence walk stops at length {top - 1} of {top}" for check, top in WALK_TOPS.items()},
        **WALK_LIMITS,
    ),
    "walk-ends-late": Fault(
        recurrence(ends_late),
        {check: f"recurrence walk yields more than {top} lengths" for check, top in WALK_TOPS.items()},
        **WALK_LIMITS,
    ),
    "even-odd-walk-ends-late": Fault(
        # the count check reads the even-odd walk second, to its end; the
        # medians read the even-odd walk, the Genocchi numbers the odd-odd one
        recurrence(lambda lengths, n, forced: lengths if forced else ends_late(lengths, n, forced)),
        {
            check: f"recurrence walk yields more than {top} lengths"
            for check, top in WALK_TOPS.items()
            if check.startswith(("eo-", "counts-", "median-"))
        },
        **WALK_LIMITS,
    ),
    "walk-hides-held": Fault(
        # every length reports no held free step, so a reader never applies one
        recurrence(lambda lengths, n, forced: ((coeffs, 0) for coeffs, _ in lengths)),
        HELD_HIDDEN,
    ),
    "lift-scale-off-by-one": Fault(
        lambda mp: mp.setattr(recurrences, "_lift", lift_off_by_one),
        {
            # the first forced step goes into length 3 for odd-odd, 2 for even-odd
            "oo-marginal-vs-recurrence": "n=3: degree 1: 1 != 2",
            "eo-marginal-vs-recurrence": "n=2: degree 1: 1 != 2",
            "counts-all-routes": "n=2: table 1, marginals 1/2, product formula 1",
            "oo-series-vs-recurrence": "t^3: u^0: 1 != 2",
            "eo-series-vs-recurrence": "t^2: u^0: 1 != 2",
            "genocchi-vs-recurrence": "m=2: 1 != recurrence 2",
            "median-vs-recurrence": "m=2: 1 != recurrence 2",
        },
    ),
    "reader-at-0-drops-held": Fault(at_dropping_held(0), {"counts-all-routes": HELD_HIDDEN["counts-all-routes"]}),
    "reader-at-minus-1-drops-held": Fault(
        at_dropping_held(-1),
        {check: HELD_HIDDEN[check] for check in ("genocchi-vs-recurrence", "median-vs-recurrence")},
    ),
    # oo_poly and eo_poly, which poly --kind f|g prints, one length short
    **{
        f"{stat}-poly-a-length-short": Fault(
            wrapping(recurrences, f"{stat}_poly", lambda poly: lambda n: poly(n - 1)),
            {f"{stat}-marginal-vs-recurrence": f"n=6: degree 0: {diff}"},
            max_n=6,
        )
        for stat, diff in (("oo", "3 != 0"), ("eo", "0 != 2"))
    },
    # -- the closed forms, the FAMILIES rows and the pinned values
    "triangle-sign-dropped": Fault(
        # the triangle without the sign (-1)^j of its u^j entries sums the
        # summands at u = -1, so every check that reads a closed form fails;
        # the telescoping sums' t^2 coefficients are 1 + 1 and 2 + 2
        wrapping(series, "_summand_sum_in_u", sign_dropped),
        {
            "oo-series-vs-recurrence": "t^3: u^1: 1 != -1",
            "eo-series-vs-recurrence": "t^4: u^1: 2 != -2",
            "forced-drops-vanish": "odd-odd constant term at t^3: 2",
            "genocchi-values": "index 2: 3 != 1",
            "median-values": "index 1: 6 != 2",
            "genocchi-vs-recurrence": "m=2: 3 != recurrence 1",
            "median-vs-recurrence": "m=3: 6 != recurrence 2",
            "genocchi-vs-enumeration": "length 4: enumerated 1 != 3",
            "median-vs-enumeration": "length 5: enumerated 2 != 6",
            "identity-squares-telescopes": "t^2: 2",
            "identity-products-telescopes": "t^2: 4",
            "pde-oo_even": "t^1: 2*u",
            "pde-oo_odd": "t^1: 2*u",
            "pde-eo_even": "t^1: 4*u",
            "pde-eo_odd": "t^2: 4*u",
        },
    ),
    # A known blind spot.  zeroth sets both the series' prefix zeroth*u*t and
    # the PDE's source term t*(1 + zeroth*u), and the two changes cancel in
    # the equation, so pde-eo_even reads PASS; the series and summand
    # checks catch it.
    "eo-even-zeroth-0": Fault(
        family_row("eo_even", zeroth=lambda zeroth: 0),
        {
            "eo-series-vs-recurrence": "t^2: u^1: 0 != -1",
            "forced-drops-vanish": "even-odd constant term at t^2: 1",
            "summand-recurrence-eo_even": "zeroth: 0 != -1",
        },
    ),
    # only the summand check reads a family's ratio
    **{
        f"{which}-ratio-off": Fault(
            family_row(which, ratio=lambda ratio: lambda m: ratio(m) + 1),
            {f"summand-recurrence-{which}": detail},
        )
        for which, detail in RATIO_OFF.items()
    },
    # only the summand check divides summands one at a time.  A step that
    # reads two back breaks every m = 1 summand with a nonzero a_1; eo_odd's
    # is 0, so it breaks first in the recurrence at m = 2
    "division-reads-two-back": Fault(
        division_body(2),
        {
            "summand-recurrence-oo_even": "m=1: s^2: 0 != -1",
            "summand-recurrence-oo_odd": "m=1: s^2: 0 != -1",
            "summand-recurrence-eo_even": "m=1: s^2: 0 != -2",
            "summand-recurrence-eo_odd": "m=2: s^3: 2 != 0",
        },
    ),
    # control: read one back, the faulty body is the real one and trips nothing
    "division-reads-one-back": Fault(division_body(1), {}),
    **{
        f"{which}-{field}-off": Fault(
            family_row(which, **{field: lambda coeffs: _add(list(coeffs), [1])}), {f"pde-{which}": detail}
        )
        for (which, field), detail in PDE_COEFFICIENT_OFF.items()
    },
    "eo_odd-pde_t-off-by-u": Fault(
        # eo_odd's t*S_t coefficient one u too large leaves -u*t on the
        # right-hand side; a detail that formatted it in x would read -1*x
        family_row("eo_odd", pde_t=lambda coeffs: _add(list(coeffs), [0, 1])),
        {"pde-eo_odd": "t^1: -1*u"},
    ),
    "residual-blind": Fault(
        residual_blind_after_the_families,
        {"pde-negative-control": "perturbed series still satisfies the equation"},
    ),
    "genocchi-value-off": Fault(
        wrapping(verify, "GENOCCHI_VALUES", lambda pinned: [*pinned[:4], 156, *pinned[5:]]),
        {"genocchi-values": "index 5: 155 != 156"},
    ),
    "median-value-off": Fault(
        wrapping(verify, "MEDIAN_VALUES", lambda pinned: [*pinned[:7], 5410689]),
        {"median-values": "index 7: 5410688 != 5410689"},
    ),
    # a sequence one value short fails each check that reads it, by the
    # first missing index or by the count, before a zip stops at the shorter
    # side and compares less
    "genocchi-sequence-one-short": Fault(
        one_short("genocchi_sequence"),
        {
            "genocchi-values": "index 8: missing != 929569",
            "genocchi-vs-recurrence": "closed form gives 7 values for m=1..8",
            "genocchi-vs-enumeration": "closed form gives 1 values for lengths 2..4",
        },
    ),
    "median-sequence-one-short": Fault(
        one_short("genocchi_median_sequence"),
        {
            "median-values": "index 7: missing != 5410688",
            "median-vs-recurrence": "closed form gives 6 values for m=2..8",
            "median-vs-enumeration": "closed form gives 1 values for lengths 3..5",
        },
    ),
}
# three faults again at other limits
FAULTS["table-without-wrap-at-order-4"] = FAULTS["table-without-wrap"]._replace(max_n=6, series_order=4)
FAULTS["walk-skips-a-step-past-max-n"] = FAULTS["walk-skips-a-step"]._replace(max_n=MAX_N, fails=SKIPPED_STEP)
FAULTS["triangle-sign-dropped-at-order-12"] = FAULTS["triangle-sign-dropped"]._replace(series_order=12)


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_fault_trips_exactly_its_checks(monkeypatch, fault):
    fault.patch(monkeypatch)
    results = verify.run_suites("all", max_n=fault.max_n, series_order=fault.series_order)
    not_passed = {c.name: (c.status, c.detail) for c in results if c.status != "PASS"}
    assert not_passed == {check: ("FAIL", detail) for check, detail in fault.fails.items()}


def unfaulted(faults) -> list[str]:
    """The checks of a run of every suite at the table's limits that no fault trips."""
    tripped = {check for fault in faults for check in fault.fails}
    results = verify.run_suites("all", max_n=MAX_N, series_order=SERIES_ORDER)
    return [c.name for c in results if c.name not in tripped]


def test_every_check_has_a_fault():
    assert unfaulted(FAULTS.values()) == []


def test_a_check_without_a_fault_is_named():
    # negative control: pde-negative-control fails in one row only
    assert unfaulted(fault for name, fault in FAULTS.items() if name != "residual-blind") == ["pde-negative-control"]
