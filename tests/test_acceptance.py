"""Acceptance gate: nine end-to-end criteria, one printed line each.

Each test prints exactly one PASS/FAIL line to the real stdout so the
outcome stays visible under pytest's output capture.  Stated time budgets
are asserted, not just measured.
"""

import time
from contextlib import contextmanager

from reference import _add, at_one_minus, delete_max

from oddcycles.enumerator import count_only, iter_odd_drop_words, joint_table
from oddcycles.gentree import _word_delta, children_count, joint_poly
from oddcycles.recurrences import eo_poly, oo_poly
from oddcycles.series import (
    FAMILIES,
    TruncSeries,
    closed_form_at_zero,
    closed_form_in_u,
    genocchi_median_sequence,
    genocchi_sequence,
    pde_residual_of,
)
from oddcycles.verify import suite_identities

GENOCCHI = [1, 1, 3, 17, 155, 2073, 38227, 929569]
MEDIANS = [1, 2, 8, 56, 608, 9440, 198272, 5410688]


@contextmanager
def criterion(emit, num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"FAIL criterion {num}: {text}")
        raise
    emit(f"PASS criterion {num}: {text} ({time.perf_counter() - start:.2f}s)")


def test_criterion_01_routes_agree(emit_line):
    with criterion(emit_line, 1, "enumeration, tree steps, and recurrences agree for n = 1..12"):
        start = time.perf_counter()
        for n in range(1, 13):
            table = joint_table(n)
            jp = joint_poly(n)
            assert table == jp
            assert table.marginal("x") == oo_poly(n)
            assert table.marginal("y") == eo_poly(n)
            assert jp.marginal("x") == oo_poly(n)
            assert jp.marginal("y") == eo_poly(n)
        assert time.perf_counter() - start <= 60.0


def test_criterion_02_special_sequences(emit_line):
    with criterion(emit_line, 2, "first eight Genocchi numbers and medians are exact"):
        start = time.perf_counter()
        assert genocchi_sequence(8) == GENOCCHI
        assert genocchi_median_sequence(8) == MEDIANS
        assert time.perf_counter() - start <= 1.0


def test_criterion_03_even_odd_pure_counts(emit_line):
    with criterion(emit_line, 3, "cycles with only even-odd drops are counted by Genocchi numbers"):
        # kind 1 of the pair (oo, eo): even-odd drops only
        values = genocchi_sequence(40)
        for m in range(1, 7):
            assert count_only(joint_table(2 * m), 1) == values[m - 1]
        for m in range(1, 41):
            assert oo_poly(2 * m)(0) == values[m - 1]


def test_criterion_04_odd_odd_pure_counts(emit_line):
    with criterion(emit_line, 4, "cycles with only odd-odd drops are counted by Genocchi medians"):
        # kind 0 of the pair (oo, eo): odd-odd drops only
        values = genocchi_median_sequence(39)
        for m in range(2, 7):
            assert count_only(joint_table(2 * m - 1), 0) == values[m - 2]
        for m in range(2, 41):
            assert eo_poly(2 * m - 1)(0) == values[m - 2]


def test_criterion_05_series_coefficients(emit_line):
    with criterion(emit_line, 5, "closed-form series reproduce both polynomial families to n = 80"):
        start = time.perf_counter()
        # length n is row (n + 1) // 2 of the even or odd family, in u = 1 - v
        for stat, poly in (("oo", oo_poly), ("eo", eo_poly)):
            rows = [closed_form_in_u(f"{stat}_{parity}", 40) for parity in ("even", "odd")]
            for n in range(1, 81):
                row = rows[n & 1].coeff((n + 1) // 2)
                assert at_one_minus(list(row.coeffs)) == list(poly(n).coeffs)
        assert time.perf_counter() - start <= 10.0


def test_criterion_06_telescoping_identities(emit_line):
    with criterion(emit_line, 6, "both telescoping sums equal t through order 30"):
        t = [0, 1] + [0] * 29
        assert closed_form_at_zero("oo_odd", 30) == t
        assert closed_form_at_zero("eo_even", 30) == t


def test_criterion_07_pde_residuals(emit_line):
    with criterion(emit_line, 7, "all four PDE residuals vanish through order 19 of 20"):
        for which in sorted(FAMILIES):
            res = pde_residual_of(closed_form_in_u(which, 20), which)
            # one order is lost to the division by t on the source side
            assert res.order == 19
            assert res.is_zero()
        # negative control: 1 more at u^0 of t^3
        rows = [list(c.coeffs) for c in closed_form_in_u("oo_even", 20).coeffs]
        rows[3] = _add(rows[3], [1])
        assert not pde_residual_of(TruncSeries(rows), "oo_even").is_zero()


def test_criterion_08_generating_tree(emit_line):
    with criterion(emit_line, 8, "maximum insertion partitions each level and predicts the statistics"):
        # deleting the maximum takes each member on [n+1] that the listing
        # walk gives, with its pair counted by the drop definition, to a
        # member on [n] and the odd entry the maximum went in before, the
        # pair predicted by the insertion case analysis from the maximum's
        # two neighbours; distinct members go to distinct spots, and every
        # spot is hit
        level = {w: (oo, eo) for w, oo, eo in iter_odd_drop_words(1)}
        for n in range(1, 12):
            grown, spots = {}, set()
            for w, oo, eo in iter_odd_drop_words(n + 1):
                parent, former, latter = delete_max(w)
                assert latter & 1
                doo, deo = _word_delta(former, latter, n + 1)
                assert level[parent] == (oo - doo, eo - deo)
                grown[w] = (oo, eo)
                spots.add((parent, latter))
            # every odd entry is an insertion spot, so ceil(n/2) children each
            assert len(spots) == len(grown) == len(level) * children_count(n) == len(level) * ((n + 1) // 2)
            level = grown


def test_criterion_09_summand_recurrences(emit_line):
    with criterion(emit_line, 9, "all four summand families satisfy their first-order recurrence"):
        # at order 40 the checks reach m = 15
        summands = {c.name: (c.status, c.detail) for c in suite_identities(40) if c.name.startswith("summand-")}
        hold = ("PASS", "term ratios and bases hold for m<=15")
        assert summands == {f"summand-recurrence-{which}": hold for which in FAMILIES}
