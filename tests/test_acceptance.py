"""Acceptance gate: nine end-to-end criteria, one printed line each.

Each test prints exactly one PASS/FAIL line to the real stdout so the
outcome stays visible under pytest's output capture.  Stated time budgets
are asserted, not just measured.
"""

import time
from contextlib import contextmanager

from oddcycles.enumerator import (
    count_even_odd_only,
    count_odd_odd_only,
    iter_odd_drop_words,
    joint_table,
)
from oddcycles.gentree import children_count, joint_poly, verify_level
from oddcycles.recurrences import eo_poly, oo_poly
from oddcycles.series import (
    FAMILIES,
    TruncSeries,
    closed_form_at_zero,
    closed_form_series,
    eo_series,
    genocchi,
    genocchi_median,
    genocchi_median_sequence,
    genocchi_sequence,
    oo_series,
    pde_residual_of,
    summand_recurrence_check,
)

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
        for m in range(1, 7):
            assert count_even_odd_only(2 * m) == genocchi(m)
        for m in range(1, 41):
            assert oo_poly(2 * m)(0) == genocchi(m)


def test_criterion_04_odd_odd_pure_counts(emit_line):
    with criterion(emit_line, 4, "cycles with only odd-odd drops are counted by Genocchi medians"):
        for m in range(2, 7):
            assert count_odd_odd_only(2 * m - 1) == genocchi_median(m - 2)
        for m in range(2, 41):
            assert eo_poly(2 * m - 1)(0) == genocchi_median(m - 2)


def test_criterion_05_series_coefficients(emit_line):
    with criterion(emit_line, 5, "closed-form series reproduce both polynomial families to n = 80"):
        start = time.perf_counter()
        oo = oo_series(80)
        eo = eo_series(80)
        for n in range(1, 81):
            assert oo.coeff(n) == oo_poly(n)
            assert eo.coeff(n) == eo_poly(n)
        assert time.perf_counter() - start <= 10.0


def test_criterion_06_telescoping_identities(emit_line):
    with criterion(emit_line, 6, "both telescoping sums equal t through order 30"):
        t = TruncSeries.t_monomial(1, 30)
        assert closed_form_at_zero("oo_odd", 30) == t
        assert closed_form_at_zero("eo_even", 30) == t


def test_criterion_07_pde_residuals(emit_line):
    with criterion(emit_line, 7, "all four PDE residuals vanish through order 19 of 20"):
        for which in sorted(FAMILIES):
            res = pde_residual_of(closed_form_series(which, 20), which)
            # one order is lost to the division by t on the source side
            assert res.order == 19
            assert res.is_zero()
        tainted = closed_form_series("oo_even", 20) + TruncSeries.t_monomial(3, 20)
        assert not pde_residual_of(tainted, "oo_even").is_zero()


def test_criterion_08_generating_tree(emit_line):
    with criterion(emit_line, 8, "maximum insertion partitions each level and predicts the statistics"):
        # verify_level predicts each child's statistics by the insertion case
        # analysis, and the listing walk counts them by the drop definition;
        # the walk is strictly increasing, so a sorted level equal to it has
        # no child grown twice and no non-member
        level = list(iter_odd_drop_words(1))
        for n in range(1, 12):
            grown, problems = verify_level(level)
            assert problems == []
            # every odd entry is an insertion spot, so ceil(n/2) children each
            assert len(grown) == len(level) * children_count(n) == len(level) * ((n + 1) // 2)
            level = sorted(grown)
            assert level == list(iter_odd_drop_words(n + 1))


def test_criterion_09_summand_recurrences(emit_line):
    with criterion(emit_line, 9, "all four summand families satisfy their first-order recurrence"):
        for which in sorted(FAMILIES):
            assert summand_recurrence_check(which, 15, 40)
