"""Exact statistics of cycles whose drops all land on odd entries.

A cycle on [n] is a cyclic word canonically written starting at 1; a drop is
a cyclically adjacent descending pair.  This package enumerates the cycles
whose drops all land on odd values, tracks how many drops start odd versus
even, and cross-checks the resulting counting polynomials along four
independent routes: brute force, a generating tree, differential
recurrences, and closed-form generating functions (whose integer
specializations are the Genocchi numbers and their medians).
"""

from .cycles import canonicalize, drop_stats
from .enumerator import (
    count_even_odd_only,
    count_odd_odd_only,
    iter_odd_drop_words,
    joint_table,
)
from .gentree import joint_poly
from .polynomials import BigPoly, BiPoly
from .recurrences import eo_poly, eo_polys, oo_poly, oo_polys
from .series import (
    TruncSeries,
    eo_series,
    genocchi,
    genocchi_median,
    genocchi_median_sequence,
    genocchi_sequence,
    oo_series,
    summand_recurrence_check,
)
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BigPoly",
    "CheckResult",
    "TruncSeries",
    "canonicalize",
    "count_even_odd_only",
    "count_odd_odd_only",
    "drop_stats",
    "eo_poly",
    "eo_polys",
    "eo_series",
    "genocchi",
    "genocchi_median",
    "genocchi_median_sequence",
    "genocchi_sequence",
    "iter_odd_drop_words",
    "joint_poly",
    "joint_table",
    "oo_poly",
    "oo_polys",
    "oo_series",
    "run_suites",
    "summand_recurrence_check",
    "__version__",
]
