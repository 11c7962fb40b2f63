"""Exact statistics of cycles whose drops all land on odd entries.

A cycle on [n] is a cyclic word canonically written starting at 1; a drop is
a cyclically adjacent descending pair.  This package enumerates the cycles
whose drops all land on odd values, tracks how many drops start odd versus
even, and cross-checks the resulting counting polynomials along four
independent routes: brute force, a generating tree, differential
recurrences, and closed-form generating functions (whose integer
specializations are the Genocchi numbers and their medians).

Importing the package loads none of its modules.  Each public name is
listed once, in _HOMES, with the module that defines it, and that module is
imported the first time the name is read (PEP 562), as is a module read as
``oddcycles.series``.  So ``from oddcycles import joint_poly`` loads the
generating tree and what it imports, and nothing else.
"""

import sys

__version__ = "0.1.0"

# the verify suites, in the order `verify --suite all` runs them; kept here
# so that the command line can list them without loading the suites
SUITES = ("oracle", "series", "genocchi", "identities", "pde")

# the largest n the enumerator accepts, kept here so that the command line
# can check --max-n without loading it.  The enumerator's table grows like
# 2^n * n^2: joint_table(14) takes 0.11-0.15 s of process time (5 runs on a
# 2-vCPU Xeon host).
MAX_N = 14

# each public name and the module that defines it
_HOMES = {
    "iter_odd_drop_words": "enumerator",
    "joint_table": "enumerator",
    "joint_poly": "gentree",
    "BigPoly": "polynomials",
    "BiPoly": "polynomials",
    "eo_poly": "recurrences",
    "oo_poly": "recurrences",
    "TruncSeries": "series",
    "genocchi_median_sequence": "series",
    "genocchi_sequence": "series",
    "CheckResult": "verify",
    "run_suites": "verify",
}

__all__ = [*sorted(_HOMES), "__version__"]


def _load(module: str):
    # the import statement's own machinery, which -X importtime reports;
    # importlib.import_module would load the module unreported
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(_load(_HOMES[name]), name)
    elif name in _HOMES.values():
        value = _load(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
