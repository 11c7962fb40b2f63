"""Faults that a verify check catches, each shown failing through run_suites.

Each row patches a pinned list or a route function, never a check body,
and names the suite that reaches the fault, the one check that must fail
and its exact detail.  Every other check of that suite must still PASS, so
a fault that starts or stops tripping a second check shows too.  The
limits keep every check of the suites out of SKIP.
"""

import pytest

from oddcycles import series, verify

MAX_N, SERIES_ORDER = 5, 8


def pinned_value(name: str, i: int, value: int):
    """A fault that changes entry i of the pinned list verify.<name>."""

    def fault(mp):
        values = list(getattr(verify, name))
        values[i] = value
        mp.setattr(verify, name, values)

    return fault


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


FAULTS = [
    pytest.param(
        pinned_value("GENOCCHI_VALUES", 4, 156), "genocchi", "genocchi-values", "index 5: 155 != 156",
        id="genocchi-value-off",
    ),
    pytest.param(
        pinned_value("MEDIAN_VALUES", 7, 5410689), "genocchi", "median-values", "index 7: 5410688 != 5410689",
        id="median-value-off",
    ),
    pytest.param(
        residual_blind_after_the_families, "pde", "pde-negative-control",
        "perturbed series still satisfies the equation",
        id="residual-blind",
    ),
]


@pytest.mark.parametrize("fault,suite,check,detail", FAULTS)
def test_fault_fails_its_check_alone(monkeypatch, fault, suite, check, detail):
    fault(monkeypatch)
    results = verify.run_suites(suite, max_n=MAX_N, series_order=SERIES_ORDER)
    statuses = {c.name: (c.status, c.detail) for c in results}
    assert statuses.pop(check) == ("FAIL", detail)
    assert statuses and all(status == "PASS" for status, _ in statuses.values()), statuses
