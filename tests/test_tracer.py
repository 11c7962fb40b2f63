"""The benchmark's tracer installs on this package and undoes itself.

A traced benchmark run calls ``perfbench/tracer.py``'s ``install`` once,
outside its per-command error handling, so a name the tracer reads without
a guard, and the package no longer has, fails every traced run.  These
tests load the tracer by path, install it in this process and remove it
again; they start no child.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from oddcycles import cli, series

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

# names the tracer patches that the package no longer has; the traced run
# reports them as missing
KNOWN_MISSING = {"oddcycles.enumerator.ProcessPoolExecutor", "oddcycles.cli.drop_stats"}


@contextlib.contextmanager
def installed():
    """The tracer installed for the body; every patch is undone after it."""
    tracer = tracing.Tracer("test")
    try:
        tracing.install(tracer)
        yield tracer
    finally:
        tracer.unpatch()


def test_install_patches_and_unpatch_restores():
    with installed() as tracer:
        patched = list(tracer._restore)
        assert [(o.__name__, a) for o, a, original in patched if vars(o)[a] is original] == []
    assert patched
    assert [(o.__name__, a) for o, a, original in patched if vars(o)[a] is not original] == []
    assert set(tracer.missing) <= KNOWN_MISSING


COMMANDS = [
    (["enumerate", "--n", "5", "--format", "csv"], {"enumerator.iter_odd_drop_words"}),
    (["poly", "--kind", "joint", "--n", "5"], {"gentree.joint_poly"}),
    (["poly", "--kind", "f", "--n", "5"], {"recurrences.oo_poly"}),
    (["sequence", "--kind", "genocchi", "--limit", "5"], {"series.genocchi_sequence"}),
    (["verify", "--suite", "pde", "--series-order", "8"], {"verify.run_suites", "verify.suite_pde"}),
]


@pytest.mark.parametrize(("argv", "spans"), COMMANDS, ids=[c[0] for c, _ in COMMANDS])
def test_command_line_reaches_routes_through_patched_attributes(argv, spans):
    with installed() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert spans <= {span[0] for span in tracer.spans}


def test_install_fails_on_a_missing_series_type(monkeypatch):
    # negative control: the name a deletion of TruncSeries takes away
    original = series.oo_series
    monkeypatch.delattr(series, "TruncSeries")
    with pytest.raises(AttributeError, match="TruncSeries"):
        with installed():
            pass
    assert series.oo_series is original
