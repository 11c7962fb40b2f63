"""Each command loads only the modules it runs; the package's names load lazily.

The boundary tests run the command line in a child, as ``python -m
oddcycles`` does, and list the package modules it loaded and whether it
loaded ``dataclasses`` or ``json``; only a JSON document loads ``json``.
The surface tests check that every public name read from the package is
the object its home module defines.
"""

import ast
import importlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import oddcycles

SRC = Path(oddcycles.__file__).resolve().parents[1]

PROBE = """
import runpy, sys
{prelude}
try:
    runpy.run_module("oddcycles", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(*sorted(m for m in sys.modules if m.startswith("oddcycles.") or m in ("dataclasses", "json")),
      sep="\\n", file=sys.stderr)
"""

ROUTES = {"oddcycles.gentree", "oddcycles.recurrences", "oddcycles.series", "oddcycles.verify"}
ENUMERATOR = {"oddcycles.enumerator"}
POLYNOMIALS = {"oddcycles.polynomials"}
JSON = {"json"}


@lru_cache(maxsize=None)
def loaded(argv: tuple[str, ...], prelude: str = "") -> frozenset[str]:
    """The package modules, dataclasses and json that one command loads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(prelude=prelude), *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return frozenset(proc.stderr.split())


def crossed(modules: frozenset[str], forbidden: set[str]) -> set[str]:
    """The forbidden modules that a command loaded; dataclasses is always one."""
    return modules & (forbidden | {"dataclasses"})


# each command and the modules it must not load: a listing of members
# needs no polynomial, and no format but JSON needs json
BOUNDARIES = [
    (("enumerate", "--n", "3"), ROUTES | POLYNOMIALS | JSON),
    (("enumerate", "--n", "3", "--format", "csv"), ROUTES | POLYNOMIALS | JSON),
    (("enumerate", "--n", "3", "--format", "json"), ROUTES | POLYNOMIALS),
    (("table", "--n", "3", "--format", "csv"), ROUTES | JSON),
    (("poly", "--kind", "f", "--n", "3"), ROUTES - {"oddcycles.recurrences"} | ENUMERATOR | JSON),
    (("poly", "--kind", "g", "--n", "3"), ROUTES - {"oddcycles.recurrences"} | ENUMERATOR | JSON),
    (("poly", "--kind", "joint", "--n", "3"), ROUTES - {"oddcycles.gentree"} | ENUMERATOR | JSON),
    (("sequence", "--kind", "genocchi", "--limit", "3"), ROUTES - {"oddcycles.series"} | ENUMERATOR | JSON),
    (("verify", "--max-n", "3", "--series-order", "4", "--format", "csv"), JSON),
]


@pytest.mark.parametrize(("argv", "forbidden"), BOUNDARIES, ids=[" ".join(a) for a, _ in BOUNDARIES])
def test_command_loads_only_its_routes(argv, forbidden):
    assert crossed(loaded(argv), forbidden) == set()


def test_version_loads_the_command_line_only():
    # json included: the probe reports it when it is loaded
    assert loaded(("--version",)) == {"oddcycles.cli"}


def test_each_command_loads_the_route_it_runs():
    assert "oddcycles.enumerator" in loaded(("enumerate", "--n", "3"))
    assert "json" in loaded(BOUNDARIES[2][0])
    assert "oddcycles.polynomials" in loaded(BOUNDARIES[3][0])
    assert "oddcycles.recurrences" in loaded(("poly", "--kind", "f", "--n", "3"))
    assert ROUTES <= loaded(BOUNDARIES[-1][0])


def test_boundary_check_sees_a_loaded_route():
    # negative control: a route loaded before the command crosses the boundary
    modules = loaded(("--version",), prelude="import oddcycles.verify")
    assert "oddcycles.verify" in crossed(modules, ROUTES)
    modules = loaded(("--version",), prelude="import dataclasses")
    assert crossed(modules, set()) == {"dataclasses"}
    modules = loaded(("--version",), prelude="import json")
    assert crossed(modules, JSON) == {"json"}


def test_each_public_name_is_its_home_modules_object():
    for name, home in oddcycles._HOMES.items():
        module = importlib.import_module(f"oddcycles.{home}")
        value = getattr(oddcycles, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
    assert set(oddcycles.__all__) == {*oddcycles._HOMES, "__version__"}


def test_dir_and_star_import_cover_all():
    assert set(oddcycles.__all__) <= set(dir(oddcycles))
    namespace: dict = {}
    exec("from oddcycles import *", namespace)
    assert set(oddcycles.__all__) <= set(namespace)


def test_submodules_are_package_attributes():
    for home in set(oddcycles._HOMES.values()):
        assert getattr(oddcycles, home) is sys.modules[f"oddcycles.{home}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oddcycles.no_such_name  # noqa: B018
    assert not hasattr(oddcycles, "cli_main")


def test_suite_names_have_one_home():
    from oddcycles import verify

    assert verify.SUITES is oddcycles.SUITES


def test_enumerator_limit_has_one_home():
    from oddcycles import cli, enumerator

    assert enumerator.MAX_N is oddcycles.MAX_N is cli.MAX_N
    # and no other module assigns a limit of that name
    assigners = {
        path.name
        for path in SRC.joinpath("oddcycles").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "MAX_N"
    }
    assert assigners == {"__init__.py"}
