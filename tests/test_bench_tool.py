"""The per-layer bench tool's cases name only what the package has.

The tool runs each case in a child process on a copy of the package; these
tests start no child.  They read each case's code and check that every
attribute it takes from a package module, and every function it lists as
needed, exists in this package, so a renamed function cannot turn a case
into a crash or a silent null record.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

CASES = [
    pytest.param(case, id=f"{layer}: {name}")
    for layer, cases in bench.LAYERS.items()
    for name, case in cases.items()
]


def missing_names(case) -> list[str]:
    """The module.function names a case reads or needs that the package lacks."""
    wanted = list(case.needs)
    for node in ast.walk(ast.parse(case.code)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id in bench.MODULES, f"{node.value.id} is not a package module"
            wanted.append(f"{bench.MODULES[node.value.id]}.{node.attr}")
    missing = []
    for name in wanted:
        module, _, attr = name.rpartition(".")
        if not hasattr(importlib.import_module(f"oddcycles.{module}"), attr):
            missing.append(name)
    return missing


@pytest.mark.parametrize("case", CASES)
def test_case_names_functions_the_package_has(case):
    assert missing_names(case) == []


def test_a_missing_function_is_named():
    # negative control: one name read, one needed, neither in the package
    case = bench.Case("S.closed_form_series('oo_even', 4), R.no_such_walk(3)", ("series.gone",))
    assert missing_names(case) == ["series.gone", "recurrences.no_such_walk"]

