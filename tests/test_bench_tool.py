"""The per-layer bench tool's cases name only what the package has.

The tool runs each case in a child process on a copy of the package; these
tests start no child.  They read each case's code and check that every
attribute it takes from a package module, and every function it lists as
needed, exists in this package, so a renamed function cannot turn a case
into a crash or a silent null record, and that each committed
BENCH_<layer>.json records the cases its layer times now.  One more test
compiles a copy of the package as the tool does before its first repeat.
"""

import ast
import importlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench.py"
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
    case = bench.Case("S.closed_form_in_u('oo_even', 4), R.no_such_walk(3)", ("series.gone",))
    assert missing_names(case) == ["series.gone", "recurrences.no_such_walk"]


def test_each_copy_is_compiled_before_it_runs(tmp_path):
    # a copy of the package without bytecode gains a cached module for each source
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "oddcycles", src / "oddcycles", ignore=shutil.ignore_patterns("__pycache__"))
    cached = [Path(importlib.util.cache_from_source(str(py))) for py in (src / "oddcycles").glob("*.py")]
    assert cached and not any(pyc.exists() for pyc in cached)
    bench.compile_copy(str(src))
    assert all(pyc.exists() for pyc in cached)


def test_verify_and_enumerator_layers_time_the_stated_runs():
    # the sizes the committed BENCH_verify.json and BENCH_enumerator.json record
    assert {name: case.code for name, case in bench.LAYERS["verify"].items()} == {
        **{
            f"run_suites({args})": f"V.run_suites({args})"
            for args in (
                "'all', max_n=12, series_order=40",
                "'identities', max_n=12, series_order=60",
                "'all', max_n=8, series_order=160",
                "'series', max_n=8, series_order=160",
                "'pde', max_n=8, series_order=160",
            )
        },
        "suite_oracle(12)": "V.suite_oracle(12)",
        "suite_oracle(13)": "V.suite_oracle(13)",
    }
    assert {name: case.code for name, case in bench.LAYERS["enumerator"].items()} == {
        "iter_odd_drop_words(12), drained": "for _ in E.iter_odd_drop_words(12):\n    pass",
        "joint_table(12)": "E.joint_table(12)",
        "joint_table(n), n=1..12": "[E.joint_table(n) for n in range(1, 13)]",
        "joint_table(14)": "E.joint_table(14)",
    }


def test_ratio_is_the_median_of_paired_ratios():
    before = [{"seconds": s} for s in (1.0, 2.0, 3.0)]
    after = [{"seconds": s} for s in (0.5, 3.0, 2.4)]
    # the pairs give 0.5, 1.5 and 0.8; the two medians would give 2.4 / 2.0
    assert bench.paired_ratio(before, after) == 0.8
    assert bench.paired_ratio(before, [None, *after[1:]]) is None


@pytest.mark.parametrize("layer", sorted(bench.LAYERS))
def test_committed_record_names_the_layer_cases(layer):
    record = json.loads((ROOT / f"BENCH_{layer}.json").read_text())
    assert record["layer"] == layer
    assert list(record["cases"]) == list(bench.LAYERS[layer])
