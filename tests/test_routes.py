"""The four routes stay independent: no route imports another.

Agreement between the enumeration oracle, the generating tree, the
recurrences and the series proves something only while each computes from
its own base case, so each route module may import only the shared data
types.
"""

import ast
from pathlib import Path

import pytest

import oddcycles

PACKAGE = Path(oddcycles.__file__).parent

ALLOWED = {
    "enumerator": {"polynomials"},
    "gentree": {"cycles", "polynomials"},
    "recurrences": {"polynomials"},
    "series": {"polynomials"},
}


def relative_imports(source: str) -> set[str]:
    """Package modules a source imports relatively: `from .m import x`, `from . import m`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("route", sorted(ALLOWED))
def test_route_imports_only_shared_types(route):
    source = (PACKAGE / f"{route}.py").read_text()
    assert relative_imports(source) == ALLOWED[route]


def test_checker_rejects_a_route_importing_another():
    source = (PACKAGE / "enumerator.py").read_text()
    tainted = source + "\nfrom .gentree import verify_level\n"
    assert relative_imports(tainted) != ALLOWED["enumerator"]
    assert "gentree" in relative_imports("from . import gentree\n")
