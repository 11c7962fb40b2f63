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
    "gentree": {"polynomials"},
    "recurrences": {"polynomials"},
    "series": {"polynomials"},
}


# what the package's __init__ assigns itself, such as SUITES and MAX_N: limits
# and names that belong to no route
PACKAGE_CONSTANTS = {
    target.id
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
    if isinstance(node, ast.Assign)
    for target in node.targets
    if isinstance(target, ast.Name)
}


def relative_imports(source: str) -> set[str]:
    """Package modules a source imports relatively: `from .m import x`, `from . import m`.

    A public name read from the package counts as its home module, which
    the package loads to give it; the package's own constants count as none.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                names = {alias.name for alias in node.names} - PACKAGE_CONSTANTS
                found.update(oddcycles._HOMES.get(name, name) for name in names)
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
    # a route's function read through the package is that route
    assert relative_imports("from . import joint_poly\n") == {"gentree"}
    assert relative_imports("from . import MAX_N, SUITES\n") == set()
