"""Every function, class and method in the package is reached from its surface.

The surface is what the command line, the ``verify`` suites and the README
examples run.  Reachability is read off the source by name: starting from
module-level code, class bodies, dunder methods, ``cli.main`` and the
identifiers of README's ``python`` blocks, a definition is reached once a
reached body mentions its name, as a variable or as an attribute.  A name
that only tests call is flagged; a test that needs a reference definition
keeps it under ``tests/``.  ``__init__.py`` only re-exports, so its imports
reach nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oddcycles"
DEFS = (ast.FunctionDef, ast.ClassDef)


def mentions(node: ast.AST, out: set[str]) -> set[str]:
    """Names and attributes in node's code; nested definitions are reached by name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            continue
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        mentions(child, out)
    return out


def unreached(sources: dict[str, str], readme: str) -> set[str]:
    """Names of the definitions in sources that no root reaches."""
    defs: dict[str, list[ast.AST]] = {}
    roots: list[ast.AST] = []
    for source in sources.values():
        tree = ast.parse(source)
        roots.extend(s for s in tree.body if not isinstance(s, DEFS))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                roots.extend(s for s in node.body if not isinstance(s, DEFS))
            if isinstance(node, DEFS):
                defs.setdefault(node.name, []).append(node)
                if node.name == "main" or node.name.startswith("__") and node.name.endswith("__"):
                    roots.append(node)
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    seen = {name for block in blocks for name in re.findall(r"[A-Za-z_]\w*", block)}
    for root in roots:
        if isinstance(root, DEFS):
            seen.add(root.name)
        mentions(root, seen)
    frontier = seen
    while frontier:
        found: set[str] = set()
        for name in frontier:
            for node in defs.get(name, ()):
                mentions(node, found)
        frontier = found - seen
        seen |= frontier
    return set(defs) - seen


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_definition_is_reached():
    readme = (ROOT / "README.md").read_text()
    assert sorted(unreached(package_sources(), readme)) == []


def test_guard_flags_a_function_only_tests_call():
    readme = (ROOT / "README.md").read_text()
    sources = package_sources()
    before = unreached(sources, readme)
    sources["cycles"] += "\n\ndef only_tests():\n    return MAX_N\n"
    assert unreached(sources, readme) - before == {"only_tests"}
