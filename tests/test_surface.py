"""Every function, class and method in the package is reached from its surface.

The surface is what the command line, the ``verify`` suites and the README
examples run.  Reachability is read off the source by name: starting from
module-level code, class bodies, dunder methods, ``cli.main`` and the
identifiers of README's ``python`` blocks (comments stripped), a definition
is reached once a reached body mentions its name, as a variable or as an
attribute.  An attribute ``C.name`` whose receiver is a class defined in the
package reaches only ``C``'s method; any other ``x.name`` reaches every
definition called ``name``.  Methods are reported as ``Class.name``.  A name
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


def receiver_class(node: ast.expr, classes: set[str]) -> str | None:
    """The package class an attribute is read from, as in ``C.x`` or ``m.C.x``."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in classes else None


def mentions(node: ast.AST, classes: set[str], out: set[str]) -> set[str]:
    """Names and attributes in node's code; nested definitions are reached by name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            continue
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            owner = receiver_class(child.value, classes)
            out.add(f"{owner}.{child.attr}" if owner else child.attr)
        mentions(child, classes, out)
    return out


def unreached(sources: dict[str, str], readme: str) -> set[str]:
    """Names of the definitions in sources that no root reaches."""
    defs: dict[str, list[ast.AST]] = {}
    roots: list[ast.AST] = []
    reached: set[str] = set()
    trees = [ast.parse(source) for source in sources.values()]
    classes = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    for tree in trees:
        roots.extend(s for s in tree.body if not isinstance(s, DEFS))
        keys = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                roots.extend(s for s in node.body if not isinstance(s, DEFS))
                keys.update((s, f"{node.name}.{s.name}") for s in node.body if isinstance(s, DEFS))
            if isinstance(node, DEFS):
                key = keys.get(node, node.name)
                defs.setdefault(key, []).append(node)
                if node.name == "main" or node.name.startswith("__") and node.name.endswith("__"):
                    reached.add(key)
    # a bare token reaches every definition of that name, a qualified one only itself
    by_token: dict[str, set[str]] = {}
    for key in defs:
        by_token.setdefault(key, set()).add(key)
        by_token.setdefault(key.rpartition(".")[2], set()).add(key)
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    code = [line.split("#", 1)[0] for block in blocks for line in block.splitlines()]
    tokens = {name for line in code for name in re.findall(r"[A-Za-z_]\w*", line)}
    for root in roots:
        mentions(root, classes, tokens)
    frontier = {key for token in tokens for key in by_token.get(token, ())} | reached
    while frontier:
        reached |= frontier
        found: set[str] = set()
        for key in frontier:
            for node in defs[key]:
                mentions(node, classes, found)
        frontier = {key for token in found for key in by_token.get(token, ())} - reached
    return set(defs) - reached


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


def test_guard_reads_a_class_receiver_as_that_class_only():
    source = (
        "class A:\n    def one(self):\n        return 1\n\n"
        "class B:\n    def one(self):\n        return 1\n\n"
        "A.one(B())\n"
    )
    assert unreached({"m": source}, "") == {"B.one"}
    # through any other receiver, the name reaches both
    assert unreached({"m": source.replace("A.one(B())", "A().one(B())")}, "") == set()
