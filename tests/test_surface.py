"""The package holds no code that only the tests use.

Every top-level function or class of src/gleason, and every method that is
not a dunder, must be referenced by name somewhere other than its own
definition: elsewhere in the package or in the benchmark under perfbench/.
A reference is an ast.Name or ast.Attribute; imports, the re-exports of
__init__.py and mentions in docstrings do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gleason"
BENCHMARK = ROOT / "perfbench"


def _definitions(tree: ast.Module):
    """(name, node) of top-level functions and classes and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _references(tree: ast.Module, within: ast.AST | None = None) -> Counter:
    """Names referenced in tree, or only in its subtree within; import aliases resolved."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    names = Counter()
    for node in ast.walk(within or tree):
        if isinstance(node, ast.Name):
            names[aliases.get(node.id, node.id)] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _parse(paths) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_every_package_definition_has_a_caller():
    package = _parse(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    used = Counter()
    for tree in [*package.values(), *_parse(sorted(BENCHMARK.glob("*.py"))).values()]:
        used.update(_references(tree))

    unused = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in package.items()
        for name, node in _definitions(tree)
        if used[name] <= _references(tree, node)[name]
    ]
    assert not unused, "defined in src/gleason but used only by the tests: " + ", ".join(unused)



PRUNE_NAMES = {"PRUNE_REL", "_prune_threshold"}


def _prune_decisions(tree: ast.Module) -> list:
    """(line, name) of each import of or reference to the floating prune's
    names, and of each object.__new__(LaurentPolynomial) call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in PRUNE_NAMES]
        elif isinstance(node, ast.Name) and node.id in PRUNE_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PRUNE_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and ast.unparse(node) == "object.__new__(LaurentPolynomial)":
            found.append((node.lineno, "object.__new__(LaurentPolynomial)"))
    return found


def test_the_floating_prune_has_one_owner():
    # how a floating term map is pruned, and which polynomials are built raw,
    # is decided in laurent.py alone; the other modules go through its builders
    package = _parse(sorted(PACKAGE.glob("*.py")))
    owner = {name for _, name in _prune_decisions(package.pop(PACKAGE / "laurent.py"))}
    assert owner == {*PRUNE_NAMES, "object.__new__(LaurentPolynomial)"}  # the check sees each kind
    elsewhere = [f"{path.name}:{line} {name}" for path, tree in package.items() for line, name in _prune_decisions(tree)]
    assert not elsewhere, "the floating prune decided outside laurent.py: " + ", ".join(elsewhere)
