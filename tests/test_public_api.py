"""The public API holds only what the program, its README or its benchmark
trace reads: a scan of the package source, so that test-only API cannot
creep back into ``src/``."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regdensity"


def _references(tree):
    """How often each name is read as ``name`` or as ``something.name``."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree, module):
    """(qualified name, name, node) for each public module-level function or
    class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name), node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, item.name), item.name, item


def unread_public_names():
    """Public definitions that no code in the package reads outside their
    own body and that neither README.md nor perfbench/tracing.py names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    read = sum((_references(tree) for tree in trees.values()), collections.Counter())
    named = set()
    for path in (ROOT / "README.md", ROOT / "perfbench" / "tracing.py"):
        named.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        for qualified, name, node in _public_definitions(tree, module):
            if read[name] - _references(node)[name] == 0 and name not in named:
                unread.append(qualified)
    return unread


def test_every_public_name_is_read_by_the_program_or_documented():
    assert unread_public_names() == []
