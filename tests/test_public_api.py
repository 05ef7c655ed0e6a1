"""The public API holds only what the program, its README or its benchmark
trace reads: a scan of the package source, so that test-only API cannot
creep back into ``src/``.  The same holds for the fields of public classes:
a field no package code reads and README.md does not name is state kept
for the tests."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regdensity"


def _package_trees():
    """Each module of the package, by name, as a parsed tree."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


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
    trees = _package_trees()
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


def _fields(node):
    """A class's fields: its annotated names (dataclass or NamedTuple
    fields) and its ``__slots__`` entries."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
        ):
            yield from (ast.literal_eval(elt) for elt in item.value.elts)


def unread_public_fields():
    """Fields of public classes that no package code loads as an attribute
    and that README.md names in no code span."""
    trees = _package_trees().values()
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"(`+)(.+?)\1", readme, re.S)
    documented = {word for _, span in spans for word in re.findall(r"\w+", span)}
    return [
        "%s.%s" % (node.name, field)
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for field in _fields(node)
        if field not in loaded and field not in documented
    ]


def test_every_public_field_is_read_by_the_program_or_documented():
    assert unread_public_fields() == []
