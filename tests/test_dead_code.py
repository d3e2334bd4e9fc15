"""The package holds only code that some code in it reads."""

import ast
from pathlib import Path

import precursor_lab

# stochastic.__getattr__ exists so that perfbench's tracer can wrap scipy's
# quad; ROADMAP item 18 removes it with the tracer's hooks
ALLOWED = {("stochastic", "__getattr__")}

_FILES = sorted(p for p in Path(precursor_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
_TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in _FILES}
# a reference count, not a call graph: any Name or Attribute of the same
# name counts as a use, a method of that name included
_READ = {
    node.id if isinstance(node, ast.Name) else node.attr
    for tree in _TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, (ast.Name, ast.Attribute))
}


def test_every_top_level_function_and_class_is_read():
    unread = [
        (module, node.name)
        for module, tree in _TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in _READ
    ]
    assert sorted(set(unread) - ALLOWED) == []


def test_every_method_and_property_is_read():
    # dunder methods are called by Python itself, never by name
    unread = [
        (module, cls.name, node.name)
        for module, tree in _TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in _READ
    ]
    assert unread == []
