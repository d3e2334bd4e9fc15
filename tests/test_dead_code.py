"""The package holds only code that some code in it reads."""

import ast
from pathlib import Path

import precursor_lab

# stochastic.__getattr__ exists so that perfbench's tracer can wrap scipy's
# quad; ROADMAP item 18 removes it with the tracer's hooks
ALLOWED = {("stochastic", "__getattr__")}


def test_every_top_level_function_and_class_is_read():
    # a reference count, not a call graph: any Name or Attribute of the same
    # name counts as a use, a method of that name included
    files = sorted(p for p in Path(precursor_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unread = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
    ]
    assert sorted(set(unread) - ALLOWED) == []
