"""ROADMAP aim 2's rule, no function without a caller, checked on the package source."""

import ast
from collections import Counter
from pathlib import Path

import tcm2d

SRC = Path(tcm2d.__file__).parent


def _used_name(node):
    """The name a Name node reads or an Attribute node looks up, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_definition_has_a_caller_in_the_package_or_is_exported():
    # A function, method or class is flagged when its name appears as a name
    # or an attribute nowhere in src/tcm2d outside its own body and it is not
    # in tcm2d.__all__.  Dunder methods are exempt: Python calls them.  The
    # match is by name alone, so the check cannot see a definition whose name
    # another definition, attribute or variable reuses (a method ``.u`` next
    # to a variable ``u``, say): such a definition counts as called.
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    uses = Counter(name for _, tree in trees for node in ast.walk(tree) if (name := _used_name(node)))
    uncalled = []
    for filename, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in tcm2d.__all__:
                continue
            inside = sum(1 for inner in ast.walk(node) if _used_name(inner) == name)
            if uses[name] == inside:
                uncalled.append(f"{filename}:{node.lineno} {name}")
    assert uncalled == []
