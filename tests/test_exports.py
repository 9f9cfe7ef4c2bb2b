"""Every public function and method under ``src/eck`` has a use: it is
referenced by code in the package outside its own definition, exported in
``eck.__all__``, or named below with the reason it stays."""

import ast
from pathlib import Path

import eck

SRC = Path(eck.__file__).resolve().parent

#: public names with no caller in the package, and why each stays
ALLOWED = {
    "cq_step_correction": "the displayed correction of the CQ recursion, checked by tests/test_positivity.py",
}


def _public_definitions(tree: ast.Module):
    """Top-level public functions, and public methods of public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (
                item for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def _unused() -> list[tuple[str, str]]:
    """``(where, name)`` of every public definition that nothing in the
    package references and ``eck.__all__`` does not export."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [
        (module, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if node.name in eck.__all__ or any(
                name == node.name and not (where == module and line in inside) for where, name, line in refs
            ):
                continue
            unused.append((f"{module}:{node.lineno}", node.name))
    return unused


def test_every_public_definition_has_a_use():
    assert [(where, name) for where, name in _unused() if name not in ALLOWED] == []


def test_the_allowlist_names_only_definitions_without_a_caller():
    """An allowlisted name that gains a caller or leaves the package comes
    off the list."""
    assert sorted(ALLOWED) == sorted(name for _, name in _unused())
