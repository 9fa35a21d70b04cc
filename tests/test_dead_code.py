"""Every function, method and class in the package is used by the package."""

import ast
from pathlib import Path

import ccgamr

SRC = Path(ccgamr.__file__).parent
_DEFS = (ast.FunctionDef, ast.ClassDef)


def _definitions_and_references(tree):
    """Each definition, and each name it is referenced by paired with the
    definitions enclosing that reference."""
    definitions, references = [], []

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            definitions.append(node)
            enclosing = enclosing | {id(node)}
        elif isinstance(node, ast.Name):
            references.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            references.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            references.append((node.name, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return definitions, references


def unused_definitions(src: Path) -> list[str]:
    """``module:name`` of each non-dunder definition that no code outside its
    own body names, as a name, an attribute or an import.  A name imported
    by the package's ``__init__`` counts as used, since that exports it."""
    definitions, references = [], []
    for path in sorted(src.glob("*.py")):
        defs, refs = _definitions_and_references(ast.parse(path.read_text(encoding="utf-8")))
        definitions += [(path.stem, d) for d in defs]
        references += refs
    unused = []
    for module, d in definitions:
        if d.name.startswith("__") and d.name.endswith("__"):
            continue
        if not any(name == d.name and id(d) not in enclosing for name, enclosing in references):
            unused.append(f"{module}:{d.name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unused_definitions(SRC) == []


def test_the_audit_flags_a_method_only_its_own_body_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Used:\n"
        "    def recurse(self):\n"
        "        return self.recurse()\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def exported():\n"
        "    return Used()\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    assert unused_definitions(tmp_path) == ["mod:recurse"]
