"""Every function, method and class in the package is used by the package,
and every module uses the names it imports."""

import ast
from pathlib import Path

import ccgamr

SRC = Path(ccgamr.__file__).parent
_DEFS = (ast.FunctionDef, ast.ClassDef)
_METHOD_USES = frozenset({"attribute", "export"})


def _definitions_and_references(tree, exports: bool):
    """Each definition paired with whether it is a method, and each
    reference as (name, kind, the definitions enclosing it).  The kind is
    ``name``, ``attribute``, or ``export`` for an import in ``__init__``
    (``exports``) and ``import`` for one elsewhere."""
    definitions, references = [], []

    def visit(node, enclosing, in_class):
        if isinstance(node, _DEFS):
            definitions.append((node, in_class))
            enclosing = enclosing | {id(node)}
        elif isinstance(node, ast.Name):
            references.append((node.id, "name", enclosing))
        elif isinstance(node, ast.Attribute):
            references.append((node.attr, "attribute", enclosing))
        elif isinstance(node, ast.alias):
            references.append((node.name, "export" if exports else "import", enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, isinstance(node, ast.ClassDef))

    visit(tree, frozenset(), False)
    return definitions, references


def unused_definitions(src: Path) -> list[str]:
    """``module:name`` of each non-dunder definition that no code outside its
    own body names.  A function or class counts as used when named as a
    name, an attribute or an import; a method only through an attribute
    (``x.name``), since a bare name is some local variable or function.  A
    name imported by the package's ``__init__`` counts as used, since that
    exports it."""
    definitions, references = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, refs = _definitions_and_references(tree, exports=path.stem == "__init__")
        definitions += [(path.stem, d, is_method) for d, is_method in defs]
        references += refs
    unused = []
    for module, d, is_method in definitions:
        if d.name.startswith("__") and d.name.endswith("__"):
            continue
        if not any(
            name == d.name and id(d) not in enclosing and (kind in _METHOD_USES or not is_method)
            for name, kind, enclosing in references
        ):
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


def test_a_local_variable_does_not_count_as_a_use_of_a_method(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Graph:\n"
        "    def node(self):\n"
        "        return 1\n"
        "    def edge(self):\n"
        "        return 2\n"
        "def walk(graph):\n"
        "    node = graph.edge()\n"
        "    return node\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import Graph, walk\n")
    assert unused_definitions(tmp_path) == ["mod:node"]


def unused_imports(src: Path) -> list[str]:
    """``module:name`` of each name a module other than ``__init__`` imports
    and never names; ``__future__`` imports and lines marked
    ``# noqa: F401`` are skipped."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in names and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.stem}:{name}")
    return unused


def test_every_import_is_used():
    assert unused_imports(SRC) == []


def test_the_import_audit_skips_init_future_and_noqa_lines(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from itertools import (\n"
        "    chain,\n"
        "    islice,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "def first(xs):\n"
        "    return next(islice(xs, 1))\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import first\nimport sys\n")
    assert unused_imports(tmp_path) == ["mod:os", "mod:regex", "mod:chain"]


def string_constant_owners(src: Path, value: str) -> list[str]:
    """``module:name`` of the top-level definition or assignment holding
    each string constant equal to ``value``, ``module:<module>`` for one
    outside any, in source order."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, _DEFS):
                owner = top.name
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                owner = ",".join(ast.unparse(t) for t in targets)
            else:
                owner = "<module>"
            found += [
                f"{path.stem}:{owner}" for node in ast.walk(top)
                if isinstance(node, ast.Constant) and node.value == value
            ]
    return found


def test_the_conjunction_category_is_tested_in_one_place():
    """'Conj' is named where it is declared a category and where a category
    is tested for it, and nowhere else."""
    assert string_constant_owners(SRC, "Conj") == ["category:ATOM_BASES", "combinator:is_conjunction"]


def test_the_constant_audit_names_each_owner(tmp_path):
    (tmp_path / "mod.py").write_text(
        "BASES = ('Conj', 'S')\n"
        "x: str = 'Conj'\n"
        "def is_conj(c):\n"
        "    return c == 'Conj'\n"
        "class K:\n"
        "    def m(self):\n"
        "        return 'Conj word'\n"
        "print('Conj')\n"
    )
    assert string_constant_owners(tmp_path, "Conj") == ["mod:BASES", "mod:x", "mod:is_conj", "mod:<module>"]


def unbounded_caches(src: Path) -> list[str]:
    """``module:line`` of each ``functools`` cache not bounded by an explicit
    integer ``maxsize``: a bare ``lru_cache``, one without ``maxsize`` or with
    ``maxsize=None``, and any ``cache``.  Names come from ``import functools``
    or ``from functools import ...``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                kind = imported.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                kind = node.attr
            else:
                continue
            if kind not in ("lru_cache", "cache"):
                continue
            call = calls.get(id(node))
            given = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
            maxsize = given[0] if kind == "lru_cache" and given else None
            if not (isinstance(maxsize, ast.Constant) and type(maxsize.value) is int):
                lines.append(node.lineno)
        found += [f"{path.stem}:{line}" for line in sorted(lines)]
    return found


def test_every_cache_is_bounded():
    assert unbounded_caches(SRC) == []


def test_the_cache_audit_flags_every_unbounded_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache as memo\n"
        "@memo(maxsize=64)\n"
        "def a(x): return x\n"
        "@memo(128)\n"
        "def b(x): return x\n"
        "@memo\n"
        "def c(x): return x\n"
        "@memo(maxsize=None)\n"
        "def d(x): return x\n"
        "@functools.lru_cache()\n"
        "def e(x): return x\n"
        "@cache\n"
        "def f(x): return x\n"
        "g = functools.cache(len)\n"
        "h = functools.lru_cache(maxsize=True)(len)\n"
        "i = functools.lru_cache(maxsize=8)(len)\n"
        "class K:\n"
        "    @cached_property\n"
        "    def j(self): return 1\n"
    )
    assert unbounded_caches(tmp_path) == ["mod:7", "mod:9", "mod:11", "mod:13", "mod:15", "mod:16"]


#: The engine's modules, each importing only modules before it.
LAYERS = ("graph", "category", "penman", "combinator", "lexicon", "derivation", "cli")


def package_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports: ``from .m import x`` gives
    ``m`` and ``from . import m`` gives ``m``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_in_one_direction():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted({*LAYERS, "__init__", "__main__"})
    imports = {name: package_imports(SRC / f"{name}.py") for name in LAYERS}
    assert imports["graph"] == imports["category"] == set()
    for i, name in enumerate(LAYERS):
        assert imports[name] <= set(LAYERS[:i]), name


def _calls_itself(fn: ast.FunctionDef, method: bool) -> bool:
    """Whether ``fn`` calls its own name: bare, or through ``self.`` in a
    ``method``."""
    for call in ast.walk(fn):
        f = getattr(call, "func", None)
        if method:
            own = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self"
            name = f.attr if own else None
        else:
            name = f.id if isinstance(f, ast.Name) else None
        if name == fn.name:
            return True
    return False


def self_calls(src: Path) -> list[str]:
    """``module:qualified name`` of each function that calls itself, in
    source order.  ``super().__init__`` and another object's method of the
    same name do not count."""
    found = []

    def visit(node, module, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            name, method = prefix, in_class
            if isinstance(child, _DEFS):
                name, method = f"{prefix}{child.name}.", isinstance(child, ast.ClassDef)
                if isinstance(child, ast.FunctionDef) and _calls_itself(child, in_class):
                    found.append(f"{module}:{prefix}{child.name}")
            visit(child, module, name, method)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "", False)
    return found


def test_only_the_depth_limited_readers_recurse():
    """A walk over a tree built through the API uses an explicit stack; only
    the two text readers recurse, and they stop at ``penman.MAX_DEPTH``."""
    assert self_calls(SRC) == ["derivation:parse_script.node", "penman:_Parser.parse_node"]


def test_the_recursion_audit_finds_bare_and_self_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def outer(xs):\n"
        "    def walk(x):\n"
        "        return [walk(y) for y in x]\n"
        "    return walk(xs)\n"
        "class Tree(list):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "    def depth(self):\n"
        "        return 1 + max(self.depth() for _ in self)\n"
        "    def size(self, other):\n"
        "        return size(self) + other.size(None)\n"
        "def size(tree):\n"
        "    return len(tree)\n"
    )
    assert self_calls(tmp_path) == ["mod:fact", "mod:outer.walk", "mod:Tree.depth"]
