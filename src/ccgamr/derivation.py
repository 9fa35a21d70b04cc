"""Two execution modes over the combinators: scripted replay and CKY search.

Replay takes an s-expression derivation script, e.g.::

    (>R (leaf 0 what.1) (>RB (> (leaf 1 did.1) (leaf 2 you.1)) ...))

evaluates it bottom-up against a lexicon, and verifies at each step that
the combinator the engine selects (relation-wise or regular, crossed or not)
is the one the script names.  CKY search explores all enabled combinators
over a token sequence and returns complete derivations deduplicated by
category and semantics: two items of a cell merge when their semantics are
equal, or are isomorphic graphs.  Two equal graphs merge without an
isomorphism search, and the isomorphism invariant is computed only for
unequal graphs of one span, category, node count and free-variable count
(``_Chart``).  What the binary rules can do with a pair of adjacent
categories comes from one bounded cache (``_category_rules``), which both
passes read.  A category-only pass on bit masks (``_goal_categories``) runs
first, and an application, composition or coordination does its graph step
only when its result category lies on some category-level derivation of the
goal (words, raising and attaching a conjunction are not gated).  Step names
are read only through ``combinator.RULES`` and ``combinator.read_raise``.

Both modes record a derivation the same way: as items that keep only
back-pointers to the items they were built from.  A ``Derivation`` builds
its script and steps from its root item the first time either is read, and
keeps them.  That chart and replay agree is asserted in the tests
(``tests/test_derivation.py``), not re-checked at run time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from . import penman
from .category import (
    ATOM_BASES, Atom, Category, format_category, parse_category, unify,
)
from .combinator import (
    Combined,
    CombinationError,
    ConjPartial,
    Constituent,
    Identity,
    RULE_NAMES,
    RULES,
    check_direction,
    combine_application,
    combine_composition,
    combine_matched,
    conj_attach,
    coordinate,
    is_graph,
    match_categories,
    pending_category,
    pending_conjunct,
    raise_rule_name,
    raised_category,
    read_raise,
    type_raise,
)
from .graph import UNDERSPECIFIED, has_cycle, invariant, iso_equal, validate  # noqa: F401 (bench/tracing.py wraps it)
from .lexicon import Lexicon


class ScriptError(ValueError):
    pass


class ReplayError(Exception):
    def __init__(self, path: tuple[int, ...], message: str):
        where = "/".join(map(str, path)) or "root"
        super().__init__(f"step {where}: {message}")
        self.path = path


class UnknownTokenError(ValueError):
    pass


class ChartOverflowError(Exception):
    pass


# ---------------------------------------------------------------------------
# Derivation scripts

@dataclass(frozen=True, slots=True)
class Leaf:
    token_index: int
    entry_id: str


@dataclass(frozen=True, slots=True)
class Unary:
    name: str
    child: "ScriptNode"


@dataclass(frozen=True, slots=True)
class Binary:
    name: str
    left: "ScriptNode"
    right: "ScriptNode"


ScriptNode = Leaf | Unary | Binary

# a raise name is one token, parentheses and all: >T[S/(S\NP)], <T[S[dcl]\(S[dcl]/NP)]
_SCRIPT_TOKEN_RE = re.compile(r"[()]|[<>]T\[(?:[^\[\]\s]|\[[^\[\]\s]*\])*\](?=[\s()]|$)|[^\s()]+")


def looks_like_script(text: str) -> bool:
    """Whether ``text`` opens like a derivation script rather than a PENMAN
    graph: '(' then '&', a combinator name, or 'leaf' and a digit index
    (any Unicode digit, so that ``parse_script`` reports a non-ASCII one)."""
    head = [m.group() for m in islice(_SCRIPT_TOKEN_RE.finditer(text), 3)] + ["", ""]
    if head[0] != "(":
        return False
    if head[1] == "leaf":
        return head[2].isdigit()
    return head[1] == "&" or head[1] in RULES or read_raise(head[1]) is not None


def parse_script(text: str) -> ScriptNode:
    """Parse a derivation script nested at most ``penman.MAX_DEPTH`` deep."""
    found = list(_SCRIPT_TOKEN_RE.finditer(text))
    tokens = [m.group() for m in found]
    if not tokens:
        raise ScriptError("empty derivation script")
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ScriptError("unexpected end of script")
        tok = tokens[pos]
        pos += 1
        return tok

    def node(depth: int) -> ScriptNode:
        # one Python frame per nesting level, so MAX_DEPTH stays well under
        # the interpreter's recursion limit
        nonlocal pos
        tok = take()
        if tok != "(":
            raise ScriptError(f"expected '(', found {tok!r}")
        if depth > penman.MAX_DEPTH:
            offset = found[pos - 1].start()
            raise ScriptError(f"nesting deeper than {penman.MAX_DEPTH} levels at offset {offset}")
        head = take()
        if head == "leaf":
            index, entry_id = take(), take()
            if not (index.isascii() and index.isdigit()):
                raise ScriptError(f"leaf index must be an integer, found {index!r}")
            out: ScriptNode = Leaf(int(index), entry_id)
        elif read_raise(head):
            out = Unary(head, node(depth + 1))
        elif head == "&" or head in RULES:
            left = node(depth + 1)
            right = node(depth + 1)
            out = Binary(head, left, right)
        else:
            raise ScriptError(f"unknown combinator {head!r}")
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ScriptError(f"missing ')' after {head!r}")
        pos += 1
        return out

    root = node(1)
    if pos != len(tokens):
        raise ScriptError(f"trailing script input {tokens[pos]!r}")
    return root


def format_script(node: ScriptNode) -> str:
    if isinstance(node, Leaf):
        return f"(leaf {node.token_index} {node.entry_id})"
    if isinstance(node, Unary):
        return f"({node.name} {format_script(node.child)})"
    return f"({node.name} {format_script(node.left)} {format_script(node.right)})"


# ---------------------------------------------------------------------------
# Replay

@dataclass(frozen=True)
class Step:
    path: tuple[int, ...]
    rule: str
    constituent: Constituent
    notes: tuple[str, ...] = ()


@dataclass
class Derivation:
    script: ScriptNode
    steps: list[Step]
    final: Constituent
    forest_count: int = 1

    def __getattr__(self, name: str):
        # a derivation holds its root item until its script and steps are set;
        # another thread may have set them since this lookup missed them
        item = self.__dict__.get("_item")
        if item is not None and name in ("script", "steps"):
            self.script, self.steps = _built(item)
            self.__dict__.pop("_item", None)
        if name not in self.__dict__:
            raise AttributeError(name)
        return self.__dict__[name]

    def to_script(self) -> str:
        return format_script(self.script)


@dataclass(slots=True)
class _Item:
    constituent: Constituent
    rule: str  # the entry id of a lexical item
    notes: tuple[str, ...] = ()
    forest_count: int = 1
    children: tuple["_Item", ...] = ()  # back-pointers: () lexical, 1 raised, 2 binary


def _built(item: _Item) -> tuple[ScriptNode, list[Step]]:
    """The item's script and its steps, read off the back-pointers:
    post-order, left child first."""
    order = []  # pre-order, right child first: the post-order reversed
    todo: list[tuple[_Item, tuple[int, ...]]] = [(item, ())]
    while todo:
        it, path = todo.pop()
        order.append((it, path))
        todo += [(kid, path + (i,)) for i, kid in enumerate(it.children)]
    steps: list[Step] = []
    done: list[ScriptNode] = []  # scripts of the finished subtrees
    for it, path in reversed(order):
        rule, kids = it.rule, it.children
        if not kids:
            done.append(Leaf(it.constituent.start, rule))
            rule = f"lex {rule}"
        elif len(kids) == 1:
            done.append(Unary(rule, done.pop()))
        else:
            right = done.pop()
            done.append(Binary(rule, done.pop(), right))
        steps.append(Step(path, rule, it.constituent, it.notes))
    return done[0], steps


def _derivation(item: _Item) -> Derivation:
    """The derivation rooted at ``item``; its script and steps are built on
    first read."""
    d = Derivation.__new__(Derivation)
    d.final, d.forest_count, d._item = item.constituent, item.forest_count, item
    return d


def describe_semantics(sem: object) -> str:
    if isinstance(sem, Identity):
        return "ID"
    if isinstance(sem, ConjPartial):
        return "<pending conjunction>"
    return penman.serialize(sem)


def _binary_outcome(
    name: str, left: Constituent, right: Constituent
) -> Combined:
    """Run the operation a script step names, with automatic variant choice."""
    if name in RULES:
        direction, order, _, _ = RULES[name]
        f, a = (left, right) if direction == "forward" else (right, left)
        if order == 0:
            return combine_application(direction, f, a)
        return combine_composition(direction, order, f, a)
    if name == "&":
        if isinstance(left.category, Atom) and left.category.base == "Conj":
            return conj_attach(left, right)
        if isinstance(right.semantics, ConjPartial):
            partial: ConjPartial = right.semantics
            return coordinate(partial.conj, left, partial.right)
        raise CombinationError("'&' needs a Conj word or a pending conjunction on the right")
    raise CombinationError(f"unknown combinator name {name!r}")


def _explain_variant_mismatch(scripted: str, outcome: Combined) -> str:
    got = outcome.rule
    lines = [f"script names {scripted!r} but the engine derives {got!r}"]
    relation_wise = RULES[scripted][3], RULES[got][3]  # '&' always derives '&'
    if relation_wise == (False, True):
        lines.append(
            f"{scripted!r} fails: the constituents share a relation, and the "
            "relation-wise variant applies whenever a shared relation exists"
        )
        lines.append(f"{got!r} holds: the shared edge was merged")
    elif relation_wise == (True, False):
        lines.append(f"{scripted!r} fails: no relation is shared at the required free variables")
        lines.append(f"{got!r} holds: the regular variant applies")
    return "; ".join(lines)


def replay(script: ScriptNode, lexicon: Lexicon) -> Derivation:
    def walk(node: ScriptNode, path: tuple[int, ...]) -> _Item:
        if isinstance(node, Leaf):
            try:
                entry = lexicon.entry(node.entry_id)
            except KeyError as err:
                raise ReplayError(path, err.args[0]) from err
            c = Constituent(node.token_index, node.token_index + 1, entry.category, entry.semantics)
            return _Item(c, node.entry_id)
        if isinstance(node, Unary):
            children = (walk(node.child, path + (0,)),)
            raising = read_raise(node.name)
            if raising is None:
                raise ReplayError(path, f"unknown unary combinator {node.name!r}")
            direction, target = raising
            try:
                outcome = type_raise(children[0].constituent, parse_category(target), direction)
            except (CombinationError, ValueError) as err:
                raise ReplayError(path, str(err)) from err
        else:
            children = (walk(node.left, path + (0,)), walk(node.right, path + (1,)))
            try:
                outcome = _binary_outcome(node.name, *(kid.constituent for kid in children))
            except CombinationError as err:
                raise ReplayError(path, f"{node.name!r} failed: {err}") from err
            if outcome.rule != node.name:
                raise ReplayError(path, _explain_variant_mismatch(node.name, outcome))
        return _Item(outcome.constituent, outcome.rule, outcome.notes, 1, children)

    return _derivation(walk(script, ()))


def finalize_check(c: Constituent) -> list[str]:
    """Violations that keep a constituent the engine built from completing a
    sentence: a pending step, an unfilled variable, an unresolved ``:?`` edge
    or a directed cycle, the one graph defect a step (coordination) can make."""
    sem = c.semantics
    if isinstance(sem, Identity):
        return ["identity semantics cannot complete a derivation"]
    if isinstance(sem, ConjPartial):
        return ["pending conjunction is missing its left conjunct"]
    problems = [f"unfilled free variable ?{i}" for i in range(1, len(sem.fv) + 1)]
    problems += [
        f"underspecified edge {(e.source, e.label, e.target)} was never resolved"
        for e in sem.edges if e.label == UNDERSPECIFIED
    ]
    if has_cycle(sem):
        problems.append("graph has a directed cycle")
    return problems


# ---------------------------------------------------------------------------
# CKY chart search

@dataclass(frozen=True)
class TypeRaisingRule:
    source: Category
    target: Category
    direction: str = "forward"

    def __post_init__(self):
        check_direction(self.direction)


#: The one raising rule the fixtures ever need: NP to S/(S\NP).
NP_TO_S = (TypeRaisingRule(Atom("NP"), Atom("S"), "forward"),)


def read_int(name: str, value: str) -> int:
    """``value`` as an integer setting: an optional sign and ASCII digits,
    else a ``ValueError`` that names the setting."""
    if not re.fullmatch(r"[+-]?[0-9]+", value):
        raise ValueError(f"{name} must be an integer, found {value!r}")
    return int(value)


@dataclass(frozen=True)
class ParserConfig:
    enabled: frozenset[str] | None = None  # None enables every combinator
    max_composition_order: int = 2
    type_raising: tuple[TypeRaisingRule, ...] = ()  # raising is opt-in
    strict_conjunction: bool = False
    max_cell_items: int = 200
    goal: str = "S"  # atomic base of complete derivations
    _FLAGS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}

    def __post_init__(self):
        if self.max_composition_order not in (1, 2):
            raise ValueError("max_composition_order must be 1 or 2")
        if self.max_cell_items < 1:
            raise ValueError("max_cell_items must be at least 1")
        if not self.goal:
            raise ValueError("goal must not be empty")
        if self.goal not in ATOM_BASES:
            raise ValueError(f"goal must be one of {', '.join(ATOM_BASES)}, found {self.goal!r}")
        if self.enabled is not None and not self.enabled:
            raise ValueError("combinators must name at least one combinator")
        for name in sorted(self.enabled or ()):
            raising = read_raise(name)
            if name != "&" and name not in RULES and not raising:
                raise ValueError(f"unknown combinator {name!r}")
            if name in RULES and RULES[name][1] > self.max_composition_order:
                raise ValueError(f"combinator {name!r} needs max_composition_order = 2")
            if raising:  # the chart names a raise as type_raise does
                direction, target = raising
                try:
                    spelled = raise_rule_name(parse_category(target), direction)
                except ValueError as err:
                    raise ValueError(f"bad combinator {name!r}: {err}") from None
                if spelled != name:
                    raise ValueError(f"combinator {name!r} is spelled {spelled!r}")
        for i, rule in enumerate(self.type_raising):
            if rule in self.type_raising[:i]:
                symbol = ">" if rule.direction == "forward" else "<"
                spelled = f"{format_category(rule.source)} {symbol} {format_category(rule.target)}"
                raise ValueError(f"duplicate type_raise rule {spelled!r}")

    @classmethod
    def from_text(cls, text: str, source: str = "<string>") -> "ParserConfig":
        """Read ``key = value`` lines (``#`` starts a comment); every error
        starts with ``source:line:``.  Only ``type_raise`` may repeat."""
        kwargs: dict = {}
        seen: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            key, eq, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
            if not (key or eq):
                continue
            try:
                if not eq:
                    raise ValueError("expected 'key = value'")
                if key in seen and key != "type_raise":
                    raise ValueError(f"duplicate key {key!r}")
                seen.add(key)
                if key in ("max_composition_order", "max_cell_items"):
                    kwargs[key] = read_int(key, value)
                elif key == "strict_conjunction":
                    if value.lower() not in cls._FLAGS:
                        flags = "/".join(cls._FLAGS)
                        raise ValueError(f"{key} must be one of {flags}, found {value!r}")
                    kwargs[key] = cls._FLAGS[value.lower()]
                elif key == "goal":
                    kwargs[key] = value
                elif key == "combinators":
                    kwargs["enabled"] = frozenset(v.strip() for v in value.split(",") if v.strip())
                elif key == "type_raise":
                    none = value.lower() == "none"
                    # only a none line leaves the rules read so far empty
                    if "type_raising" in kwargs and (none or kwargs["type_raising"] == ()):
                        raise ValueError("type_raise = none must be the only type_raise line")
                    if none:
                        kwargs["type_raising"] = ()
                    else:
                        # e.g. "NP > S" raises NP forward to S/(S\NP)
                        m = value.replace(" ", "")
                        for direction, symbol in (("forward", ">"), ("backward", "<")):
                            if symbol in m:
                                src, tgt = m.split(symbol, 1)
                                break
                        else:
                            raise ValueError(
                                f"bad type_raise rule {value!r}: expected 'SOURCE > TARGET' or 'SOURCE < TARGET'"
                            )
                        if not (src and tgt):
                            side = "target" if src else "source"
                            raise ValueError(f"bad type_raise rule {value!r}: missing {side} category")
                        try:
                            rule = TypeRaisingRule(parse_category(src), parse_category(tgt), direction)
                        except ValueError as err:
                            raise ValueError(f"bad type_raise rule {value!r}: {err}") from None
                        kwargs["type_raising"] = (*kwargs.get("type_raising", ()), rule)
                else:
                    raise ValueError(f"unknown config key {key!r}")
                cls(**kwargs)  # the lines before passed, so a failure is this line's
            except ValueError as err:
                raise ValueError(f"{source}:{lineno}: {err}") from None
        return cls(**kwargs)


class _Chart:
    """Cells of items in insertion order, one item per (category, iso-class).

    Items are bucketed by span, category and, for a graph, its node and
    free-variable counts; other semantics are keyed by value.  A bucket that
    holds one item merges a new item only if it is ``==`` to it, as every
    merge of a spurious-ambiguity chain is, so no invariant is computed.
    The first unequal graph splits the bucket into sub-buckets by
    :func:`invariant`, and a new item is then compared for isomorphism only
    with the items of its own sub-bucket.
    """

    def __init__(self, config: ParserConfig):
        self.config = config
        self.cells: dict[tuple[int, int], list[_Item]] = {}
        self._buckets: dict[tuple, _Item | dict[tuple, list[_Item]]] = {}

    def add(self, span: tuple[int, int], item: _Item) -> bool:
        c, sem = item.constituent, item.constituent.semantics
        key = (span, c.category, len(sem.nodes), len(sem.fv)) if is_graph(sem) else (span, c.category, sem)
        bucket = self._buckets.setdefault(key, item)
        if bucket is not item:
            # uncontested: one item, which merges only an equal value (every
            # value of a non-graph bucket is equal, so it is never contested)
            if isinstance(bucket, _Item):
                if bucket.constituent.semantics == sem:
                    bucket.forest_count += item.forest_count
                    return False
                bucket = self._buckets[key] = {invariant(bucket.constituent.semantics): [bucket]}
            rivals = bucket.setdefault(invariant(sem), [])
            for existing in rivals:
                # equal graphs are isomorphic under the identity map
                if existing.constituent.semantics == sem or iso_equal(existing.constituent.semantics, sem):
                    existing.forest_count += item.forest_count
                    return False
            rivals.append(item)
        cell = self.cells.setdefault(span, [])
        cell.append(item)
        if len(cell) > self.config.max_cell_items:
            raise ChartOverflowError(
                f"chart cell {span} exceeded {self.config.max_cell_items} items"
            )
        return True


@lru_cache(maxsize=4096)
def _category_rules(lcat: Category, rcat: Category, max_order: int, enabled: frozenset[str] | None) -> tuple:
    """What the binary rules can do with two adjacent categories, for the
    chart and the goal pass alike: (direction, order, match) of every
    composition of order 0 (application) to ``max_order`` whose categories
    match, allowed in either spelling (the relation-wise choice depends on
    the graphs), forward before backward; whether '&' can attach ``lcat`` as a
    conjunction; the category of coordinating ``lcat`` with the conjunct
    pending in ``rcat``, or None; and the set of all their result categories."""
    matches = []
    for order in range(max_order + 1):
        for direction, fcat, acat in (("forward", lcat, rcat), ("backward", rcat, lcat)):
            match = match_categories(direction, order, fcat, acat)
            if match is not None and (enabled is None or any(
                RULE_NAMES[direction, order, match[1], rw] in enabled for rw in (False, True)
            )):
                matches.append((direction, order, match))
    conj = enabled is None or "&" in enabled
    attach = conj and isinstance(lcat, Atom) and lcat.base == "Conj"
    conjunct = pending_conjunct(rcat) if conj else None
    coordinated = None if conjunct is None else unify(lcat, conjunct)
    results = [cat for _, _, (cat, _) in matches] + [pending_category(rcat)] * attach + [coordinated]
    return tuple(matches), attach, coordinated, frozenset(results) - {None}


def _binary_candidates(
    left: Constituent, right: Constituent, config: ParserConfig, wanted=None
) -> list[Combined]:
    """Every enabled rule's outcome on two adjacent constituents; graph work
    runs only where ``_category_rules`` allows it and, given ``wanted``, an
    application, composition or coordination only for a result category in
    it.  Attaching a conjunction builds no graph, so it is tried for every
    pair and only a pending conjunction of a wanted category is kept."""
    matches, attach, coordinated, _ = _category_rules(
        left.category, right.category, config.max_composition_order, config.enabled
    )
    lpartial, rpartial = isinstance(left.semantics, ConjPartial), isinstance(right.semantics, ConjPartial)
    out: list[Combined] = []
    if not (lpartial or rpartial):
        for direction, order, match in matches:
            if wanted is not None and match[0] not in wanted:
                continue
            f, a = (left, right) if direction == "forward" else (right, left)
            try:
                out.append(combine_matched(direction, order, f, a, match))
            except CombinationError:
                pass
    if attach:
        try:
            attached = conj_attach(left, right)
        except CombinationError:
            pass
        else:
            if wanted is None or attached.constituent.category in wanted:
                out.append(attached)
    if rpartial and not lpartial and coordinated is not None and (wanted is None or coordinated in wanted):
        partial: ConjPartial = right.semantics
        try:
            out.append(coordinate(partial.conj, left, partial.right, config.strict_conjunction))
        except CombinationError:
            pass
    # the relation-wise spelling of a match is known only after its graph step
    return out if config.enabled is None else [o for o in out if o.rule in config.enabled]


def _raise_closure(chart: _Chart, span: tuple[int, int], raisings: tuple[TypeRaisingRule, ...]) -> None:
    changed = bool(raisings)
    while changed:
        changed = False
        for item in list(chart.cells.get(span, [])):
            if not is_graph(item.constituent.semantics):
                continue
            for rule in raisings:
                if unify(rule.source, item.constituent.category) is None:
                    continue
                outcome = type_raise(item.constituent, rule.target, rule.direction)
                new = _Item(outcome.constituent, outcome.rule, outcome.notes,
                            item.forest_count, (item,))
                if chart.add(span, new):
                    changed = True


def _goal_categories(
    tokens: list[str], lexicon: Lexicon, config: ParserConfig, raisings: tuple[TypeRaisingRule, ...]
) -> dict[tuple[int, int], frozenset[Category]]:
    """Per span, the categories on some category-level derivation of the goal
    over the whole sentence; empty if there is none.

    An inside pass over categories alone, then an outside pass down from the
    goal atoms at (0, n).  A graph step succeeds only where its categories
    match, so every chart item that can feed a result has its (span,
    category) here.  Category sets are int masks (a union is one OR); the
    tables live for one call and have int keys: ``rows`` per pair of
    categories, ``pairs`` per pair of cells, ``feeds`` per such pair and want.
    """
    n, rules = len(tokens), (config.max_composition_order, config.enabled)
    cats, up, bit = [], [], {}  # per bit: its category, what raising makes of it; category -> bit
    ids, members = {}, []  # span mask -> id -> the bits of the mask
    rows, pairs, feeds, sets, wanted = {}, {}, {}, {}, {}
    size = n * (n + 1) + 1  # more than the ids of all inside and wanted masks

    def mask(group) -> int:
        m = 0
        for cat in group:
            b = bit.get(cat)
            if b is None:
                b = bit[cat] = len(cats)
                cats.append(cat)
            m |= 1 << b
        return m

    def intern(m: int) -> int:
        ids[m], rest, out = len(members), m, []
        while rest:  # one lowest set bit at a time
            out.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        members.append(out)
        return ids[m]

    # span (i, j) has its id times size at cells[i][j], its id at cells[j][i], and what is wanted of it at wants[i][j]
    cells, wants = [[0] * (n + 1) for _ in range(n + 1)], [[0] * (n + 1) for _ in range(n + 1)]
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            m = 0 if width > 1 else mask([e.category for e in lexicon.lookup(tokens[i])])
            for left, right in zip(cells[i][i + 1:j], cells[j][i + 1:j]):
                union = pairs.get(left + right)
                if union is None:
                    union = 0
                    for bl in members[left // size]:
                        for br in members[right]:
                            key = (bl + br) * (bl + br + 1) // 2 + br  # Cantor pairing: one int per pair of bits
                            if key not in rows:
                                rows[key] = mask(_category_rules(cats[bl], cats[br], *rules)[-1])
                            union |= rows[key]
                    pairs[left + right] = union
                m |= union
            new = m if raisings else 0
            while new:  # type raising to a fixpoint
                for cat in cats[len(up):]:
                    up.append(mask(raised_category(cat, r.target, r.direction) for r in raisings
                                   if unify(r.source, cat) is not None))
                add, rest = 0, new
                while rest:
                    add |= up[(rest & -rest).bit_length() - 1]
                    rest &= rest - 1
                new, m = add & ~m, m | add
            cells[j][i] = ids[m] if m in ids else intern(m)
            cells[i][j] = cells[j][i] * size
    wants[0][n] = sum(1 << b for b in members[cells[n][0]]
                      if isinstance(cats[b], Atom) and cats[b].base == config.goal)
    shift = len(cats)  # a feed is the right child's wanted mask | the left child's << shift
    for width in range(n if wants[0][n] else 0, 0, -1):
        for i in range(n - width + 1):
            j = i + width
            want = wants[i][j] & (1 << shift) - 1  # as a right child it got whole feeds
            while raisings and (sources := sum(1 << b for b in members[cells[j][i]] if up[b] & want) & ~want):
                want |= sources  # a wanted raised category wants its source
            if not want:
                continue
            wid = ids[want] if want in ids else intern(want)
            wanted[i, j] = sets.get(wid) or sets.setdefault(wid, frozenset(map(cats.__getitem__, members[wid])))
            for split, left, right in zip(range(i + 1, j), cells[i][i + 1:j], cells[j][i + 1:j]):
                feed = feeds.get((left + right) * size + wid)
                if feed is None:
                    feed = 0
                    for bl in members[left // size]:
                        for br in members[right]:
                            if rows[(bl + br) * (bl + br + 1) // 2 + br] & want:
                                feed |= 1 << bl + shift | 1 << br
                    feeds[(left + right) * size + wid] = feed
                wants[i][split] |= feed >> shift
                wants[split][j] |= feed
    return wanted


def cky_parse(tokens: list[str], lexicon: Lexicon, config: ParserConfig | None = None) -> list[Derivation]:
    """All complete derivations over the goal category, one per iso-class."""
    config = config or ParserConfig()
    n = len(tokens)
    if n == 0:
        return []
    missing = [t for t in tokens if not lexicon.lookup(t)]
    if missing:
        raise UnknownTokenError(f"tokens not in lexicon: {', '.join(sorted(set(missing)))}")
    raisings = tuple(r for r in config.type_raising  # a whitelist must name each raise
                     if config.enabled is None or raise_rule_name(r.target, r.direction) in config.enabled)
    wanted = _goal_categories(tokens, lexicon, config, raisings)
    if not wanted:
        return []
    chart = _Chart(config)
    for i, token in enumerate(tokens):
        for entry in lexicon.lookup(token):
            c = Constituent(i, i + 1, entry.category, entry.semantics)
            chart.add((i, i + 1), _Item(c, entry.entry_id))
        _raise_closure(chart, (i, i + 1), raisings)
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            want = wanted.get((i, j), ())
            for split in range(i + 1, j):
                for litem in chart.cells.get((i, split), []):
                    for ritem in chart.cells.get((split, j), []):
                        for o in _binary_candidates(litem.constituent, ritem.constituent, config, want):
                            count = litem.forest_count * ritem.forest_count
                            new = _Item(o.constituent, o.rule, o.notes, count, (litem, ritem))
                            chart.add((i, j), new)
            _raise_closure(chart, (i, j), raisings)
    results: list[Derivation] = []
    for item in chart.cells.get((0, n), []):
        cat = item.constituent.category
        if isinstance(cat, Atom) and cat.base == config.goal and not finalize_check(item.constituent):
            results.append(_derivation(item))
    return results
