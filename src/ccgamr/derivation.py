"""Two execution modes over the combinators: scripted replay and CKY search.

Replay takes an s-expression derivation script, e.g.::

    (>R (leaf 0 what.1) (>RB (> (leaf 1 did.1) (leaf 2 you.1)) ...))

evaluates it bottom-up against a lexicon, and verifies at each step that
the combinator the engine selects (relation-wise or regular, crossed or not)
is the one the script names.  CKY search explores all enabled combinators over
a token sequence and returns complete derivations deduplicated by category and
semantics: two items of a cell merge when their semantics are equal, or are
isomorphic graphs.  Two equal graphs merge without an isomorphism search, the
isomorphism invariant is computed only for unequal graphs of one span,
category, node count and free-variable count, and two coordinations whose
conjuncts have no free variable are compared by their conjunct items
(``_Chart``).  Cells fill column by column, and the chart records where each
regular, uncrossed step of the current column landed: the graph step of a
spurious rebracketing ((A B) C) is skipped when those records show where
A (B C) landed (A and C graphs, one free variable on the primary
functor, the skipped step enabled, unshared and of that item's category: the
``GUARDED`` tests), and that item takes its forest count, so no count or
output changes.  What the binary rules can do with a pair of adjacent
categories comes from one bounded cache (``_category_rules``), which both
passes read.  A category-only pass on bit masks (``_goal_categories``, whose
tables each rule set keeps for the process) runs first, and an application,
composition or coordination does its graph step only when its result category
lies on some category-level derivation of the goal (words, raising and
attaching a conjunction are not gated).  Step names are read only through
``combinator.RULES`` and ``combinator.read_raise``.

Both modes record a derivation the same way: each node is the ``Combined``
its step returned, with back-pointers to the nodes it was built from.  A
``Derivation`` builds its script and steps from its root node the first time
either is read, and keeps them.  Trees are walked with an explicit stack, so
a script built through the API may be of any depth.  That chart and replay
agree is asserted in the tests (``tests/test_derivation.py``), not
re-checked at run time.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import attrgetter

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
    is_conjunction,
    is_graph,
    match_categories,
    pending_category,
    pending_conjunct,
    raise_rule_name,
    raised_category,
    read_raise,
    relation_wise_match,
    type_raise,
)
from .graph import UNDERSPECIFIED, has_cycle, invariant, iso_equal
from .graph import validate  # noqa: F401 (bench/tracing.py wraps it)
from .lexicon import LexEntry, Lexicon


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
_INT_RE = re.compile(r"[+-]?[0-9]+")  # what read_int accepts
_GOAL_TABLE_CAP = 4096  # entries a table of _goal_tables may hold when a goal pass starts
#: (direction, order) of each regular, uncrossed application or composition name
_UNCROSSED = {name: rule[:2] for name, rule in RULES.items() if not (rule[2] or rule[3])}
#: (name of A B's regular, uncrossed step, direction, order p of the step on C) -> names of that step,
#: of B C and of A (B C): ((A >q B) >p C) = A >(p+q-1) (B >p C), ((A <q B) <p C) = A <q (B <(p-q+1) C)
#: wherever a rule has each order; q = 0 forward or q > p needs a 3-slash category (tests/test_smallscope.py)
_REBRACKETINGS = {
    (name, direction, p): tuple(RULE_NAMES[direction, o, False, False] for o in orders)
    for name, (direction, q) in _UNCROSSED.items() for p in range(3)
    for orders in [(p, p, p + q - 1) if direction == "forward" else (p, p - q + 1, q)]
    if all((direction, o, False, False) in RULE_NAMES for o in orders)
}


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


def _script_children(node: ScriptNode) -> tuple[ScriptNode, ...]:
    if isinstance(node, Binary):
        return node.left, node.right
    return (node.child,) if isinstance(node, Unary) else ()


def _post_order(root, children) -> list[tuple]:
    """(node, path) of each node of the tree at ``root``, post-order, left
    child first; an explicit stack, so a deep tree never recurses."""
    order = []  # pre-order, right child first: the post-order reversed
    todo = [(root, ())]
    while todo:
        node, path = todo.pop()
        order.append((node, path))
        for i, kid in enumerate(children(node)):
            todo.append((kid, path + (i,)))
    order.reverse()
    return order


def format_script(node: ScriptNode) -> str:
    out: list[str] = []
    todo: list[ScriptNode | str] = [node]  # what is left to write, last first
    while todo:
        n = todo.pop()
        if n.__class__ is str:
            out.append(n)
        elif isinstance(n, Leaf):
            out.append(f"(leaf {n.token_index} {n.entry_id})")
        else:
            out.append(f"({n.name} ")
            todo += [")", n.child] if isinstance(n, Unary) else [")", n.right, " ", n.left]
    return "".join(out)


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
        # a derivation holds its root node until its script and steps are set;
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


def _built(item: Combined) -> tuple[ScriptNode, list[Step]]:
    """The node's script and its steps, read off the back-pointers:
    post-order, left child first."""
    steps: list[Step] = []
    done: list[ScriptNode] = []  # scripts of the finished subtrees
    for it, path in _post_order(item, attrgetter("children")):
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


def _derivation(item: Combined) -> Derivation:
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
        if is_conjunction(left.category):
            return conj_attach(left, right)
        if isinstance(right.semantics, ConjPartial):
            partial: ConjPartial = right.semantics
            return coordinate(partial.conj, left, partial.right)
        raise CombinationError("'&' needs a Conj word or a pending conjunction on the right")
    raise CombinationError(f"unknown combinator name {name!r}")


def _explain_variant_mismatch(scripted: str, outcome: Combined) -> str:
    got = outcome.rule
    lines = [f"script names {scripted!r} but the engine derives {got!r}"]
    relation_wise = (RULES[scripted][3], RULES[got][3]) if scripted in RULES else None  # '&' or a raise
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
    done: list[Combined] = []  # nodes of the finished subtrees
    for node, path in _post_order(script, _script_children):
        if isinstance(node, Leaf):
            try:
                entry = lexicon.entry(node.entry_id)
            except KeyError as err:
                raise ReplayError(path, err.args[0]) from err
            c = Constituent(node.token_index, node.token_index + 1, entry.category, entry.semantics)
            done.append(Combined(c, node.entry_id))
            continue
        if isinstance(node, Unary):
            children = (done.pop(),)
            raising = read_raise(node.name)
            if raising is None:
                raise ReplayError(path, f"unknown unary combinator {node.name!r}")
            direction, target = raising
            try:
                outcome = type_raise(children[0].constituent, parse_category(target), direction)
            except (CombinationError, ValueError) as err:
                raise ReplayError(path, str(err)) from err
        else:
            right = done.pop()
            children = (done.pop(), right)
            try:
                outcome = _binary_outcome(node.name, children[0].constituent, right.constituent)
            except CombinationError as err:
                raise ReplayError(path, f"{node.name!r} failed: {err}") from err
        if outcome.rule != node.name:
            raise ReplayError(path, _explain_variant_mismatch(node.name, outcome))
        outcome.children = children
        done.append(outcome)
    return _derivation(done[0])


def finalize_check(c: Constituent) -> list[str]:
    """Violations that keep a constituent the engine built from completing a
    sentence: a pending step, an unfilled variable, an unresolved ``:?`` edge
    or a directed cycle, the one graph defect a step (coordination) can make.
    Every graph the engine builds is connected, so one with fewer edges than
    nodes is a tree, and only the others are sorted."""
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
    if len(sem.edges) >= len(sem.nodes) and has_cycle(sem):
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
        if not isinstance(self.source, Atom):  # its graph has a free variable, and the raise adds one
            raise ValueError(f"type raising needs an atomic source, found {format_category(self.source)}")


#: The one raising rule the fixtures ever need: NP to S/(S\NP).
NP_TO_S = (TypeRaisingRule(Atom("NP"), Atom("S"), "forward"),)


def read_int(name: str, value: str) -> int:
    """``value`` as an integer setting: an optional sign and ASCII digits,
    else a ``ValueError`` that names the setting."""
    if not _INT_RE.fullmatch(value):
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
    with the items of its own sub-bucket (``_isomorphic``).

    Cells fill column by column, and ``landings`` maps each regular,
    uncrossed step of the current column, by the ids of its two operands and
    its name, to the item it landed in; under the guards it names,
    ``rebracketed`` skips a rebracketing ((A B) C) that those records show
    merges into the item A (B C) landed in, which takes its forest count.
    Each key holds the ids of chart items, which live as long as the chart,
    and no item refers to the chart or to an item built from it, so a parse
    leaves no reference cycles.
    """

    def __init__(self, config: ParserConfig):
        self.config = config
        self.cells: dict[tuple[int, int], list[Combined]] = {}
        self._buckets: dict[tuple, Combined | dict[tuple, list[Combined]]] = {}
        self.landings: dict[tuple[int, int, str], Combined] = {}

    def add(self, item: Combined) -> Combined:
        """``item`` if the cell keeps it, else the item it merged into."""
        c, sem = item.constituent, item.constituent.semantics
        span = (c.start, c.end)
        key = (span, c.category, len(sem.nodes), len(sem.fv)) if is_graph(sem) else (span, c.category, sem)
        bucket = self._buckets.setdefault(key, item)
        if bucket is not item:
            # uncontested: one item, which merges only an equal value (every
            # value of a non-graph bucket is equal, so it is never contested)
            if isinstance(bucket, Combined):
                if bucket.constituent.semantics == sem:
                    bucket.forest_count += item.forest_count
                    return bucket
                bucket = self._buckets[key] = {invariant(bucket.constituent.semantics): [bucket]}
            rivals = bucket.setdefault(invariant(sem), [])
            for existing in rivals:
                # equal graphs are isomorphic under the identity map
                if existing.constituent.semantics == sem or _isomorphic(existing, item):
                    existing.forest_count += item.forest_count
                    return existing
            rivals.append(item)
        cell = self.cells.setdefault(span, [])
        cell.append(item)
        if len(cell) > self.config.max_cell_items:
            raise ChartOverflowError(
                f"chart cell {span} exceeded {self.config.max_cell_items} items"
            )
        return item

    def rebracketed(self, left: Combined, right: Combined, direction: str, order: int, match) -> bool:
        """Whether the step of ``direction`` and ``order`` on ``left`` (built
        as A B) and ``right`` (C), of category ``match``, lands in the item X
        that A (B C) landed in, as ``landings`` shows for this column; if so, X
        takes the pair's forest count and is recorded as its landing, and no
        graph is built (Eisner 1996; Hockenmaier & Bisk 2010).  Each guard has
        a ``GUARDED`` row: A and C are graphs, the primary functor (C backward,
        A forward) has one free variable, the step is enabled and shares no
        edge, and X has its category.  ``tests/test_smallscope.py`` checks the
        rest on every small input: the graphs are then isomorphic."""
        names = _REBRACKETINGS.get((left.rule, direction, order))
        if names is None:  # a crossed step finds no uncrossed landings (tests/test_smallscope.py)
            return False
        (a, b), forward, (step, inner_step, outer_step) = left.children, direction == "forward", names
        if not (is_graph(a.constituent.semantics) and is_graph(right.constituent.semantics)):  # B may be IDENTITY
            return False
        primary, enabled = (a if forward else right).constituent.semantics, self.config.enabled
        if len(primary.fv) != 1 or not (enabled is None or step in enabled):
            return False  # the bracketings could differ, or the step's result would be dropped
        landings = self.landings
        inner = landings.get((id(b), id(right), inner_step))
        x = inner and landings.get((id(a), id(inner), outer_step))
        f, g = (left, right) if forward else (right, left)
        if not x or x.constituent.category != match[0] or relation_wise_match(
            f.constituent.semantics, g.constituent.semantics, order + 1
        ):
            return False
        x.forest_count += left.forest_count * right.forest_count
        landings[id(left), id(right), step] = x
        return True


def _isomorphic(a: Combined, b: Combined) -> bool:
    """Whether two chart items of one bucket have isomorphic graphs.

    Two coordinations whose conjuncts have no free variable are decided by
    their conjunct items, as Aho, Hopcroft & Ullman (1974) decide rooted
    trees by their children's classes: nothing folds, so each root has only
    its ``:op1`` and ``:op2`` out-edges and no in-edge, and its conjuncts
    are connected and disjoint.  So an isomorphism maps each conjunct onto
    its partner, and isomorphisms of the conjuncts join into one.  Conjunct
    items of one span and category are isomorphic only if they are one
    object: the chart keeps one item per class there.  Any other pair is
    searched whole."""
    ga, gb = a.constituent.semantics, b.constituent.semantics
    # a word's entry id may read "&", but a word has no children
    if not (a.rule == b.rule == "&" and a.children and b.children
            and not a.children[0].constituent.semantics.fv and not b.children[0].constituent.semantics.fv):
        return iso_equal(ga, gb)
    if ga.nodes[ga.root].concept != gb.nodes[gb.root].concept:
        return False
    for x, y in ((a.children[0], b.children[0]), (a.children[1].children[1], b.children[1].children[1])):
        cx, cy = x.constituent, y.constituent
        if x is not y and ((cx.start, cx.end, cx.category) == (cy.start, cy.end, cy.category)
                           or not iso_equal(cx.semantics, cy.semantics)):
            return False
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
    attach = conj and is_conjunction(lcat)
    conjunct = pending_conjunct(rcat) if conj else None
    coordinated = None if conjunct is None else unify(lcat, conjunct)
    results = [cat for _, _, (cat, _) in matches] + [pending_category(rcat)] * attach + [coordinated]
    return tuple(matches), attach, coordinated, frozenset(results) - {None}


def _binary_candidates(
    litem: Combined, ritem: Combined, config: ParserConfig, wanted, chart: _Chart | None = None
) -> list[Combined]:
    """Every enabled rule's outcome on two adjacent chart items; graph work
    runs only where ``_category_rules`` allows it and, for an application,
    composition or coordination, only for a result category in ``wanted``
    and, given the ``chart``, not for a step that the landings recorded in
    this column show ``rebracketed``.
    Attaching a conjunction builds no graph, so it is tried for every pair
    and only a pending conjunction of a wanted category is kept."""
    left, right = litem.constituent, ritem.constituent
    matches, attach, coordinated, _ = _category_rules(
        left.category, right.category, config.max_composition_order, config.enabled
    )
    lpartial, rpartial = isinstance(left.semantics, ConjPartial), isinstance(right.semantics, ConjPartial)
    out: list[Combined] = []
    if not (lpartial or rpartial):
        for direction, order, match in matches:
            if match[0] not in wanted:
                continue
            if chart is not None and chart.rebracketed(litem, ritem, direction, order, match):
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
            if attached.constituent.category in wanted:
                out.append(attached)
    if rpartial and not lpartial and coordinated is not None and coordinated in wanted:
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
                outcome.forest_count, outcome.children = item.forest_count, (item,)
                if chart.add(outcome) is outcome:
                    changed = True


def _is_goal(category: Category, goal: str) -> bool:
    """Whether ``category`` completes a derivation: an atom of base ``goal``,
    with any feature."""
    return isinstance(category, Atom) and category.base == goal


@lru_cache(maxsize=8)
def _goal_tables(max_order: int, enabled: frozenset[str] | None, raisings: tuple) -> tuple:
    """One rule set's goal-pass tables: lock, cats, up, bit, rows, pairs, feeds, sets, members."""
    return threading.Lock(), [], [], {}, {}, {}, {}, {}, {}


def _goal_categories(
    entries: list[list[LexEntry]], config: ParserConfig, raisings: tuple[TypeRaisingRule, ...]
) -> dict[tuple[int, int], frozenset[Category]]:
    """Per span, the categories on some category-level derivation of the goal
    over the whole sentence (each token's lexical ``entries``); empty if none.

    An inside pass over categories alone, then an outside pass down from the
    goal atoms at (0, n).  A graph step succeeds only where its categories
    match, so every chart item that can feed a result has its (span,
    category) here.  Category sets are int masks (a union is one OR).  No
    table depends on the sentence, so each rule set keeps its tables for the
    process (``_goal_tables``): each category's bit and raising mask,
    ``rows`` per pair of bits, ``pairs`` per pair of masks, ``feeds`` per
    pair and want, and each mask's bits and frozenset.  A pass holds their
    lock, and first clears them all if one is over ``_GOAL_TABLE_CAP``.
    """
    n, rules = len(entries), (config.max_composition_order, config.enabled)
    lock, cats, up, bit, rows, pairs, feeds, sets, members = tables = _goal_tables(*rules, raisings)
    with lock:  # never cleared mid-pass: a category keeps its bit while masks use it
        if max(map(len, tables[1:])) > _GOAL_TABLE_CAP:
            for table in tables[1:]:
                table.clear()

        def mask(group) -> int:
            m = 0
            for cat in group:
                b = bit.get(cat)
                if b is None:
                    b = bit[cat] = len(cats)
                    cats.append(cat)
                m |= 1 << b
            return m

        def bits(m: int) -> list[int]:
            out = members.get(m)
            if out is None:
                out, rest = [], m
                while rest:  # one lowest set bit at a time
                    out.append((rest & -rest).bit_length() - 1)
                    rest &= rest - 1
                members[m] = out  # stored whole, so a pass cut short leaves no partial list
            return out

        # span (i, j) has its mask at cells[i][j] and at cells[j][i], and what is wanted of it at wants[i][j]
        cells, wants, wanted = [[0] * (n + 1) for _ in range(n + 1)], [[0] * (n + 1) for _ in range(n + 1)], {}
        for width in range(1, n + 1):
            for i in range(n - width + 1):
                j = i + width
                m = 0 if width > 1 else mask([e.category for e in entries[i]])
                for left, right in zip(cells[i][i + 1:j], cells[j][i + 1:j]):
                    union = pairs.get((left, right))
                    if union is None:
                        union = 0
                        for bl in bits(left):
                            for br in bits(right):
                                key = (bl + br) * (bl + br + 1) // 2 + br  # Cantor pairing: one int per pair of bits
                                if key not in rows:
                                    rows[key] = mask(_category_rules(cats[bl], cats[br], *rules)[-1])
                                union |= rows[key]
                        pairs[left, right] = union
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
                cells[j][i] = m
                cells[i][j] = m
        wants[0][n] = sum(1 << b for b in bits(cells[0][n]) if _is_goal(cats[b], config.goal))
        for width in range(n if wants[0][n] else 0, 0, -1):
            for i in range(n - width + 1):
                j = i + width
                want = wants[i][j]
                while raisings and (sources := sum(1 << b for b in bits(cells[i][j]) if up[b] & want) & ~want):
                    want |= sources  # a wanted raised category wants its source
                if not want:
                    continue
                wanted[i, j] = sets.get(want) or sets.setdefault(want, frozenset(map(cats.__getitem__, bits(want))))
                for split, left, right in zip(range(i + 1, j), cells[i][i + 1:j], cells[j][i + 1:j]):
                    feed = feeds.get((left, right, want))
                    if feed is None:
                        lfeed = rfeed = 0
                        for bl in bits(left):
                            for br in bits(right):
                                if rows[(bl + br) * (bl + br + 1) // 2 + br] & want:
                                    lfeed, rfeed = lfeed | 1 << bl, rfeed | 1 << br
                        feed = feeds[left, right, want] = lfeed, rfeed
                    wants[i][split] |= feed[0]
                    wants[split][j] |= feed[1]
    return wanted


def cky_parse(tokens: list[str], lexicon: Lexicon, config: ParserConfig | None = None) -> list[Derivation]:
    """All complete derivations over the goal category, one per iso-class."""
    config = config or ParserConfig()
    n = len(tokens)
    if n == 0:
        return []
    entries = [lexicon.lookup(t) for t in tokens]
    missing = [t for t, found in zip(tokens, entries) if not found]
    if missing:
        raise UnknownTokenError(f"tokens not in lexicon: {', '.join(sorted(set(missing)))}")
    raisings = tuple(r for r in config.type_raising  # a whitelist must name each raise
                     if config.enabled is None or raise_rule_name(r.target, r.direction) in config.enabled)
    wanted = _goal_categories(entries, config, raisings)
    if not wanted:
        return []
    chart = _Chart(config)
    for i, found in enumerate(entries):
        for entry in found:
            chart.add(Combined(Constituent(i, i + 1, entry.category, entry.semantics), entry.entry_id))
        _raise_closure(chart, (i, i + 1), raisings)
    landings = chart.landings
    for j in range(2, n + 1):  # column by column: a rebracketing reads only landings in its own column
        landings.clear()
        for i in range(j - 2, -1, -1):
            want = wanted.get((i, j), ())
            for split in range(i + 1, j):
                for litem in chart.cells.get((i, split), []):
                    # only an item a regular, uncrossed step built can start a rebracketing
                    witness = chart if litem.children and litem.rule in _UNCROSSED else None
                    for ritem in chart.cells.get((split, j), []):
                        for o in _binary_candidates(litem, ritem, config, want, witness):
                            o.forest_count, o.children = litem.forest_count * ritem.forest_count, (litem, ritem)
                            x = chart.add(o)
                            if o.rule in _UNCROSSED:
                                landings[id(litem), id(ritem), o.rule] = x
            _raise_closure(chart, (i, j), raisings)
    return [_derivation(item) for item in chart.cells.get((0, n), [])
            if _is_goal(item.constituent.category, config.goal) and not finalize_check(item.constituent)]
