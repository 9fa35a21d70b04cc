"""Combination rules over constituents: application, composition (plain,
crossed, second order), their relation-wise variants, type raising, identity
shortcuts, and conjunction; and the functional-isomorphism check that pairs a
category with its semantics (``check_iso_principle``).

Application is composition of order 0.  Category matching
(``match_categories``) runs before any graph work (``combine_matched``).
Each rule returns a ``Combined``: the chart and replay keep it as a node.

Variant selection is automatic, and nothing overrides it: a relation-wise
combination fires if and only if the two graphs share an edge (same concrete
label, or an underspecified label on the function side) carrying the
function's first free variable and the argument's k-th free variable, where
k = order + 1, and the edge's endpoints unify; otherwise the regular variant
applies.  When several edge pairs qualify, the first by edge-insertion order
wins and the outcome carries a note.  The endpoints of the shared edge unify
side by side: source with source, target with target.

Free-variable ordering of a result is positional.  Regular application keeps
the function's remaining variables first, regular composition the argument's;
the relation-wise variants drop the argument's designated variable and keep
a variable merged across the shared edge in its earliest surviving slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .category import (
    Atom,
    BACKWARD,
    Category,
    FORWARD,
    Functor,
    arity,
    format_category,
    unify,
)
from .graph import (
    UNDERSPECIFIED,
    AmrSubgraph,
    Edge,
    UnificationError,
    Workspace,
    conjoined,
    raised,
    substitute,
)


class CombinationError(Exception):
    pass


class Identity:
    """Semantics of words that shape syntax but add no graph material."""

    def __repr__(self) -> str:
        return "ID"


IDENTITY = Identity()


@dataclass(frozen=True, slots=True)
class Constituent:
    start: int
    end: int
    category: Category
    semantics: object  # AmrSubgraph | Identity | ConjPartial


@dataclass(frozen=True)
class ConjPartial:
    """Conjunction word paired with the right conjunct, awaiting the left."""

    conj: Constituent
    right: Constituent


@dataclass(frozen=True)
class SharedEdgeMatch:
    f_edge_pos: int  # index into the function's edge tuple
    a_edge_pos: int  # index into the argument's edge tuple
    f_side: str  # 'source' or 'target': where the function's fv[1] sits
    label: str  # resolved concrete label
    ambiguous: bool = False


@dataclass(slots=True)
class Combined:
    """One derivation node: a step's result, rule (a word's entry id) and
    notes.  The chart and replay set its forest count and the nodes it was
    built from: none for a word, one for a raise, two for a binary step.
    The chart records in ``_landings`` where its steps as a left operand landed."""

    constituent: Constituent
    rule: str
    notes: tuple[str, ...] = ()
    forest_count: int = field(default=1, compare=False, repr=False)
    children: tuple[Combined, ...] = field(default=(), compare=False, repr=False)
    _landings: tuple = field(default=(), init=False, compare=False, repr=False)


def is_graph(sem: object) -> bool:
    return isinstance(sem, AmrSubgraph)


def relation_wise_match(f: AmrSubgraph, a: AmrSubgraph, k: int) -> SharedEdgeMatch | None:
    """Shared-edge candidate for a relation-wise combination, if any.

    The function's first free variable must lie on the function edge and the
    argument's k-th free variable on the argument edge.  The argument-side
    label must be concrete; the function side may be underspecified.  The
    argument edge must join two distinct nodes: its ends fold into the
    function edge's, so a self-loop would fold those into one.

    The argument's candidate edges are collected once, before the function's
    edges are scanned, and the scan stops at the second qualifying pair.
    """
    if not f.fv or len(a.fv) < k:
        return None
    f1, ak = f.fv[0], a.fv[k - 1]
    edges = a.edges
    candidates = [j for j, ae in enumerate(edges)
                  if ak in (ae.source, ae.target) and ae.source != ae.target and ae.label != UNDERSPECIFIED]
    if not candidates:
        return None
    first = None
    for i, fe in enumerate(f.edges):
        if f1 in (fe.source, fe.target):
            for j in candidates:
                if fe.label == UNDERSPECIFIED or fe.label == edges[j].label:
                    if first:
                        return SharedEdgeMatch(*first, ambiguous=True)
                    first = (i, j, "source" if fe.source == f1 else "target", edges[j].label)
    return first and SharedEdgeMatch(*first)


def relation_wise_combine(
    f: AmrSubgraph,
    a: AmrSubgraph,
    match: SharedEdgeMatch,
    order: int,
) -> AmrSubgraph:
    """Append the argument to the function and identify the shared edge.

    Source unifies with source and target with target (the argument's
    endpoints fold into the function's), so material hanging off either
    copy of the edge is preserved; the function's copy takes the resolved
    label and the argument's, now a repeat, collapses into it.  The result
    keeps the function's root unless the function is rooted at its own
    first free variable and that variable lands somewhere other than the
    argument's root, in which case the argument's root wins.
    """
    fe, ae = f.edges[match.f_edge_pos], a.edges[match.a_edge_pos]
    ws = Workspace()
    ws.add(f)
    s, t = fe.source, fe.target
    amap = ws.add(a, {ae.source: s, ae.target: t})
    if fe.label != match.label:  # an underspecified edge takes the resolved label
        ws.edges[match.f_edge_pos] = Edge(s, match.label, t)
    partner = ae.source if match.f_side == "source" else ae.target
    root = amap[a.root] if f.root == f.fv[0] and partner != a.root else f.root
    a_rest = [amap[x] for i, x in enumerate(a.fv) if i != order]
    return ws.freeze(root, [*a_rest, *f.fv] if order else [*f.fv, *a_rest])


def check_iso_principle(cat: Category, semantics: object) -> list[str]:
    """Functional-isomorphism violations for a category/semantics pairing.

    Identity semantics is always acceptable.  For graph semantics the number
    of free variables may not exceed the category's arity, a functor category
    needs at least one semantic argument, and an atomic category allows none.
    """
    if not isinstance(semantics, AmrSubgraph):
        return []
    n = len(semantics.fv)
    a = arity(cat)
    problems = []
    if n > a:
        problems.append(f"{n} free variables exceed arity {a} of {format_category(cat)}")
    if a >= 1 and n == 0:
        problems.append(f"functor category {format_category(cat)} needs at least one free variable")
    if a == 0 and n > 0:
        problems.append(f"atomic category {format_category(cat)} allows no free variables")
    return problems


def _check_result(category: Category, semantics: object) -> None:
    problems = check_iso_principle(category, semantics)
    if problems:
        raise CombinationError(
            "result breaks the functional-isomorphism principle: " + "; ".join(problems)
        )


def _reject_partial(*constituents: Constituent) -> None:
    for c in constituents:
        if isinstance(c.semantics, ConjPartial):
            raise CombinationError("a pending conjunction cannot be combined this way")


def check_direction(direction: str) -> None:
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', found {direction!r}")


#: Each application (order 0) or composition step name, e.g. '>', '<RB',
#: '>B2x', with its (direction, order, crossed, relation-wise).  Only a
#: composition can be crossed.
RULES = {
    sign + "R" * rw + ("", "B", "B2")[order] + "x" * crossed: (direction, order, crossed, rw)
    for direction, sign in (("forward", ">"), ("backward", "<"))
    for order in (0, 1, 2) for crossed in (False, True)[: order + 1] for rw in (False, True)
}
RULE_NAMES = {rule: name for name, rule in RULES.items()}
_RAISE_NAME = re.compile(r"([><])T\[(.+)\]")


def raise_rule_name(target: Category, direction: str) -> str:
    """The name of a type raise to ``target``, e.g. '>T[S]'."""
    return f"{'>' if direction == 'forward' else '<'}T[{format_category(target)}]"


def read_raise(name: str) -> tuple[str, str] | None:
    """(direction, target text) of a type raise name, e.g. ('forward', 'S')
    for '>T[S]'; None for any other name."""
    m = _RAISE_NAME.fullmatch(name)
    return m and ("forward" if m[1] == ">" else "backward", m[2])


def raised_category(category: Category, target: Category, direction: str) -> Functor:
    """T/(T\\X) (forward) or T\\(T/X) (backward) for X = ``category``."""
    if direction == "forward":
        return Functor(target, FORWARD, Functor(target, BACKWARD, category))
    return Functor(target, BACKWARD, Functor(target, FORWARD, category))


def is_conjunction(category: Category) -> bool:
    """Whether ``category`` is a conjunction word's: Conj, with any feature."""
    return isinstance(category, Atom) and category.base == "Conj"


def pending_category(conjunct: Category) -> Functor:
    """X\\X: the category of a conjunction paired with a right conjunct X."""
    return Functor(conjunct, BACKWARD, conjunct)


def pending_conjunct(category: Category) -> Category | None:
    """X if ``category`` is X\\X, the shape ``pending_category`` gives; else
    None."""
    if isinstance(category, Functor) and category.slash == BACKWARD and category.result == category.argument:
        return category.argument
    return None


def match_categories(
    direction: str, order: int, fcat: Category, acat: Category
) -> tuple[Category, bool] | None:
    """(result category, crossed) of an order-``order`` composition (order 0
    is application), or None: ``fcat``'s argument must unify with ``acat``
    after ``order`` arguments are peeled off its result spine."""
    own = FORWARD if direction == "forward" else BACKWARD
    if not isinstance(fcat, Functor) or fcat.slash != own:
        return None
    peeled: list[Functor] = []
    inner = acat
    for _ in range(order):
        if not isinstance(inner, Functor):
            return None
        peeled.append(inner)
        inner = inner.result
    unified = unify(fcat.argument, inner)
    if unified is None:
        return None
    # X|X modifiers pass resolved features through to the result
    result: Category = unified if fcat.result == fcat.argument else fcat.result
    for arg in reversed(peeled):
        result = Functor(result, arg.slash, arg.argument)
    return result, any(arg.slash != own for arg in peeled)


def combine_matched(
    direction: str,
    order: int,
    function: Constituent,
    argument: Constituent,
    match: tuple[Category, bool],
) -> Combined:
    """Graph step for adjacent, non-pending constituents whose categories
    match: the identity shortcut, else the relation-wise variant when a shared
    edge unifies, else regular substitution.  Both graph builders return the
    finished graph; the choice between them, and every note on it, is made
    here."""
    result_cat, crossed = match
    left, right = (function, argument) if direction == "forward" else (argument, function)
    relation_wise = False
    f, a = function.semantics, argument.semantics
    notes: tuple[str, ...] = ()
    graph = None
    if isinstance(f, Identity) or isinstance(a, Identity):
        graph = a if isinstance(f, Identity) else f
    else:
        shared = relation_wise_match(f, a, order + 1)
        if shared is not None:
            try:
                graph = relation_wise_combine(f, a, shared, order)
            except UnificationError as err:
                notes = (f"shared-edge unification failed ({err}); fell back to the regular variant",)
            else:
                relation_wise = True
                if shared.ambiguous:
                    notes = (f"several shared-edge candidates for {shared.label}; picked first by insertion order",)
    if graph is None:
        if not f.fv:
            raise CombinationError("function semantics has no free variable to fill")
        if a.root in a.fv:
            notes += ("argument is rooted at a free variable; the merged variable keeps the argument's slot",)
        graph = substitute(f, a, order)
    _check_result(result_cat, graph)
    rule = RULE_NAMES[direction, order, crossed, relation_wise]
    return Combined(Constituent(left.start, right.end, result_cat, graph), rule, notes)


def _combine(
    direction: str, order: int, function: Constituent, argument: Constituent
) -> Combined:
    check_direction(direction)
    _reject_partial(function, argument)
    left, right = (function, argument) if direction == "forward" else (argument, function)
    if left.end != right.start:
        raise CombinationError(
            f"constituents are not adjacent: ({left.start},{left.end}) + ({right.start},{right.end})"
        )
    match = match_categories(direction, order, function.category, argument.category)
    if match is None:
        rule = "application" if order == 0 else f"order-{order} composition"
        raise CombinationError(
            f"no {direction} {rule} of {format_category(function.category)}"
            f" with {format_category(argument.category)}"
        )
    return combine_matched(direction, order, function, argument, match)


def combine_application(direction: str, function: Constituent, argument: Constituent) -> Combined:
    """Function application, relation-wise when a shared edge exists."""
    return _combine(direction, 0, function, argument)


def combine_composition(
    direction: str, order: int, function: Constituent, argument: Constituent
) -> Combined:
    """Function composition of the given order, relation-wise when shared;
    whether it is crossed follows from the argument's peeled slashes."""
    if order not in (1, 2):
        raise CombinationError(f"composition order must be 1 or 2, found {order}")
    return _combine(direction, order, function, argument)


def type_raise(c: Constituent, target: Category, direction: str) -> Combined:
    """Raise X to T/(T\\X) (forward) or T\\(T/X) (backward).

    The new semantics is a fresh free variable with an underspecified edge to
    the old root; the variable goes first in the fv order and the edge label
    is fixed by a later relation-wise combination.
    """
    check_direction(direction)
    if not is_graph(c.semantics):
        raise CombinationError("only graph semantics can be type-raised")
    cat = raised_category(c.category, target, direction)
    rule = raise_rule_name(target, direction)
    return Combined(Constituent(c.start, c.end, cat, raised(c.semantics)), rule)


def _conj_concept_graph(conj: Constituent) -> AmrSubgraph:
    if not is_conjunction(conj.category):
        raise CombinationError("the conjunction word must have category Conj")
    sem = conj.semantics
    if not is_graph(sem) or len(sem.nodes) != 1 or sem.edges or sem.fv:
        raise CombinationError("a conjunction word needs a single-concept semantics")
    return sem


def conj_attach(conj: Constituent, right: Constituent) -> Combined:
    """Pair a conjunction with its right conjunct; semantics stays pending."""
    _conj_concept_graph(conj)
    if isinstance(right.semantics, Identity):
        raise CombinationError("identity semantics cannot be a conjunct")
    _reject_partial(right)
    if conj.end != right.start:
        raise CombinationError("conjunction and right conjunct are not adjacent")
    cat = pending_category(right.category)
    return Combined(
        Constituent(conj.start, right.end, cat, ConjPartial(conj, right)), "&"
    )


def coordinate(
    conj: Constituent,
    left: Constituent,
    right: Constituent,
    strict: bool = False,
) -> Combined:
    """Join two like-category conjuncts under a fresh conjunction root.

    The conjunct roots become :op1 and :op2 children and free variables merge
    pairwise by position, so both conjuncts end up sharing their open slots.
    ``strict`` enforces at most one free variable per conjunct.
    """
    concept = _conj_concept_graph(conj)
    for side, c in (("left", left), ("right", right)):
        if isinstance(c.semantics, Identity):
            raise CombinationError(f"identity semantics cannot be the {side} conjunct")
        _reject_partial(c)
    if left.end != conj.start:
        raise CombinationError("left conjunct and conjunction are not adjacent")
    cat = unify(left.category, right.category)
    if cat is None:
        raise CombinationError(
            f"conjunct categories do not unify: {format_category(left.category)}"
            f" vs {format_category(right.category)}"
        )
    lsem: AmrSubgraph = left.semantics
    rsem: AmrSubgraph = right.semantics
    if len(lsem.fv) != len(rsem.fv):
        raise CombinationError(
            f"conjuncts expose {len(lsem.fv)} vs {len(rsem.fv)} free variables"
        )
    if strict and len(lsem.fv) > 1:
        raise CombinationError("strict conjunction allows at most one free variable per conjunct")
    graph = conjoined(concept, lsem, rsem)
    _check_result(cat, graph)
    return Combined(Constituent(left.start, right.end, cat, graph), "&")
