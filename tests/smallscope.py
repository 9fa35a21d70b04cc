"""Exhaustive small-scope enumerators: every value up to a bound, not a
random sample (SmallCheck: Runciman, Naylor & Lindblad, 2008; the
small-scope hypothesis: Jackson, *Software Abstractions*, 2006).

Standard library only.  ``graphs`` lists every graph :func:`validate`
accepts within a node bound and ``categories`` every category within a
slash bound; ``category_law`` and ``rebracketing_law`` run the engine's own
``match_categories``, ``combine_matched`` and ``_Chart.rebracketed`` over
them, and ``homomorphism_law`` runs its graph builders.  Tier-1 runs the
laws at 2 nodes; ``SMALLSCOPE_NODES=3`` in the environment turns on the
3-node tier (``NODES``).
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import permutations, product

from ccgamr.category import BACKWARD, FORWARD, Atom, Category, Functor, arity
from ccgamr.combinator import (
    IDENTITY, CombinationError, Combined, Constituent, RULES, combine_matched, match_categories,
    relation_wise_combine, relation_wise_match,
)
from ccgamr.derivation import _REBRACKETINGS, ParserConfig, _Chart
from ccgamr.graph import (
    UNDERSPECIFIED, AmrSubgraph, Edge, Node, UnificationError, conjoined, iso_equal, raised, substitute, validate,
)

#: The largest node bound the laws run at: 3 with SMALLSCOPE_NODES=3, else 2.
NODES = 3 if os.environ.get("SMALLSCOPE_NODES") == "3" else 2
CONCEPTS = ("a", "b")
LABELS = (":ARG0", ":mod", UNDERSPECIFIED)
#: Two bases, one also with a feature: a modifier passes the feature on, a
#: non-modifier may drop it.
ATOMS = (Atom("S"), Atom("S", "dcl"), Atom("NP"))


def graphs(max_nodes: int, labels=LABELS) -> list[AmrSubgraph]:
    """Every graph :func:`validate` accepts with 1 to ``max_nodes`` nodes:
    each node's concept one of ``CONCEPTS`` or free, a spanning tree from the
    root, node 0 (node i hangs off an earlier node), then at most one more
    edge, and every order of the free variables.  With ``LABELS``: 3, 93
    and 6,591 graphs for 1, 2 and 3 nodes."""
    out = []
    for n in range(1, max_nodes + 1):
        trees = [()]
        for i in range(1, n):
            trees = [t + (Edge(parent, label, i),) for t in trees for parent in range(i) for label in labels]
        extras = [None] + [Edge(s, label, t) for s in range(n) for t in range(n) if s != t for label in labels]
        for tree, extra in product(trees, extras):
            if extra in tree:
                continue
            edges = tree + (extra,) if extra else tree
            for concepts in product((*CONCEPTS, None), repeat=n):
                nodes = tuple(Node(i, c) for i, c in enumerate(concepts))
                for fv in permutations([i for i, c in enumerate(concepts) if c is None]):
                    g = AmrSubgraph(nodes, edges, 0, fv)
                    if not validate(g):  # the extra edge may close a cycle
                        out.append(g)
    return out


def categories(max_slashes: int, atoms=ATOMS) -> list[Category]:
    """Every category with at most ``max_slashes`` slashes over ``atoms``,
    fewest slashes first: 237 for two slashes over ``ATOMS``."""
    by_slashes = [list(atoms)]
    for k in range(1, max_slashes + 1):
        by_slashes.append([Functor(result, slash, argument)
                           for i in range(k) for result in by_slashes[i] for argument in by_slashes[k - 1 - i]
                           for slash in (FORWARD, BACKWARD)])
    return [c for group in by_slashes for c in group]


def _step(direction: str, order: int, left: Category, right: Category):
    """``match_categories`` on the left and right operand of a step."""
    return match_categories(direction, order, *((left, right) if direction == "forward" else (right, left)))


def _bare(cat: Category) -> Category:
    """``cat`` without its features: two categories unify only if these are equal."""
    if isinstance(cat, Atom):
        return Atom(cat.base)
    return Functor(_bare(cat.result), cat.slash, _bare(cat.argument))


def _pairs(cats: list[Category], direction: str, order: int) -> dict:
    """Left operand -> [(right operand, match)] of every uncrossed match
    among ``cats`` of (``direction``, ``order``).  A function is tried only
    on arguments whose result, ``order`` slashes in, has the bare form of
    its argument."""
    by_peeled: dict = {}
    for cat in cats:
        inner = cat
        for _ in range(order):
            inner = inner.result if isinstance(inner, Functor) else None
        if inner is not None:
            by_peeled.setdefault(_bare(inner), []).append(cat)
    own, found = FORWARD if direction == "forward" else BACKWARD, {}
    for f in cats:
        if isinstance(f, Functor) and f.slash == own:
            for a in by_peeled.get(_bare(f.argument), ()):
                m = match_categories(direction, order, f, a)
                if m is not None and not m[1]:
                    left, right = (f, a) if direction == "forward" else (a, f)
                    found.setdefault(left, []).append((right, m))
    return found


def category_law(cats: list[Category], keys=tuple(_REBRACKETINGS)) -> tuple[Counter, dict]:
    """The skip's category side over every triple (A, B, C) of ``cats``
    whose steps A B, B C and A (B C) match uncrossed under the names a
    ``keys`` row of ``_REBRACKETINGS`` gives, as their landings need.

    Returns how often the skipped step (A B) C, of that row's direction and
    order, has each verdict (per (key, verdict): 'no match', 'crossed',
    'same category' as A (B C) or 'other category'), and per key the category
    triples a graph law needs.  A graph step reads its categories only
    through ``_check_result``, which reads only the result's arity; so of the
    triples where the skip can fire (same category), one per arities of
    A B, B C and A (B C) stands for all, and one is dropped where another's
    arities are each as large, and zero at the same places: every graph the
    first admits, the second does too."""
    pairs: dict = {}
    seen: dict = {}  # (direction, order, left, right) -> match
    verdicts: Counter = Counter()
    found: dict = {}

    def step(*args):
        m = seen.get(args, False)
        if m is False:
            m = seen[args] = _step(*args)
        return m

    for key in keys:
        name, direction, p = key
        _, inner, outer = _REBRACKETINGS[key]
        q, inner_order, outer_order = RULES[name][1], RULES[inner][1], RULES[outer][1]
        for order in (q, inner_order):
            if (direction, order) not in pairs:
                pairs[direction, order] = _pairs(cats, direction, order)
        for a, with_a in pairs[direction, q].items():
            for b, ab in with_a:
                for c, bc in pairs[direction, inner_order].get(b, ()):
                    x = step(direction, outer_order, a, bc[0])
                    if x is None or x[1]:
                        continue
                    skipped = step(direction, p, ab[0], c)
                    verdict = ("no match" if skipped is None else "crossed" if skipped[1]
                               else "same category" if skipped[0] == x[0] else "other category")
                    verdicts[key, verdict] += 1
                    if verdict == "same category":
                        found.setdefault(key, {}).setdefault(tuple(map(arity, (ab[0], bc[0], x[0]))), (a, b, c))
    triples = {key: [t for arities, t in by.items() if not any(
        other != arities and all((m == 0) == (n == 0) and m <= n for m, n in zip(arities, other)) for other in by
    )] for key, by in found.items()}
    return verdicts, triples


def _first_concept(sem) -> str | None:
    return None if sem is IDENTITY else next((n.concept for n in sem.nodes if n.concept is not None), None)


def _run(direction: str, order: int, left: Combined, right: Combined, match, name: str) -> Combined | None:
    """The chart's step on ``left`` and ``right``, with its children set, if
    it succeeds under ``name``; else None."""
    f, a = (left, right) if direction == "forward" else (right, left)
    try:
        out = combine_matched(direction, order, f.constituent, a.constituent, match)
    except CombinationError:
        return None
    if out.rule != name:
        return None
    out.children = (left, right)
    return out


def rebracketing_law(key, cats, operands, counts: Counter) -> None:
    """The skip's law on every (A, B, C) in ``operands`` (three lists of
    graphs or ``IDENTITY``, one per slot) under the categories ``cats``:
    wherever ``_Chart.rebracketed`` skips (A B) C, given the landings of B C
    and of A (B C), the skipped step succeeds under the name the
    ``_REBRACKETINGS`` row ``key`` gives it, with the category of the item
    A (B C) built and a graph isomorphic to that item's.  ``counts`` gets
    one per skip under ``key``, and under 'B is IDENTITY' where it is.

    A global swap of the two concepts maps each case onto one with the same
    outcome, so only triples whose first concept is ``a`` are run.  The item
    A (B C) is built only where the skip fires: ``rebracketed`` reads only
    that item's category, so a stand-in of that category shows whether it
    fires."""
    name, direction, p = key
    step, inner_name, outer_name = _REBRACKETINGS[key]
    q, inner_order, outer_order = RULES[name][1], RULES[inner_name][1], RULES[outer_name][1]
    ab_match, bc_match = _step(direction, q, cats[0], cats[1]), _step(direction, inner_order, cats[1], cats[2])
    x_match = _step(direction, outer_order, cats[0], bc_match[0])
    skipped_match = _step(direction, p, ab_match[0], cats[2])
    stand_in = Combined(Constituent(0, 3, x_match[0], None), outer_name)
    chart = _Chart(ParserConfig())
    items = [[Combined(Constituent(i, i + 1, cats[i], sem), "word") for sem in slot] for i, slot in enumerate(operands)]
    first = [[_first_concept(sem) for sem in slot] for slot in operands]
    inners: dict = {}
    for a, fa in zip(items[0], first[0]):
        if fa == "b":
            continue
        for j, b in enumerate(items[1]):
            if (fa or first[1][j]) == "b":
                continue
            left = _run(direction, q, a, b, ab_match, name)
            if left is None:
                continue
            for k, c in enumerate(items[2]):
                if (fa or first[1][j] or first[2][k]) == "b":
                    continue
                inner = inners.get((j, k), False)
                if inner is False:
                    inner = inners[j, k] = _run(direction, inner_order, b, c, bc_match, inner_name)
                if inner is None:
                    continue
                chart.landings = {(id(b), id(c), inner_name): inner, (id(a), id(inner), outer_name): stand_in}
                if not chart.rebracketed(left, c, direction, p, skipped_match):
                    continue
                x = _run(direction, outer_order, a, inner, x_match, outer_name)
                if x is None:
                    continue
                skipped = _run(direction, p, left, c, skipped_match, step)
                case = (key, *(item.constituent.semantics for item in (a, b, c)))
                assert skipped is not None, case
                got, want = skipped.constituent, x.constituent
                assert got.category == want.category, case
                assert got.semantics == want.semantics or iso_equal(got.semantics, want.semantics), case
                counts[key] += 1
                counts["B is IDENTITY"] += b.constituent.semantics is IDENTITY


#: The graph of a conjunction word: one node, no edge, under each concept.
CONJUNCTIONS = tuple(AmrSubgraph((Node(0, c),), (), 0, ()) for c in CONCEPTS)


def maps_into(g: AmrSubgraph, r: AmrSubgraph) -> bool:
    """Whether some map of ``g``'s nodes to ``r``'s sends each constant to a
    node of the same concept, each free variable to any node, and each edge
    to an edge of ``r`` with the same label, where ``:?`` in ``g`` matches
    any label: a homomorphism of ``g`` into ``r``.  Node ids are positions,
    as :func:`validate` requires."""
    labels: dict = {}
    for e in r.edges:
        labels.setdefault((e.source, e.target), set()).add(e.label)
    images = [[m.id for m in r.nodes if n.concept is None or m.concept == n.concept] for n in g.nodes]
    return any(all((found := labels.get((image[e.source], image[e.target]))) and (
        e.label == UNDERSPECIFIED or e.label in found) for e in g.edges) for image in product(*images))


def _built(step, *args) -> AmrSubgraph | None:
    """``step``'s result on ``args``, or None where it fails to unify."""
    try:
        return step(*args)
    except UnificationError:
        return None


def homomorphism_law(firsts: list[AmrSubgraph], seconds: list[AmrSubgraph], counts: Counter) -> None:
    """Each input graph of every graph step maps into its result
    (``maps_into``): ``raised`` on each of ``firsts``, and on each pair of
    ``firsts`` and ``seconds``, ``substitute`` at orders 0 and 1 (a higher
    order only moves free variables), the relation-wise builder that
    ``combine_matched`` picks at each order where ``relation_wise_match``
    finds a shared edge, and ``conjoined`` under each of ``CONJUNCTIONS``
    where the free-variable counts agree, as ``coordinate`` requires.
    A step that fails to unify has no result.  ``counts`` gets one per
    result under its step's name."""
    for f in firsts:
        assert maps_into(f, raised(f)), f
        counts["raised"] += 1
        for a in seconds:
            results = [("substitute", _built(substitute, f, a, order)) for order in (0, 1) if f.fv]
            results += [("relation-wise", _built(relation_wise_combine, f, a, m, order))
                        for order in range(3) if (m := relation_wise_match(f, a, order + 1))]
            results += [("conjoined", _built(conjoined, conj, f, a))
                        for conj in CONJUNCTIONS if len(f.fv) == len(a.fv)]
            for name, result in results:
                if result is not None:
                    assert maps_into(f, result) and maps_into(a, result), (name, f, a, result)
                    counts[name] += 1
