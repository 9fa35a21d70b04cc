"""Shared test helpers: random-graph strategies and independent oracles.

The oracles here deliberately avoid the production code paths they check:
``iso_oracle`` enumerates node bijections group by group, and
``brute_force_classes`` enumerates every binary bracketing of a sentence
without the chart's iso-class deduplication.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from hypothesis import strategies as st

from ccgamr import penman
from ccgamr.category import Atom, Functor, format_category, unify
from ccgamr.combinator import (
    Combined,
    CombinationError,
    ConjPartial,
    Constituent,
    Identity,
    combine_application,
    combine_composition,
    conj_attach,
    coordinate,
    type_raise,
)
from ccgamr.derivation import ParserConfig, finalize_check
from ccgamr.graph import AmrSubgraph, Edge, Node, UnificationError, iso_equal

CONCEPTS = ["eat-01", "person", "cat", "give-01", "and", "math", "idea"]
LABELS = [":ARG0", ":ARG1", ":ARG2", ":mod", ":time", ":op1"]


@st.composite
def graphs(draw, max_nodes: int = 8, max_fv: int = 3, labels=tuple(LABELS), min_fv: int = 0):
    """Random valid AmrSubgraph: a spanning tree plus a few extra DAG edges."""
    n = draw(st.integers(min_value=max(1, min_fv), max_value=max_nodes))
    fv_count = draw(st.integers(min_value=min_fv, max_value=min(max_fv, n)))
    order = draw(st.permutations(list(range(n))))
    fv_ids = tuple(order[:fv_count])
    nodes = tuple(
        Node(i, None if i in fv_ids else draw(st.sampled_from(CONCEPTS))) for i in range(n)
    )
    edges: list[Edge] = []
    seen: set[tuple[int, str, int]] = set()
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        triple = (parent, draw(st.sampled_from(labels)), i)
        if triple not in seen:
            seen.add(triple)
            edges.append(Edge(*triple))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if n < 2:
            break
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        triple = (a, draw(st.sampled_from(labels)), b)
        if triple not in seen:
            seen.add(triple)
            edges.append(Edge(*triple))
    return AmrSubgraph(nodes, tuple(edges), 0, fv_ids)


@st.composite
def categories(draw, max_depth: int = 3):
    if max_depth == 0 or draw(st.booleans()):
        base = draw(st.sampled_from(["S", "NP", "N", "PP"]))
        feature = draw(st.sampled_from([None, "b", "to", "q", "pass"]))
        return Atom(base, feature)
    result = draw(categories(max_depth=max_depth - 1))
    argument = draw(categories(max_depth=max_depth - 1))
    slash = draw(st.sampled_from(["/", "\\"]))
    return Functor(result, slash, argument)


def relabeled(g: AmrSubgraph, seed: int) -> AmrSubgraph:
    """Same graph with shuffled node ids."""
    rng = random.Random(seed)
    perm = list(range(len(g.nodes)))
    rng.shuffle(perm)
    m = {n.id: perm[i] for i, n in enumerate(g.nodes)}
    nodes = tuple(sorted((Node(m[n.id], n.concept) for n in g.nodes), key=lambda n: n.id))
    edges = tuple(Edge(m[e.source], e.label, m[e.target]) for e in g.edges)
    return AmrSubgraph(nodes, edges, m[g.root], tuple(m[x] for x in g.fv))


def nested(depth: int) -> str:
    """PENMAN text of a :mod chain written as ``depth`` nested parenthesised nodes."""
    return "".join(f"(a{i} / x :mod " for i in range(depth - 1)) + "(z / x" + ")" * depth


class DictWorkspace:
    """Reference for ``graph.Workspace``: the dict-based version it replaced,
    which builds every node and edge of a result anew.

    Mutable scratch for unioning graphs and merging their nodes.

    Node ids are workspace-local.  Merges are recorded in a union-find whose
    representative is the smaller id, which keeps results deterministic.
    ``freeze`` resolves all merges, collapses duplicate edge triples (first
    occurrence wins), renumbers nodes compactly and builds the immutable
    result.
    """

    def __init__(self) -> None:
        self._concepts: dict[int, str | None] = {}
        self._parent: dict[int, int] = {}
        self._edges: list[tuple[int, str, int]] = []
        self._next = 0

    def add_node(self, concept: str | None) -> int:
        i = self._next
        self._next += 1
        self._concepts[i] = concept
        self._parent[i] = i
        return i

    def add_edge(self, source: int, label: str, target: int) -> int:
        self._edges.append((source, label, target))
        return len(self._edges) - 1

    def add_graph(self, g: AmrSubgraph) -> tuple[dict[int, int], int]:
        """Copy a graph in; returns (old-id -> new-id map, edge offset)."""
        offset = len(self._edges)
        mapping = {n.id: self.add_node(n.concept) for n in g.nodes}
        for e in g.edges:
            self.add_edge(mapping[e.source], e.label, mapping[e.target])
        return mapping, offset

    def find(self, i: int) -> int:
        while self._parent[i] != i:
            self._parent[i] = self._parent[self._parent[i]]
            i = self._parent[i]
        return i

    def concept_of(self, i: int) -> str | None:
        return self._concepts[self.find(i)]

    def merge(self, a: int, b: int) -> int:
        """Identify two nodes; constant beats free variable.

        Raises :class:`UnificationError` if both are constants with
        different concepts.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        ca, cb = self._concepts[ra], self._concepts[rb]
        if ca is not None and cb is not None and ca != cb:
            raise UnificationError(f"cannot merge constants {ca!r} and {cb!r}")
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self._parent[drop] = keep
        self._concepts[keep] = ca if ca is not None else cb
        return keep

    def set_edge_label(self, edge_index: int, label: str) -> None:
        s, _, t = self._edges[edge_index]
        self._edges[edge_index] = (s, label, t)

    def freeze(self, root: int, fv_candidates: list[int]) -> tuple[AmrSubgraph, dict[int, int]]:
        """Build the result graph.

        ``fv_candidates`` is an ordered slot sequence of workspace ids;
        entries that resolved to constants are dropped and a merged variable
        keeps only its first slot.  Returns the graph and the map from
        union-find representatives to final node ids.
        """
        relabel: dict[int, int] = {}
        nodes: list[Node] = []
        for i in range(self._next):
            r = self.find(i)
            if r not in relabel:
                relabel[r] = len(nodes)
                nodes.append(Node(relabel[r], self._concepts[r]))
        edges: list[Edge] = []
        seen: set[tuple[int, str, int]] = set()
        for s, label, t in self._edges:
            triple = (relabel[self.find(s)], label, relabel[self.find(t)])
            if triple not in seen:
                seen.add(triple)
                edges.append(Edge(*triple))
        fv: list[int] = []
        for x in fv_candidates:
            r = self.find(x)
            if self._concepts[r] is None and relabel[r] not in fv:
                fv.append(relabel[r])
        graph = AmrSubgraph(tuple(nodes), tuple(edges), relabel[self.find(root)], tuple(fv))
        return graph, relabel


def iso_oracle(g1: AmrSubgraph, g2: AmrSubgraph) -> bool:
    """Brute-force bijection search: free variables are pinned by position,
    constants permute within same-concept groups."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    if len(g1.fv) != len(g2.fv):
        return False
    groups1: dict[str, list[int]] = {}
    groups2: dict[str, list[int]] = {}
    for g, groups in ((g1, groups1), (g2, groups2)):
        for node in g.nodes:
            if node.concept is not None:
                groups.setdefault(node.concept, []).append(node.id)
    if sorted(groups1) != sorted(groups2):
        return False
    if any(len(groups1[c]) != len(groups2[c]) for c in groups1):
        return False
    concepts = sorted(groups1)
    target_edges = {(e.source, e.label, e.target) for e in g2.edges}
    base = dict(zip(g1.fv, g2.fv))
    for assignment in product(*[permutations(groups2[c]) for c in concepts]):
        mapping = dict(base)
        for concept, perm in zip(concepts, assignment):
            mapping.update(zip(groups1[concept], perm))
        if mapping[g1.root] != g2.root:
            continue
        if {(mapping[e.source], e.label, mapping[e.target]) for e in g1.edges} == target_edges:
            return True
    return False


def _exact_key(c: Constituent) -> str:
    sem = c.semantics
    if isinstance(sem, Identity):
        shown = "ID"
    elif isinstance(sem, ConjPartial):
        shown = f"partial[{_exact_key(sem.conj)};{_exact_key(sem.right)}]"
    else:
        shown = penman.serialize(sem)
    return f"{format_category(c.category)} :: {shown}"


def try_every_combinator(left: Constituent, right: Constituent, config: ParserConfig) -> list[Combined]:
    """Every binary outcome for two adjacent constituents, found by calling
    each public combinator in the chart's order and dropping the ones that
    raise ``CombinationError``."""
    out = []
    attempts = [
        lambda: combine_application("forward", left, right),
        lambda: combine_application("backward", right, left),
    ]
    for order in range(1, config.max_composition_order + 1):
        attempts.append(lambda o=order: combine_composition("forward", o, left, right))
        attempts.append(lambda o=order: combine_composition("backward", o, right, left))
    if isinstance(left.category, Atom) and left.category.base == "Conj":
        attempts.append(lambda: conj_attach(left, right))
    if isinstance(right.semantics, ConjPartial):
        partial = right.semantics
        attempts.append(
            lambda: coordinate(partial.conj, left, partial.right, config.strict_conjunction)
        )
    for attempt in attempts:
        try:
            out.append(attempt())
        except CombinationError:
            pass
    return out


def brute_force_classes(tokens, lexicon, config: ParserConfig) -> list[AmrSubgraph]:
    """Final semantic iso-classes found by enumerating all bracketings.

    Recursion over spans with exact-text deduplication only; iso-classes are
    formed at the very end, so this is independent of the chart's pruning.
    """
    n = len(tokens)
    memo: dict[tuple[int, int], list[Constituent]] = {}

    def closure(items: list[Constituent]) -> list[Constituent]:
        out: list[Constituent] = []
        keys: set[str] = set()
        frontier = list(items)
        while frontier:
            c = frontier.pop(0)
            k = _exact_key(c)
            if k in keys:
                continue
            keys.add(k)
            out.append(c)
            for rule in config.type_raising:
                if unify(rule.source, c.category) is None:
                    continue
                if not isinstance(c.semantics, AmrSubgraph):
                    continue
                try:
                    frontier.append(type_raise(c, rule.target, rule.direction).constituent)
                except CombinationError:
                    pass
        return out

    def span(i: int, j: int) -> list[Constituent]:
        if (i, j) in memo:
            return memo[(i, j)]
        if j - i == 1:
            items = [
                Constituent(i, j, e.category, e.semantics) for e in lexicon.lookup(tokens[i])
            ]
        else:
            items = []
            for split in range(i + 1, j):
                for left in span(i, split):
                    for right in span(split, j):
                        items.extend(
                            o.constituent for o in try_every_combinator(left, right, config)
                        )
        memo[(i, j)] = closure(items)
        return memo[(i, j)]

    finals = [
        c
        for c in span(0, n)
        if isinstance(c.category, Atom)
        and c.category.base == config.goal
        and not finalize_check(c)
    ]
    classes: list[AmrSubgraph] = []
    for c in finals:
        if not any(iso_equal(c.semantics, rep) for rep in classes):
            classes.append(c.semantics)
    return classes


def constituent(text_category: str, text_sem, start: int = 0, end: int = 1) -> Constituent:
    """Quick constituent builder for unit tests."""
    from ccgamr.category import parse_category
    from ccgamr.combinator import IDENTITY

    sem = IDENTITY if text_sem == "ID" else penman.parse(text_sem)
    return Constituent(start, end, parse_category(text_category), sem)
