"""Rooted AMR subgraphs with an ordered list of free variables.

An :class:`AmrSubgraph` is the semantic value of every constituent in a
derivation: a connected, labeled, directed acyclic graph with a designated
root plus an ordered list of free-variable nodes still waiting to be filled.
Free-variable order is meaningful (position 1 is consumed next), and so is
edge insertion order (it drives deterministic serialization and tie-breaking
when several shared-edge candidates exist).

Two primitive operations underlie every combinator: :func:`substitute`
(identify a free variable with the root of another subgraph) and
:func:`merge_nodes` (identify two nodes of one graph).  Both are implemented
on top of :class:`Workspace`, a mutable scratch structure with union-find
over merged nodes.  A result shares the immutable :class:`Node` and
:class:`Edge` objects of its inputs wherever their values did not change.

Isomorphism classes are keyed on :func:`invariant`: the node count, the
free-variable count, the root's concept and a hash of the sorted
(source concept, label, target concept) edge triples.  Isomorphic graphs
always share it, so :func:`iso_map` searches for a bijection only between
graphs whose invariants are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Role label of an underspecified edge, resolved later by a shared-edge match.
UNDERSPECIFIED = ":?"


class UnificationError(Exception):
    """Raised when two constant nodes with different concepts are merged."""


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    concept: str | None = None  # None marks a free variable

    @property
    def is_free(self) -> bool:
        return self.concept is None


@dataclass(frozen=True, slots=True)
class Edge:
    source: int
    label: str
    target: int


@dataclass(frozen=True)
class AmrSubgraph:
    """Immutable graph value; all operations return new instances."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]  # insertion order preserved; triples are a set
    root: int
    fv: tuple[int, ...]  # 1-based positions: fv[0] is consumed next

    @cached_property
    def _by_id(self) -> dict[int, Node]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def is_free(self, node_id: int) -> bool:
        return self._by_id[node_id].concept is None

    def concept(self, node_id: int) -> str | None:
        return self._by_id[node_id].concept

    def incident(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if node_id in (e.source, e.target)]

    def outgoing(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.source == node_id]

    def incoming(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.target == node_id]

    def fv_index(self, node_id: int) -> int:
        """1-based position of a free variable in the fv list."""
        return self.fv.index(node_id) + 1

    def constant_count(self) -> int:
        return sum(1 for n in self.nodes if not n.is_free)


class Workspace:
    """Mutable scratch for unioning graphs and merging their nodes.

    Node ids are workspace-local: positions in flat lists of concepts and
    union-find parents.  A merge keeps the smaller id as representative, so a
    representative is never larger than its members and results are
    deterministic.  ``freeze`` resolves all merges, collapses duplicate edge
    triples (first occurrence wins), renumbers nodes compactly and builds the
    immutable result.

    Results reuse the objects they were copied from: ``add_graph`` records
    the source ``Node`` and ``Edge`` of every node and edge it copies in, and
    ``freeze`` puts that same object in the result when its value did not
    change (same final id and concept for a node, same final endpoints for an
    edge).  ``add_node``, ``add_edge`` and ``set_edge_label`` record no
    source, so fresh nodes and relabelled edges are always built anew.
    """

    def __init__(self) -> None:
        self._concepts: list[str | None] = []
        self._parent: list[int] = []
        self._node_sources: list[Node | None] = []
        self._edges: list[tuple[int, str, int]] = []
        self._edge_sources: list[Edge | None] = []

    def add_node(self, concept: str | None) -> int:
        i = len(self._concepts)
        self._concepts.append(concept)
        self._parent.append(i)
        self._node_sources.append(None)
        return i

    def add_edge(self, source: int, label: str, target: int) -> int:
        self._edges.append((source, label, target))
        self._edge_sources.append(None)
        return len(self._edges) - 1

    def add_graph(self, g: AmrSubgraph) -> tuple[dict[int, int], int]:
        """Copy a graph in; returns (old-id -> new-id map, edge offset)."""
        base, offset = len(self._concepts), len(self._edges)
        mapping = {n.id: base + i for i, n in enumerate(g.nodes)}
        self._concepts.extend([n.concept for n in g.nodes])
        self._parent.extend(range(base, base + len(g.nodes)))
        self._node_sources.extend(g.nodes)
        self._edges.extend([(mapping[e.source], e.label, mapping[e.target]) for e in g.edges])
        self._edge_sources.extend(g.edges)
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
        self._edge_sources[edge_index] = None

    def freeze(self, root: int, fv_candidates: list[int]) -> tuple[AmrSubgraph, list[int]]:
        """Build the result graph.

        ``fv_candidates`` is an ordered slot sequence of workspace ids;
        entries that resolved to constants are dropped and a merged variable
        keeps only its first slot.  Returns the graph and the final node id
        of every workspace id, indexed by workspace id.
        """
        final: list[int] = []
        nodes: list[Node] = []
        for i, (parent, concept, node) in enumerate(
            zip(self._parent, self._concepts, self._node_sources)
        ):
            if parent != i:  # a member: its parent is smaller, so already numbered
                final.append(final[parent])
                continue
            new_id = len(nodes)
            final.append(new_id)
            if node is None or node.id != new_id or node.concept != concept:
                node = Node(new_id, concept)
            nodes.append(node)
        edges: list[Edge] = []
        seen: set[tuple[int, str, int]] = set()
        for (s, label, t), edge in zip(self._edges, self._edge_sources):
            s, t = final[s], final[t]
            triple = (s, label, t)
            if triple not in seen:
                seen.add(triple)
                if edge is None or edge.source != s or edge.target != t:
                    edge = Edge(s, label, t)
                edges.append(edge)
        fv: list[int] = []
        for x in fv_candidates:
            i = final[x]
            if nodes[i].concept is None and i not in fv:
                fv.append(i)
        graph = AmrSubgraph(tuple(nodes), tuple(edges), final[root], tuple(fv))
        return graph, final


@dataclass(frozen=True)
class Substitution:
    """Result of :func:`substitute`; remaining fv sublists let the caller
    decide the final ordering (graph.fv defaults to g_remaining + h_remaining).
    """

    graph: AmrSubgraph
    g_remaining: tuple[int, ...]
    h_remaining: tuple[int, ...]


def substitute(g: AmrSubgraph, pos: int, h: AmrSubgraph) -> Substitution:
    """Fill g's free variable at 1-based position ``pos`` with h's root.

    The two nodes are identified; the merged node is a constant iff h's root
    was one.  If h is rooted at a free variable the merged node stays free
    and keeps h's fv-list position.
    """
    if not 1 <= pos <= len(g.fv):
        raise ValueError(f"fv position {pos} out of range 1..{len(g.fv)}")
    ws = Workspace()
    gmap, _ = ws.add_graph(g)
    hmap, _ = ws.add_graph(h)
    ws.merge(gmap[g.fv[pos - 1]], hmap[h.root])
    g_rem = [gmap[x] for i, x in enumerate(g.fv) if i != pos - 1]
    h_rem = [hmap[x] for x in h.fv]
    graph, final = ws.freeze(gmap[g.root], g_rem + h_rem)
    free = lambda ids: tuple(final[x] for x in ids if graph.nodes[final[x]].concept is None)
    return Substitution(graph, free(g_rem), free(h_rem))


def merge_nodes(g: AmrSubgraph, n1: int, n2: int) -> AmrSubgraph:
    """Identify two nodes of one graph; n1's fv position survives."""
    if n1 == n2:
        raise ValueError("merge_nodes needs two distinct nodes")
    ws = Workspace()
    mapping, _ = ws.add_graph(g)
    ws.merge(mapping[n1], mapping[n2])
    candidates = [mapping[x] for x in g.fv if x != n2]
    graph, _ = ws.freeze(mapping[g.root], candidates)
    return graph


def with_fv_order(g: AmrSubgraph, fv: tuple[int, ...]) -> AmrSubgraph:
    """Same graph with its free variables reordered."""
    if sorted(fv) != sorted(g.fv):
        raise ValueError("new fv order must be a permutation of the old")
    return AmrSubgraph(g.nodes, g.edges, g.root, tuple(fv))


def validate(g: AmrSubgraph) -> list[str]:
    """All invariant violations, empty when the graph is well-formed."""
    problems: list[str] = []
    ids = {n.id for n in g.nodes}
    if len(ids) != len(g.nodes):
        problems.append("duplicate node ids")
    if g.root not in ids:
        problems.append(f"root {g.root} is not a node")
    seen_triples: set[tuple[int, str, int]] = set()
    for e in g.edges:
        if e.source not in ids or e.target not in ids:
            problems.append(f"edge {e} has a dangling endpoint")
        if e.label.endswith("-of"):
            problems.append(f"edge {e} stores an inverse label")
        triple = (e.source, e.label, e.target)
        if triple in seen_triples:
            problems.append(f"duplicate edge triple {triple}")
        seen_triples.add(triple)
    free = {n.id for n in g.nodes if n.is_free}
    listed = list(g.fv)
    if len(set(listed)) != len(listed):
        problems.append("fv list contains repeats")
    for x in listed:
        if x not in free:
            problems.append(f"fv entry {x} is not a free-variable node")
    for x in free - set(listed):
        problems.append(f"free variable {x} missing from fv list")
    # connectivity over undirected links
    if g.root in ids and ids:
        adj: dict[int, set[int]] = {i: set() for i in ids}
        for e in g.edges:
            if e.source in ids and e.target in ids:
                adj[e.source].add(e.target)
                adj[e.target].add(e.source)
        seen = {g.root}
        stack = [g.root]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != ids:
            missing = sorted(ids - seen)
            problems.append(f"graph is disconnected; unreachable nodes {missing}")
    # acyclicity in stored direction: Kahn's algorithm over out-edges
    out: dict[int, list[int]] = {i: [] for i in ids}
    indegree = dict.fromkeys(ids, 0)
    for e in g.edges:
        if e.source in ids and e.target in ids:
            out[e.source].append(e.target)
            indegree[e.target] += 1
    ready = [i for i in ids if indegree[i] == 0]
    done = 0
    while ready:
        done += 1
        for v in out[ready.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    if done != len(ids):
        problems.append("graph has a directed cycle")
    return problems


def invariant(g: AmrSubgraph) -> tuple[int, int, str, int]:
    """Isomorphism invariant: isomorphic graphs have equal invariants.

    It holds the node count, the free-variable count, the root's concept and
    a hash of the sorted (source concept, label, target concept) edge
    triples, with free variables counted as concept ``""``.
    """
    concept = {n.id: n.concept or "" for n in g.nodes}
    triples = sorted((concept[e.source], e.label, concept[e.target]) for e in g.edges)
    return (len(g.nodes), len(g.fv), concept[g.root], hash(tuple(triples)))


def iso_map(g1: AmrSubgraph, g2: AmrSubgraph) -> dict[int, int] | None:
    """Bijection witnessing isomorphism, or None.

    Concepts, edges, the root, and fv positions must all be preserved; free
    variables can only map to free variables at the same fv index.  Graphs
    whose :func:`invariant` differs (node count, fv count, root concept, or
    the hash of the concept-labelled edge triples) are rejected at once.
    Otherwise the fv pairs and the roots are bound first, then the remaining
    nodes of g1 are tried in node order against g2's nodes of the same
    concept, in node order, by a depth-first search with an explicit stack.
    """
    if invariant(g1) != invariant(g2):
        return None
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def bind(a: int, b: int) -> bool:
        if a in mapping:
            return mapping[a] == b
        if b in used:
            return False
        if g1.concept(a) != g2.concept(b):
            return False
        mapping[a] = b
        used.add(b)
        return True

    for a, b in zip(g1.fv, g2.fv):
        if not bind(a, b):
            return None
    if not bind(g1.root, g2.root):
        return None

    e2 = {(e.source, e.label, e.target) for e in g2.edges}
    incident: dict[int, list[Edge]] = {n.id: [] for n in g1.nodes}
    for e in g1.edges:
        if e.source in mapping and e.target in mapping:
            if (mapping[e.source], e.label, mapping[e.target]) not in e2:
                return None
        incident[e.source].append(e)
        if e.target != e.source:
            incident[e.target].append(e)
    # every g1 edge maps into e2 once all nodes are bound, so equal sizes
    # make the image all of e2
    if len({(e.source, e.label, e.target) for e in g1.edges}) != len(e2):
        return None
    by_concept: dict[str | None, list[int]] = {}
    for n in g2.nodes:
        if n.id not in used:
            by_concept.setdefault(n.concept, []).append(n.id)
    remaining = [n for n in g1.nodes if n.id not in mapping]

    def consistent(u: int) -> bool:
        # every edge between already-mapped nodes must exist on the other side
        for e in incident[u]:
            if e.source in mapping and e.target in mapping:
                if (mapping[e.source], e.label, mapping[e.target]) not in e2:
                    return False
        return True

    if not remaining:
        return dict(mapping)
    stack = [iter(by_concept.get(remaining[0].concept, ()))]
    while stack:
        u = remaining[len(stack) - 1].id
        if u in mapping:  # undo the last choice at this depth
            used.discard(mapping.pop(u))
        for v in stack[-1]:
            if v in used:
                continue
            mapping[u] = v
            used.add(v)
            if consistent(u):
                break
            del mapping[u]
            used.discard(v)
        else:
            stack.pop()
            continue
        if len(stack) == len(remaining):
            return dict(mapping)
        stack.append(iter(by_concept.get(remaining[len(stack)].concept, ())))
    return None


def iso_equal(g1: AmrSubgraph, g2: AmrSubgraph) -> bool:
    return iso_map(g1, g2) is not None
