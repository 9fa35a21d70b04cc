"""Rooted AMR subgraphs with an ordered list of free variables.

An :class:`AmrSubgraph` is the semantic value of every constituent in a
derivation: a connected, labeled, directed graph with a designated root
plus an ordered list of free-variable nodes still waiting to be filled.
Node i has id i, so an id is also a position in the node tuple.
Free-variable order is meaningful (position 1 is consumed next), and so is
edge insertion order (it drives deterministic serialization and tie-breaking
when several shared-edge candidates exist).  A chart item may hold a
directed cycle: a coordination fold makes one when the conjuncts link two
free variables in opposite directions.  Only a finished result must be
acyclic, which :func:`has_cycle` tests.

:func:`substitute` (fill the first free variable with another subgraph's
root: the regular variants) and :func:`raised` (type raising: a fresh root
variable over the old root) build their result in one pass.  They identify
at most one node pair, so inputs that list distinct free variables and
repeat no triple and have no self-loop, as chart items do, leave nothing
to collapse.  :func:`conjoined` (coordination) and relation-wise
combination fold two or more node pairs, which can repeat a triple, in a
:class:`Workspace`: the input graphs are appended one after another, each
node that merges into an earlier one folds into it and the rest close up,
and the caller may add or relabel edges before it freezes the result.  A
result shares the immutable :class:`Node` and :class:`Edge` objects of its
inputs wherever their values did not change, and the builders take every
node and edge they make from a bounded by-value cache, so equal values
built by different steps are one object (relation-wise combination builds
its relabeled edge itself).

:func:`invariant` (node count, free-variable count, root concept and a
hash of the sorted (source concept, label, target concept) edge triples)
is shared by isomorphic graphs, so a caller that holds many unequal graphs
(a contested chart bucket) splits them by it and runs :func:`iso_map` only
within a split; :func:`iso_map` itself checks only the node and
free-variable counts before its search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

#: Role label of an underspecified edge, resolved later by a shared-edge match.
UNDERSPECIFIED = ":?"

_ID = attrgetter("id")
_TRIPLE = attrgetter("source", "label", "target")


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


# Graph steps build their nodes and edges through these bounded by-value
# caches, so an equal value built again is the object built the first time.
_node = lru_cache(maxsize=4096)(Node)
_edge = lru_cache(maxsize=4096)(Edge)


@dataclass(frozen=True)
class AmrSubgraph:
    """Immutable graph value; all operations return new instances.

    Node i has id i.  The builders and :func:`iso_map` take graphs that
    :func:`validate` accepts or finds only a directed cycle in."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]  # insertion order preserved; triples are a set
    root: int
    fv: tuple[int, ...]  # 1-based positions: fv[0] is consumed next

    def concept(self, node_id: int) -> str | None:
        return self.nodes[node_id].concept

    def incoming(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.target == node_id]

    def fv_index(self, node_id: int) -> int:
        """1-based position of a free variable in the fv list."""
        return self.fv.index(node_id) + 1


class Workspace:
    """A graph under construction: input graphs appended one after another,
    some of their nodes folded into nodes already built.

    ``nodes`` and ``edges`` are plain lists that a caller may also extend or
    edit between :meth:`add` and :meth:`freeze`.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []

    def add(self, g: AmrSubgraph, folds: dict[int, int] | None = None) -> list[int]:
        """Append g and return a list indexed by g's node ids: each node's
        new id.

        g's nodes take the next ids in order, except that a node that is a
        key of ``folds`` is identified with the already-built node it maps to
        (constant beats free variable; two different constants raise
        :class:`UnificationError`) and the rest close up.  Nodes and edges
        whose values did not change are the input objects themselves.
        """
        nodes, base = self.nodes, len(self.nodes)
        positions = list(range(base, base + len(g.nodes) - len(folds or ())))
        if folds:
            for k, i in folds.items():
                concept, kept = g.nodes[k].concept, nodes[i].concept
                if concept is not None and concept != kept:
                    if kept is not None:
                        raise UnificationError(f"cannot merge constants {kept!r} and {concept!r}")
                    nodes[i] = _node(i, concept)
            for k, i in sorted(folds.items()):
                positions.insert(k, i)
        elif not base:  # g keeps every id
            nodes += g.nodes
            self.edges += g.edges
            return positions
        nodes += [
            node if node.id == i else _node(i, node.concept)
            for i, node in zip(positions, g.nodes)
            if i >= base  # a folded node is already in place as its partner
        ]
        self.edges += _moved(g.edges, positions)
        return positions

    def freeze(self, root: int, slots: list[int]) -> AmrSubgraph:
        """The built graph rooted at ``root``, with repeated edge triples
        collapsed (first occurrence wins) and the fv list of ordered
        ``slots``, where constants drop out and a variable keeps only its
        first slot."""
        fv = tuple(dict.fromkeys([i for i in slots if self.nodes[i].concept is None]))
        return AmrSubgraph(tuple(self.nodes), _unique(self.edges), root, fv)


def substitute(g: AmrSubgraph, h: AmrSubgraph, order: int = 0) -> AmrSubgraph:
    """Fill g's first free variable with h's root: the regular variant of an
    order-``order`` composition (order 0 is application) of g with h.

    The two nodes are identified; the merged node is a constant iff h's root
    was one.  If h is rooted at a free variable the merged node stays free
    and keeps h's fv-list position.  The fv list holds g's remaining
    variables, then h's; composition (``order`` > 0) puts h's first.

    The result is built in one pass: g's nodes keep their ids, h's root
    folds into the filled variable and h's other nodes follow in order.
    Edges are g's, then h's.  Nodes and edges whose values did not change
    are the input objects themselves.  Both graphs must meet the condition
    the module docstring names, and the result then meets it too.
    """
    if not g.fv:
        raise ValueError("no free variable to fill")
    n, m, slot, r = len(g.nodes), len(h.nodes), g.fv[0], h.root
    positions = [*range(n, n + r), slot, *range(n + r, n + m - 1)]
    ca, cb = g.nodes[slot].concept, h.nodes[r].concept
    if ca is not None and cb is not None and ca != cb:
        raise UnificationError(f"cannot merge constants {ca!r} and {cb!r}")
    nodes = list(g.nodes)
    if ca is None and cb is not None:
        nodes[slot] = _node(slot, cb)
    nodes += [
        node if node.id == i else _node(i, node.concept)
        for i, node in zip(positions, h.nodes)
        if i >= n  # h's root is already in place as the filled variable
    ]
    g_rest, h_rest = g.fv[1:], [positions[x] for x in h.fv]
    fv = (*h_rest, *g_rest) if order else (*g_rest, *h_rest)
    return AmrSubgraph(tuple(nodes), (*g.edges, *_moved(h.edges, positions)), g.root, fv)


def raised(g: AmrSubgraph) -> AmrSubgraph:
    """g under a fresh free variable: the variable is the new root and the
    first free variable, with an underspecified edge to g's root.

    g's nodes and edges are the input objects, and the variable and its edge
    come last.  g must meet :func:`substitute`'s condition, and the result
    then meets it too.
    """
    fresh = len(g.nodes)
    nodes, edges = (*g.nodes, _node(fresh, None)), (*g.edges, _edge(fresh, UNDERSPECIFIED, g.root))
    return AmrSubgraph(nodes, edges, fresh, (fresh, *g.fv))


def conjoined(conj: AmrSubgraph, left: AmrSubgraph, right: AmrSubgraph) -> AmrSubgraph:
    """``left`` and ``right`` as the ``:op1`` and ``:op2`` of ``conj``'s root,
    with their free variables identified pairwise by position.

    Nodes are numbered ``left``'s, then ``conj``'s, then ``right``'s, where a
    free variable of ``right`` folds into its partner in ``left`` (a constant
    beats a free variable; two different constants raise
    :class:`UnificationError`) and the rest close up, so ``left`` keeps every
    node and edge.  Edges are the three graphs' in that order, then the two
    ``:op`` edges, with repeated triples collapsed (first occurrence wins).
    Nodes and edges whose values did not change are the input objects
    themselves.  ``right`` must list each free variable once, as
    :func:`validate` requires.
    """
    ws = Workspace()
    ws.add(left)
    root = ws.add(conj)[conj.root]
    rmap = ws.add(right, dict(zip(right.fv, left.fv)))
    ws.edges += [_edge(root, ":op1", left.root), _edge(root, ":op2", rmap[right.root])]
    return ws.freeze(root, [*left.fv, *[rmap[x] for x in right.fv]])


def _moved(edges: tuple[Edge, ...], ids: list[int]) -> list[Edge]:
    """``edges`` with their endpoints renamed by ``ids``; an edge whose
    endpoints keep their ids stays the same object."""
    out = []
    for e in edges:
        s, t = ids[e.source], ids[e.target]
        out.append(e if s == e.source and t == e.target else _edge(s, e.label, t))
    return out


def _unique(edges: list[Edge]) -> tuple[Edge, ...]:
    """``edges`` with repeated triples collapsed, first occurrence winning.

    Only an input that repeats a triple, or an identification of two nodes
    that both carry it, gives a repeat, so the common case pays for one set
    of triples.
    """
    if len(set(map(_TRIPLE, edges))) == len(edges):
        return tuple(edges)
    unique: dict[tuple[int, str, int], Edge] = {}
    for e in edges:
        unique.setdefault(_TRIPLE(e), e)
    return tuple(unique.values())


def validate(g: AmrSubgraph) -> list[str]:
    """All invariant violations, empty when the graph is well-formed.

    Node ids map to positions once (a repeated id keeps its first); one pass
    over the edges reports their problems and fills the position-indexed
    out-edge, link and in-degree lists that the later checks read."""
    problems: list[str] = []
    at = dict.fromkeys(map(_ID, g.nodes))
    n = len(at)
    at = dict(zip(at, range(n)))
    if n != len(g.nodes):
        problems.append("duplicate node ids")
    elif list(at) != list(range(n)):
        problems.append("node ids are not 0..n-1 in node order")
    root = at.get(g.root)
    if root is None:
        problems.append(f"root {g.root} is not a node")
    out, links, indegree = [[] for _ in at], [[] for _ in at], [0] * n
    seen_triples: set[tuple[int, str, int]] = set()
    for e in g.edges:
        s, t = at.get(e.source), at.get(e.target)
        if s is None or t is None:
            problems.append(f"edge {e} has a dangling endpoint")
        else:
            out[s].append(t)
            links[s].append(t)
            links[t].append(s)
            indegree[t] += 1
        if e.label.endswith("-of"):
            problems.append(f"edge {e} stores an inverse label")
        triple = (e.source, e.label, e.target)
        if triple in seen_triples:
            problems.append(f"duplicate edge triple {triple}")
        seen_triples.add(triple)
    free = {node.id for node in g.nodes if node.concept is None}
    listed = set(g.fv)
    if len(listed) != len(g.fv):
        problems.append("fv list contains repeats")
    if free != listed:
        problems += [f"fv entry {x} is not a free-variable node" for x in g.fv if x not in free]
        problems += [f"free variable {x} missing from fv list" for x in sorted(free - listed)]
    if root is not None:  # connectivity over undirected links
        reached = [False] * n
        reached[root] = True
        stack = [root]
        while stack:
            for v in links[stack.pop()]:
                if not reached[v]:
                    reached[v] = True
                    stack.append(v)
        if not all(reached):
            missing = sorted(i for i, k in at.items() if not reached[k])
            problems.append(f"graph is disconnected; unreachable nodes {missing}")
    if _cyclic(out, indegree):
        problems.append("graph has a directed cycle")
    return problems


def has_cycle(g: AmrSubgraph) -> bool:
    """Whether g, with node i at id i and no dangling edge, has a directed cycle."""
    out, indegree = [[] for _ in g.nodes], [0] * len(g.nodes)
    for e in g.edges:
        out[e.source].append(e.target)
        indegree[e.target] += 1
    return _cyclic(out, indegree)


def _cyclic(out: list[list[int]], indegree: list[int]) -> bool:
    """Kahn's (1962) sort over position-indexed lists; it uses up ``indegree``."""
    ready = [k for k, d in enumerate(indegree) if not d]
    for u in ready:  # the list grows while it is read
        for v in out[u]:
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    return len(ready) != len(indegree)


def invariant(g: AmrSubgraph) -> tuple[int, int, str, int]:
    """Isomorphism invariant: isomorphic graphs have equal invariants.

    It holds the node count, the free-variable count, the root's concept and
    a hash of the sorted (source concept, label, target concept) edge
    triples, with free variables counted as concept ``""``.
    """
    concept = [n.concept or "" for n in g.nodes]
    triples = sorted((concept[e.source], e.label, concept[e.target]) for e in g.edges)
    return (len(g.nodes), len(g.fv), concept[g.root], hash(tuple(triples)))


def iso_map(g1: AmrSubgraph, g2: AmrSubgraph) -> dict[int, int] | None:
    """Bijection witnessing isomorphism, or None.

    Concepts, edges, the root, and fv positions must all be preserved; free
    variables can only map to free variables at the same fv index.  Graphs
    with different node or fv counts are rejected at once; the search below
    is exact for any other pair, so it does not compute :func:`invariant`
    (a caller that holds many unequal graphs splits them by it first, as a
    contested chart bucket does).  The fv pairs and the roots are bound
    first, then the remaining nodes of g1 are tried in node order against
    g2's nodes of the same concept, in node order, by a depth-first search
    with an explicit stack.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.fv) != len(g2.fv):
        return None
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def bind(a: int, b: int) -> bool:
        if a in mapping:
            return mapping[a] == b
        if b in used:
            return False
        if g1.nodes[a].concept != g2.nodes[b].concept:
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
    incident: list[list[Edge]] = [[] for _ in g1.nodes]
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
