"""Shared test helpers: random-graph strategies and independent oracles.

The oracles here deliberately avoid the production code paths they check:
``iso_oracle`` enumerates node bijections group by group, and
``brute_force_forest`` enumerates every binary bracketing of a sentence
without the chart's iso-class deduplication, counting derivations as it
goes.
"""

from __future__ import annotations

import random
import re
from itertools import permutations, product

from hypothesis import strategies as st

from ccgamr import penman
from ccgamr.category import Atom, Category, Functor, format_category, unify
from ccgamr.combinator import (
    Combined,
    CombinationError,
    ConjPartial,
    Constituent,
    Identity,
    SharedEdgeMatch,
    check_iso_principle,
    combine_application,
    combine_composition,
    conj_attach,
    coordinate,
    match_categories,
    raise_rule_name,
    raised_category,
    relation_wise_combine,
    relation_wise_match,
    type_raise,
)
from ccgamr.derivation import NP_TO_S, Binary, Leaf, ParserConfig, TypeRaisingRule, Unary, _category_rules
from ccgamr.graph import (
    UNDERSPECIFIED,
    AmrSubgraph,
    Edge,
    Node,
    UnificationError,
    iso_equal,
    substitute,
    validate,
)
from ccgamr.lexicon import Lexicon

CONCEPTS = ["eat-01", "person", "cat", "give-01", "and", "math", "idea"]
LABELS = [":ARG0", ":ARG1", ":ARG2", ":mod", ":time", ":op1"]

#: The 15 scripted fixture sentences (goal, NP_TO_S raising), plus the two
#: coordinations again without raising.
FIXTURE_PARSES = [
    ("John likes the cat", "S", ()),
    ("John likes and Mary hates cats", "S", NP_TO_S),
    ("John was eaten by bears", "S", ()),
    ("What did you decide to eat yesterday", "S", ()),
    ("math teachers", "NP", ()),
    ("people who teach math", "NP", ()),
    ("John made a decision on his major", "S", ()),
    ("Mary seems to practice guitar often", "S", ()),
    ("Mary wants to practice guitar", "S", ()),
    ("Mary persuaded John to practice guitar", "S", ()),
    ("Who did you persuade to smile", "S", ()),
    ("Mary bought a ticket to see the movie", "S", ()),
    ("Tomorrow John may eat rice", "S", ()),
    ("John arrived to eat and to party", "S", ()),
    ("I should and you may eat", "S", NP_TO_S),
    ("John likes and Mary hates cats", "S", ()),
    ("I should and you may eat", "S", ()),
]

#: Paper-lexicon replays that fail at their root step, each with its own
#: message; the first three as script text, which the CLI can run too.
REPLAY_FAILURES = [
    (
        "(& (leaf 0 john.1) (leaf 1 likes.1))",
        "step root: '&' failed: '&' needs a Conj word or a pending conjunction on the right",
    ),
    ("(>T[Foo] (leaf 0 john.1))", "step root: unknown atomic category 'Foo' at offset 0"),
    ("(>T[S] (leaf 0 the.1))", "step root: only graph semantics can be type-raised"),
    ("(>T[(S)] (leaf 0 john.1))", "step root: script names '>T[(S)]' but the engine derives '>T[S]'"),
    (
        Binary("frob", Leaf(0, "john.1"), Leaf(1, "likes.1")),
        "step root: 'frob' failed: unknown combinator name 'frob'",
    ),
    (Unary("frob", Leaf(0, "john.1")), "step root: unknown unary combinator 'frob'"),
]


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
def cyclic_graphs(draw, **kwargs):
    """A graph from :func:`graphs` plus one or two edges back to its root,
    node 0, which reaches every node: :func:`validate` finds a directed
    cycle and nothing else.  No edge is a self-loop or repeats a triple."""
    g = draw(graphs(**kwargs).filter(lambda g: len(g.nodes) > 1))
    sources = draw(st.lists(st.integers(1, len(g.nodes) - 1), min_size=1, max_size=2, unique=True))
    back = tuple(Edge(s, draw(st.sampled_from(LABELS)), 0) for s in sources)
    return AmrSubgraph(g.nodes, g.edges + back, g.root, g.fv)


@st.composite
def raw_graphs(draw, max_nodes: int = 8, max_edges: int = 10):
    """Any AmrSubgraph value, well-formed or not: node ids with repeats,
    gaps and negatives; edges among them, some with a dangling endpoint, an
    inverse label or a repeated triple, which makes cycles and disconnected
    parts; a root and fv entries that may repeat, name a constant or no node
    at all."""
    ids = draw(st.lists(st.integers(-3, 12), max_size=max_nodes))
    nodes = tuple(Node(i, draw(st.sampled_from([None, *CONCEPTS[:3]]))) for i in ids)
    strays = st.integers(-4, 14)
    endpoints = st.one_of(st.sampled_from(ids), strays) if ids else strays
    labels = st.sampled_from([":ARG0", ":ARG1", ":mod", ":ARG0-of"])
    edges = draw(st.lists(st.builds(Edge, endpoints, labels, endpoints), max_size=max_edges))
    fv = draw(st.lists(endpoints, max_size=4))
    return AmrSubgraph(nodes, tuple(edges), draw(endpoints), tuple(fv))


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
    """Reference builder for every graph combinator: the dict-based
    union-find that the engine's one-pass builders replaced, which builds
    every node and edge of a result anew.

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


def reference_substitute(g: AmrSubgraph, h: AmrSubgraph, order: int = 0) -> AmrSubgraph:
    """Reference for ``graph.substitute``: the workspace steps it replaced, on
    a ``DictWorkspace``.  Both graphs are copied in, g's first free variable
    merges with h's root and the result is frozen with g's remaining
    variables, then h's, or h's first when ``order`` > 0."""
    if not g.fv:
        raise ValueError("no free variable to fill")
    ws = DictWorkspace()
    gmap, _ = ws.add_graph(g)
    hmap, _ = ws.add_graph(h)
    ws.merge(gmap[g.fv[0]], hmap[h.root])
    g_rem = [gmap[x] for x in g.fv[1:]]
    h_rem = [hmap[x] for x in h.fv]
    graph, _ = ws.freeze(gmap[g.root], h_rem + g_rem if order else g_rem + h_rem)
    return graph


def reference_relation_wise(f: AmrSubgraph, a: AmrSubgraph, match, order: int) -> AmrSubgraph:
    """Reference for ``combinator.relation_wise_combine``: the workspace steps
    it took before, on a ``DictWorkspace``.  Both graphs are copied in, the
    shared edges' sources merge, then their targets, the function's edge
    takes the resolved label and the result is frozen."""
    ws = DictWorkspace()
    fmap, f_offset = ws.add_graph(f)
    amap, _ = ws.add_graph(a)
    fe, ae = f.edges[match.f_edge_pos], a.edges[match.a_edge_pos]
    partner = ae.source if match.f_side == "source" else ae.target
    root = fmap[f.root]
    if f.root == f.fv[0] and partner != a.root:
        root = amap[a.root]
    ws.merge(fmap[fe.source], amap[ae.source])
    ws.merge(fmap[fe.target], amap[ae.target])
    ws.set_edge_label(f_offset + match.f_edge_pos, match.label)
    a_rest = [amap[x] for i, x in enumerate(a.fv) if i != order]
    f_all = [fmap[x] for x in f.fv]
    graph, _ = ws.freeze(root, a_rest + f_all if order else f_all + a_rest)
    return graph


def reference_relation_wise_match(f: AmrSubgraph, a: AmrSubgraph, k: int) -> SharedEdgeMatch | None:
    """Reference for ``combinator.relation_wise_match``: the double loop it
    replaced, which tries every argument edge for each function edge at the
    function's first free variable and keeps every qualifying pair."""
    if not f.fv or len(a.fv) < k:
        return None
    f1 = f.fv[0]
    ak = a.fv[k - 1]
    found: list[tuple[int, int, str, str]] = []
    for i, fe in enumerate(f.edges):
        if fe.source == f1:
            f_side = "source"
        elif fe.target == f1:
            f_side = "target"
        else:
            continue
        for j, ae in enumerate(a.edges):
            if ak not in (ae.source, ae.target) or ae.source == ae.target:
                continue
            if ae.label == UNDERSPECIFIED:
                continue
            if fe.label != UNDERSPECIFIED and fe.label != ae.label:
                continue
            found.append((i, j, f_side, ae.label))
    if not found:
        return None
    i, j, side, label = found[0]
    return SharedEdgeMatch(i, j, side, label, ambiguous=len(found) > 1)


def reference_type_raise(g: AmrSubgraph) -> AmrSubgraph:
    """Reference for ``graph.raised``: the workspace steps type raising took
    before it, on a ``DictWorkspace``.  g is copied in, a fresh variable is
    added with an underspecified edge to g's root, and the result is rooted
    at the variable, which also takes the first fv slot."""
    ws = DictWorkspace()
    mapping, _ = ws.add_graph(g)
    fresh = ws.add_node(None)
    ws.add_edge(fresh, UNDERSPECIFIED, mapping[g.root])
    graph, _ = ws.freeze(fresh, [fresh] + [mapping[x] for x in g.fv])
    return graph


def reference_coordinate(conj: AmrSubgraph, left: AmrSubgraph, right: AmrSubgraph) -> AmrSubgraph:
    """Reference for ``graph.conjoined``: the workspace steps coordination
    took before it, on a ``DictWorkspace``.  The three graphs are copied in,
    left conjunct first, ``conj``'s root gets ``:op1``/``:op2`` edges to the
    conjunct roots, and the conjuncts' free variables merge pairwise by
    position."""
    ws = DictWorkspace()
    lmap, _ = ws.add_graph(left)
    cmap, _ = ws.add_graph(conj)
    rmap, _ = ws.add_graph(right)
    root = cmap[conj.root]
    ws.add_edge(root, ":op1", lmap[left.root])
    ws.add_edge(root, ":op2", rmap[right.root])
    for lx, rx in zip(left.fv, right.fv):
        ws.merge(lmap[lx], rmap[rx])
    graph, _ = ws.freeze(root, [lmap[x] for x in left.fv] + [rmap[x] for x in right.fv])
    return graph


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<slash>/)
    | (?P<role>:[^\s()/]+)
    | (?P<string>"[^"]*")
    | (?P<fvar>\?[0-9]+)
    | (?P<atom>[^\s()/:?"][^\s()/:"]*)
    """,
    re.VERBOSE,
)


def reference_format_category(cat: Category) -> str:
    """The explicit-stack printer ``format_category`` had before it shared a
    walker with ``Functor.__repr__``, kept as its reference."""
    parts: list[str] = []
    # categories still to print and literal text, innermost-leftmost on top
    stack: list[Category | str] = [cat]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Atom):
            parts.append(item.base if item.feature is None else f"{item.base}[{item.feature}]")
        elif isinstance(item.argument, Functor):
            stack += (")", item.argument, item.slash + "(", item.result)
        else:
            stack += (item.argument, item.slash, item.result)
    return "".join(parts)


def reference_repr(cat: Category) -> str:
    """The explicit-stack ``Functor.__repr__`` from before it shared a walker
    with ``format_category``, kept as its reference; an atom's own repr."""
    parts: list[str] = []
    stack: list[str | Category] = [cat if cat.__class__ is Functor else repr(cat)]
    while stack:
        item = stack.pop()
        if item.__class__ is not Functor:
            parts.append(item)
            continue
        result, argument = item.result, item.argument
        stack += (
            ")",
            argument if argument.__class__ is Functor else repr(argument),
            f", slash={item.slash!r}, argument=",
            result if result.__class__ is Functor else repr(result),
            "Functor(result=",
        )
    return "".join(parts)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """Reference for ``penman._tokenize``: one anchored ``match`` per token or
    whitespace run, failing where no alternative matches."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise penman.PenmanSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def reference_validate(g: AmrSubgraph) -> list[str]:
    """Reference for ``graph.validate``: the set- and dict-keyed version that
    the one-pass, position-indexed one replaced, kept as it was.  Both must
    return the same problems in the same order."""
    problems: list[str] = []
    ids = {n.id for n in g.nodes}
    if len(ids) != len(g.nodes):
        problems.append("duplicate node ids")
    elif [n.id for n in g.nodes] != list(range(len(g.nodes))):
        problems.append("node ids are not 0..n-1 in node order")
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
    for x in sorted(free - set(listed)):
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


def reference_finalize_check(c: Constituent) -> list[str]:
    """Reference for ``derivation.finalize_check``: the version that ran the
    whole of ``validate`` on a final graph, kept as it was.  On every graph
    a step builds from valid lexical graphs the two find the same problems."""
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
    problems.extend(validate(sem))
    return problems


def forced_variant(
    direction: str, order: int, f: Constituent, a: Constituent, variant: str
) -> AmrSubgraph:
    """The graph of one variant, ``"regular"`` or ``"relation"``, of an
    order-``order`` combination (order 0 is application) of two graph
    constituents, whether or not the engine would pick that variant.
    Raises ``CombinationError`` when the categories do not match, the
    variant cannot build a graph, or the graph breaks the
    functional-isomorphism principle."""
    match = match_categories(direction, order, f.category, a.category)
    if match is None:
        raise CombinationError("categories do not match")
    fsem, asem = f.semantics, a.semantics
    if variant == "relation":
        shared = relation_wise_match(fsem, asem, order + 1)
        if shared is None:
            raise CombinationError("forced relation-wise combination, but no shared edge exists")
        try:
            graph = relation_wise_combine(fsem, asem, shared, order)
        except UnificationError as err:
            raise CombinationError(f"shared-edge unification failed: {err}") from err
    else:
        if not fsem.fv:
            raise CombinationError("function semantics has no free variable to fill")
        graph = substitute(fsem, asem, order)
    problems = check_iso_principle(match[0], graph)
    if problems:
        raise CombinationError("result breaks the functional-isomorphism principle: " + "; ".join(problems))
    return graph


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
    raise ``CombinationError`` or whose rule the config's whitelist leaves
    out."""
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
    return out if config.enabled is None else [o for o in out if o.rule in config.enabled]


def brute_force_forest(tokens, lexicon, config: ParserConfig) -> list[tuple[Constituent, int]]:
    """Final (category, semantic iso-class) pairs found by enumerating all
    bracketings, each with its number of derivations.

    Recursion over spans with exact-text deduplication only; a span's count
    for an exact item is the number of ways to build it there, and raising
    an item passes its count on to the raised item, once per rule.
    Iso-classes are formed at the very end, so this is independent of the
    chart's pruning and of its counting, and finals are checked by
    :func:`reference_finalize_check`, which runs the whole of ``validate``.
    """
    n = len(tokens)
    memo: dict[tuple[int, int], list[tuple[Constituent, int]]] = {}
    raisings = [
        rule for rule in config.type_raising
        if config.enabled is None or raise_rule_name(rule.target, rule.direction) in config.enabled
    ]

    def closure(items: list[tuple[Constituent, int]]) -> list[tuple[Constituent, int]]:
        reps: dict[str, Constituent] = {}
        base: dict[str, int] = {}
        for c, count in items:
            k = _exact_key(c)
            reps.setdefault(k, c)
            base[k] = base.get(k, 0) + count
        sources: dict[str, list[str]] = {}  # raised key -> keys raised into it
        frontier = list(reps)
        while frontier:
            k = frontier.pop(0)
            c = reps[k]
            for rule in raisings:
                if unify(rule.source, c.category) is None:
                    continue
                if not isinstance(c.semantics, AmrSubgraph):
                    continue
                try:
                    raised = type_raise(c, rule.target, rule.direction).constituent
                except CombinationError:
                    continue
                rk = _exact_key(raised)
                sources.setdefault(rk, []).append(k)
                if rk not in reps:
                    reps[rk] = raised
                    base[rk] = 0
                    frontier.append(rk)
        totals: dict[str, int] = {}

        def total(k: str) -> int:  # raising grows the category, so this ends
            if k not in totals:
                totals[k] = base[k] + sum(total(src) for src in sources.get(k, ()))
            return totals[k]

        return [(c, total(k)) for k, c in reps.items()]

    def span(i: int, j: int) -> list[tuple[Constituent, int]]:
        if (i, j) in memo:
            return memo[(i, j)]
        if j - i == 1:
            items = [
                (Constituent(i, j, e.category, e.semantics), 1) for e in lexicon.lookup(tokens[i])
            ]
        else:
            items = []
            for split in range(i + 1, j):
                for left, lcount in span(i, split):
                    for right, rcount in span(split, j):
                        items.extend(
                            (o.constituent, lcount * rcount)
                            for o in try_every_combinator(left, right, config)
                        )
        memo[(i, j)] = closure(items)
        return memo[(i, j)]

    finals = [
        (c, count)
        for c, count in span(0, n)
        if isinstance(c.category, Atom)
        and c.category.base == config.goal
        and not reference_finalize_check(c)
    ]
    reps: list[Constituent] = []
    counts: list[int] = []
    for c, count in finals:
        for k, rep in enumerate(reps):
            if rep.category == c.category and iso_equal(rep.semantics, c.semantics):
                counts[k] += count
                break
        else:
            reps.append(c)
            counts.append(count)
    return list(zip(reps, counts))


def brute_force_classes(tokens, lexicon, config: ParserConfig) -> list[AmrSubgraph]:
    """Final semantic iso-classes of :func:`brute_force_forest`, whatever
    their category."""
    classes: list[AmrSubgraph] = []
    for c, _ in brute_force_forest(tokens, lexicon, config):
        if not any(iso_equal(c.semantics, rep) for rep in classes):
            classes.append(c.semantics)
    return classes


def constituent(text_category: str, text_sem, start: int = 0, end: int = 1) -> Constituent:
    """Quick constituent builder for unit tests."""
    from ccgamr.category import parse_category
    from ccgamr.combinator import IDENTITY

    sem = IDENTITY if text_sem == "ID" else penman.parse(text_sem)
    return Constituent(start, end, parse_category(text_category), sem)


def deep_lexicon_text(slashes: int = 1000) -> str:
    """A lexicon whose ``big`` category is ``S/NP/.../NP`` with ``slashes``
    slashes (no parentheses, so no nesting limit applies) and whose ``wide``
    takes such a category as its argument."""
    deep = "S" + "/NP" * slashes
    return (
        f"big | {deep} | (?1 :mod (b/big))\n"
        "and | Conj | (a/and)\n"
        f"wide | S/({deep}) | (w/wide :mod ?1)\n"
    )


def reference_goal_categories(
    tokens: list[str], lexicon: Lexicon, config: ParserConfig, raisings: tuple[TypeRaisingRule, ...]
) -> dict[tuple[int, int], set[Category]]:
    """Reference for ``derivation._goal_categories``: the set-based pass that
    the bit-mask one replaced, kept as it was.  Both must return equal maps.

    Per span, the categories on some category-level derivation of the goal
    over the whole sentence; empty if there is none.

    An inside pass over categories alone, then an outside pass down from the
    goal atoms at (0, n).  A graph step succeeds only where its categories
    match, so every chart item that can feed a result has its (span,
    category) here.
    """
    n = len(tokens)
    raised: dict[Category, list[Category]] = {}  # what type_raise makes of each category

    def closed(cats: set[Category]) -> frozenset[Category]:
        todo = list(cats) if raisings else []
        while todo:
            cat = todo.pop()
            if cat not in raised:
                raised[cat] = [
                    raised_category(cat, r.target, r.direction) for r in raisings if unify(r.source, cat) is not None
                ]
            todo += [up for up in raised[cat] if up not in cats]
            cats.update(raised[cat])
        return frozenset(cats)

    inside = {(i, i + 1): closed({e.category for e in lexicon.lookup(t)}) for i, t in enumerate(tokens)}
    rules = (config.max_composition_order, config.enabled)
    results: dict[tuple, set[Category]] = {}  # per pair of cells, which often repeat
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            cats: set[Category] = set()
            for split in range(i + 1, i + width):
                cells = (inside[i, split], inside[split, i + width])
                if cells not in results:
                    results[cells] = {c for l, r in product(*cells) for c in _category_rules(l, r, *rules)[-1]}
                cats |= results[cells]
            inside[i, i + width] = closed(cats)
    goal = {c for c in inside[0, n] if isinstance(c, Atom) and c.base == config.goal}
    wanted = {(0, n): goal} if goal else {}
    for width in range(n, 0, -1):
        for i in range(n - width + 1):
            want = wanted.get((i, i + width))
            if want is None:
                continue
            size = 0
            while raisings and size != len(want):  # a wanted raised category wants its source
                size = len(want)
                want.update([c for c in inside[i, i + width] if not want.isdisjoint(raised[c])])
            for split in range(i + 1, i + width):
                for lcat, rcat in product(inside[i, split], inside[split, i + width]):
                    if not want.isdisjoint(_category_rules(lcat, rcat, *rules)[-1]):
                        wanted.setdefault((i, split), set()).add(lcat)
                        wanted.setdefault((split, i + width), set()).add(rcat)
    return wanted
