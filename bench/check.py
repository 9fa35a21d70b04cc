"""Independent output checks: graph isomorphism, tree canonical forms, DOT.

None of this calls into ccgamr.  Graphs are compared in a neutral form,
:class:`Graph`, built either from a library ``AmrSubgraph`` (by reading its
fields) or from the DOT text that ``ccgamr render --format dot`` prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations, product


@dataclass(frozen=True)
class Graph:
    concepts: dict  # node id -> concept, None for a free variable
    edges: frozenset  # (source, label, target) triples
    root: int
    fv: tuple  # free-variable node ids in order


def from_amr(g) -> Graph:
    """Neutral form of an ``AmrSubgraph``, read field by field."""
    return Graph(
        {n.id: n.concept for n in g.nodes},
        frozenset((e.source, e.label, e.target) for e in g.edges),
        g.root,
        tuple(g.fv),
    )


def isomorphic(a: Graph, b: Graph) -> bool:
    """Brute-force bijection search.

    Free variables are pinned by fv position and the root to the root;
    constants permute only within same-concept groups.  Exponential in the
    size of the largest group, so it is meant for fixture-sized graphs.
    """
    if len(a.concepts) != len(b.concepts) or len(a.edges) != len(b.edges):
        return False
    if len(a.fv) != len(b.fv):
        return False
    groups_a: dict[str, list[int]] = {}
    groups_b: dict[str, list[int]] = {}
    for g, groups in ((a, groups_a), (b, groups_b)):
        for node, concept in g.concepts.items():
            if concept is not None:
                groups.setdefault(concept, []).append(node)
    if {c: len(v) for c, v in groups_a.items()} != {c: len(v) for c, v in groups_b.items()}:
        return False
    base = dict(zip(a.fv, b.fv))
    concepts = sorted(groups_a)
    for assignment in product(*(permutations(groups_b[c]) for c in concepts)):
        mapping = dict(base)
        for concept, image in zip(concepts, assignment):
            mapping.update(zip(groups_a[concept], image))
        if mapping.get(a.root) != b.root:
            continue
        if {(mapping[s], label, mapping[t]) for s, label, t in a.edges} == b.edges:
            return True
    return False


# ---------------------------------------------------------------------------
# Trees: the chain workloads build their gold graphs as nested tuples
# ``(concept, ((label, subtree), ...))`` and compare canonical strings.

def canon(tree) -> str:
    concept, children = tree
    parts = sorted(f" {label} {canon(child)}" for label, child in children)
    return "(" + (concept or "?") + "".join(parts) + ")"


def tree_of(g: Graph):
    """The graph as a nested tuple tree, or None unless it is a tree.

    A tree here has no free variables and reaches every node from the root
    along stored edge directions by exactly one path.  Two such graphs are
    isomorphic exactly when their :func:`canon` strings are equal.
    """
    if g.fv:
        return None
    children: dict[int, list] = {node: [] for node in g.concepts}
    for s, label, t in g.edges:
        children[s].append((label, t))
    seen: set[int] = set()

    def walk(u):
        if u in seen:
            return None
        seen.add(u)
        out = []
        for label, t in children[u]:
            sub = walk(t)
            if sub is None:
                return None
            out.append((label, sub))
        return g.concepts[u], tuple(out)

    tree = walk(g.root)
    if tree is None or len(seen) != len(g.concepts):
        return None
    return tree


# ---------------------------------------------------------------------------
# DOT, as printed by ``ccgamr render --format dot``

_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="((?:[^"\\]|\\.)*)" shape=(\w+)( peripheries=2)?\];$')
_DOT_EDGE = re.compile(r'^\s*n(\d+) -> n(\d+) \[label="((?:[^"\\]|\\.)*)"\];$')


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def from_dot(text: str) -> Graph | None:
    """Rebuild a graph from DOT output, or None if the text is malformed."""
    lines = text.strip().splitlines()
    if len(lines) < 3 or lines[0] != "digraph amr {" or lines[-1] != "}":
        return None
    concepts: dict[int, str | None] = {}
    free_at: dict[int, int] = {}
    edges = set()
    roots = []
    for line in lines[2:-1]:
        m = _DOT_NODE.match(line)
        if m:
            node, label, shape = int(m.group(1)), _unescape(m.group(2)), m.group(3)
            if shape == "box":
                if not re.fullmatch(r"\?\d+", label):
                    return None
                concepts[node] = None
                free_at[int(label[1:])] = node
            else:
                concepts[node] = label
            if m.group(4):
                roots.append(node)
            continue
        m = _DOT_EDGE.match(line)
        if m is None:
            return None
        label = _unescape(m.group(3))
        edges.add((int(m.group(1)), ":?" if label == "?" else ":" + label, int(m.group(2))))
    if len(roots) != 1 or sorted(free_at) != list(range(1, len(free_at) + 1)):
        return None
    fv = tuple(free_at[i] for i in sorted(free_at))
    return Graph(concepts, frozenset(edges), roots[0], fv)
