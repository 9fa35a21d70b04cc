"""Laws checked on every input up to a small bound (``smallscope``), each
printing its case counts (``pytest -s`` shows them).  Tier-1 runs the 2-node
tier; the tests marked ``three_nodes`` run only with SMALLSCOPE_NODES=3.

The rebracketing laws decide which guards ``_Chart.rebracketed`` and
``_REBRACKETINGS`` need: the code keeps only those the laws show needed, and
each has its smallest failing input among ``test_derivation.GUARDED``."""

from collections import Counter
from itertools import permutations

import pytest

from ccgamr.category import Atom, Functor
from ccgamr.combinator import IDENTITY
from ccgamr.graph import UNDERSPECIFIED, AmrSubgraph, iso_equal
from smallscope import LABELS, NODES, category_law, categories, graphs, rebracketing_law
from support import iso_oracle, relabeled

three_nodes = pytest.mark.skipif(NODES < 3, reason="the 3-node tier runs with SMALLSCOPE_NODES=3")

S, S_DCL = Atom("S"), Atom("S", "dcl")
#: The rows of q = 0 forward and q > p backward, e.g. ((A > B) >B C) =
#: A > (B >B C) and ((A <B B) < C) = A <B (B < C): only a category with
#: three slashes reaches them.
UNBOUNDED = [(">", "forward", 1), (">", "forward", 2), ("<B", "backward", 0), ("<B2", "backward", 1)]


def _report(title: str, counts) -> None:
    print(f"\n{title}: " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items(), key=str)))


def _iso_cases(gs: list[AmrSubgraph], pairs) -> Counter:
    """``iso_equal`` against ``iso_oracle`` on ``pairs`` of ``gs``, then on
    each graph against its renumbered copies and every order of its edges."""
    counts = Counter()
    for g, h in pairs:
        same = iso_equal(g, h)
        assert same == iso_oracle(g, h), (g, h)
        counts["pairs", same] += 1
    for g in gs:
        copies = [relabeled(g, seed) for seed in range(3)]
        copies += [AmrSubgraph(g.nodes, edges, g.root, g.fv) for edges in permutations(g.edges)]
        for h in copies:
            assert iso_equal(g, h) and iso_oracle(g, h), (g, h)
        counts["copies"] += len(copies)
    return counts


def test_iso_equal_agrees_with_the_oracle_on_every_pair_of_two_node_graphs():
    gs = graphs(2)
    counts = _iso_cases(gs, ((g, h) for g in gs for h in gs))
    _report("iso_equal, 2 nodes", counts)
    assert len(gs) == 93
    assert counts == {("pairs", False): 8496, ("pairs", True): 153, "copies": 432}


@three_nodes
def test_iso_equal_agrees_with_the_oracle_on_three_node_graphs():
    """Every pair of graphs with at most 3 nodes that agree in node, edge
    and free-variable counts, concepts and root concept: any other pair
    differs in what an isomorphism keeps, and the 2-node tier checks that
    both reject such pairs."""
    gs = graphs(3)
    buckets: dict = {}
    for g in gs:
        concepts = tuple(sorted(n.concept or "" for n in g.nodes))
        buckets.setdefault((len(g.nodes), len(g.edges), len(g.fv), concepts, g.nodes[g.root].concept), []).append(g)
    counts = _iso_cases(gs, ((g, h) for bucket in buckets.values() for g in bucket for h in bucket))
    _report("iso_equal, 3 nodes", counts)
    assert len(gs) == 6591 and sum(n for (kind, *_), n in counts.items() if kind == "pairs") == 2611173


@pytest.fixture(scope="module")
def two_slashes():
    return category_law(categories(2))


def test_rebracketing_categories_never_cross_and_feature_passing_needs_the_category_guard(two_slashes):
    """Over every category triple with at most two slashes: where the
    landings of B C and A (B C) exist, so uncrossed, the skipped step
    (A B) C is never crossed, so ``rebracketed`` needs no crossing guard.
    It may have another category than A (B C), by a feature that a modifier
    passes on: S/S[dcl] >B S/S is S/S, which passes S[dcl] on, while
    S/S[dcl] > S[dcl] is S (GUARDED lost_feature).  The ``UNBOUNDED`` rows
    never reach a skipped step that matches."""
    verdicts, triples = two_slashes
    _report("rebracketing categories, 2 slashes", verdicts)
    total = Counter()
    for (key, verdict), n in verdicts.items():
        total[verdict] += n
    assert total == {"same category": 186344, "other category": 4006, "no match": 1020}
    assert {key for key, verdict in verdicts if verdict != "no match"}.isdisjoint(UNBOUNDED)
    lost_feature = [Functor(S, "/", S_DCL), Functor(S, "/", S), S_DCL]
    assert category_law(lost_feature, [(">B", "forward", 0)])[0][(">B", "forward", 0), "other category"] == 1


def test_rebracketing_law_on_two_node_graphs(two_slashes):
    """Every skip over graphs of at most 2 nodes with labels :ARG0 and :?,
    and IDENTITY, in each slot, under a category triple per arity pattern
    with at most two slashes: the skipped step gives A (B C)'s category and
    an isomorphic graph, also where B is IDENTITY, which ``rebracketed``
    allows.  (All three labels: the 3-node tier.)"""
    _, triples = two_slashes
    operands = graphs(2, (":ARG0", UNDERSPECIFIED)) + [IDENTITY]
    counts = Counter()
    for key, found in triples.items():
        for cats in found:
            rebracketing_law(key, cats, [operands] * 3, counts)
    _report("rebracketing law, 2 nodes, :ARG0 and :?", counts)
    assert sum(counts[key] for key in triples) == 48308 and counts["B is IDENTITY"] == 2214


@three_nodes
def test_rebracketing_law_on_two_node_graphs_with_every_label(two_slashes):
    _, triples = two_slashes
    operands = graphs(2) + [IDENTITY]
    counts = Counter()
    for key, found in triples.items():
        for cats in found:
            rebracketing_law(key, cats, [operands] * 3, counts)
    _report("rebracketing law, 2 nodes", counts)
    assert sum(counts[key] for key in triples) == 472114 and counts["B is IDENTITY"] == 10226


@three_nodes
def test_rebracketing_law_with_a_three_node_primary_functor(two_slashes):
    """The primary functor (A forward, C backward) with at most 3 nodes, B
    with at most 2 over :ARG0 and :?, the third slot with 1; IDENTITY in
    every slot."""
    _, triples = two_slashes
    small, middle, big = (graphs(n, labels) + [IDENTITY] for n, labels in
                          ((1, LABELS), (2, (":ARG0", UNDERSPECIFIED)), (3, LABELS)))
    counts = Counter()
    for key, found in triples.items():
        operands = [big, middle, small] if key[1] == "forward" else [small, middle, big]
        for cats in found:
            rebracketing_law(key, cats, operands, counts)
    _report("rebracketing law, 3-node primary functor", counts)
    assert sum(counts[key] for key in triples) == 413244 and counts["B is IDENTITY"] == 16718


@three_nodes
def test_the_unbounded_rebracketing_rows_fire_on_three_slashes_and_keep_the_law():
    """The ``UNBOUNDED`` rows fire on categories with three slashes, e.g.
    A = (S/S)/(S/S) for ((A > B) >B C), and the skip is sound there too: the
    primary functor's one free variable makes the order of the outer step
    immaterial to the graph."""
    verdicts, triples = category_law(categories(3), UNBOUNDED)
    _report("unbounded rebracketing rows, 3 slashes", verdicts)
    assert {key for key, verdict in verdicts if verdict == "same category"} == set(UNBOUNDED)
    operands = graphs(2, (":ARG0", UNDERSPECIFIED)) + [IDENTITY]
    counts = Counter()
    for key, found in triples.items():
        for cats in found:
            rebracketing_law(key, cats, [operands] * 3, counts)
    _report("rebracketing law on the unbounded rows, 2 nodes, :ARG0 and :?", counts)
    assert set(counts) - {"B is IDENTITY"} == set(UNBOUNDED)
    assert sum(counts[key] for key in UNBOUNDED) == 4532 and counts["B is IDENTITY"] == 460
