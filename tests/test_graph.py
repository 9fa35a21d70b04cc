import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgamr.graph import (
    AmrSubgraph,
    Edge,
    Node,
    UnificationError,
    Workspace,
    invariant,
    iso_equal,
    merge_nodes,
    substitute,
    validate,
    with_fv_order,
)
from ccgamr.penman import parse

from support import CONCEPTS, LABELS, DictWorkspace, graphs, iso_oracle, relabeled


def test_substitute_fills_first_variable():
    g = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    result = substitute(g, 1, parse("(c/cat)"))
    assert iso_equal(result.graph, parse("(l/like-01 :ARG0 ?1 :ARG1 c/cat)"))
    assert len(result.g_remaining) == 1
    assert result.h_remaining == ()


def test_substitute_into_bare_variable_is_identity_shaped():
    g = parse("?1")
    h = parse("(c/cat)")
    assert iso_equal(substitute(g, 1, h).graph, h)


def test_substitute_attaches_whole_subgraph():
    g = parse("(d/decide-01 :ARG1 ?1)")
    h = parse("(m/major :poss (h/he))")
    assert iso_equal(substitute(g, 1, h).graph, parse("(d/decide-01 :ARG1 (m/major :poss he))"))


def test_substitute_keeps_free_root_in_argument_position():
    # argument rooted at a free variable: the merged node stays free
    g = parse("?1")
    h = parse("(?1 :mod (y/yellow))")
    result = substitute(g, 1, h)
    assert result.g_remaining == ()
    assert len(result.h_remaining) == 1
    assert iso_equal(result.graph, h)


def test_substitute_position_out_of_range():
    g = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    with pytest.raises(ValueError):
        substitute(g, 3, parse("(c/cat)"))
    with pytest.raises(ValueError):
        substitute(g, 0, parse("(c/cat)"))


def test_merge_two_free_variables_shares_incoming_edges():
    g = parse("(g/go-01 :ARG0 ?1 :op1 (r/run-01 :ARG0 ?2))")
    merged = merge_nodes(g, g.fv[0], g.fv[1])
    assert len(merged.fv) == 1
    survivor = merged.fv[0]
    labels = [e.label for e in merged.incoming(survivor)]
    assert labels.count(":ARG0") == 2


def test_merge_free_variable_with_constant():
    g = parse("(g/go-01 :ARG0 ?1 :op1 (y/you))")
    you = next(n.id for n in g.nodes if n.concept == "you")
    merged = merge_nodes(g, g.fv[0], you)
    assert merged.fv == ()
    kept = next(n for n in merged.nodes if n.concept == "you")
    assert {e.label for e in merged.incoming(kept.id)} == {":ARG0", ":op1"}


def test_merge_equal_constants_is_allowed():
    g = parse("(g/go-01 :ARG0 (e/eat-01) :ARG1 (e2/eat-01))")
    pair = [n.id for n in g.nodes if n.concept == "eat-01"]
    merged = merge_nodes(g, pair[0], pair[1])
    assert sum(1 for n in merged.nodes if n.concept == "eat-01") == 1


def test_merge_conflicting_constants_fails():
    g = parse("(g/go-01 :ARG0 (c/cat) :ARG1 (d/dog))")
    cat = next(n.id for n in g.nodes if n.concept == "cat")
    dog = next(n.id for n in g.nodes if n.concept == "dog")
    with pytest.raises(UnificationError):
        merge_nodes(g, cat, dog)


def test_validate_accepts_figure_shaped_graph():
    g = parse("(p/pred :ARG0 (a/alpha) :ARG1 ?1 :ARG2 ?2)")
    assert validate(g) == []


def test_validate_flags_variable_missing_from_fv():
    g = AmrSubgraph((Node(0, "x"), Node(1, None)), (Edge(0, ":mod", 1),), 0, ())
    assert any("missing from fv" in p for p in validate(g))


def test_validate_flags_two_node_cycle():
    g = AmrSubgraph(
        (Node(0, "a"), Node(1, "b")),
        (Edge(0, ":x", 1), Edge(1, ":y", 0)),
        0,
        (),
    )
    assert any("cycle" in p for p in validate(g))


def test_validate_flags_disconnected_graph():
    g = AmrSubgraph((Node(0, "a"), Node(1, "b")), (), 0, ())
    assert any("disconnected" in p for p in validate(g))


def test_with_fv_order_requires_permutation():
    g = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    swapped = with_fv_order(g, (g.fv[1], g.fv[0]))
    assert swapped.fv == (g.fv[1], g.fv[0])
    with pytest.raises(ValueError):
        with_fv_order(g, (g.fv[0], g.fv[0]))


def test_iso_equal_ignores_node_identity():
    g = parse('(e/eat-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 ?1)')
    assert iso_equal(g, relabeled(g, seed=5))


def test_iso_equal_same_graph_two_spellings():
    a = parse("(p/person :ARG0-of (t/teach-01 :ARG1 (m/math)))")
    b = parse("(t/teach-01 :ARG0 (p2/person) :ARG1 (m2/math))")
    # same edges, different root: not isomorphic as rooted graphs
    assert not iso_equal(a, b)
    c = parse("(p/person :ARG0-of (t/teach-01 :ARG1 m/math))")
    assert iso_equal(a, c)


def test_iso_equal_distinguishes_modifier_placement(gold_path):
    derived = parse(gold_path("modal_preposed").read_text())
    correct = parse(gold_path("modal_preposed_correct").read_text())
    assert not iso_equal(derived, correct)


def test_iso_equal_pins_variables_to_positions():
    a = parse("(g/go-01 :ARG0 ?1 :ARG1 ?2)")
    b = parse("(g/go-01 :ARG0 ?2 :ARG1 ?1)")
    assert not iso_equal(a, b)
    assert iso_equal(a, with_fv_order(b, (b.fv[1], b.fv[0])))


@given(g=graphs(max_fv=2, min_fv=1), h=graphs(max_fv=2))
@settings(max_examples=150, deadline=None)
def test_substitute_counting_laws(g, h):
    before_constants = g.constant_count() + h.constant_count()
    before_free = len(g.fv) + len(h.fv)
    result = substitute(g, 1, h).graph
    assert result.constant_count() == before_constants
    assert len([n for n in result.nodes if n.is_free]) == before_free - 1
    assert validate(result) == []


@given(h=graphs(max_fv=2))
@settings(max_examples=60, deadline=None)
def test_substitute_into_lone_variable_yields_argument(h):
    lone = parse("?1")
    assert iso_equal(substitute(lone, 1, h).graph, h)


@given(g=graphs(max_nodes=6, max_fv=2), seed=st.integers(0, 999))
@settings(max_examples=100, deadline=None)
def test_iso_is_reflexive_and_symmetric_under_relabeling(g, seed):
    other = relabeled(g, seed)
    assert iso_equal(g, g)
    assert iso_equal(g, other)
    assert iso_equal(other, g)
    assert iso_oracle(g, other)


def test_iso_transitive_spot_check():
    g = parse("(e/eat-01 :ARG0 (p/person) :ARG1 ?1)")
    a = relabeled(g, seed=11)
    b = relabeled(a, seed=23)
    assert iso_equal(g, a) and iso_equal(a, b) and iso_equal(g, b)


@given(a=graphs(max_nodes=6, max_fv=2), b=graphs(max_nodes=6, max_fv=2), seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_invariant_is_an_isomorphism_invariant(a, b, seed):
    assert invariant(a) == invariant(relabeled(a, seed))
    if iso_equal(a, b):
        assert invariant(a) == invariant(b)


def test_invariant_separates_root_and_fv_count():
    assert invariant(parse("(a/alpha :mod (b/beta))")) != invariant(parse("(b/beta :mod-of (a/alpha))"))
    assert invariant(parse("(g/go-01 :ARG0 ?1)")) != invariant(parse("(g/go-01 :ARG0 (y/you))"))


def test_validate_long_chain_and_three_cycle():
    n = 1500
    chain = AmrSubgraph(
        tuple(Node(i, "x") for i in range(n)),
        tuple(Edge(i, ":mod", i + 1) for i in range(n - 1)),
        0,
        (),
    )
    assert validate(chain) == []
    cycle = AmrSubgraph(
        tuple(Node(i, "x") for i in range(3)),
        tuple(Edge(i, ":mod", (i + 1) % 3) for i in range(3)),
        0,
        (),
    )
    assert "graph has a directed cycle" in validate(cycle)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_workspace_agrees_with_the_dict_reference(data):
    """The same random operations give equal graphs and equal final ids."""
    ws, ref = Workspace(), DictWorkspace()
    nodes = edges = 0
    ids = lambda: st.integers(0, nodes - 1)

    def freeze_both():
        root = data.draw(ids())
        candidates = data.draw(st.lists(ids(), max_size=4))
        graph, final = ws.freeze(root, candidates)
        ref_graph, relabel = ref.freeze(root, candidates)
        assert graph == ref_graph
        assert final == [relabel[ref.find(i)] for i in range(nodes)]
        assert [ws.concept_of(i) for i in range(nodes)] == [ref.concept_of(i) for i in range(nodes)]

    steps = data.draw(st.lists(st.sampled_from(["graph", "node", "edge", "merge", "label", "freeze"]),
                               min_size=1, max_size=10))
    for step in ["graph"] + steps:
        if step == "graph":
            g = data.draw(graphs(max_nodes=5, max_fv=2))
            if data.draw(st.booleans()):  # ids not 0..n-1 in order: nothing is reused
                g = relabeled(g, data.draw(st.integers(0, 99)))
            assert ws.add_graph(g) == ref.add_graph(g)
            nodes += len(g.nodes)
            edges += len(g.edges)
        elif step == "node":
            concept = data.draw(st.sampled_from([None, *CONCEPTS]))
            assert ws.add_node(concept) == ref.add_node(concept) == nodes
            nodes += 1
        elif step == "edge":
            triple = (data.draw(ids()), data.draw(st.sampled_from(LABELS)), data.draw(ids()))
            assert ws.add_edge(*triple) == ref.add_edge(*triple) == edges
            edges += 1
        elif step == "merge":
            a, b = data.draw(ids()), data.draw(ids())
            try:
                expected = ref.merge(a, b)
            except UnificationError:
                with pytest.raises(UnificationError):
                    ws.merge(a, b)
            else:
                assert ws.merge(a, b) == expected
        elif step == "label" and edges:
            i, label = data.draw(st.integers(0, edges - 1)), data.draw(st.sampled_from(LABELS))
            ws.set_edge_label(i, label)
            ref.set_edge_label(i, label)
        elif step == "freeze":
            freeze_both()
    freeze_both()


def test_substitute_reuses_the_untouched_nodes_and_edges_of_g():
    g = parse("(l/like-01 :ARG0 (j/john :mod (o/old)) :ARG1 ?1)")
    h = parse("(c/cat :mod (b/big))")
    result = substitute(g, 1, h).graph
    assert iso_equal(result, parse("(l/like-01 :ARG0 (j/john :mod (o/old)) :ARG1 (c/cat :mod (b/big)))"))
    slot = g.fv[0]
    for node in g.nodes:
        if node.id != slot:
            assert result.node(node.id) is node
    # the variable that absorbed h's constant root is a new node
    assert result.node(slot) is not g.node(slot) and result.node(slot).concept == "cat"
    for edge in g.edges:
        assert any(e is edge for e in result.edges)
    # h's ids moved, so its objects were built anew
    assert not any(e is h_edge for e in result.edges for h_edge in h.edges)
