import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccgamr.category import parse_category
from ccgamr.combinator import (
    Constituent,
    SharedEdgeMatch,
    combine_application,
    relation_wise_combine,
    relation_wise_match,
)
from ccgamr.graph import (
    UNDERSPECIFIED,
    AmrSubgraph,
    Edge,
    Node,
    UnificationError,
    conjoined,
    has_cycle,
    invariant,
    iso_equal,
    raised,
    substitute,
    validate,
)
from ccgamr.penman import parse

from support import (
    LABELS,
    cyclic_graphs,
    graphs,
    iso_oracle,
    raw_graphs,
    reference_coordinate,
    reference_relation_wise,
    reference_substitute,
    reference_type_raise,
    reference_validate,
    relabeled,
)


def test_substitute_fills_first_variable():
    g = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    result = substitute(g, parse("(c/cat)"))
    assert iso_equal(result, parse("(l/like-01 :ARG0 ?1 :ARG1 c/cat)"))
    assert result.fv == g.fv[1:]


def test_substitute_into_bare_variable_is_identity_shaped():
    g = parse("?1")
    h = parse("(c/cat)")
    assert iso_equal(substitute(g, h), h)


def test_substitute_attaches_whole_subgraph():
    g = parse("(d/decide-01 :ARG1 ?1)")
    h = parse("(m/major :poss (h/he))")
    assert iso_equal(substitute(g, h), parse("(d/decide-01 :ARG1 (m/major :poss he))"))


def test_substitute_keeps_free_root_in_argument_position():
    # argument rooted at a free variable: the merged node stays free
    g = parse("?1")
    h = parse("(?1 :mod (y/yellow))")
    result = substitute(g, h)
    assert result.fv == (g.fv[0],)
    assert iso_equal(result, h)


def test_substitute_orders_the_remaining_variables_by_the_composition_order():
    g = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    h = parse("(c/cat :mod ?1)")
    cat_mod = 3  # g's three nodes keep their ids, h's variable comes next
    assert substitute(g, h).fv == (g.fv[1], cat_mod)
    assert substitute(g, h, order=1).fv == substitute(g, h, order=2).fv == (cat_mod, g.fv[1])


def test_substitute_without_a_free_variable_raises():
    with pytest.raises(ValueError, match="^no free variable to fill$"):
        substitute(parse("(l/like-01 :ARG0 (c/cat))"), parse("(d/dog)"))


def test_merge_two_free_variables_shares_incoming_edges():
    # coordination identifies the conjuncts' variables pairwise
    left = parse("(g/go-01 :ARG0 ?1)")
    right = parse("(r/run-01 :ARG0 ?1)")
    merged = conjoined(parse("(a/and)"), left, right)
    assert len(merged.fv) == 1
    survivor = merged.fv[0]
    labels = [e.label for e in merged.incoming(survivor)]
    assert labels.count(":ARG0") == 2


def _relation_wise(f: AmrSubgraph, a: AmrSubgraph) -> AmrSubgraph:
    match = relation_wise_match(f, a, 1)
    assert match is not None
    graph = relation_wise_combine(f, a, match, 0)
    assert graph == reference_relation_wise(f, a, match, 0)
    return graph


def test_merge_free_variable_with_constant():
    # the shared :ARG0 edge's sources merge: f's variable ?2 with want-01
    f = parse("(?2 :ARG0 ?1)")
    a = parse("(w/want-01 :ARG0 ?1 :ARG1 (g/go-01))")
    merged = _relation_wise(f, a)
    assert merged.fv == (1,)
    assert merged.concept(merged.root) == "want-01"
    assert iso_equal(merged, a)


def test_merge_equal_constants_is_allowed():
    f = parse("(?1 :mod (b/big))")
    a = parse("(?1 :mod (b/big) :ARG0 (c/cat))")
    merged = _relation_wise(f, a)
    assert sum(1 for n in merged.nodes if n.concept == "big") == 1
    assert iso_equal(merged, a)


def _one_slot(f, a):
    """f and a as adjacent constituents whose categories admit one free
    variable in f, in a and in the result of applying f to a."""
    return Constituent(0, 1, parse_category("(S/NP)/NP"), f), Constituent(1, 2, parse_category("NP"), a)


def test_self_loop_argument_edge_is_not_shared():
    # folding ?1 :ARG0 ?1 onto ?1 :ARG0 cat would join the variable with cat;
    # PENMAN text and validate() reject the cycle, so the graph is built here
    f = parse("(?1 :ARG0 (c/cat))")
    a = AmrSubgraph((Node(0),), (Edge(0, ":ARG0", 0),), 0, (0,))
    assert relation_wise_match(f, a, 1) is None
    out = combine_application("forward", *_one_slot(f, a))
    assert out.rule == ">" and out.constituent.semantics == substitute(f, a)


def test_merge_conflicting_constants_fails():
    f = parse("(?1 :mod (b/big))")
    a = parse("(?1 :mod (s/small))")
    match = relation_wise_match(f, a, 1)
    with pytest.raises(UnificationError, match="^cannot merge constants 'big' and 'small'$"):
        relation_wise_combine(f, a, match, 0)
    out = combine_application("forward", *_one_slot(f, a))
    assert out.rule == ">" and out.constituent.semantics == substitute(f, a)
    assert out.notes[0] == (
        "shared-edge unification failed (cannot merge constants 'big' and 'small');"
        " fell back to the regular variant"
    )


def test_validate_accepts_figure_shaped_graph():
    g = parse("(p/pred :ARG0 (a/alpha) :ARG1 ?1 :ARG2 ?2)")
    assert validate(g) == []


@given(g=st.one_of(raw_graphs(), graphs()))
@settings(max_examples=400, deadline=None)
def test_validate_matches_the_reference(g):
    assert validate(g) == reference_validate(g)


def _renumbered(g: AmrSubgraph, by: int, reverse: bool) -> AmrSubgraph:
    """g with every node id raised by ``by`` and, if ``reverse``, its nodes
    listed last to first."""
    nodes = tuple(Node(n.id + by, n.concept) for n in g.nodes)
    edges = tuple(Edge(e.source + by, e.label, e.target + by) for e in g.edges)
    return AmrSubgraph(nodes[::-1] if reverse else nodes, edges, g.root + by, tuple(x + by for x in g.fv))


NOT_POSITIONAL = "node ids are not 0..n-1 in node order"


@given(g=graphs(max_nodes=6, max_fv=2), by=st.integers(0, 3), reverse=st.booleans())
@settings(max_examples=200, deadline=None)
def test_validate_flags_every_renumbered_copy_that_is_not_positional(g, by, reverse):
    copy = _renumbered(g, by, reverse)
    positional = [n.id for n in copy.nodes] == list(range(len(copy.nodes)))
    assert validate(copy) == ([] if positional else [NOT_POSITIONAL])


@pytest.mark.parametrize("ids", [(1,), (0, 2), (1, 0)])
def test_validate_flags_ids_that_are_not_positions(ids):
    nodes = tuple(Node(i, "x") for i in ids)
    edges = tuple(Edge(ids[0], ":mod", i) for i in ids[1:])
    assert validate(AmrSubgraph(nodes, edges, ids[0], ())) == [NOT_POSITIONAL]


def test_validate_lists_missing_free_variables_in_id_order():
    nodes = tuple(Node(i, None if i in (2, 9) else "x") for i in range(10))
    edges = tuple(Edge(0, ":mod", i) for i in range(1, 10))
    assert validate(AmrSubgraph(nodes, edges, 0, ())) == [
        "free variable 2 missing from fv list",
        "free variable 9 missing from fv list",
    ]


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
    assert iso_equal(a, AmrSubgraph(b.nodes, b.edges, b.root, (b.fv[1], b.fv[0])))


@given(g=graphs(max_fv=2, min_fv=1), h=graphs(max_fv=2))
@settings(max_examples=150, deadline=None)
def test_substitute_counting_laws(g, h):
    constants = lambda graph: sum(1 for n in graph.nodes if not n.is_free)
    before_constants = constants(g) + constants(h)
    before_free = len(g.fv) + len(h.fv)
    result = substitute(g, h)
    assert constants(result) == before_constants
    assert len([n for n in result.nodes if n.is_free]) == before_free - 1
    assert validate(result) == []


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_substitute_of_valid_graphs_is_valid(data):
    """Whatever the order, and whether h's root is a constant or a listed
    free variable, substitution keeps valid graphs valid.  A valid g lists
    only free variables, so filling one never raises a UnificationError."""
    g = data.draw(graphs(max_nodes=6, max_fv=3, min_fv=1))
    h = data.draw(graphs(max_nodes=6, max_fv=2))
    order = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):  # h rooted at a free variable listed first
        nodes = (Node(h.root, None),) + h.nodes[1:]
        h = AmrSubgraph(nodes, h.edges, h.root, (h.root,) + tuple(x for x in h.fv if x != h.root))
    assert validate(g) == [] and validate(h) == []
    assert validate(substitute(g, h, order)) == []


@given(h=graphs(max_fv=2))
@settings(max_examples=60, deadline=None)
def test_substitute_into_lone_variable_yields_argument(h):
    lone = parse("?1")
    assert iso_equal(substitute(lone, h), h)


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


@st.composite
def _renumbering(draw, g: AmrSubgraph) -> AmrSubgraph:
    """g as it is or with shuffled ids."""
    if draw(st.booleans()):
        return relabeled(g, draw(st.integers(0, 99)))
    return g


def test_substitute_reuses_the_untouched_nodes_and_edges_of_g():
    g = parse("(l/like-01 :ARG0 (j/john :mod (o/old)) :ARG1 ?1)")
    h = parse("(c/cat :mod (b/big))")
    result = substitute(g, h)
    assert iso_equal(result, parse("(l/like-01 :ARG0 (j/john :mod (o/old)) :ARG1 (c/cat :mod (b/big)))"))
    slot = g.fv[0]
    # both graphs number their nodes 0..n-1 in order, so nodes[i] has id i
    assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
    assert [n.id for n in result.nodes] == list(range(len(result.nodes)))
    for node in g.nodes:
        if node.id != slot:
            assert result.nodes[node.id] is node
    # the variable that absorbed h's constant root is a new node
    assert result.nodes[slot] is not g.nodes[slot] and result.nodes[slot].concept == "cat"
    for edge in g.edges:
        assert any(e is edge for e in result.edges)
    # h's ids moved, so its objects were built anew
    assert not any(e is h_edge for e in result.edges for h_edge in h.edges)


@st.composite
def _in_format(draw, free_root: bool = False, **kwargs) -> AmrSubgraph:
    """A graph that :func:`validate` accepts or finds only a directed cycle
    in, as it is or with shuffled ids; with ``free_root``, maybe rooted at a
    free variable listed first."""
    g = draw(st.one_of(graphs(**kwargs), cyclic_graphs(**kwargs)))
    if free_root and draw(st.booleans()):
        nodes = (Node(g.root, None),) + g.nodes[1:]
        g = AmrSubgraph(nodes, g.edges, g.root, (g.root,) + tuple(x for x in g.fv if x != g.root))
    return draw(_renumbering(g))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_substitute_agrees_with_the_workspace_reference(data):
    """Same graph and fv order as the workspace steps it replaced, on valid
    and cyclic graphs, with every unchanged input Node and Edge reused."""
    g = data.draw(_in_format(max_nodes=6, max_fv=3, min_fv=1))
    h = data.draw(_in_format(free_root=True, max_nodes=6, max_fv=2))
    order = data.draw(st.integers(0, 2))
    got = substitute(g, h, order)
    assert got == reference_substitute(g, h, order)
    _assert_reuse(got, *_appended((g, {}), (h, {h.root: g.fv[0]})))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_substitute_and_raised_keep_the_builders_condition(data):
    """On inputs that meet it, cyclic ones too, each result again has no
    self-loop, and ``validate`` finds at most a cycle: no repeated triple
    and an fv list of distinct free nodes.  So every chart item these steps
    build from valid lexical graphs meets it.  ``has_cycle`` gives
    ``validate``'s cycle verdict on each graph."""
    g = data.draw(_in_format(max_nodes=6, max_fv=3, min_fv=1))
    h = data.draw(_in_format(free_root=True, max_nodes=6, max_fv=2))
    for graph in (g, h, substitute(g, h, data.draw(st.integers(0, 2))), raised(g), raised(h)):
        assert validate(graph) in ([], ["graph has a directed cycle"])
        assert has_cycle(graph) == bool(validate(graph))
        assert all(e.source != e.target for e in graph.edges)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_relation_wise_combine_keeps_acyclic_inputs_valid(data):
    """From graphs that ``validate`` accepts, a relation-wise combination
    gives one it accepts too: it folds the two ends of an edge that both
    inputs carry in the same direction, which closes no cycle."""
    order = data.draw(st.integers(0, 2))
    f = data.draw(graphs(max_nodes=6, max_fv=2, min_fv=1, labels=(":ARG0", ":mod", UNDERSPECIFIED)))
    a = data.draw(graphs(max_nodes=6, max_fv=order + 1, min_fv=order + 1, labels=(":ARG0", ":mod")))
    f, a = data.draw(_renumbering(f)), data.draw(_renumbering(a))
    match = relation_wise_match(f, a, order + 1)
    if match is not None:
        try:
            graph = relation_wise_combine(f, a, match, order)
        except UnificationError:
            return
        assert validate(graph) == [] and not has_cycle(graph)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_conjoined_makes_at_most_a_cycle_from_acyclic_inputs(data):
    """From conjuncts that ``validate`` accepts, with as many free variables
    each, coordination gives a graph in which it finds at most a directed
    cycle, as when the conjuncts link two variables in opposite directions."""
    k = data.draw(st.integers(0, 3))
    left = data.draw(_renumbering(data.draw(graphs(max_nodes=6, max_fv=k, min_fv=k))))
    right = data.draw(_renumbering(data.draw(graphs(max_nodes=6, max_fv=k, min_fv=k))))
    graph = conjoined(parse("(a/and)"), left, right)
    assert validate(graph) in ([], ["graph has a directed cycle"])
    assert has_cycle(graph) == bool(validate(graph))


@given(g=graphs(max_nodes=6, max_fv=3, min_fv=1), data=st.data())
@settings(max_examples=100, deadline=None)
def test_validate_rejects_every_input_outside_the_builders_condition(g, data):
    """The inputs the builders need not serve: an fv list that repeats a
    variable or names a constant, a repeated triple and a self-loop."""
    slot, label = g.fv[0], data.draw(st.sampled_from(LABELS))
    outside = {
        "fv list contains repeats": AmrSubgraph(g.nodes, g.edges, g.root, g.fv + g.fv[:1]),
        "graph has a directed cycle": AmrSubgraph(g.nodes, g.edges + (Edge(slot, label, slot),), g.root, g.fv),
    }
    constants = [n.id for n in g.nodes if n.concept is not None]
    if constants:
        c = data.draw(st.sampled_from(constants))
        outside[f"fv entry {c} is not a free-variable node"] = AmrSubgraph(g.nodes, g.edges, g.root, (c, *g.fv[1:]))
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        outside[f"duplicate edge triple {(e.source, e.label, e.target)}"] = AmrSubgraph(g.nodes, g.edges + (e,), g.root, g.fv)
    for problem, bad in outside.items():
        assert problem in validate(bad)


def test_substitute_of_a_constant_slot_raises_the_reference_message():
    g = AmrSubgraph((Node(0, "go-01"), Node(1, "cat")), (Edge(0, ":ARG0", 1),), 0, (1,))
    h = parse("(d/dog)")
    with pytest.raises(UnificationError) as want:
        reference_substitute(g, h)
    with pytest.raises(UnificationError, match="^cannot merge constants 'cat' and 'dog'$") as got:
        substitute(g, h)
    assert str(got.value) == str(want.value)


def test_validate_rejects_the_self_loops_that_made_a_substitution_repeat_a_triple():
    g = AmrSubgraph((Node(0, "go-01"), Node(1, None)), (Edge(0, ":ARG0", 1), Edge(1, ":mod", 1)), 0, (1,))
    h = AmrSubgraph((Node(0, "cat"),), (Edge(0, ":mod", 0),), 0, ())
    # filling g's slot with h's root would put the ':mod' loop in twice
    assert validate(g) == validate(h) == ["graph has a directed cycle"]


def _assert_reuse(result: AmrSubgraph, placed, moved) -> None:
    """Every input node that keeps its id and concept, and every input edge
    that keeps its endpoints and is the first of its triple, is the result's
    object itself.  ``placed`` pairs each input node not folded into another
    with its new id; ``moved`` pairs each input edge, in build order, with
    its new triple."""
    for node, i in placed:
        if node == result.nodes[i]:
            assert result.nodes[i] is node
    first: dict[tuple[int, str, int], Edge] = {}
    for edge, triple in moved:
        first.setdefault(triple, edge)
    by_triple = {(e.source, e.label, e.target): e for e in result.edges}
    for triple, edge in first.items():
        if triple == (edge.source, edge.label, edge.target):
            assert by_triple[triple] is edge


def _appended(*parts) -> tuple[list, list]:
    """``placed`` and ``moved`` for :func:`_assert_reuse` of graphs appended
    in order: each part is a graph and its folds, and the graph's nodes whose
    old ids are keys of the folds take the ids they map to, while the rest
    take the next ids in order."""
    placed, moved = [], []
    for g, folds in parts:
        new = {}
        for n in g.nodes:
            if n.id in folds:
                new[n.id] = folds[n.id]
            else:
                new[n.id] = len(placed)
                placed.append((n, new[n.id]))
        moved += [(e, (new[e.source], e.label, new[e.target])) for e in g.edges]
    return placed, moved


@given(g=_in_format(free_root=True, max_nodes=6, max_fv=3))
@settings(max_examples=200, deadline=None)
def test_raised_agrees_with_the_workspace_reference(g):
    """Same graph as the workspace steps type raising took before, on valid
    and cyclic graphs, with every input Node and Edge reused."""
    got = raised(g)
    assert got == reference_type_raise(g)
    _assert_reuse(got, *_appended((g, {})))


def test_conjoined_keeps_the_left_conjuncts_objects():
    conj = parse("(a/and)")
    left = parse("(l/like-01 :ARG0 (p/person) :ARG1 ?1)")
    right = parse("(h/hate-01 :ARG0 (p/person) :ARG1 ?1)")
    got = conjoined(conj, left, right)
    n = len(left.nodes)
    assert [a is b for a, b in zip(got.nodes, left.nodes)] == [True] * n
    assert [a is b for a, b in zip(got.edges, left.edges)] == [True] * len(left.edges)
    assert got.root == n and got.nodes[n] == Node(n, "and")
    assert got == reference_coordinate(conj, left, right)
    assert iso_equal(got, parse("(a/and :op1 (l/like-01 :ARG0 (p/person) :ARG1 ?1) :op2 (h/hate-01 :ARG0 (p2/person) :ARG1 ?1))"))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_conjoined_agrees_with_the_workspace_reference(data):
    """Same graph, or the same error, as the workspace steps coordination took
    before, with every unchanged input Node and Edge reused."""
    k = data.draw(st.integers(0, 2))
    left = data.draw(graphs(max_nodes=6, max_fv=k, min_fv=k))
    right = data.draw(graphs(max_nodes=6, max_fv=k, min_fv=k))
    conj = parse("(a/and)")
    if k and data.draw(st.booleans()):  # a constant in one conjunct's slot: it may clash
        side = data.draw(st.sampled_from(["left", "right"]))
        g = left if side == "left" else right
        constants = [n.id for n in g.nodes if n.concept is not None]
        if constants:
            fv = list(g.fv)
            fv[data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from(constants))
            g = AmrSubgraph(g.nodes, g.edges, g.root, tuple(fv))
            left, right = (g, right) if side == "left" else (left, g)
    if k == 2 and data.draw(st.booleans()):  # left lists one variable in both slots
        left = AmrSubgraph(left.nodes, left.edges, left.root, left.fv[:1] * 2)
    if k and data.draw(st.booleans()):  # both conjuncts loop on their first variable
        label = data.draw(st.sampled_from(LABELS))
        left = AmrSubgraph(left.nodes, left.edges + (Edge(left.fv[0], label, left.fv[0]),), left.root, left.fv)
        right = AmrSubgraph(right.nodes, (Edge(right.fv[0], label, right.fv[0]),) + right.edges, right.root, right.fv)
    left, right = data.draw(_renumbering(left)), data.draw(_renumbering(right))
    try:
        want = reference_coordinate(conj, left, right)
    except UnificationError as err:
        with pytest.raises(UnificationError) as got_err:
            conjoined(conj, left, right)
        assert str(got_err.value) == str(err)
        return
    got = conjoined(conj, left, right)
    assert got == want
    lnew = {n.id: p for p, n in enumerate(left.nodes)}
    folds = {rx: lnew[lx] for lx, rx in zip(left.fv, right.fv)}
    _assert_reuse(got, *_appended((left, {}), (conj, {}), (right, folds)))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_relation_wise_combine_agrees_with_the_workspace_reference(data):
    """Same graph, or the same error, as the workspace steps relation-wise
    combination took before, with every unchanged input Node and Edge reused."""
    order = data.draw(st.integers(0, 2))
    f = data.draw(graphs(max_nodes=6, max_fv=2, min_fv=1))
    a = data.draw(graphs(max_nodes=6, max_fv=order + 1, min_fv=order + 1))
    f_edges = [i for i, e in enumerate(f.edges) if f.fv[0] in (e.source, e.target)]
    a_edges = [j for j, e in enumerate(a.edges) if a.fv[order] in (e.source, e.target)]
    assume(f_edges and a_edges)
    i, j = data.draw(st.sampled_from(f_edges)), data.draw(st.sampled_from(a_edges))
    fe, ae = f.edges[i], a.edges[j]
    side = "source" if fe.source == f.fv[0] else "target"
    # the function's edge is underspecified or carries the argument's label
    label = data.draw(st.sampled_from([UNDERSPECIFIED, ae.label]))
    if data.draw(st.booleans()):  # the function's edge loops on its first variable
        fe, side = Edge(f.fv[0], fe.label, f.fv[0]), "source"
    f = AmrSubgraph(f.nodes, f.edges[:i] + (Edge(fe.source, label, fe.target),) + f.edges[i + 1:], f.root, f.fv)
    a_loop = data.draw(st.booleans())
    if a_loop:  # the argument's edge loops on its k-th variable
        ak = a.fv[order]
        a = AmrSubgraph(a.nodes, a.edges[:j] + (Edge(ak, ae.label, ak),) + a.edges[j + 1:], a.root, a.fv)
    if data.draw(st.booleans()):  # constants paired across the edges agree, so they unify
        agree = {ae.source: f.concept(fe.source), ae.target: f.concept(fe.target)}
        nodes = tuple(Node(n.id, agree[n.id]) if n.concept and agree.get(n.id) else n for n in a.nodes)
        a = AmrSubgraph(nodes, a.edges, a.root, a.fv)
    f, a = data.draw(_renumbering(f)), data.draw(_renumbering(a))
    fe, ae = f.edges[i], a.edges[j]
    if a_loop:  # no shared-edge candidate: folding it would join the function edge's ends
        match = relation_wise_match(f, a, order + 1)
        assert match is None or (match.f_edge_pos, match.a_edge_pos) != (i, j)
        return
    match = SharedEdgeMatch(i, j, side, ae.label)
    try:
        want = reference_relation_wise(f, a, match, order)
    except UnificationError as err:
        with pytest.raises(UnificationError) as got_err:
            relation_wise_combine(f, a, match, order)
        assert str(got_err.value) == str(err)
        return
    got = relation_wise_combine(f, a, match, order)
    assert got == want
    fnew = {n.id: k for k, n in enumerate(f.nodes)}
    folds = {ae.source: fnew[fe.source], ae.target: fnew[fe.target]}
    placed, moved = _appended((f, {}), (a, folds))
    s, _, t = moved[i][1]
    moved[i] = (fe, (s, ae.label, t))  # the shared edge takes the resolved label
    _assert_reuse(got, placed, moved)
