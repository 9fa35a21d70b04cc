import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgamr.graph import UNDERSPECIFIED, iso_equal, validate
from ccgamr.penman import MAX_DEPTH, PenmanError, PenmanSyntaxError, parse, serialize

from support import LABELS, graphs, nested


def test_parse_control_verb_entry():
    g = parse("(d/decide-01 :ARG0 ?2 :ARG1 (?1 :ARG0 ?2))")
    assert len(g.nodes) == 3
    assert len(g.fv) == 2
    reentrant = g.fv[1]
    assert len(g.incoming(reentrant)) == 2  # ?2 is mentioned twice


def test_parse_normalizes_inverse_roles():
    g = parse("(p/person :ARG0-of (t/teach-01 :ARG1 ?1))")
    person = next(n.id for n in g.nodes if n.concept == "person")
    teach = next(n.id for n in g.nodes if n.concept == "teach-01")
    assert g.root == person
    assert any(e.source == teach and e.target == person and e.label == ":ARG0" for e in g.edges)
    assert not any(e.label.endswith("-of") for e in g.edges)


def test_parse_single_constant():
    g = parse("(c/cat)")
    assert len(g.nodes) == 1
    assert g.fv == ()
    assert g.concept(g.root) == "cat"


def test_parse_barewords_and_literals():
    g = parse('(p/person :name (n/name :op1 "John") :mod tall)')
    concepts = {n.concept for n in g.nodes}
    assert '"John"' in concepts and "tall" in concepts


def test_parse_reopened_variable():
    # a defined variable may be re-opened to attach more relations
    g = parse("(a/and :op1 (r/recommend-01 :ARG1 (e/eat-01 :ARG0 i/i)) :op2 (p/permit-01 :ARG1 (e :ARG0 y/you)))")
    eat = [n for n in g.nodes if n.concept == "eat-01"]
    assert len(eat) == 1
    assert len(g.outgoing(eat[0].id)) == 2  # :ARG0 i and :ARG0 you


def test_parse_underspecified_role():
    g = parse('(?1 :? (p/person :name (n/name :op1 "John")))')
    assert g.root == g.fv[0]
    assert g.edges[0].label == UNDERSPECIFIED


def test_parse_duplicate_edges_collapse():
    g = parse("(a/alpha :mod (b/beta) :mod b)")
    assert len(g.edges) == 1


def test_parse_syntax_error_carries_position():
    with pytest.raises(PenmanSyntaxError) as err:
        parse("(p/person :name )")
    assert err.value.position == 16


def test_parse_rejects_fv_gap():
    with pytest.raises(PenmanError, match="indices must be"):
        parse("(e/eat-01 :ARG0 ?2)")


def test_parse_rejects_redefined_variable():
    with pytest.raises(PenmanSyntaxError, match="defined twice"):
        parse("(p/person :mod (p/person))")


def test_parse_rejects_trailing_input():
    with pytest.raises(PenmanSyntaxError, match="trailing"):
        parse("(c/cat) (d/dog)")


def test_serialize_round_trips_passive_verbatim():
    text = '(e/eat-01 :ARG0 b/bear :ARG1 (p/person :name (n/name :op1 "John")))'
    assert serialize(parse(text)) == text


def test_serialize_lone_variable():
    assert serialize(parse("?1")) == "?1"


def test_serialize_rederives_inverse_role():
    g = parse("(p/person :ARG0-of (t/teach-01 :ARG1 m/math))")
    assert ":ARG0-of" in serialize(g)


def test_serialize_is_deterministic():
    g = parse("(d/decide-01 :ARG0 ?2 :ARG1 (?1 :ARG0 ?2))")
    assert serialize(g) == serialize(g)


def test_serialize_indent_mode_parses_back():
    g = parse('(l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat))')
    pretty = serialize(g, indent=2)
    assert "\n" in pretty
    assert iso_equal(parse(pretty), g)


@given(g=graphs(max_nodes=8, max_fv=3, labels=tuple(LABELS) + (UNDERSPECIFIED,)))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(g):
    assert validate(g) == []
    text = serialize(g)
    again = parse(text)
    assert iso_equal(g, again)
    assert serialize(again) == serialize(parse(serialize(again)))


def test_serialize_gives_reentrant_literal_a_variable():
    from ccgamr.graph import AmrSubgraph, Edge, Node

    g = AmrSubgraph(
        (Node(0, "alpha"), Node(1, "beta"), Node(2, '"John"')),
        (Edge(0, ":op1", 2), Edge(0, ":mod", 1), Edge(1, ":op2", 2)),
        0,
        (),
    )
    text = serialize(g)
    assert iso_equal(parse(text), g)


def test_parallel_same_label_edges_serialize_as_repeated_relations():
    g = parse("(e/eat-01 :ARG0 (i/i) :ARG0 (y/you))")
    assert len(g.outgoing(g.root)) == 2
    text = serialize(g)
    assert text.count(":ARG0") == 2
    assert iso_equal(parse(text), g)


def test_every_gold_fixture_round_trips():
    from ccgamr.fixtures import FIXTURES_DIR

    for path in sorted((FIXTURES_DIR / "gold").glob("*.amr")):
        g = parse(path.read_text())
        assert validate(g) == [], path.name
        assert iso_equal(parse(serialize(g)), g), path.name


@given(text=st.text(max_size=40))
@settings(max_examples=150, deadline=None)
def test_parse_never_leaks_foreign_exceptions(text):
    try:
        parse(text)
    except PenmanError:
        pass


@pytest.mark.parametrize("depth", [400, MAX_DEPTH])
def test_parse_accepts_nesting_up_to_max_depth(depth):
    g = parse(nested(depth))
    assert len(g.nodes) == depth
    assert validate(g) == []


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200])
def test_parse_rejects_nesting_past_max_depth(depth):
    with pytest.raises(PenmanError, match="nesting deeper than") as err:
        parse(nested(depth))
    assert isinstance(err.value, PenmanSyntaxError)
