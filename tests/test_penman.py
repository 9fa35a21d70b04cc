import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccgamr.graph import UNDERSPECIFIED, AmrSubgraph, Edge, Node, iso_equal, validate
from ccgamr.penman import MAX_DEPTH, PenmanError, PenmanSyntaxError, _tokenize, parse, serialize

from support import LABELS, graphs, nested, reference_tokenize


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
    assert sum(e.source == eat[0].id for e in g.edges) == 2  # :ARG0 i and :ARG0 you


def test_parse_underspecified_role():
    g = parse('(?1 :? (p/person :name (n/name :op1 "John")))')
    assert g.root == g.fv[0]
    assert g.edges[0].label == UNDERSPECIFIED


def test_parse_duplicate_edges_collapse():
    g = parse("(a/alpha :mod (b/beta) :mod b)")
    assert len(g.edges) == 1


def test_parse_drops_nested_repeats_and_keeps_textual_edge_order():
    g = parse("(a/x :ARG1 (b/y :mod (c/z)) :ARG1 b :mod (c :mod-of b))")
    assert [(e.source, e.label, e.target) for e in g.edges] == [
        (0, ":ARG1", 1),
        (1, ":mod", 2),
        (0, ":mod", 2),
    ]


def test_parse_flat_graph_with_many_children():
    n = 6000
    g = parse("(r/root " + " ".join(f":mod (c{i}/c)" for i in range(n)) + ")")
    assert len(g.nodes) == n + 1
    assert [e.target for e in g.edges] == list(range(1, n + 1))


def test_parse_syntax_error_carries_position():
    with pytest.raises(PenmanSyntaxError) as err:
        parse("(p/person :name )")
    assert err.value.position == 16


@pytest.mark.parametrize("text, offset", [("(p/person :name", 15), ("(a / b", 6), ("x /", 3)])
def test_parse_reports_end_of_input_at_the_text_length(text, offset):
    with pytest.raises(PenmanSyntaxError) as err:
        parse(text)
    assert err.value.position == offset
    assert str(err.value) == f"unexpected end of input (at offset {offset})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("( :mod a)", "expected a node, found ':mod' (at offset 2)"),  # after '('
        ("(a/alpha :mod )", "expected a node, found ')' (at offset 14)"),  # after a role
    ],
)
def test_parse_expects_a_node_after_a_paren_and_after_a_role(text, message):
    with pytest.raises(PenmanSyntaxError) as err:
        parse(text)
    assert str(err.value) == message


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
    assert sum(e.source == g.root for e in g.edges) == 2
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


# PENMAN's alphabet in pieces: syntax characters, whole and broken roles,
# free variables, literals (closed or not), atoms, and runs of whitespace,
# Unicode whitespace included
_PENMAN_PIECES = (
    "(", ")", "/", ":", "?", '"', "-of", "0", "7", "12", "a", "e", "eat-01", "x_1",
    ":ARG0", ":ARG1-of", ":?", ":op1", ":-of", ":1", "?1", "?23", '"John"', '"a b"',
    " ", "  ", "\n", "\t", " \n\t ", "\u00a0", "\u3000", "#", "\u00e9",
)
_WHITESPACE = st.text(alphabet=" \t\n\r\u00a0", max_size=3)


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except PenmanSyntaxError as err:
        return str(err), err.position


@given(
    lead=_WHITESPACE,
    body=st.lists(st.sampled_from(_PENMAN_PIECES), max_size=16).map("".join),
    trail=_WHITESPACE,
)
@example(lead="", body="", trail="")
@example(lead="  ", body="", trail="")
@example(lead=" \n", body="(a / b)", trail="\t")
@example(lead="", body="(a :b ?)", trail="")
@example(lead="", body='(a :b "c)', trail=" ")
@example(lead="", body="( : )", trail="")
@settings(max_examples=400, deadline=None)
def test_the_one_scan_tokenizer_matches_the_reference(lead, body, trail):
    text = lead + body + trail
    assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text)


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


def chain(n: int) -> AmrSubgraph:
    """A :mod chain of ``n`` nodes built through the API, not through ``parse``."""
    return AmrSubgraph(
        tuple(Node(i, "c") for i in range(n)),
        tuple(Edge(i, ":mod", i + 1) for i in range(n - 1)),
        0,
        (),
    )


def test_serialize_chain_deeper_than_the_recursion_limit():
    g = chain(1500)
    text = serialize(g)
    assert text.startswith("(c/c :mod (c2/c :mod (c3/c")
    assert text.endswith("c1500/c" + ")" * 1499)
    assert serialize(g, indent=1).count("\n") == 1499


@pytest.mark.parametrize("depth", [400, MAX_DEPTH])
def test_serialize_round_trips_chains_up_to_max_depth(depth):
    g = chain(depth)
    assert parse(serialize(g)) == g
    assert parse(serialize(g, indent=2)) == g
    assert parse(serialize(parse(nested(depth)))) == parse(nested(depth))


#: ``serialize`` output of every bundled gold graph, one-line form.
GOLD_ONE_LINE = {
    "coordinated_purpose": "(a/and :op1 (a2/arrive-01 :ARG1 (p/person :name j/John :ARG0-of e/eat-01 :ARG0-of p2/party-01) :purpose e :purpose p2) :op2 a2)",
    "coordinated_purpose_correct": "(a/arrive-01 :ARG1 (p/person :name j/John :ARG0-of (e/eat-01 :op1-of (a2/and :op2 p2/party-01)) :ARG0-of p2) :purpose a2)",
    "coordination": '(a/and :op1 (l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat :ARG1-of (h/hate-01 :ARG0 (p2/person :name (n2/name :op1 "Mary"))))) :op2 h)',
    "light_verb": '(d/decide-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (m/major :poss h/he))',
    "like_cat": '(l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 c/cat)',
    "math_teachers": "(p/person :ARG0-of (t/teach-01 :ARG1 m/math))",
    "modal_preposed": "(p/possible-01 :ARG1 (e/eat-01 :ARG0 (p2/person :name j/John) :ARG1 r/rice) :time t/tomorrow)",
    "modal_preposed_correct": "(p/possible-01 :ARG1 (e/eat-01 :ARG0 (p2/person :name j/John) :ARG1 r/rice :time t/tomorrow))",
    "object_control": "(p/persuade-01 :ARG0 (p2/person :name m/Mary) :ARG1 (p3/person :name j/John :ARG0-of (p4/practice-01 :ARG1 g/guitar)) :ARG2 p4)",
    "object_control_wh": "(p/persuade-01 :ARG0 y/you :ARG1 (a/amr-unknown :ARG0-of s/smile-01) :ARG2 s)",
    "passive": '(e/eat-01 :ARG0 b/bear :ARG1 (p/person :name (n/name :op1 "John")))',
    "raising": "(s/seem-01 :ARG1 (p/practice-01 :ARG0 (p2/person :name m/Mary) :ARG1 g/guitar :frequency o/often))",
    "right_node_raising": "(a/and :op1 (r/recommend-01 :ARG1 (e/eat-01 :ARG0 i/i :ARG1-of p/permit-01 :ARG0 y/you)) :op2 p)",
    "right_node_raising_correct": "(a/and :op1 (r/recommend-01 :ARG1 (e/eat-01 :ARG0 i/i)) :op2 (p/permit-01 :ARG1 (e2/eat-01 :ARG0 y/you)))",
    "subject_control": "(w/want-01 :ARG0 (p/person :name m/Mary :ARG0-of (p2/practice-01 :ARG1 g/guitar)) :ARG1 p2)",
    "to_purpose": "(b/buy-01 :ARG0 (p/person :name m/Mary :ARG0-of (s/see-01 :ARG1 m2/movie)) :ARG1 t/ticket :purpose s)",
    "wh_control": "(d/decide-01 :ARG0 (y/you :ARG0-of (e/eat-01 :ARG1 a/amr-unknown :time y2/yesterday)) :ARG1 e)",
}


def test_serialize_output_of_gold_fixtures_is_pinned():
    from ccgamr.fixtures import FIXTURES_DIR

    paths = sorted((FIXTURES_DIR / "gold").glob("*.amr"))
    assert [p.stem for p in paths] == sorted(GOLD_ONE_LINE)
    for path in paths:
        g = parse(path.read_text())
        one_line = serialize(g)
        assert one_line == GOLD_ONE_LINE[path.stem], path.stem
        for indent in (2, 4):
            # indented output differs only in the whitespace between relations
            assert " ".join(serialize(g, indent=indent).split()) == one_line, path.stem
    wh = parse((FIXTURES_DIR / "gold" / "wh_control.amr").read_text())
    assert serialize(wh, indent=4) == (
        "(d/decide-01\n"
        "    :ARG0 (y/you\n"
        "        :ARG0-of (e/eat-01\n"
        "            :ARG1 a/amr-unknown\n"
        "            :time y2/yesterday))\n"
        "    :ARG1 e)"
    )


def test_parse_returns_one_graph_per_text():
    text = "(l/like-01 :ARG0 (p/person) :ARG1 ?1)"
    warm = parse(text)
    assert parse(text) is warm
    parse.cache_clear()
    cold = parse(text)
    assert cold == warm and cold is not warm
    assert parse(text) is cold


@pytest.mark.parametrize("text", ["(a/x :ARG0 (b/y :ARG1 a))", "(a/x :ARG0", "(a/x :ARG0 ?2)"])
def test_bad_text_raises_on_every_call(text):
    messages = []
    for _ in range(3):
        with pytest.raises(PenmanError) as err:
            parse(text)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
