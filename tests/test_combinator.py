import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgamr.category import BACKWARD, FORWARD, Atom, Functor, arity, format_category, parse_category
from ccgamr.combinator import (
    RULE_NAMES,
    RULES,
    CombinationError,
    Constituent,
    combine_application,
    combine_composition,
    combine_matched,
    conj_attach,
    coordinate,
    match_categories,
    raise_rule_name,
    read_raise,
    relation_wise_combine,
    relation_wise_match,
    type_raise,
)
from ccgamr.derivation import ReplayError, parse_script, replay
from ccgamr.graph import UNDERSPECIFIED, AmrSubgraph, UnificationError, iso_equal
from ccgamr.lexicon import loads
from ccgamr.penman import parse, serialize

from support import LABELS, constituent, forced_variant, graphs, reference_relation_wise_match


def c(cat, sem, start=0, end=1):
    return constituent(cat, sem, start, end)


# --- application -----------------------------------------------------------

def test_forward_application_transitive_verb():
    likes = c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    cat = c("NP", "(c/cat)", 2, 3)
    out = combine_application("forward", likes, cat)
    assert out.rule == ">"
    assert format_category(out.constituent.category) == "S\\NP"
    assert iso_equal(out.constituent.semantics, parse("(l/like-01 :ARG0 ?1 :ARG1 c/cat)"))


def test_identity_application_passes_argument_through():
    the = c("NP/N", "ID", 0, 1)
    cat = c("N", "(c/cat)", 1, 2)
    out = combine_application("forward", the, cat)
    assert out.rule == ">"
    assert format_category(out.constituent.category) == "NP"
    assert iso_equal(out.constituent.semantics, parse("(c/cat)"))


def test_backward_application_passive_agent_is_regular():
    eaten = c("S[pass]\\NP", "(e/eat-01 :ARG1 ?1)", 0, 1)
    by_bears = c("(S\\NP)\\(S\\NP)", "(?1 :ARG0 (b/bear))", 1, 2)
    out = combine_application("backward", by_bears, eaten)
    assert out.rule == "<"
    assert iso_equal(out.constituent.semantics, parse("(e/eat-01 :ARG0 b/bear :ARG1 ?1)"))


def test_application_requires_matching_category():
    likes = c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)", 0, 1)
    with pytest.raises(CombinationError):
        combine_application("forward", likes, c("N", "(c/cat)", 1, 2))
    with pytest.raises(CombinationError):
        combine_application("backward", likes, c("NP", "(c/cat)", 1, 2))


def test_application_requires_adjacency():
    likes = c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)", 0, 1)
    with pytest.raises(CombinationError, match="adjacent"):
        combine_application("forward", likes, c("NP", "(c/cat)", 2, 3))


def test_application_arity_decreases_by_one():
    likes = c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)", 0, 1)
    out = combine_application("forward", likes, c("NP", "(c/cat)", 1, 2))
    assert arity(out.constituent.category) == arity(likes.category) - 1


# --- composition -----------------------------------------------------------

def test_forward_composition_modal():
    may = c("(S\\NP)/(S[b]\\NP)", "(p/possible-01 :ARG1 ?1)", 0, 1)
    eat = c("(S[b]\\NP)/NP", "(e/eat-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    out = combine_composition("forward", 1, may, eat)
    assert out.rule == ">B"
    assert format_category(out.constituent.category) == "S\\NP/NP"
    sem = out.constituent.semantics
    assert iso_equal(sem, parse("(p/possible-01 :ARG1 (e/eat-01 :ARG0 ?2 :ARG1 ?1))"))
    # composition puts the argument's variables first
    eat_node = next(n.id for n in sem.nodes if n.concept == "eat-01")
    arg1 = next(e.target for e in sem.edges if e.source == eat_node and e.label == ":ARG1")
    assert sem.fv_index(arg1) == 1


def test_backward_crossed_composition_adjunct():
    eat = c("(S[b]\\NP)/NP", "(e/eat-01 :ARG0 ?2 :ARG1 ?1)", 0, 1)
    yesterday = c("(S\\NP)\\(S\\NP)", "(?1 :time (y/yesterday))", 1, 2)
    out = combine_composition("backward", 1, yesterday, eat)
    assert out.rule == "<Bx"
    assert format_category(out.constituent.category) == "S[b]\\NP/NP"
    assert iso_equal(
        out.constituent.semantics,
        parse("(e/eat-01 :ARG0 ?2 :ARG1 ?1 :time (y/yesterday))"),
    )


def test_crossed_flag_verified_against_categories():
    may = c("(S\\NP)/(S[b]\\NP)", "(p/possible-01 :ARG1 ?1)", 0, 1)
    eat = c("(S[b]\\NP)/NP", "(e/eat-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    assert combine_composition("forward", 1, may, eat).rule == ">B"
    lexicon = loads(
        "may | (S\\NP)/(S[b]\\NP) | (p/possible-01 :ARG1 ?1) | may.1\n"
        "eat | (S[b]\\NP)/NP | (e/eat-01 :ARG0 ?2 :ARG1 ?1) | eat.1\n"
    )
    with pytest.raises(ReplayError, match="script names '>Bx' but the engine derives '>B'"):
        replay(parse_script("(>Bx (leaf 0 may.1) (leaf 1 eat.1))"), lexicon)


def test_crossed_and_straight_composition_agree_semantically():
    f = c("S/S", "(?1 :time (t/tomorrow))", 0, 1)
    straight = combine_composition("forward", 1, f, c("S/NP", "(g/go-01 :ARG1 ?1)", 1, 2))
    crossed = combine_composition("forward", 1, f, c("S\\NP", "(g/go-01 :ARG1 ?1)", 1, 2))
    assert straight.rule == ">B" and crossed.rule == ">Bx"
    assert iso_equal(straight.constituent.semantics, crossed.constituent.semantics)


def test_second_order_relation_wise_composition_object_control():
    did_you = c("S[q]/(S[b]\\NP)", "(?1 :ARG0 (y/you))", 0, 1)
    persuade = c(
        "(S[b]\\NP)/(S[to]\\NP)/NP",
        "(p/persuade-01 :ARG0 ?3 :ARG1 ?1 :ARG2 (?2 :ARG0 ?1))",
        1, 2,
    )
    out = combine_composition("forward", 2, did_you, persuade)
    assert out.rule == ">RB2"
    assert format_category(out.constituent.category) == "S[q]/(S[to]\\NP)/NP"
    assert iso_equal(
        out.constituent.semantics,
        parse("(p/persuade-01 :ARG0 (y/you) :ARG1 ?1 :ARG2 (?2 :ARG0 ?1))"),
    )


def test_identity_composition_keeps_other_semantics():
    to = c("(S[to]\\NP)/(S[b]\\NP)", "ID", 0, 1)
    eat = c("(S[b]\\NP)/NP", "(e/eat-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    out = combine_composition("forward", 1, to, eat)
    assert out.rule == ">B"
    assert format_category(out.constituent.category) == "S[to]\\NP/NP"
    assert iso_equal(out.constituent.semantics, eat.semantics)


# --- relation-wise matching and combination --------------------------------

def test_match_control_composition():
    decide = parse("(d/decide-01 :ARG0 ?2 :ARG1 (?1 :ARG0 ?2))")
    chain = parse("(e/eat-01 :ARG0 ?2 :ARG1 ?1 :time (y/yesterday))")
    match = relation_wise_match(decide, chain, k=2)
    assert match is not None
    assert match.label == ":ARG0"
    assert match.f_side == "source"


def test_match_absent_when_labels_differ():
    by_bears = parse("(?1 :ARG0 (b/bear))")
    eaten = parse("(e/eat-01 :ARG1 ?1)")
    assert relation_wise_match(by_bears, eaten, k=1) is None


def test_match_resolves_underspecified_function_edge():
    raised = parse('(?1 :? (p/person :name (n/name :op1 "John")))')
    likes = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    match = relation_wise_match(raised, likes, k=2)
    assert match is not None and match.label == ":ARG0"


def test_relation_wise_combine_builds_the_resolved_edge_anew():
    raised = parse('(?1 :? (p/person :name (n/name :op1 "John")))')
    likes = parse("(l/like-01 :ARG0 ?2 :ARG1 ?1)")
    match = relation_wise_match(raised, likes, k=2)
    graph = relation_wise_combine(raised, likes, match, order=1)
    [resolved] = [e for e in graph.edges if e.label == ":ARG0"]
    assert not any(resolved is e for e in raised.edges + likes.edges)
    assert UNDERSPECIFIED not in {e.label for e in graph.edges}
    # the raised graph's other edges keep their objects
    name_edge = next(e for e in raised.edges if e.label == ":name")
    assert any(e is name_edge for e in graph.edges)


def test_match_requires_concrete_argument_edge():
    f = parse("(?1 :? (a/alpha))")
    a = parse("(?1 :? (b/beta))")
    assert relation_wise_match(f, a, k=1) is None


def test_match_needs_enough_argument_variables():
    f = parse("(?1 :ARG0 (a/alpha))")
    a = parse("(b/beta :ARG0 ?1)")
    assert relation_wise_match(f, a, k=2) is None


@given(
    f=graphs(min_fv=1, labels=(":ARG0", ":ARG1", UNDERSPECIFIED)),
    a=graphs(min_fv=1, labels=(":ARG0", ":ARG1", UNDERSPECIFIED)),
    k=st.integers(1, 3),
)
@settings(max_examples=500, deadline=None)
def test_relation_wise_match_agrees_with_the_double_loop(f, a, k):
    """The same first candidate and the same ``ambiguous`` flag as the
    double loop over every pair of edges."""
    assert relation_wise_match(f, a, k) == reference_relation_wise_match(f, a, k)


def test_relation_wise_application_wh_root_exception():
    what = c("S[whq]/(S[q]/NP)", "(?1 :ARG1 (a/amr-unknown))", 0, 1)
    clause = c(
        "S[q]/NP",
        "(d/decide-01 :ARG0 (y/you) :ARG1 (e/eat-01 :ARG0 y :ARG1 ?1 :time (y2/yesterday)))",
        1, 2,
    )
    out = combine_application("forward", what, clause)
    assert out.rule == ">R"
    final = out.constituent.semantics
    assert iso_equal(
        final,
        parse(
            "(d/decide-01 :ARG0 (y/you)"
            " :ARG1 (e/eat-01 :ARG0 y :ARG1 (a/amr-unknown) :time (y2/yesterday)))"
        ),
    )


def test_relation_wise_application_light_verb_preposition():
    decision = c("N/PP[on]", "(d/decide-01 :ARG1 ?1)", 0, 1)
    on = c("(N/NP)\\(N/PP[on])", "(?2 :ARG1 ?1)", 1, 2)
    out = combine_application("backward", on, decision)
    assert out.rule == "<R"
    assert format_category(out.constituent.category) == "N/NP"
    assert iso_equal(out.constituent.semantics, parse("(d/decide-01 :ARG1 ?1)"))


def test_relation_wise_application_inverse_role_keeps_variable_root():
    who = c("(NP\\NP)/(S\\NP)", "(?2 :ARG0-of ?1)", 0, 1)
    teach_math = c("S\\NP", "(t/teach-01 :ARG0 ?1 :ARG1 (m/math))", 1, 2)
    out = combine_application("forward", who, teach_math)
    assert out.rule == ">R"
    sem = out.constituent.semantics
    assert sem.concept(sem.root) is None
    assert ":ARG0-of" in serialize(sem)


def test_relation_wise_preserves_material_on_both_sides():
    f = parse("(s/seem-01 :ARG1 (?1 :ARG0 ?2))")
    a = parse("(p/practice-01 :ARG0 ?1 :ARG1 (g/guitar) :frequency (o/often))")
    fc = c("(S\\NP)/(S[to]\\NP)", serialize(f), 0, 1)
    ac = c("S[to]\\NP", serialize(a), 1, 2)
    out = combine_application("forward", fc, ac)
    assert out.rule == ">R"
    assert iso_equal(
        out.constituent.semantics,
        parse("(s/seem-01 :ARG1 (p/practice-01 :ARG0 ?1 :ARG1 (g/guitar) :frequency (o/often)))"),
    )


def test_forced_variants():
    decide = c("(S[b]\\NP)/(S[to]\\NP)", "(d/decide-01 :ARG0 ?2 :ARG1 (?1 :ARG0 ?2))", 0, 1)
    chain = c("(S[to]\\NP)/NP", "(e/eat-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    auto = combine_composition("forward", 1, decide, chain)
    assert auto.rule == ">RB"
    assert auto.constituent.semantics == forced_variant("forward", 1, decide, chain, "relation")
    # forcing the regular variant leaves 3 free variables under arity 2: it fails
    with pytest.raises(CombinationError, match="isomorphism"):
        forced_variant("forward", 1, decide, chain, "regular")
    # with arity slack both variants are legal but produce different graphs
    to_like = c("((S\\NP)\\(S\\NP))/(S[b]\\NP)", "(?2 :purpose (?1 :ARG0 (h/he)))", 0, 1)
    eat = c("S[b]\\NP", "(e/eat-01 :ARG0 ?1)", 1, 2)
    auto_app = combine_application("forward", to_like, eat)
    forced_app = forced_variant("forward", 0, to_like, eat, "regular")
    assert auto_app.rule == ">R"
    assert not iso_equal(auto_app.constituent.semantics, forced_app)
    plain = c("(S[to]\\NP)/NP", "(s/sleep-01 :mod ?2 :ARG1 ?1)", 1, 2)
    with pytest.raises(CombinationError):
        forced_variant("forward", 1, decide, plain, "relation")


def _chain(base, argument, depth):
    for _ in range(depth):
        base = Functor(base, FORWARD, argument)
    return base


@given(
    f_sem=graphs(min_fv=1, labels=(*LABELS, UNDERSPECIFIED)),
    a_sem=graphs(),
    order=st.integers(0, 1),
    forward=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_combine_matched_picks_relation_wise_iff_a_shared_edge_unifies(f_sem, a_sem, order, forward):
    # categories sized to the arity: the function takes every free variable
    # either side brings, so the iso principle rarely decides the outcome
    na = max(len(a_sem.fv), order)
    a_cat = _chain(Atom("N"), Atom("PP"), na)
    result = _chain(Atom("S"), Atom("NP"), len(f_sem.fv) - 1 + na)
    f_cat = Functor(result, FORWARD if forward else BACKWARD, a_cat.result if order else a_cat)
    direction = "forward" if forward else "backward"
    f = Constituent(int(not forward), int(not forward) + 1, f_cat, f_sem)
    a = Constituent(int(forward), int(forward) + 1, a_cat, a_sem)
    shared = relation_wise_match(f_sem, a_sem, order + 1)
    relation = shared is not None
    if relation:
        try:
            relation_wise_combine(f_sem, a_sem, shared, order)
        except UnificationError:
            relation = False
    variant = "relation" if relation else "regular"
    try:
        out = combine_matched(direction, order, f, a, match_categories(direction, order, f_cat, a_cat))
    except CombinationError:
        with pytest.raises(CombinationError):
            forced_variant(direction, order, f, a, variant)
        return
    assert ("R" in out.rule) == relation
    assert out.constituent.semantics == forced_variant(direction, order, f, a, variant)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: relation_wise_match takes the first qualifying edge pair in "
    "insertion order, which is not part of a graph's iso-class",
)
def test_relation_wise_choice_does_not_depend_on_edge_order():
    # "I should and you may eat" with NP > S raising: two edges of f qualify
    f = parse("(a/and :op1 (r/recommend-01 :ARG1 (?1 :ARG0 (i/i) :? (y/you))) :op2 ?1)")
    a = Constituent(1, 2, parse_category("(S\\NP)/NP"), parse("(p/permit-01 :ARG1 (?1 :ARG0 ?2))"))
    fcat = parse_category("S/(S\\NP)")
    match = match_categories("forward", 1, fcat, a.category)
    outcomes = [
        combine_matched("forward", 1, Constituent(0, 1, fcat, sem), a, match)
        for sem in (f, AmrSubgraph(f.nodes, f.edges[::-1], f.root, f.fv))
    ]
    assert [out.rule for out in outcomes] == [">RB", ">RB"]
    assert iso_equal(*(out.constituent.semantics for out in outcomes))


def test_relation_wise_falls_back_on_constant_clash():
    # shared :ARG0 edge, but same-side endpoints hold different constants
    f = c("(S\\NP)\\(S\\NP)", "(a/alpha :ARG0 ?1)", 1, 2)
    a = c("S\\NP", "(b/beta :ARG0 ?1)", 0, 1)
    out = combine_application("backward", f, a)
    assert out.rule == "<"
    assert any("fell back" in note for note in out.notes)


# --- type raising -----------------------------------------------------------

def test_type_raise_subject():
    john = c("NP", '(p/person :name (n/name :op1 "John"))', 0, 1)
    out = type_raise(john, parse_category("S"), "forward")
    assert out.rule == ">T[S]"
    assert format_category(out.constituent.category) == "S/(S\\NP)"
    sem = out.constituent.semantics
    assert sem.root == sem.fv[0]
    assert any(e.source == sem.root and e.label == UNDERSPECIFIED for e in sem.edges)
    assert iso_equal(sem, parse('(?1 :? (p/person :name (n/name :op1 "John")))'))


def test_type_raise_constant():
    out = type_raise(c("NP", "(c/cat)"), parse_category("S"), "forward")
    sem = out.constituent.semantics
    assert len(sem.fv) == 1
    assert iso_equal(sem, parse("(?1 :? (c/cat))"))


def test_type_raise_two_variable_graph_puts_fresh_variable_first():
    # a target of two arguments gives the raised category the three a raised
    # two-variable graph needs
    out = type_raise(
        c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)"), parse_category("(S\\NP)/NP"), "backward"
    )
    sem = out.constituent.semantics
    assert len(sem.fv) == 3
    assert sem.fv[0] == sem.root  # the fresh variable leads
    assert format_category(out.constituent.category) == "S\\NP/NP\\(S\\NP/NP/(S\\NP/NP))"


def test_type_raise_of_a_functor_to_an_atom_breaks_the_principle():
    with pytest.raises(CombinationError) as err:
        type_raise(c("S\\NP", "(v/vee :ARG0 ?1)"), parse_category("S"), "forward")
    assert str(err.value) == (
        "result breaks the functional-isomorphism principle: 2 free variables exceed arity 1 of S/(S\\(S\\NP))"
    )


def test_type_raise_rejects_identity():
    with pytest.raises(CombinationError):
        type_raise(c("NP/N", "ID"), parse_category("S"), "forward")


@pytest.mark.parametrize("direction", ["up", "Forward", ">"])
def test_type_raise_rejects_an_unknown_direction(direction):
    with pytest.raises(ValueError, match=f"^direction must be 'forward' or 'backward', found {direction!r}$"):
        type_raise(c("NP", "(c/cat)"), parse_category("S"), direction)


def test_application_and_composition_reject_an_unknown_direction():
    # each pair combines backward, which an unknown direction used to mean
    john, runs = c("NP", "(j/john)", 0, 1), c("S\\NP", "(r/run-01 :ARG0 ?1)", 1, 2)
    with pytest.raises(ValueError, match="found 'sideways'"):
        combine_application("sideways", runs, john)
    quickly = c("(S\\NP)\\(S\\NP)", "(?1 :manner (q/quick))", 2, 3)
    runs_to = c("(S\\NP)/PP", "(r/run-01 :ARG0 ?2 :direction ?1)", 1, 2)
    with pytest.raises(ValueError, match="found 'Backward'"):
        combine_composition("Backward", 1, quickly, runs_to)


@pytest.mark.parametrize("order", [0, 3])
def test_composition_order_must_be_one_or_two(order):
    # only B and B2 have a rule name, so no other order can be recorded
    quickly = c("(S\\NP)\\(S\\NP)", "(?1 :manner (q/quick))", 2, 3)
    runs_to = c("(S\\NP)/PP", "(r/run-01 :ARG0 ?2 :direction ?1)", 1, 2)
    with pytest.raises(CombinationError, match=f"^composition order must be 1 or 2, found {order}$"):
        combine_composition("backward", order, quickly, runs_to)


# --- conjunction ------------------------------------------------------------

def test_coordinate_shares_object_variable():
    conj = c("Conj", "(a/and)", 2, 3)
    left = c("S/NP", '(l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 ?1)', 0, 2)
    right = c("S/NP", '(h/hate-01 :ARG0 (p/person :name (n/name :op1 "Mary")) :ARG1 ?1)', 3, 5)
    out = coordinate(conj, left, right)
    assert out.rule == "&"
    sem = out.constituent.semantics
    assert len(sem.fv) == 1
    assert len(sem.incoming(sem.fv[0])) == 2  # both conjuncts point at one slot
    assert format_category(out.constituent.category) == "S/NP"


def test_coordinate_merges_two_variable_modifiers_pairwise():
    conj = c("Conj", "(a/and)", 1, 2)
    left = c("(S\\NP)\\(S\\NP)", "(?1 :ARG1 ?2 :purpose (e/eat-01 :ARG0 ?2))", 0, 1)
    right = c("(S\\NP)\\(S\\NP)", "(?1 :ARG1 ?2 :purpose (p/party-01 :ARG0 ?2))", 2, 3)
    out = coordinate(conj, left, right)
    sem = out.constituent.semantics
    assert len(sem.fv) == 2
    shared_root_slot, shared_subject = sem.fv
    assert len(sem.incoming(shared_root_slot)) == 2  # :op1 and :op2
    assert len(sem.incoming(shared_subject)) >= 2


def test_coordinate_constants():
    out = coordinate(
        c("Conj", "(a/and)", 1, 2),
        c("NP", "(a/alpha)", 0, 1),
        c("NP", "(b/beta)", 2, 3),
    )
    assert iso_equal(out.constituent.semantics, parse("(a/and :op1 (a2/alpha) :op2 (b/beta))"))
    assert out.constituent.semantics.fv == ()


def test_coordinate_rejects_mismatched_variable_counts():
    with pytest.raises(CombinationError, match="free variables"):
        coordinate(
            c("Conj", "(a/and)", 1, 2),
            c("S/NP", "(l/like-01 :ARG0 (p/person) :ARG1 ?1)", 0, 1),
            c("S/NP", "(h/hate-01 :ARG0 ?2 :ARG1 ?1)", 2, 3),
        )


def test_coordinate_rejects_a_left_conjunct_not_next_to_the_conjunction():
    for left_span in ((5, 6), (0, 1)):
        with pytest.raises(CombinationError, match="^left conjunct and conjunction are not adjacent$"):
            coordinate(c("Conj", "(a/and)", 2, 3), c("NP", "(a/alpha)", *left_span), c("NP", "(b/beta)", 3, 4))


def test_coordinate_rejects_identity_conjunct():
    with pytest.raises(CombinationError, match="identity"):
        coordinate(
            c("Conj", "(a/and)", 1, 2),
            c("NP/N", "ID", 0, 1),
            c("NP/N", "ID", 2, 3),
        )


def test_strict_conjunction_limits_variable_count():
    conj = c("Conj", "(a/and)", 1, 2)
    left = c("(S\\NP)\\(S\\NP)", "(?1 :ARG1 ?2 :purpose (e/eat-01 :ARG0 ?2))", 0, 1)
    right = c("(S\\NP)\\(S\\NP)", "(?1 :ARG1 ?2 :purpose (p/party-01 :ARG0 ?2))", 2, 3)
    with pytest.raises(CombinationError, match="strict"):
        coordinate(conj, left, right, strict=True)


def test_conj_attach_then_assemble():
    conj = c("Conj", "(a/and)", 1, 2)
    right = c("NP", "(b/beta)", 2, 3)
    partial = conj_attach(conj, right)
    assert partial.rule == "&"
    assert format_category(partial.constituent.category) == "NP\\NP"
    with pytest.raises(CombinationError):
        combine_application("backward", partial.constituent, c("NP", "(a/alpha)", 0, 1))


@pytest.mark.parametrize(
    "conj,right,message",
    [
        (("NP", "(a/and)", 0, 1), ("NP", "(b/beta)", 1, 2), "the conjunction word must have category Conj"),
        (
            ("Conj", "(a/and :op1 (x/x))", 0, 1),
            ("NP", "(b/beta)", 1, 2),
            "a conjunction word needs a single-concept semantics",
        ),
        (("Conj", "ID", 0, 1), ("NP", "(b/beta)", 1, 2), "a conjunction word needs a single-concept semantics"),
        (("Conj", "(?1)", 0, 1), ("NP", "(b/beta)", 1, 2), "a conjunction word needs a single-concept semantics"),
        (("Conj", "(a/and)", 0, 1), ("NP", "(b/beta)", 2, 3), "conjunction and right conjunct are not adjacent"),
    ],
    ids=["not-conj", "two-concepts", "identity", "free-variable", "apart"],
)
def test_conj_attach_rejects_each_bad_input_with_its_own_message(conj, right, message):
    with pytest.raises(CombinationError) as err:
        conj_attach(c(*conj), c(*right))
    assert str(err.value) == message


def test_application_needs_a_free_variable_in_the_function():
    the = c("NP/N", "(t/the)", 0, 1)
    with pytest.raises(CombinationError) as err:
        combine_application("forward", the, c("N", "(c/cat)", 1, 2))
    assert str(err.value) == "function semantics has no free variable to fill"


# --- identity laws ----------------------------------------------------------

def test_identity_absorption_both_sides():
    graph = c("S[pass]\\NP", "(e/eat-01 :ARG1 ?1)", 1, 2)
    f_id = c("(S\\NP)/(S[pass]\\NP)", "ID", 0, 1)
    assert iso_equal(
        combine_application("forward", f_id, graph).constituent.semantics, graph.semantics
    )
    arg_id = c("N/N", "ID", 1, 2)
    his = c("NP/N", "(?1 :poss (h/he))", 0, 1)
    out = combine_composition("forward", 1, his, arg_id)
    assert iso_equal(out.constituent.semantics, his.semantics)


def test_regular_combination_notes_free_rooted_argument():
    f = c("(NP/PP)/N", "(?1 :poss (h/he))", 0, 1)
    a = c("N", "(?1 :mod (y/yellow))", 1, 2)
    out = combine_application("forward", f, a)
    assert out.rule == ">"
    assert any("rooted at a free variable" in note for note in out.notes)
    assert iso_equal(out.constituent.semantics, parse("(?1 :poss (h/he) :mod (y/yellow))"))


def test_relation_wise_discharges_underspecified_edge():
    raised = c("S/(S\\NP)", '(?1 :? (p/person :name (n/name :op1 "John")))', 0, 1)
    likes = c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)", 1, 2)
    out = combine_composition("forward", 1, raised, likes)
    assert out.rule == ">RB"
    sem = out.constituent.semantics
    assert all(e.label != UNDERSPECIFIED for e in sem.edges)


# --- step names -------------------------------------------------------------

def test_rules_hold_exactly_the_step_names():
    spelled = {d + r + b + x for d in "><" for r in ("", "R") for b in ("", "B", "B2") for x in ("", "x")}
    names = {name for name in spelled if re.fullmatch(r"[><]R?(?:B2?x?)?", name)}
    assert len(names) == 20 and set(RULES) == names
    assert RULE_NAMES == {rule: name for name, rule in RULES.items()} and len(RULE_NAMES) == 20
    for name, (direction, order, crossed, rw) in RULES.items():
        assert name[0] == (">" if direction == "forward" else "<")
        assert (order, crossed, rw) == (name.count("B") + name.count("2"), "x" in name, "R" in name)


@pytest.mark.parametrize("name", ["&", ">", "<RBx", "T[S]", ">T[]", ">T[S]x", "<T", ">x", "<Rx"])
def test_read_raise_reads_only_raise_names(name):
    assert read_raise(name) is None


@pytest.mark.parametrize("text, direction", [("S", "forward"), ("S\\NP", "backward"), ("(S/NP)/NP", "forward")])
def test_read_raise_inverts_raise_rule_name(text, direction):
    target = parse_category(text)
    name = raise_rule_name(target, direction)
    assert read_raise(name) == (direction, format_category(target))
