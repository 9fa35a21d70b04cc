import pytest

from ccgamr.category import arity, format_category, parse_category
from ccgamr.combinator import (
    CombinationError,
    combine_application,
    combine_composition,
    conj_attach,
    coordinate,
    relation_wise_combine,
    relation_wise_match,
    type_raise,
)
from ccgamr.graph import UNDERSPECIFIED, iso_equal
from ccgamr.penman import parse, serialize

from support import constituent


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
    arg1 = next(e.target for e in sem.outgoing(eat_node) if e.label == ":ARG1")
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
    with pytest.raises(CombinationError, match="crossed"):
        combine_composition("forward", 1, may, eat, crossed=True)


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
    graph, _ = relation_wise_combine(raised, likes, match, order=1)
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
    assert sem.is_free(sem.root)
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
    # forcing the regular variant leaves 3 free variables under arity 2: it fails
    with pytest.raises(CombinationError, match="isomorphism"):
        combine_composition("forward", 1, decide, chain, variant="regular")
    # with arity slack both variants are legal but produce different graphs
    to_like = c("((S\\NP)\\(S\\NP))/(S[b]\\NP)", "(?2 :purpose (?1 :ARG0 (h/he)))", 0, 1)
    eat = c("S[b]\\NP", "(e/eat-01 :ARG0 ?1)", 1, 2)
    auto_app = combine_application("forward", to_like, eat)
    forced_app = combine_application("forward", to_like, eat, variant="regular")
    assert auto_app.rule == ">R" and forced_app.rule == ">"
    assert not iso_equal(auto_app.constituent.semantics, forced_app.constituent.semantics)
    plain = c("(S[to]\\NP)/NP", "(s/sleep-01 :mod ?2 :ARG1 ?1)", 1, 2)
    with pytest.raises(CombinationError):
        combine_composition("forward", 1, decide, plain, variant="relation")


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
    out = type_raise(
        c("(S\\NP)/NP", "(l/like-01 :ARG0 ?2 :ARG1 ?1)"), parse_category("S"), "backward"
    )
    sem = out.constituent.semantics
    assert len(sem.fv) == 3
    assert sem.fv[0] == sem.root  # the fresh variable leads
    assert format_category(out.constituent.category) == "S\\(S/(S\\NP/NP))"


def test_type_raise_rejects_identity():
    with pytest.raises(CombinationError):
        type_raise(c("NP/N", "ID"), parse_category("S"), "forward")


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
