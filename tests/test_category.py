import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgamr.category import (
    MAX_DEPTH,
    Atom,
    CategoryError,
    Functor,
    arity,
    check_iso_principle,
    format_category,
    parse_category,
    unify,
)
from ccgamr.combinator import IDENTITY
from ccgamr.penman import parse as parse_graph

from support import categories


def test_parse_left_associative():
    cat = parse_category("S[b]\\NP/NP")
    assert cat == Functor(Functor(Atom("S", "b"), "\\", Atom("NP")), "/", Atom("NP"))


def test_parse_atom():
    assert parse_category("NP") == Atom("NP")


def test_parse_nested_functor():
    cat = parse_category("((S\\NP)\\(S\\NP))/(S[b]\\NP)")
    assert isinstance(cat, Functor)
    assert cat.slash == "/"
    assert cat.argument == Functor(Atom("S", "b"), "\\", Atom("NP"))
    assert cat.result == Functor(
        Functor(Atom("S"), "\\", Atom("NP")), "\\", Functor(Atom("S"), "\\", Atom("NP"))
    )


def test_parse_errors():
    with pytest.raises(CategoryError):
        parse_category("S\\")
    with pytest.raises(CategoryError):
        parse_category("(S\\NP")
    with pytest.raises(CategoryError):
        parse_category("X")  # unknown atomic base


def test_print_normalizes_parentheses():
    assert format_category(parse_category("(S[b]\\NP)/NP")) == "S[b]\\NP/NP"
    text = "((S\\NP)\\(S\\NP))/(S[b]\\NP)"
    assert format_category(parse_category(text)) == "S\\NP\\(S\\NP)/(S[b]\\NP)"


def test_arity():
    assert arity(parse_category("NP")) == 0
    assert arity(parse_category("S\\NP/NP")) == 2
    assert arity(parse_category("S[whq]/(S[q]/NP)")) == 1
    assert arity(parse_category("((S\\NP)\\(S\\NP))/(S[b]\\NP)")) == 3


def test_unify_bare_with_featured():
    assert unify(parse_category("S"), parse_category("S[b]")) == Atom("S", "b")
    assert unify(parse_category("S[b]"), parse_category("S")) == Atom("S", "b")
    assert unify(parse_category("NP"), parse_category("NP")) == Atom("NP")


def test_unify_distinct_features_fail():
    assert unify(parse_category("S[q]"), parse_category("S[whq]")) is None


def test_unify_recurses_into_functors():
    got = unify(parse_category("S\\NP"), parse_category("S[b]\\NP"))
    assert got == Functor(Atom("S", "b"), "\\", Atom("NP"))
    assert unify(parse_category("S/NP"), parse_category("S\\NP")) is None
    assert unify(parse_category("S/NP"), parse_category("NP")) is None


def test_iso_principle_exactly_one_argument():
    assert check_iso_principle(parse_category("PP/NP"), parse_graph("(?2 :ARG1 ?1)")) != []
    assert check_iso_principle(parse_category("PP/NP"), parse_graph("(p/pred :ARG1 ?1)")) == []


def test_iso_principle_modifier_leniency():
    cat = parse_category("(S\\NP)\\(S\\NP)")
    assert check_iso_principle(cat, parse_graph("(?1 :time (y/yesterday))")) == []
    assert check_iso_principle(cat, parse_graph("(?2 :ARG0 ?1)")) == []


def test_iso_principle_rejects_variables_under_atom():
    assert check_iso_principle(parse_category("NP"), parse_graph("(?1 :mod (b/bad))")) != []


def test_iso_principle_identity_exempt():
    assert check_iso_principle(parse_category("NP"), IDENTITY) == []
    assert check_iso_principle(parse_category("NP/N"), IDENTITY) == []


@given(cat=categories())
@settings(max_examples=200, deadline=None)
def test_print_parse_print_idempotent(cat):
    shown = format_category(cat)
    assert format_category(parse_category(shown)) == shown


@given(text=st.text(alphabet="SNP()/\\[]bqto ", max_size=30))
@settings(max_examples=150, deadline=None)
def test_parse_category_never_leaks_foreign_exceptions(text):
    try:
        parse_category(text)
    except CategoryError:
        pass


def test_parse_accepts_nesting_at_the_depth_limit():
    assert parse_category("(" * MAX_DEPTH + "S" + ")" * MAX_DEPTH) == Atom("S")
    text = "S/(" * MAX_DEPTH + "S/NP" + ")" * MAX_DEPTH
    assert format_category(parse_category(text)) == text


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000])
def test_parse_rejects_nesting_past_the_depth_limit(depth):
    with pytest.raises(CategoryError, match=f"deeper than {MAX_DEPTH} levels at offset {MAX_DEPTH}$"):
        parse_category("(" * depth + "S" + ")" * depth)
