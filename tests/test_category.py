import os
import pickle
import subprocess
import sys

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


def _format_recursively(cat) -> str:
    """The recursive printer ``format_category`` replaced, kept as its reference."""
    if isinstance(cat, Atom):
        return cat.base if cat.feature is None else f"{cat.base}[{cat.feature}]"
    right = _format_recursively(cat.argument)
    if isinstance(cat.argument, Functor):
        right = f"({right})"
    return f"{_format_recursively(cat.result)}{cat.slash}{right}"


@given(cat=categories(max_depth=5))
@settings(max_examples=150, deadline=None)
def test_format_category_agrees_with_the_recursive_printer(cat):
    text = format_category(cat)
    assert text == _format_recursively(cat)
    again = parse_category(text)
    assert again == cat and hash(again) == hash(cat) and repr(again) == repr(cat)


def _slashes(n: int):
    return parse_category("S" + "/NP" * n)


def _nested(depth: int):
    cat = Atom("NP")
    for _ in range(depth):
        cat = Functor(Atom("S"), "/", cat)
    return cat


def _copy(cat):
    # rebuilt bottom-up along the result spine, without recursion
    spine = []
    while isinstance(cat, Functor):
        spine.append(cat)
        cat = cat.result
    for f in reversed(spine):
        cat = Functor(cat, f.slash, f.argument)
    return cat


def test_format_and_hash_of_deep_categories_do_not_recurse():
    assert format_category(_slashes(1000)) == "S" + "/NP" * 1000
    assert format_category(_nested(500)) == "S/(" * 499 + "S/NP" + ")" * 499
    for cat in (_slashes(1000), _nested(500)):
        assert hash(cat) == hash(_copy(cat))


def test_functor_hash_is_stored_and_left_out_of_eq_and_repr():
    a = parse_category("(S\\NP)/NP")
    b = Functor(Functor(Atom("S"), "\\", Atom("NP")), "/", Atom("NP"))
    assert a == b and hash(a) == hash(b) and a is not b
    assert "_hash" not in repr(a) and repr(a) == repr(b)
    object.__setattr__(b, "_hash", hash(a) + 1)
    assert a == b
    assert {a: 1}[parse_category("(S\\NP)/NP")] == 1


def test_pickled_functor_rehashes_in_another_process():
    # string hashes are seeded per process, so a stored hash must not travel
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = "import pickle, sys; from ccgamr.category import parse_category; " \
        "sys.stdout.buffer.write(pickle.dumps(parse_category('S[b]\\\\NP/NP')))"
    data = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed},
    ).stdout
    cat = pickle.loads(data)
    assert cat == parse_category("S[b]\\NP/NP")
    assert hash(cat) == hash(parse_category("S[b]\\NP/NP"))
