import copy
import dataclasses
import gc
import os
import pickle
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccgamr import category as category_module
from ccgamr.category import (
    MAX_DEPTH,
    Atom,
    CategoryError,
    Functor,
    arity,
    format_category,
    parse_category,
    unify,
)
from ccgamr.combinator import IDENTITY, check_iso_principle, conj_attach, match_categories, type_raise
from ccgamr.penman import parse as parse_graph

from support import categories, constituent, reference_format_category, reference_repr


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


_CATEGORY_TOKEN = re.compile(r"[A-Za-z]+|\[[A-Za-z0-9]+\]|[()/\\]")
_OFFSET = re.compile(r"at offset (\d+)")


@st.composite
def spaced_categories(draw):
    """(text, category): a printed category with a whitespace run, Unicode
    whitespace included, before, between and after its tokens; or (text with
    one stray character inserted, None)."""
    cat = draw(categories())
    tokens = _CATEGORY_TOKEN.findall(format_category(cat))
    n = len(tokens) + 1
    gaps = draw(st.lists(st.text(" \t\n\u00a0\u2003", max_size=3), min_size=n, max_size=n))
    text = gaps[0] + "".join(token + gap for token, gap in zip(tokens, gaps[1:]))
    if draw(st.booleans()):
        return text, cat
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(st.sampled_from("]?:-1")) + text[k:], None


@given(case=spaced_categories(), message=st.none())
@example(case=("S / Foo", None), message="unknown atomic category 'Foo' at offset 4")
@example(case=("S  ]", None), message="bad category syntax at offset 3: ']'")
@example(case=("S /  NP x", None), message="trailing category input at offset 8")
@example(case=("( S", None), message="expected ')' at offset 3")
@example(case=("(S(NP))", None), message="expected ')' at offset 2")
@example(case=("   ", None), message="expected a category at offset 3")
@settings(max_examples=300, deadline=None)
def test_whitespace_is_skipped_and_errors_give_the_offending_tokens_offset(case, message):
    text, cat = case
    if cat is not None:  # == is identity on functors
        assert parse_category.__wrapped__(text) == cat
        return
    try:
        parse_category.__wrapped__(text)
    except CategoryError as err:
        got = str(err)
        k = int(_OFFSET.search(got)[1])
        assert k == len(text) or not text[k].isspace()
        if got.startswith("bad category syntax"):
            assert got.endswith(f": {text[k:]!r}")
        assert message in (None, got)
    else:
        assert message is None


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


@given(cat=categories(max_depth=5))
@settings(max_examples=150, deadline=None)
def test_format_and_repr_share_one_walker_and_print_as_before(cat):
    assert format_category(cat) == reference_format_category(cat)
    assert repr(cat) == reference_repr(cat)


def test_format_and_hash_of_deep_categories_do_not_recurse():
    assert format_category(_slashes(1000)) == "S" + "/NP" * 1000
    assert format_category(_nested(500)) == "S/(" * 499 + "S/NP" + ")" * 499
    for cat in (_slashes(1000), _nested(500)):
        assert hash(cat) == hash(_copy(cat))


def _unify_recursively(x, y):
    """The recursive ``unify`` the iterative one replaced, kept as its reference."""
    if isinstance(x, Atom) and isinstance(y, Atom):
        if x.base != y.base:
            return None
        if x.feature is None:
            return y
        return x if y.feature is None or x.feature == y.feature else None
    if isinstance(x, Functor) and isinstance(y, Functor) and x.slash == y.slash:
        res, arg = _unify_recursively(x.result, y.result), _unify_recursively(x.argument, y.argument)
        return None if res is None or arg is None else Functor(res, x.slash, arg)
    return None


def _bare(cat):
    """``cat`` with every feature dropped: it unifies with ``cat``."""
    if isinstance(cat, Atom):
        return Atom(cat.base)
    return Functor(_bare(cat.result), cat.slash, _bare(cat.argument))


@given(x=categories(max_depth=4), y=categories(max_depth=4))
@settings(max_examples=200, deadline=None)
def test_unify_and_eq_agree_with_the_recursive_reference(x, y):
    for a, b in ((x, y), (x, _bare(x)), (_bare(y), y), (x, x)):
        got, want = unify(a, b), _unify_recursively(a, b)
        assert got == want and repr(got) == repr(want)
        assert (a == b) == (repr(a) == repr(b)) and (a != b) == (repr(a) != repr(b))


def test_deepest_accepted_categories_compare_equal_and_unify():
    nested = "S/(" * MAX_DEPTH + "S/NP" + ")" * MAX_DEPTH
    for text in (nested, "S" + "/NP" * 1000):
        a = parse_category(text)
        parse_category.cache_clear()
        b = parse_category(text)
        assert a is b and a == b and not a != b
        assert format_category(unify(a, b)) == text
    featured = parse_category(nested.replace("S/NP", "S[b]/NP"))
    assert featured != parse_category(nested)
    assert unify(parse_category(nested), featured) is featured
    assert unify(featured, parse_category(nested.replace("S/NP", "S[q]/NP"))) is None
    assert unify(parse_category(nested), parse_category(nested.replace("S/NP", "S\\NP"))) is None


def test_functor_eq_and_hash_are_identity_and_left_out_of_repr():
    a = parse_category("(S\\NP)/NP")
    b = Functor(Functor(Atom("S"), "\\", Atom("NP")), "/", Atom("NP"))
    assert a is b and hash(a) == object.__hash__(a)
    for name in ("__eq__", "__hash__", "__post_init__", "_hash"):
        assert name not in vars(Functor)
    assert Functor.__eq__ is object.__eq__ and Functor.__hash__ is object.__hash__
    assert [f.name for f in dataclasses.fields(Functor)] == ["result", "slash", "argument"]
    assert not hasattr(a, "__dict__") and repr(a) == _dataclass_repr(a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.slash = "\\"
    assert {a: 1}[parse_category("(S\\NP)/NP")] == 1


def test_pickled_functor_rehashes_in_another_process():
    # string hashes are seeded per process; the pickle rebuilds the live object
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = "import pickle, sys; from ccgamr.category import parse_category; " \
        "sys.stdout.buffer.write(pickle.dumps(parse_category('S[b]\\\\NP/NP')))"
    data = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed},
    ).stdout
    assert pickle.loads(data) is parse_category("S[b]\\NP/NP")


def _dataclass_repr(cat) -> str:
    """The text of a dataclass-generated ``__repr__``: the fields shown by
    repr, in order, with nested dataclasses printed the same way."""
    shown = lambda v: _dataclass_repr(v) if dataclasses.is_dataclass(v) else repr(v)
    fields = [f"{f.name}={shown(getattr(cat, f.name))}" for f in dataclasses.fields(cat) if f.repr]
    return f"{type(cat).__qualname__}({', '.join(fields)})"


@given(cat=categories(max_depth=4))
@settings(max_examples=150, deadline=None)
def test_functor_repr_is_the_dataclass_text(cat):
    assert repr(cat) == str(cat) == _dataclass_repr(cat)


@pytest.mark.parametrize("cat", [_slashes(1000), _nested(1000)], ids=["1000-slashes", "1000-arguments"])
def test_repr_and_pickle_of_deep_categories_do_not_recurse(cat):
    text = repr(cat)
    assert str(cat) == text and text.count("Functor(") == 1000
    assert text == reference_repr(cat) and format_category(cat) == reference_format_category(cat)
    assert pickle.loads(pickle.dumps(cat)) is cat and copy.deepcopy(cat) is cat


def test_pickle_keeps_shared_subterms_shared():
    cat = Atom("S")
    for _ in range(16):  # 2**16 leaves as a tree, 17 distinct subterms
        cat = Functor(cat, "/", cat)
    data = pickle.dumps(cat)
    again = pickle.loads(data)
    assert len(data) < 1000
    assert again is cat and again.result is again.argument


# --- interning: one object per category value ------------------------------

def test_every_way_of_building_a_category_gives_the_live_object():
    tv = parse_category("(S\\NP)/NP")
    parse_category.cache_clear()
    assert parse_category("(S\\NP)/NP") is tv
    assert Functor(Functor(Atom("S"), "\\", Atom("NP")), "/", Atom("NP")) is tv
    featured = parse_category("(S[b]\\NP)/NP")
    assert unify(tv, featured) is featured and unify(featured, tv) is featured
    assert match_categories("forward", 0, parse_category("((S\\NP)/NP)/PP"), Atom("PP")) == (tv, False)
    composed, _ = match_categories("forward", 1, parse_category("S/(S\\NP)"), tv)
    assert composed is parse_category("S/NP")
    raised = type_raise(constituent("NP", "(c/cat)"), Atom("S"), "forward")
    assert raised.constituent.category is parse_category("S/(S\\NP)")
    attached = conj_attach(constituent("Conj", "(a/and)", 0, 1), constituent("S\\NP", "(r/run-01 :ARG0 ?1)", 1, 2))
    assert attached.constituent.category is parse_category("(S\\NP)\\(S\\NP)")
    assert dataclasses.replace(tv) is tv
    assert dataclasses.replace(tv, slash="\\") is parse_category("(S\\NP)\\NP")
    assert copy.copy(tv) is tv and copy.deepcopy(tv) is tv
    assert pickle.loads(pickle.dumps(tv)) is tv


@given(
    pair=st.tuples(categories(max_depth=3), st.sampled_from("/\\"), categories(max_depth=3)),
    other=st.tuples(categories(max_depth=3), st.sampled_from("/\\"), categories(max_depth=3)),
)
@settings(max_examples=200, deadline=None)
def test_functors_are_equal_exactly_when_identical_and_printed_alike(pair, other):
    a = Functor(*pair)
    for b in (Functor(*other), _copy(a), pickle.loads(pickle.dumps(a)), parse_category(format_category(a))):
        assert (a == b) == (a is b) == (repr(a) == repr(b))


def test_a_dropped_deep_category_leaves_the_weak_table():
    gc.collect()
    before = len(category_module._LIVE)
    cat = Atom("S", "dropped")
    for _ in range(1000):
        cat = Functor(cat, "/", Atom("NP"))
    assert len(category_module._LIVE) == before + 1000
    del cat
    gc.collect()
    assert len(category_module._LIVE) == before


def test_threads_that_build_equal_categories_get_one_object_each():
    start = threading.Barrier(8, timeout=60)

    def build(_):
        start.wait()
        built = []
        for i in range(200):
            cat = Atom("S", f"t{i}")
            for _ in range(20):
                cat = Functor(cat, "/", Functor(Atom("NP", f"t{i}"), "\\", Atom("N")))
                built.append(cat)
        return built

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = list(pool.map(build, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 8
    for objects in zip(*runs):
        assert all(o is objects[0] for o in objects)
