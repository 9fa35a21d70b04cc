import random

import pytest

from ccgamr.category import format_category
from ccgamr.combinator import IDENTITY
from ccgamr.fixtures import LEXICON_PATH
from ccgamr.graph import iso_equal
from ccgamr.lexicon import LexiconError, load, loads
from ccgamr.penman import parse, serialize


def test_load_fixture_lexicon(lexicon):
    assert len(lexicon.entries) > 40
    read = loads("read | S\\NP/NP | (r/read-01 :ARG0 ?2 :ARG1 ?1)")
    entry = read.lookup("read")[0]
    assert format_category(entry.category) == "S\\NP/NP"
    assert len(entry.semantics.fv) == 2


def test_identity_entry_loads():
    lex = loads("the | NP/N | ID")
    assert lex.lookup("the")[0].semantics is IDENTITY


def test_entry_with_variable_under_atom_rejected():
    with pytest.raises(LexiconError, match="atomic category"):
        loads("bad | NP | (?1 :mod (b/bad))")


def test_duplicate_ids_rejected():
    text = "a | NP/N | ID | x.1\nb | NP/N | ID | x.1"
    with pytest.raises(LexiconError, match="duplicate entry id"):
        loads(text)


def test_auto_ids_count_per_token():
    lex = loads("to | (S[to]\\NP)/(S[b]\\NP) | ID\nto | S/S | (?1 :mod (t/t2))")
    ids = [e.entry_id for e in lex.lookup("to")]
    assert ids == ["to.1", "to.2"]


def test_parse_error_reports_line_number():
    with pytest.raises(LexiconError, match=":2:"):
        loads("ok | NP | (c/cat)\nbroken | NP | (c/cat")


def test_cyclic_graph_is_reported_once_with_its_line():
    with pytest.raises(LexiconError) as err:
        loads("w | NP | (a/x :ARG0 (b/y :ARG1 a))", source="t.lex")
    assert err.value.problems == ["t.lex:1: invalid graph: graph has a directed cycle"]


def test_too_deep_category_is_reported_with_its_line():
    deep = "(" * 1000 + "S" + ")" * 1000
    with pytest.raises(LexiconError) as err:
        loads(f"ok | NP | (c/cat)\ndeep | {deep} | ID")
    [problem] = err.value.problems
    assert problem.startswith("<string>:2: nesting deeper than")


def test_lookup_unknown_token_is_empty(lexicon):
    assert lexicon.lookup("unknownword") == []


def test_ambiguous_tokens(lexicon):
    assert len(lexicon.lookup("to")) >= 2
    assert len(lexicon.lookup("decide")) == 1


def test_every_entry_round_trips(lexicon):
    for entry in lexicon.entries:
        if entry.semantics is IDENTITY:
            continue
        assert iso_equal(parse(serialize(entry.semantics)), entry.semantics), entry.entry_id


def test_load_is_idempotent_and_order_independent():
    text = LEXICON_PATH.read_text(encoding="utf-8")
    lines = [l for l in text.splitlines() if l.split("#", 1)[0].strip()]
    rng = random.Random(7)
    shuffled = lines[:]
    rng.shuffle(shuffled)
    a = loads("\n".join(lines))
    b = loads("\n".join(shuffled))
    c = loads("\n".join(lines))
    assert {e.entry_id for e in a.entries} == {e.entry_id for e in b.entries}
    assert [e.entry_id for e in a.entries] == [e.entry_id for e in c.entries]


def test_load_from_path_matches_loads(lexicon):
    again = load(LEXICON_PATH)
    assert [e.entry_id for e in again.entries] == [e.entry_id for e in lexicon.entries]


def test_hash_inside_quotes_is_literal():
    lex = loads('q | NP | (h/hashtag :op1 "#ccg")  # a trailing comment\n# a whole-line comment')
    [entry] = lex.entries
    assert iso_equal(entry.semantics, parse('(h/hashtag :op1 "#ccg")'))
