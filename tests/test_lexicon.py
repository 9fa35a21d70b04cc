import dataclasses
import random

import pytest

from ccgamr.category import format_category, parse_category
from ccgamr.combinator import IDENTITY
from ccgamr.fixtures import LEXICON_PATH
from ccgamr.graph import iso_equal
from ccgamr import lexicon as lexicon_module
from ccgamr.lexicon import Lexicon, LexiconError, load, loads
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


@pytest.mark.parametrize(
    "line, entry_id",
    [("w | NP | (x/xx) |", ""), ("w | NP | (x/xx) | my id", "my id"), ("a(b | NP | (x/xx)", "a(b.1")],
)
def test_entry_id_must_be_one_script_token(line, entry_id):
    with pytest.raises(LexiconError) as err:
        loads(line, source="t.lex")
    assert err.value.problems == [f"t.lex:1: entry id {entry_id!r} is not one script token"]


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


def test_load_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.lex"
    path.write_text("john | NP | (j/john)\n", encoding="utf-8-sig")
    assert load(path).tokens() == ["john"]


def test_hash_inside_quotes_is_literal():
    lex = loads('q | NP | (h/hashtag :op1 "#ccg")  # a trailing comment\n# a whole-line comment')
    [entry] = lex.entries
    assert iso_equal(entry.semantics, parse('(h/hashtag :op1 "#ccg")'))


def test_equal_category_texts_share_one_parsed_category():
    lexicon_module._parsed.cache_clear()  # a memoised load would parse no category at all
    parse_category.cache_clear()
    lex = load(LEXICON_PATH)
    info = parse_category.cache_info()
    assert info.misses == 27 and info.hits == 30 and len(lex.entries) == 57
    by_text = {}
    for entry in lex.entries:
        shown = format_category(entry.category)
        assert by_text.setdefault(shown, entry.category) is entry.category
    assert len(by_text) == 27


def test_every_line_with_a_bad_category_reports_its_own_error():
    text = "a | S/(NP | (x/xx)\nb | S/(NP | (y/yy)\nc | NP | (z/zz)\nd | S/(NP | (w/ww)"
    with pytest.raises(LexiconError) as err:
        loads(text)
    assert [p.split(":")[1] for p in err.value.problems] == ["1", "2", "4"]


@pytest.mark.parametrize("line, entry_id", [('q | NP | (h/hashtag :op1 "a|b")', "q.1"), ('q | NP | (h/hashtag :op1 "a|b") | q.x', "q.x")])
def test_pipe_inside_quotes_is_literal(line, entry_id):
    [entry] = loads(line).entries
    assert entry.entry_id == entry_id
    assert iso_equal(entry.semantics, parse('(h/hashtag :op1 "a|b")'))


def test_loads_returns_one_object_per_text(tmp_path):
    text = "john | NP | (j/john)\nthe | NP/N | ID"
    path = tmp_path / "paper.lex"
    path.write_text(text, encoding="utf-8")
    lexicon_module._parsed.cache_clear()
    found = [load(path), loads(text), loads(text, "paper.lex"), loads(text, source="paper.lex")]
    assert all(lex is found[0] for lex in found)
    assert lexicon_module._parsed.cache_info().misses == 1
    assert loads(text) is not loads(text + "\n# a comment")


def test_bad_lexicon_raises_on_every_call():
    text = "ok | NP | (c/cat)\nbad | NP | (?1 :mod (b/bad))"
    problems = []
    for source in ("t.lex", "u.lex", "t.lex"):
        with pytest.raises(LexiconError) as err:
            loads(text, source=source)
        assert err.value.problems and all(p.startswith(f"{source}:2: entry 'bad.1': ") for p in err.value.problems)
        problems.append([p.split(":", 1)[1] for p in err.value.problems])
    assert problems[0] == problems[1] == problems[2]


def test_cold_load_equals_warm_load():
    warm = load(LEXICON_PATH)
    lexicon_module._parsed.cache_clear()
    parse.cache_clear()
    cold = load(LEXICON_PATH)
    assert cold is not warm and cold.entries == warm.entries  # equal entry for entry
    for c, w in zip(cold.entries, warm.entries):
        assert c.semantics is IDENTITY or c.semantics is not w.semantics  # parsed afresh


def test_lexicon_is_an_immutable_value(lexicon):
    assert isinstance(lexicon.entries, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lexicon.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        lexicon.extra = 1
    found = lexicon.lookup("to")
    found.clear()  # a fresh list each call
    assert len(lexicon.lookup("to")) >= 2


def test_a_list_of_entries_becomes_a_tuple(lexicon):
    lex = Lexicon(list(lexicon.entries[:3]))
    assert lex.entries == lexicon.entries[:3] and isinstance(lex.entries, tuple)
