import dataclasses
import gc
import hashlib
import math
import random
import re
import sys
import threading
from contextlib import suppress
from itertools import combinations
from pathlib import Path

import pytest

from ccgamr import combinator, derivation, graph, penman
from ccgamr.category import ATOM_BASES, Atom, format_category, parse_category, unify
from ccgamr.combinator import CombinationError, ConjPartial, Constituent, conj_attach, is_graph, raise_rule_name, type_raise
from ccgamr.derivation import (
    Binary,
    ChartOverflowError,
    Derivation,
    Leaf,
    NP_TO_S,
    ParserConfig,
    ReplayError,
    ScriptError,
    TypeRaisingRule,
    Unary,
    UnknownTokenError,
    _binary_candidates,
    cky_parse,
    finalize_check,
    format_script,
    parse_script,
    replay,
)
from ccgamr.graph import Edge, invariant, iso_equal, validate
from ccgamr.lexicon import Lexicon, loads
from ccgamr.penman import parse
from ccgamr.fixtures import script as script_path

from support import (
    FIXTURE_PARSES,
    REPLAY_FAILURES,
    _exact_key,
    brute_force_forest,
    constituent,
    deep_lexicon_text,
    graphs as support_graphs,
    reference_finalize_check,
    reference_goal_categories,
    relabeled,
    try_every_combinator,
)

ALL_SCRIPTS = [
    "like_cat",
    "coordination",
    "passive",
    "wh_control",
    "math_teachers",
    "teach_relative",
    "light_verb",
    "raising",
    "subject_control",
    "object_control",
    "object_control_wh",
    "to_purpose",
    "modal_preposed",
    "coordinated_purpose",
    "right_node_raising",
]


# --- scripts ----------------------------------------------------------------

def test_parse_script_example():
    node = parse_script("(>R (leaf 0 what.1) (> (leaf 1 did.1) (leaf 2 you.1)))")
    assert isinstance(node, Binary) and node.name == ">R"
    assert node.left == Leaf(0, "what.1")
    assert isinstance(node.right, Binary) and node.right.name == ">"


def test_parse_script_unary():
    node = parse_script("(>T[S] (leaf 0 john.1))")
    assert isinstance(node, Unary) and node.name == ">T[S]"


@pytest.mark.parametrize("name", ["FLIP", ">x", "<Rx", ">T[]"])
def test_parse_script_rejects_a_name_that_no_step_has(name):
    text = f"({name} (leaf 0 a.1) (leaf 1 b.1))"
    with pytest.raises(ScriptError, match=f"^unknown combinator {re.escape(repr(name))}$"):
        parse_script(text)
    assert not derivation.looks_like_script(text)


def test_parse_script_errors():
    with pytest.raises(ScriptError, match="empty"):
        parse_script("   ")
    with pytest.raises(ScriptError, match="unknown combinator"):
        parse_script("(FLIP (leaf 0 a.1) (leaf 1 b.1))")
    with pytest.raises(ScriptError, match="missing"):
        parse_script("(> (leaf 0 a.1) (leaf 1 b.1)")
    with pytest.raises(ScriptError, match="^trailing script input 'x'$"):
        parse_script("(leaf 0 john.1) x")


@pytest.mark.parametrize("index", ["\u00b2", "\u0661", "-1", "+1"])
def test_parse_script_reads_only_ascii_digits_as_a_leaf_index(index):
    with pytest.raises(ScriptError) as err:
        parse_script(f"(leaf {index} john.1)")
    assert str(err.value) == f"leaf index must be an integer, found '{index}'"


@pytest.mark.parametrize("name", ALL_SCRIPTS)
def test_scripts_round_trip_bit_compatibly(lexicon, name):
    text = script_path(name).read_text()
    node = parse_script(text)
    emitted = format_script(node)
    assert parse_script(emitted) == node
    assert format_script(parse_script(emitted)) == emitted
    assert replay(node, lexicon).script == node  # rebuilt from the replayed items


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("target", ["S/(S\\NP)", "S[dcl]\\(S[dcl]/NP)", "S"])
def test_a_raise_name_is_one_script_token_whatever_its_target(target, direction):
    """A raise to a functor is spelled with parentheses, e.g. '>T[S/(S\\NP)]';
    the script reader takes the whole name as one token."""
    node = Unary(raise_rule_name(parse_category(target), direction), Leaf(0, "john.1"))
    text = format_script(node)
    assert parse_script(text) == node
    assert derivation.looks_like_script(text)


# --- replay -----------------------------------------------------------------

def _raised_script(depth: int) -> str:
    """A script nested ``depth`` levels deep: one word under depth - 1 raisings."""
    return "(>T[S] " * (depth - 1) + "(leaf 0 john.1)" + ")" * (depth - 1)


def test_parse_script_accepts_nesting_at_the_depth_limit():
    # a sentence under depth - 1 modifiers: a raise of a raise would break
    # the functional-isomorphism principle
    depth = penman.MAX_DEPTH
    text = "(< " * (depth - 1) + "(leaf 0 x.1)" + "".join(f" (leaf {i} m.1))" for i in range(1, depth))
    d = replay(parse_script(text), loads("x | S | (x/ex)\nm | S\\S | (?1 :mod (m/em))\n"))
    assert len(d.steps) == 2 * depth - 1
    assert d.steps[0].path == (0,) * (depth - 1)


@pytest.mark.parametrize(
    "text, offset",
    [
        (_raised_script(penman.MAX_DEPTH + 1), 7 * penman.MAX_DEPTH),
        (_raised_script(1500), 7 * penman.MAX_DEPTH),
        ("(> " * penman.MAX_DEPTH + "(leaf 0 a.1)" + " (leaf 1 b.1))" * penman.MAX_DEPTH,
         3 * penman.MAX_DEPTH),
    ],
    ids=["raised-501", "raised-1500", "binary-501"],
)
def test_parse_script_rejects_nesting_past_the_depth_limit(text, offset):
    with pytest.raises(ScriptError, match=f"deeper than {penman.MAX_DEPTH} levels at offset {offset}$"):
        parse_script(text)


def test_replay_single_leaf(lexicon):
    d = replay(Leaf(0, "cat.1"), lexicon)
    assert len(d.steps) == 1
    assert iso_equal(d.final.semantics, parse("(c/cat)"))


def test_replay_records_steps_and_variants(lexicon):
    d = replay(parse_script(script_path("wh_control").read_text()), lexicon)
    rules = [s.rule for s in d.steps if not s.rule.startswith("lex")]
    assert rules == [">", "<Bx", ">B", ">RB", ">RB", ">R"]


def test_replay_unknown_entry(lexicon):
    with pytest.raises(ReplayError, match="no lexical entry"):
        replay(Leaf(0, "nope.9"), lexicon)


def test_replay_rejects_wrong_variant_name(lexicon):
    # the final step of the wh question is relation-wise; scripting ">" must fail
    text = script_path("wh_control").read_text()
    flipped = text.replace("(>R (leaf 0 what.1)", "(> (leaf 0 what.1)", 1)
    with pytest.raises(ReplayError) as err:
        replay(parse_script(flipped), lexicon)
    message = str(err.value)
    assert "'>'" in message and "'>R'" in message


def test_replay_rejects_relation_name_when_regular_applies(lexicon):
    text = script_path("passive").read_text()
    flipped = text.replace(
        "(< (> (leaf 1 was.1) (leaf 2 eaten.1))", "(<R (> (leaf 1 was.1) (leaf 2 eaten.1))", 1
    )
    with pytest.raises(ReplayError) as err:
        replay(parse_script(flipped), lexicon)
    assert "no shared edge" in str(err.value) or "'<R'" in str(err.value)


def test_replay_of_a_raised_functor_names_the_principle(lexicon):
    with pytest.raises(ReplayError) as err:
        replay(parse_script("(>T[S] (leaf 1 likes.1))"), lexicon)
    assert str(err.value) == (
        "step root: result breaks the functional-isomorphism principle: "
        "3 free variables exceed arity 1 of S/(S\\(S\\NP/NP))"
    )


def test_replay_explains_a_relation_name_where_the_regular_step_applies(lexicon):
    flipped = script_path("like_cat").read_text().replace("(<", "(<R", 1)
    with pytest.raises(ReplayError) as err:
        replay(parse_script(flipped), lexicon)
    assert str(err.value) == (
        "step root: script names '<R' but the engine derives '<'; '<R' fails: no relation is shared at the "
        "required free variables; '<' holds: the regular variant applies"
    )


def test_replay_and_format_script_take_a_script_deeper_than_the_recursion_limit(lexicon):
    vp = parse_script("(> (leaf 1 likes.1) (> (leaf 2 the.1) (leaf 3 cat.1)))")
    for i in range(1500):
        vp = Binary("<", vp, Leaf(4 + i, "yesterday.1"))
    script = Binary("<", Leaf(0, "john.1"), vp)
    d = replay(script, lexicon)
    assert d.final.category == Atom("S") and len(d.final.semantics.nodes) == 1505 and len(d.steps) == 3007
    text = format_script(script)
    assert len(text) == 40976 and text.startswith("(< (leaf 0 john.1) (< (< ")
    assert d.to_script() == text
    with pytest.raises(ScriptError, match="nesting deeper than 500 levels"):
        parse_script(text)  # the text reader keeps its depth limit


def test_replay_rejects_nonadjacent_leaves(lexicon):
    bad = Binary(">", Leaf(0, "likes.1"), Leaf(2, "cats.1"))
    with pytest.raises(ReplayError, match="adjacent"):
        replay(bad, lexicon)


@pytest.mark.parametrize(
    "text",
    [
        "(& (leaf 5 john.1) (& (leaf 1 and.1) (leaf 2 mary.1)))",
        "(& (leaf 0 john.1) (& (leaf 7 and.1) (leaf 8 mary.1)))",
    ],
)
def test_replay_rejects_a_left_conjunct_not_next_to_the_conjunction(lexicon, text):
    with pytest.raises(ReplayError) as err:
        replay(parse_script(text), lexicon)
    assert str(err.value) == "step root: '&' failed: left conjunct and conjunction are not adjacent"


@pytest.mark.parametrize(
    "script,message", REPLAY_FAILURES, ids=["and", "raise-foo", "raise-id", "raise-spelling", "binary", "unary"]
)
def test_replay_failures_name_their_step_and_cause(lexicon, script, message):
    with pytest.raises(ReplayError) as err:
        replay(parse_script(script) if isinstance(script, str) else script, lexicon)
    assert str(err.value) == message


def test_replay_reports_step_path(lexicon):
    bad = Binary(">", Leaf(0, "cat.1"), Leaf(1, "cats.1"))
    with pytest.raises(ReplayError, match="step root"):
        replay(bad, lexicon)


# --- finalize ---------------------------------------------------------------

def test_finalize_accepts_completed_passive(lexicon):
    d = replay(parse_script(script_path("passive").read_text()), lexicon)
    assert finalize_check(d.final) == []


def test_identity_semantics_neither_parses_nor_finalizes():
    lexicon = loads("x | S | ID\n")
    assert cky_parse(["x"], lexicon) == []
    word = lexicon.lookup("x")[0]
    c = Constituent(0, 1, word.category, word.semantics)
    assert finalize_check(c) == ["identity semantics cannot complete a derivation"]


def test_finalize_flags_leftover_variable():
    c = constituent("S", "(e/eat-01 :ARG0 ?1)")
    assert any("unfilled" in p for p in finalize_check(c))


def test_finalize_flags_undischarged_raised_edge():
    c = constituent("S", "(?1 :? (c/cat))")
    assert any("underspecified" in p.lower() for p in finalize_check(c))


def test_finalize_names_each_unresolved_edge():
    c = constituent("S", "(?1 :? (c/cat :? (d/dog)))")
    assert [p for p in finalize_check(c) if "underspecified" in p] == [
        "underspecified edge (0, ':?', 1) was never resolved",
        "underspecified edge (1, ':?', 2) was never resolved",
    ]


def test_the_chart_drops_a_final_that_coordination_made_cyclic():
    # coordination identifies the conjuncts' free variables pairwise: p and r
    # link them in one direction, q in the other
    lexicon = loads("""\
p   | (S/NP)/NP | (?1 :mod ?2) | p.1
q   | (S/NP)/NP | (?2 :mod ?1) | q.1
r   | (S/NP)/NP | (?1 :mod ?2) | r.1
and | Conj      | (a/and)      | and.1
x   | NP        | (x/apple)    | x.1
y   | NP        | (y/bear)     | y.1
""")
    script = "(> (> (& (leaf 0 {}.1) (& (leaf 1 and.1) (leaf 2 {}.1))) (leaf 3 x.1)) (leaf 4 y.1))"
    assert cky_parse("p and q x y".split(), lexicon) == []
    final = replay(parse_script(script.format("p", "q")), lexicon).final
    assert finalize_check(final) == reference_finalize_check(final) == ["graph has a directed cycle"]
    # the same conjuncts linked in one direction parse by that script
    [d] = cky_parse("p and r x y".split(), lexicon)
    assert d.to_script() == script.format("p", "r")


# --- chart ------------------------------------------------------------------

def figure_only_lexicon(lexicon, drop=("john.2", "mary.2")):
    return Lexicon([e for e in lexicon.entries if e.entry_id not in drop])


def test_cky_simple_sentence_all_gold(lexicon):
    lex = figure_only_lexicon(lexicon)
    results = cky_parse("John likes the cat".split(), lex, ParserConfig())
    assert results
    want = parse('(l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat))')
    assert all(iso_equal(d.final.semantics, want) for d in results)


def test_cky_coordination_needs_type_raising(lexicon):
    lex = figure_only_lexicon(lexicon)
    tokens = "John likes and Mary hates cats".split()
    raised = cky_parse(tokens, lex, ParserConfig(type_raising=NP_TO_S))
    want = parse(
        '(a/and :op1 (l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat))'
        ' :op2 (h/hate-01 :ARG0 (p2/person :name (n2/name :op1 "Mary")) :ARG1 c))'
    )
    assert any(iso_equal(d.final.semantics, want) for d in raised)
    # shared object: one cat node mentioned by both conjuncts
    hit = next(d for d in raised if iso_equal(d.final.semantics, want))
    sem = hit.final.semantics
    cats = [n for n in sem.nodes if n.concept == "cat"]
    assert len(cats) == 1 and len(sem.incoming(cats[0].id)) == 2
    assert cky_parse(tokens, lex, ParserConfig(type_raising=())) == []


def test_cky_results_replay_their_own_scripts(lexicon):
    for sentence, goal in [
        ("John was eaten by bears", "S"),
        ("people who teach math", "NP"),
        ("John made a decision on his major", "S"),
    ]:
        for d in cky_parse(sentence.split(), lexicon, ParserConfig(goal=goal)):
            again = replay(parse_script(d.to_script()), lexicon)
            assert iso_equal(again.final.semantics, d.final.semantics)


def _assert_chart_steps_equal_replay(results, lexicon) -> int:
    """The steps the chart reads off its back-pointers are the steps replaying
    the result's own script records, field for field."""
    for d in results:
        again = replay(parse_script(d.to_script()), lexicon)
        assert again.steps == d.steps, d.to_script()
        assert again.final == d.final, d.to_script()
    return len(results)


@pytest.mark.parametrize("order", [1, 2])
def test_cky_steps_equal_replay_on_fixtures(lexicon, order):
    checked = 0
    for sentence, goal, raising in FIXTURE_PARSES:
        config = ParserConfig(goal=goal, type_raising=raising, max_composition_order=order)
        checked += _assert_chart_steps_equal_replay(
            cky_parse(sentence.split(), lexicon, config), lexicon
        )
    assert checked >= 30


@pytest.mark.parametrize("k", [1, 3, 5])
def test_cky_steps_equal_replay_on_adjunct_chains(lexicon, k):
    tokens = "John likes the cat".split() + ["yesterday"] * k
    assert _assert_chart_steps_equal_replay(cky_parse(tokens, lexicon, ParserConfig()), lexicon)


@pytest.mark.parametrize("raising", [(), NP_TO_S])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cky_steps_equal_replay_on_coordination_chains(lexicon, k, raising):
    results = cky_parse(coordination_chain(k), lexicon, ParserConfig(type_raising=raising))
    assert _assert_chart_steps_equal_replay(results, lexicon)


def test_cky_steps_stay_inside_their_spans(lexicon):
    results = cky_parse("John was eaten by bears".split(), lexicon, ParserConfig())
    for d in results:
        n = 5
        for step in d.steps:
            c = step.constituent
            assert 0 <= c.start < c.end <= n


def _chart_items(lexicon, start: int) -> list[Constituent]:
    """Every lexical entry at (start, start+1), plus its NP_TO_S-raised form."""
    items = []
    for e in lexicon.entries:
        c = Constituent(start, start + 1, e.category, e.semantics)
        items.append(c)
        for rule in NP_TO_S:
            if is_graph(c.semantics) and unify(rule.source, c.category) is not None:
                items.append(type_raise(c, rule.target, rule.direction).constituent)
    return items


class _Everything:
    """Holds every category: ``_binary_candidates`` gated by it skips nothing."""

    def __contains__(self, category):
        return True


EVERYTHING = _Everything()


def _items(*constituents: Constituent) -> list[combinator.Combined]:
    """Each constituent as a chart item built by no step."""
    return [combinator.Combined(c, "x") for c in constituents]


@pytest.mark.parametrize("order", [1, 2])
def test_binary_candidates_agree_with_trying_every_combinator(lexicon, order):
    config = ParserConfig(max_composition_order=order)
    lefts, rights = _chart_items(lexicon, 0), _chart_items(lexicon, 1)
    partials = []
    for conj in rights:
        if conj.category == Atom("Conj"):
            for right in _chart_items(lexicon, 2):
                with suppress(CombinationError):
                    partials.append(conj_attach(conj, right).constituent)
    assert partials

    def shown(outcomes):
        return [
            (o.rule, o.constituent.start, o.constituent.end, _exact_key(o.constituent), o.notes)
            for o in outcomes
        ]

    hits = 0
    for left in lefts:
        for right in rights + partials:
            want = shown(try_every_combinator(left, right, config))
            assert shown(_binary_candidates(*_items(left, right), config, EVERYTHING)) == want, (left, right)
            hits += len(want)
    assert hits > len(lefts)


def _shown(outcomes):
    return [
        (o.rule, o.constituent.start, o.constituent.end, _exact_key(o.constituent), o.notes)
        for o in outcomes
    ]


def _partials(lexicon, start: int) -> list[Constituent]:
    """Every pending conjunction ``conj_attach`` builds at (start, start+2)."""
    partials = []
    for conj in _chart_items(lexicon, start):
        if conj.category == Atom("Conj"):
            for right in _chart_items(lexicon, start + 1):
                with suppress(CombinationError):
                    partials.append(conj_attach(conj, right).constituent)
    return partials


def test_binary_candidates_agree_with_trying_every_combinator_on_pending_conjunctions(lexicon):
    config = ParserConfig()
    lefts, rights = _partials(lexicon, 0), _partials(lexicon, 2)
    assert lefts and rights
    for left in lefts:
        for right in rights + _chart_items(lexicon, 2):
            want = _shown(try_every_combinator(left, right, config))
            assert _shown(_binary_candidates(*_items(left, right), config, EVERYTHING)) == want, (left, right)


def test_category_rules_are_the_same_after_cache_clear(lexicon):
    cats = sorted({e.category for e in lexicon.entries}, key=format_category)
    keys = [(lcat, rcat, order, None) for lcat in cats for rcat in cats for order in (1, 2)]
    first = [derivation._category_rules(*key) for key in keys]
    derivation._category_rules.cache_clear()
    assert [derivation._category_rules(*key) for key in keys] == first
    assert first == [derivation._category_rules.__wrapped__(*key) for key in keys]
    assert sum(len(matches) for matches, *_ in first) > len(cats)


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls the chart makes to each named function."""
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(derivation, name, counting(name, getattr(derivation, name)))
    return counts


def _added(*graphs) -> tuple[list[bool], list[int]]:
    """Whether ``_Chart.add`` keeps each of one S item per graph, all in span
    (0, 1), as the item it returns, and the forest counts of the items the
    cell keeps."""
    chart = derivation._Chart(ParserConfig())
    items = [combinator.Combined(Constituent(0, 1, Atom("S"), g), "x") for g in graphs]
    added = [chart.add(item) is item for item in items]
    return added, [item.forest_count for item in chart.cells[0, 1]]


@pytest.mark.hash_seed
def test_chart_add_computes_invariants_only_for_contested_buckets(monkeypatch):
    calls = _count_calls(monkeypatch, "invariant", "iso_equal")
    text = "(l / like-01 :ARG0 (p / person) :ARG1 (c / cat) :time ?1)"
    a = parse(text)
    b = dataclasses.replace(a)  # parse is memoised, so build the equal copy apart
    assert a == b and a is not b
    assert _added(a, b) == ([True, False], [2])
    assert calls == {"invariant": 0, "iso_equal": 0}
    copy = relabeled(a, seed=1)
    assert copy != a
    assert _added(a, copy) == ([True, False], [2])
    assert calls == {"invariant": 2, "iso_equal": 1}
    # three nodes and no free variable each; chain and fork share their
    # invariant, swapped has another
    chain = parse("(x / a :r (y / a :s (z / b)))")
    fork = parse("(x / a :r (y / a) :s (z / b))")
    swapped = parse("(x / a :r (y / b :s (z / a)))")
    assert invariant(chain) == invariant(fork) != invariant(swapped)
    calls.update(invariant=0, iso_equal=0)
    assert _added(chain, fork, swapped) == ([True] * 3, [1] * 3)
    assert calls == {"invariant": 3, "iso_equal": 1}


@pytest.mark.hash_seed
def test_adjunct_chain_merges_without_an_iso_search(lexicon, monkeypatch):
    calls = _count_calls(monkeypatch, "invariant", "iso_equal")
    results = cky_parse("John likes the cat".split() + ["yesterday"] * 5, lexicon, ParserConfig())
    # every merge is of an equal graph, in a bucket no unequal graph contests
    assert calls == {"invariant": 0, "iso_equal": 0}
    assert [d.forest_count for d in results] == [2 * 42, 2 * 42]  # h * Catalan(5), h = 2


def coordination_chain(k: int) -> list[str]:
    """k clauses joined by "and", alternating John and Mary."""
    clauses = ["John likes cats", "Mary hates cats"]
    return " and ".join(clauses[i % 2] for i in range(k)).split()


def _pinned_parses():
    """(tokens, config) of every parse whose output ``CKY_DIGEST`` pins."""
    for order in (1, 2):
        for sentence, goal, raising in FIXTURE_PARSES:
            yield sentence.split(), ParserConfig(
                goal=goal, type_raising=raising, max_composition_order=order
            )
    for k in range(1, 7):
        yield "John likes the cat".split() + ["yesterday"] * k, ParserConfig()
    for k in range(2, 5):
        for raising in ((), NP_TO_S):
            yield coordination_chain(k), ParserConfig(type_raising=raising)


def test_the_final_check_sorts_only_graphs_with_as_many_edges_as_nodes(lexicon, monkeypatch):
    """Every graph item of the pinned parses passes ``validate`` but for a
    cycle, so it is connected, and one with fewer edges than nodes is then
    a tree: none is cyclic.  ``finalize_check`` sorts none of the
    coordination chains' finals, whose graphs are trees."""
    items, sorts = [], []
    add, sort = derivation._Chart.add, derivation.has_cycle
    monkeypatch.setattr(derivation._Chart, "add", lambda chart, item: items.append(item) or add(chart, item))
    monkeypatch.setattr(derivation, "has_cycle", lambda g: sorts.append(g) or sort(g))
    for tokens, config in _pinned_parses():
        cky_parse(tokens, lexicon, config)
    graphs = [item.constituent.semantics for item in items if is_graph(item.constituent.semantics)]
    assert all(set(validate(g)) <= {"graph has a directed cycle"} for g in graphs)
    trees = [g for g in graphs if len(g.edges) < len(g.nodes)]
    assert (len(graphs), len(trees)) == (1345, 1119) and not any(map(sort, trees))
    sorts.clear()
    finals = [d for k in range(2, 5) for raising in ((), NP_TO_S)
              for d in cky_parse(coordination_chain(k), lexicon, ParserConfig(type_raising=raising))]
    assert (len(finals), len(sorts)) == (200, 0)


def _record(d: Derivation) -> str:
    """A derivation's script, forest count, final constituent and every
    step's path, rule, constituent and notes."""
    steps = [(s.path, s.rule, repr(s.constituent), s.notes) for s in d.steps]
    return repr((d.to_script(), d.forest_count, repr(d.final), steps))


def cky_digest(lexicon) -> str:
    """sha256 over the records of every pinned parse's derivations."""
    digest = hashlib.sha256()
    for tokens, config in _pinned_parses():
        for d in cky_parse(tokens, lexicon, config):
            digest.update(_record(d).encode() + b"\n")
    return digest.hexdigest()


#: Changing how the engine computes must leave this unchanged; only a change
#: to what it computes (rules, lexicon, tie-breaks, printed forms) may move it.
CKY_DIGEST = "12d2ad7e879b3d740cee07b1eb4df24159b7107eff77db3cd88f84b2caa6ad34"


@pytest.mark.hash_seed
def test_cky_output_matches_the_pinned_digest(lexicon):
    assert cky_digest(lexicon) == CKY_DIGEST


class _WantsEverything(dict):
    """A goal pass that wants every category of every span: no graph step is
    skipped."""

    def __bool__(self):
        return True

    def get(self, span, default=None):
        return EVERYTHING


_COMPOSITION_R = [f"{d}RB{o}{x}" for d in "><" for o in ("", "2") for x in ("", "x")]

#: Whitelists that name only the relation-wise spelling of application, of
#: composition, or of both (the last one without backward rules, so that '&'
#: alone coordinates), each with '&' and NP > S raising.
WHITELISTS = [
    frozenset([*names, "&", ">T[S]"])
    for names in ([">R", "<R"], [">R", "<R", *_COMPOSITION_R], [">", "<", *_COMPOSITION_R], [">", ">RB"])
]


def _gate_cases():
    """(tokens, config) of every pinned parse; of seeded random windows of 2
    to 6 words of the fixture sentences, under each goal, raising on and off
    and both composition orders; and of the fixture sentences under each of
    ``WHITELISTS``; and of atomic conjuncts under forward rules only, where
    paper.lex's live NP\\NP (from 'who') holds two equal but distinct NP
    atoms."""
    yield from _pinned_parses()
    rng = random.Random(1997)
    sentences = [sentence.split() for sentence, _, _ in FIXTURE_PARSES]
    for _ in range(300):
        window = rng.choice(sentences)
        start = rng.randrange(len(window) - 1)
        tokens = window[start:start + rng.randint(2, 6)]
        for goal in ATOM_BASES:
            for raising in ((), NP_TO_S):
                for order in (1, 2):
                    yield tokens, ParserConfig(goal=goal, type_raising=raising, max_composition_order=order)
    for enabled in WHITELISTS:
        for sentence, goal, raising in FIXTURE_PARSES:
            yield sentence.split(), ParserConfig(goal=goal, type_raising=raising, enabled=enabled)
    forward = frozenset([">", ">R", "&", ">T[S]"])
    for sentence in ("John and Mary", "cats and bears and rice", "John likes cats and bears"):
        for goal in ATOM_BASES:
            yield sentence.split(), ParserConfig(goal=goal, type_raising=NP_TO_S, enabled=forward)


def test_the_oracle_agrees_with_cky_under_each_whitelist(lexicon):
    """The brute-force oracle and CKY find the same (category, iso-class)
    finals on every fixture parse of up to 7 tokens under each of
    ``WHITELISTS``, with the same forest counts where raising is off (with
    it on, ``_raise_closure`` counts a second raise twice)."""
    parsed = 0
    for enabled in WHITELISTS:
        for sentence, goal, raising in FIXTURE_PARSES:
            tokens = sentence.split()
            if len(tokens) > 7:
                continue
            config = ParserConfig(goal=goal, type_raising=raising, enabled=enabled)
            chart = [(d.final, d.forest_count) for d in cky_parse(tokens, lexicon, config)]
            oracle = brute_force_forest(tokens, lexicon, config)
            assert len(chart) == len(oracle), (sentence, enabled)
            for c, count in oracle:
                same = [n for final, n in chart
                        if final.category == c.category and iso_equal(final.semantics, c.semantics)]
                assert same == [count] if not raising else len(same) == 1, (sentence, enabled)
            parsed += bool(chart)
    assert parsed == 8


@pytest.mark.hash_seed
def test_the_goal_pass_leaves_every_output_unchanged(lexicon, monkeypatch):
    cases = list(_gate_cases())
    with monkeypatch.context() as m:
        m.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
        ungated = []
        for tokens, config in cases:
            try:
                ungated.append([_record(d) for d in cky_parse(tokens, lexicon, config)])
            except ChartOverflowError:
                ungated.append(None)
    # the ungated parses that overflow a cell are left out
    assert ungated.count(None) == 0
    parsed = 0
    for (tokens, config), want in zip(cases, ungated):
        if want is not None:
            assert [_record(d) for d in cky_parse(tokens, lexicon, config)] == want, (tokens, config)
            parsed += bool(want)
    assert parsed == 41 + 294 + 8 + 3  # pinned, random, whitelisted and forward-only parses with a result


def _enabled_raisings(config: ParserConfig) -> tuple[TypeRaisingRule, ...]:
    """The raising rules ``cky_parse`` hands the goal pass: those a whitelist names."""
    return tuple(r for r in config.type_raising
                 if config.enabled is None or raise_rule_name(r.target, r.direction) in config.enabled)


def _goal_pass_cases(lexicon):
    """(tokens, config) of every fixture sentence; of adjunct chains with 1 to
    14 adjuncts; of coordination chains of 2 to 4 clauses, raising off and
    on; and of seeded random strings of 2 to 8 words under each of
    ``WHITELISTS`` and under both composition orders, raising off and on.
    Half the strings draw their words from the whole lexicon, under a drawn
    goal; these rarely parse.  The other half are windows of the sentences
    above, under every goal, and a third of them parse under some goal."""
    sentences = [sentence.split() for sentence, _, _ in FIXTURE_PARSES]
    sentences += ["John likes the cat".split() + ["yesterday"] * k for k in range(1, 15)]
    sentences += [coordination_chain(k) for k in range(2, 5)]
    for (_, goal, raising), tokens in zip(FIXTURE_PARSES, sentences):
        yield tokens, ParserConfig(goal=goal, type_raising=raising)
    for tokens in sentences[len(FIXTURE_PARSES):]:
        for raising in ((), NP_TO_S):
            yield tokens, ParserConfig(type_raising=raising)
    rng = random.Random(2004)
    words = lexicon.tokens()
    for _ in range(100):
        window = rng.choice(sentences)
        start, k = rng.randrange(len(window) - 1), rng.randint(2, 8)
        drawn = (rng.choices(words, k=k), [rng.choice(ATOM_BASES)]), (window[start:start + k], ATOM_BASES)
        for tokens, goals in drawn:
            for goal in goals:
                for raising in ((), NP_TO_S):
                    for enabled in WHITELISTS:
                        yield tokens, ParserConfig(goal=goal, type_raising=raising, enabled=enabled)
                    for order in (1, 2):
                        yield tokens, ParserConfig(goal=goal, type_raising=raising, max_composition_order=order)


def test_the_narrowed_final_check_leaves_every_output_unchanged(lexicon, monkeypatch):
    """``cky_parse`` keeps the same derivations when ``finalize_check`` is
    the reference that ran the whole of ``validate`` on each final."""
    cases = list(_goal_pass_cases(lexicon))
    with monkeypatch.context() as m:
        m.setattr(derivation, "finalize_check", reference_finalize_check)
        want = [[_record(d) for d in cky_parse(tokens, lexicon, config)] for tokens, config in cases]
    got = [[_record(d) for d in cky_parse(tokens, lexicon, config)] for tokens, config in cases]
    assert got == want
    assert sum(map(bool, got)) == 177  # cases with a parse


def _assert_goal_pass_equals_reference(tokens, lexicon, config) -> dict:
    raisings = _enabled_raisings(config)
    wanted = derivation._goal_categories([lexicon.lookup(t) for t in tokens], config, raisings)
    reference = reference_goal_categories(tokens, lexicon, config, raisings)
    assert sorted(wanted) == sorted(reference), (tokens, config)
    for span, cats in reference.items():
        assert wanted[span] == cats, (tokens, config, span)
    return wanted


@pytest.mark.hash_seed
def test_the_goal_pass_equals_its_set_based_reference(lexicon):
    """The bit-mask goal pass wants, span by span, exactly the categories the
    set-based pass it replaced wants."""
    cases = list(_goal_pass_cases(lexicon))
    found = [_assert_goal_pass_equals_reference(tokens, lexicon, config) for tokens, config in cases]
    # cases: fixtures, chains raising off and on, 100 draws of (1 + 5 goals) x 12 configs;
    # non-empty maps: fixtures, adjunct and coordination chains, random strings
    assert (len(cases), sum(map(bool, found))) == (17 + 2 * 17 + 100 * 6 * 12, 15 + 2 * 14 + 2 * 3 + 229)


@pytest.mark.hash_seed
def test_the_goal_pass_equals_its_reference_on_masks_wider_than_a_machine_word():
    """25 feature values give a parse of 100 categories (126 with raising),
    so a span's mask is wider than 64 bits."""
    lines = []
    for k in range(1, 26):
        lines += [f"a | NP[f{k}] | (x/thing)", f"b | S[f{k}]\\NP[f{k}] | (v/act :ARG0 ?1)",
                  f"c | S[f{k}]\\S[f{k}] | (?1 :mod (c/c))"]
    lexicon = loads("\n".join(lines))
    for raising, count in (((), 100), (NP_TO_S, 126)):
        wanted = _assert_goal_pass_equals_reference("a b c".split(), lexicon, ParserConfig(type_raising=raising))
        assert len(set().union(*wanted.values())) == count


#: Raising off, NP_TO_S, and a whitelist without >B (raising to S enabled).
TABLE_CONFIGS = [
    ParserConfig(),
    ParserConfig(type_raising=NP_TO_S),
    ParserConfig(enabled=frozenset([*combinator.RULES, "&", ">T[S]"]) - {">B"}, type_raising=NP_TO_S),
]


def _tables_by_name(config: ParserConfig) -> dict:
    """The goal pass's process-wide tables for ``config``, by name."""
    _, *tables = derivation._goal_tables(config.max_composition_order, config.enabled, _enabled_raisings(config))
    return dict(zip(("cats", "up", "bit", "rows", "pairs", "feeds", "sets", "members"), tables))


def _goal_pass(lexicon, tokens, config):
    return derivation._goal_categories([lexicon.lookup(t) for t in tokens], config, _enabled_raisings(config))


def _fixture_windows() -> list[list[str]]:
    """Every distinct contiguous window of the fixture sentences."""
    sentences = [sentence.split() for sentence, _, _ in FIXTURE_PARSES]
    return sorted({tuple(t[a:b]) for t in sentences for a in range(len(t)) for b in range(a + 1, len(t) + 1)})


@pytest.mark.hash_seed
def test_warm_goal_tables_change_no_output(lexicon):
    """Each window's goal pass from cleared tables equals its pass over
    tables warmed on every other input in a shuffled order, and both equal
    the set-based reference."""
    cases = [(list(window), config) for config in TABLE_CONFIGS for window in _fixture_windows()]
    cold = []
    for tokens, config in cases:
        derivation._goal_tables.cache_clear()
        cold.append(_goal_pass(lexicon, tokens, config))
    derivation._goal_tables.cache_clear()
    rng, order = random.Random(1997), list(range(len(cases)))
    for _ in range(2):  # in the second round each input follows all the others
        rng.shuffle(order)
        for k in order:
            assert _goal_pass(lexicon, *cases[k]) == cold[k], cases[k]
    for (tokens, config), wanted in zip(cases, cold):
        assert wanted == reference_goal_categories(tokens, lexicon, config, _enabled_raisings(config))
    assert (len(cases), sum(map(bool, cold))) == (3 * 249, 89)  # windows over S, under three configs


def test_a_repeated_goal_pass_asks_no_rule_and_a_window_misses_no_pair(lexicon, monkeypatch):
    calls = []
    original = derivation._category_rules
    monkeypatch.setattr(derivation, "_category_rules", lambda *args: calls.append(args) or original(*args))
    tokens, config = "Mary persuaded John to practice guitar".split(), ParserConfig(type_raising=NP_TO_S)
    derivation._goal_tables.cache_clear()
    first = _goal_pass(lexicon, tokens, config)
    assert first and calls
    calls.clear()
    assert _goal_pass(lexicon, tokens, config) == first and calls == []
    tables = _tables_by_name(config)
    sizes = {name: len(table) for name, table in tables.items()}
    for a, b in combinations(range(len(tokens) + 1), 2):
        _goal_pass(lexicon, tokens[a:b], config)
    # the inside pass of a window meets only pairs of cells the sentence met
    assert calls == [] and all(len(tables[name]) == sizes[name] for name in ("cats", "rows", "pairs"))


def test_the_goal_tables_stay_within_their_cap(lexicon, monkeypatch):
    """Over the cap, a pass first clears its tables, so none holds more than
    the cap and one pass's own entries, and no output changes."""
    cases = [(sentence.split(), ParserConfig(goal=goal, type_raising=raising))
             for sentence, goal, raising in FIXTURE_PARSES]
    want, alone = [], []
    for tokens, config in cases:  # each parse from cleared tables, and what its pass alone stores
        derivation._goal_tables.cache_clear()
        want.append([_record(d) for d in cky_parse(tokens, lexicon, config)])
        alone.append({name: len(table) for name, table in _tables_by_name(config).items()})
    cap, cleared = 16, 0
    monkeypatch.setattr(derivation, "_GOAL_TABLE_CAP", cap)
    derivation._goal_tables.cache_clear()
    for (tokens, config), records, own in zip(cases * 2, want * 2, alone * 2):
        before = len(_tables_by_name(config)["rows"])
        assert [_record(d) for d in cky_parse(tokens, lexicon, config)] == records, tokens
        tables = _tables_by_name(config)
        cleared += len(tables["rows"]) < before
        assert len(tables["up"]) <= len(tables["cats"]) == len(tables["bit"]) <= cap + own["bit"], tokens
        for name in ("rows", "pairs", "feeds", "sets", "members"):
            assert len(tables[name]) <= cap + own[name], (tokens, name)
    assert cleared > 0


def test_goal_passes_in_several_threads_share_their_tables_safely(lexicon):
    """Two threads with raising and two without start at once from cleared
    tables, so each pair fills one set of tables; every result is the one a
    single thread gets, and the tables stay consistent.  Without the lock,
    two passes can give one bit to two categories."""
    jobs = [("Mary bought a ticket to see the movie", NP_TO_S), ("John made a decision on his major", ()),
            ("Mary persuaded John to practice guitar", NP_TO_S), ("What did you decide to eat yesterday", ())]

    def outcome(sentence, raising):
        results = cky_parse(sentence.split(), lexicon, ParserConfig(type_raising=raising))
        return [(repr(d.final), d.forest_count, d.to_script()) for d in results]

    def consistent(raising) -> bool:  # every category's bit indexes it, and raising masks follow the bits
        tables = _tables_by_name(ParserConfig(type_raising=raising))
        cats, bit = tables["cats"], tables["bit"]
        return len(tables["up"]) <= len(cats) == len(bit) and all(bit[c] == b for b, c in enumerate(cats))

    want = [outcome(*job) for job in jobs]
    assert all(want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(100):  # without the lock, only some rounds interleave badly
            derivation._goal_tables.cache_clear()
            barrier, got, errors = threading.Barrier(len(jobs)), [None] * len(jobs), []

            def parse(k):
                barrier.wait(timeout=10)
                try:
                    got[k] = outcome(*jobs[k])
                except Exception as err:
                    errors.append(err)

            threads = [threading.Thread(target=parse, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and got == want
            assert consistent(()) and consistent(NP_TO_S)
    finally:
        sys.setswitchinterval(interval)


def test_every_result_step_lies_on_a_goal_derivation_by_categories(lexicon):
    checked = 0
    for sentence, goal, raising in FIXTURE_PARSES:
        tokens, config = sentence.split(), ParserConfig(goal=goal, type_raising=raising)
        wanted = derivation._goal_categories([lexicon.lookup(t) for t in tokens], config, raising)
        for d in cky_parse(tokens, lexicon, config):
            for step in d.steps:
                c = step.constituent
                assert c.category in wanted[c.start, c.end], (sentence, step.path)
                checked += 1
    assert checked > 100


def _graph_steps(monkeypatch, tokens, lexicon, config) -> int:
    calls = []
    original = derivation.combine_matched
    with monkeypatch.context() as m:
        m.setattr(derivation, "combine_matched", lambda *args: calls.append(1) or original(*args))
        cky_parse(tokens, lexicon, config)
    return len(calls)


def test_the_goal_pass_skips_graph_steps_off_every_goal_derivation(lexicon, monkeypatch):
    tokens = "What did you decide to eat yesterday".split()
    gated = _graph_steps(monkeypatch, tokens, lexicon, ParserConfig())
    monkeypatch.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
    assert 0 < gated < _graph_steps(monkeypatch, tokens, lexicon, ParserConfig())
    monkeypatch.undo()
    # no S spans the sentence by categories, so no item is built at all
    tokens = "John likes and Mary hates cats".split()
    assert derivation._goal_categories([lexicon.lookup(t) for t in tokens], ParserConfig(), ()) == {}
    assert _graph_steps(monkeypatch, tokens, lexicon, ParserConfig()) == 0


def _coordinations(monkeypatch, tokens, lexicon, config) -> list[tuple]:
    """(span, category) of the result of every ``coordinate`` call that
    ``cky_parse`` makes, whether or not the graph step succeeds."""
    calls = []
    original = derivation.coordinate

    def spy(conj, left, right, *rest):
        calls.append(((left.start, right.end), unify(left.category, right.category)))
        return original(conj, left, right, *rest)

    with monkeypatch.context() as m:
        m.setattr(derivation, "coordinate", spy)
        cky_parse(tokens, lexicon, config)
    return calls


@pytest.mark.hash_seed
@pytest.mark.parametrize("raising", [(), NP_TO_S], ids=["plain", "raised"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coordination_runs_its_graph_step_only_for_wanted_categories(lexicon, monkeypatch, k, raising):
    tokens, config = coordination_chain(k), ParserConfig(type_raising=raising)
    wanted = derivation._goal_categories([lexicon.lookup(t) for t in tokens], config, raising)
    gated = _coordinations(monkeypatch, tokens, lexicon, config)
    assert gated and all(cat in wanted[span] for span, cat in gated)
    monkeypatch.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
    # k = 4 makes 124 calls gated, 210 (248 raised) ungated
    assert len(gated) < len(_coordinations(monkeypatch, tokens, lexicon, config))


def _pending_conjunctions(monkeypatch, tokens, lexicon, config) -> tuple[list, list[str]]:
    """(span, category) of every pending conjunction in the chart of a
    ``cky_parse`` run, and the records of its results."""
    charts = []
    with monkeypatch.context() as m:
        m.setattr(derivation, "_Chart", lambda *a, cls=derivation._Chart: charts.append(cls(*a)) or charts[-1])
        results = [_record(d) for d in cky_parse(tokens, lexicon, config)]
    cells = charts[0].cells.items()
    return [(span, i.constituent.category) for span, items in cells for i in items
            if isinstance(i.constituent.semantics, ConjPartial)], results


@pytest.mark.hash_seed
@pytest.mark.parametrize("raising", [(), NP_TO_S], ids=["plain", "raised"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_chart_holds_no_pending_conjunction_off_every_goal_derivation(lexicon, monkeypatch, k, raising):
    tokens, config = coordination_chain(k), ParserConfig(type_raising=raising)
    wanted = derivation._goal_categories([lexicon.lookup(t) for t in tokens], config, raising)
    gated, results = _pending_conjunctions(monkeypatch, tokens, lexicon, config)
    assert gated and all(cat in wanted[span] for span, cat in gated)
    monkeypatch.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
    ungated, ungated_results = _pending_conjunctions(monkeypatch, tokens, lexicon, config)
    assert results and results == ungated_results
    assert set(gated) < set(ungated)


def test_chart_overflow_counts_only_the_items_the_goal_pass_lets_in(lexicon, monkeypatch):
    tokens = "What did you decide to eat yesterday".split()
    small = cky_parse(tokens, lexicon, ParserConfig(max_cell_items=3))
    assert small and list(map(_record, small)) == list(map(_record, cky_parse(tokens, lexicon, ParserConfig())))
    monkeypatch.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
    with pytest.raises(ChartOverflowError):  # the ungated chart needs 17 items in a cell
        cky_parse(tokens, lexicon, ParserConfig(max_cell_items=3))


def test_cky_builds_scripts_and_steps_only_when_read(lexicon, monkeypatch):
    built = []
    for name in ("Step", "Leaf", "Unary", "Binary"):
        cls = getattr(derivation, name)
        monkeypatch.setattr(derivation, name, lambda *a, cls=cls: built.append(cls.__name__) or cls(*a))
    tokens = "John likes and Mary hates cats".split()
    results = cky_parse(tokens, lexicon, ParserConfig(type_raising=NP_TO_S))
    assert len(results) == 4 and built == []
    first = results[0]
    assert first.forest_count == 4 and built == []
    steps = first.steps  # builds the script too
    assert set(built) == {"Step", "Leaf", "Unary", "Binary"}
    assert built.count("Step") == len(steps) and built.count("Leaf") == 6
    assert first.steps is steps and len(built) == 2 * len(steps)
    assert all(d.__dict__.keys() == {"final", "forest_count", "_item"} for d in results[1:])
    monkeypatch.undo()
    again = replay(parse_script(first.to_script()), lexicon)
    assert Derivation(again.script, again.steps, again.final, 4) == first
    second = cky_parse(tokens, lexicon, ParserConfig(type_raising=NP_TO_S))
    assert second == results  # == reads both sides' scripts and steps


def test_first_reads_of_steps_from_several_threads_all_succeed(lexicon):
    tokens = ("John likes the cat" + " yesterday" * 4).split()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(20):
            d = cky_parse(tokens, lexicon, ParserConfig())[0]
            barrier, read, errors = threading.Barrier(4), [], []

            def first_read():
                barrier.wait(timeout=10)
                try:
                    read.append(d.steps)
                except AttributeError as err:
                    errors.append(err)

            threads = [threading.Thread(target=first_read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and len(read) == 4
            assert all(steps == read[0] for steps in read) and d.steps in read
            # a thread whose lookup missed just before another one set the steps
            assert d.__getattr__("steps") is d.steps and d.__getattr__("script") is d.script
    finally:
        sys.setswitchinterval(interval)


def test_replay_builds_steps_only_when_read(lexicon, monkeypatch):
    script = parse_script(script_path("coordination").read_text())
    built = []
    monkeypatch.setattr(derivation, "Step", lambda *a, cls=derivation.Step: built.append(a) or cls(*a))
    d = replay(script, lexicon)
    assert built == [] and d.__dict__.keys() == {"final", "forest_count", "_item"}
    steps = d.steps
    assert len(built) == len(steps) == 13
    monkeypatch.undo()
    assert d.script == script and d.script is not script and d.forest_count == 1


def test_equal_identity_entries_merge_in_the_chart():
    lexicon = loads("the | NP/N | ID | the.1\nthe | NP/N | ID | the.2\ncat | N | (c/cat) | cat.1\n")
    [d] = cky_parse("the cat".split(), lexicon, ParserConfig(goal="NP"))
    assert d.forest_count == 2 and d.to_script() == "(> (leaf 0 the.1) (leaf 1 cat.1))"
    # the words merge in their own cell, not only once they combine with "cat"
    chart = derivation._Chart(ParserConfig())
    the1, the2 = (
        combinator.Combined(Constituent(0, 1, e.category, e.semantics), e.entry_id) for e in lexicon.lookup("the")
    )
    assert chart.add(the1) is the1 and chart.add(the2) is the1
    assert chart.cells == {(0, 1): [the1]} and the1.forest_count == 2


@pytest.mark.parametrize("raising", [(), NP_TO_S])
def test_cky_results_are_pairwise_distinct_classes(lexicon, raising):
    results = cky_parse(coordination_chain(3), lexicon, ParserConfig(type_raising=raising))
    assert results
    for a, b in combinations(results, 2):
        assert not (
            a.final.category == b.final.category
            and iso_equal(a.final.semantics, b.final.semantics)
        )


def _iso_calls(monkeypatch, tokens, lexicon, config) -> tuple[list, list[tuple[bool, bool]]]:
    """A ``cky_parse`` run's results, and (result, equal node counts) of
    each ``iso_equal`` call it made."""
    calls, original = [], derivation.iso_equal

    def counting(a, b):
        calls.append((original(a, b), len(a.nodes) == len(b.nodes)))
        return calls[-1][0]

    with monkeypatch.context() as m:
        m.setattr(derivation, "iso_equal", counting)
        return cky_parse(tokens, lexicon, config), calls


@pytest.mark.hash_seed
def test_chart_iso_searches_fail_only_on_unequal_node_counts(lexicon, monkeypatch):
    """Coordinations merge by their conjuncts, so no search over graphs of
    equal size fails: a false call is a conjunct pair that the node counts
    reject at once.  The true calls are raised subjects' steps merging into
    the item that ``<`` built."""
    for k, falses in zip(range(2, 6), (0, 0, 36, 1512)):
        for raising, trues in (((), 0), (NP_TO_S, 4 * k)):
            config = ParserConfig(type_raising=raising, max_cell_items=500)
            results, calls = _iso_calls(monkeypatch, coordination_chain(k), lexicon, config)
            if k == 4:
                assert len(results) == 80  # Catalan(3) bracketings times 2^4 name readings
            assert [equal for found, equal in calls if not found] == [False] * falses, (k, raising)
            assert sum(found for found, _ in calls) == trues, (k, raising)


@pytest.mark.hash_seed
def test_coordinations_merge_by_their_conjuncts_as_the_whole_graph_search_would(lexicon, monkeypatch):
    """The lemma ``_isomorphic`` rests on: on every pair the chart compares,
    over the fixture windows and coordination chains, its decision is the
    search over the two whole graphs."""
    pairs, decide = [], derivation._isomorphic

    def checked(a, b):
        pairs.append((decide(a, b), iso_equal(a.constituent.semantics, b.constituent.semantics), a.rule == b.rule == "&"))
        return pairs[-1][0]

    monkeypatch.setattr(derivation, "_isomorphic", checked)
    for window in _fixture_windows():
        for goal in ("S", "NP", "N"):
            for raising in ((), NP_TO_S):
                cky_parse(list(window), lexicon, ParserConfig(goal=goal, type_raising=raising))
    for k in range(2, 6):
        for raising in ((), NP_TO_S):
            cky_parse(coordination_chain(k), lexicon, ParserConfig(type_raising=raising, max_cell_items=500))
    assert [p for p in pairs if p[0] != p[1]] == []
    assert len(pairs) > 5000 and sum(coordination for *_, coordination in pairs) > 5000


def _coordination(concept: str, left: combinator.Combined, right: combinator.Combined) -> combinator.Combined:
    """``left`` and ``right`` coordinated by a conjunction of ``concept``
    between them, with the children the chart gives a coordination."""
    start = left.constituent.end
    conj = combinator.Combined(Constituent(start, start + 1, Atom("Conj"), parse(f"(c / {concept})")), concept)
    pending = conj_attach(conj.constituent, right.constituent)
    pending.children = (conj, right)
    out = combinator.coordinate(conj.constituent, left.constituent, right.constituent)
    out.children = (left, pending)
    return out


def test_coordination_merge_decision_on_hand_built_items():
    def item(start, category, text):
        return combinator.Combined(Constituent(start, start + 1, parse_category(category), parse(text)), "x")

    cat, clause = item(0, "S", "(c / cat)"), item(2, "S[dcl]", "(l / like-01 :ARG0 (p / person))")
    plain, declarative = _coordination("and", cat, clause), _coordination("and", item(0, "S[dcl]", "(c / cat)"), clause)
    other = _coordination("or", cat, clause)
    bare = combinator.Combined(Constituent(0, 3, plain.constituent.category, plain.constituent.semantics), "x")
    # conjuncts of one span and different categories: searched, and isomorphic
    cases = [(plain, declarative, True), (plain, other, False), (plain, bare, True), (bare, plain, True)]
    for a, b, want in cases:
        assert derivation._isomorphic(a, b) is want
        assert iso_equal(a.constituent.semantics, b.constituent.semantics) is want


def test_graph_steps_build_each_node_and_edge_value_once(lexicon, monkeypatch):
    """Across one parse, equal nodes and equal edges that graph steps built
    are one object each.  PENMAN builds the lexicon's objects and
    relation-wise combination builds its resolved edge itself, so those are
    left out."""
    resolved = []
    monkeypatch.setattr(combinator, "Edge", lambda *a: resolved.append(Edge(*a)) or resolved[-1])
    results = cky_parse(coordination_chain(4), lexicon, ParserConfig(type_raising=NP_TO_S))
    graphs = [d.final.semantics for d in results]
    graphs += [s.constituent.semantics for d in results for s in d.steps if is_graph(s.constituent.semantics)]
    lexical = {
        id(x)
        for d in results
        for s in d.steps
        if s.rule.startswith("lex ") and is_graph(s.constituent.semantics)
        for x in s.constituent.semantics.nodes + s.constituent.semantics.edges
    }
    skipped = lexical | set(map(id, resolved))
    objects: dict[object, set[int]] = {}
    uses = 0
    for g in graphs:
        for x in g.nodes + g.edges:
            if id(x) not in skipped:
                objects.setdefault(x, set()).add(id(x))
                uses += 1
    assert resolved and uses > 10 * len(objects)  # values do repeat across graphs
    assert all(len(ids) == 1 for ids in objects.values())
    assert isinstance(graph._node.cache_info().maxsize, int)
    assert isinstance(graph._edge.cache_info().maxsize, int)


def test_parser_config_from_text_reads_every_key():
    text = """
    # every key once, type_raise twice
    combinators = >, <, >B, >T[S]  # trailing comment
    type_raise = NP > S
    type_raise = NP < S
    goal = NP
    strict_conjunction = yes
    max_cell_items = 50
    max_composition_order = 1
    """
    forward, backward = (TypeRaisingRule(Atom("NP"), Atom("S"), d) for d in ("forward", "backward"))
    assert ParserConfig.from_text(text) == ParserConfig(
        enabled=frozenset({">", "<", ">B", ">T[S]"}),
        max_composition_order=1,
        type_raising=(forward, backward),
        strict_conjunction=True,
        max_cell_items=50,
        goal="NP",
    )
    assert ParserConfig.from_text("type_raise = none").type_raising == ()
    assert ParserConfig.from_text("type_raise = None\ngoal = NP").type_raising == ()
    assert ParserConfig.from_text("") == ParserConfig()
    with pytest.raises(ValueError, match=r"^parser\.cfg:2: unknown config key 'beam'"):
        ParserConfig.from_text("goal = S\nbeam = 4", "parser.cfg")
    with pytest.raises(ValueError, match=r"^<string>:1: bad type_raise rule"):
        ParserConfig.from_text("type_raise = NP")


def test_a_repeated_type_raising_rule_is_rejected_and_distinct_rules_are_kept():
    rule = TypeRaisingRule(Atom("NP"), Atom("S"))
    with pytest.raises(ValueError, match=r"^duplicate type_raise rule 'NP > S'$"):
        ParserConfig(type_raising=(rule, TypeRaisingRule(Atom("NP"), Atom("S"), "backward"), rule))
    config = ParserConfig.from_text("type_raise = NP > S\ntype_raise = NP[nb] > S")
    assert config.type_raising == (rule, TypeRaisingRule(Atom("NP", "nb"), Atom("S")))


@pytest.mark.parametrize("direction", ["Forward", "up", ""])
def test_a_type_raising_rule_rejects_an_unknown_direction(direction):
    with pytest.raises(ValueError, match=f"^direction must be 'forward' or 'backward', found {direction!r}$"):
        TypeRaisingRule(Atom("NP"), Atom("S"), direction)


@pytest.mark.parametrize(
    "setting, message",
    [
        ("max_cell_items = 2.5", "max_cell_items must be an integer, found '2.5'"),
        ("max_cell_items = --5", "max_cell_items must be an integer, found '--5'"),
        ("max_composition_order = \u00b2", "max_composition_order must be an integer, found '\u00b2'"),
        ("type_raise = NP >", "bad type_raise rule 'NP >': missing target category"),
        ("type_raise = NP", "bad type_raise rule 'NP': expected 'SOURCE > TARGET' or 'SOURCE < TARGET'"),
        ("type_raise = NP > S[", "bad type_raise rule 'NP > S[': bad category syntax at offset 1: '['"),
        ("type_raise = < S", "bad type_raise rule '< S': missing source category"),
        ("type_raise = S\\NP > S", "bad type_raise rule 'S\\\\NP > S': type raising needs an atomic source, found S\\NP"),
        ("max_composition_order = 3", "max_composition_order must be 1 or 2"),
        ("strict_conjunction = maybe",
         "strict_conjunction must be one of 1/0/true/false/yes/no, found 'maybe'"),
        ("goal =", "goal must not be empty"),
        ("goal = s", "goal must be one of S, NP, N, PP, Conj, found 's'"),
        ("goal = S[dcl]", "goal must be one of S, NP, N, PP, Conj, found 'S[dcl]'"),
        ("combinators = >, <, frob", "unknown combinator 'frob'"),
        ("combinators = >b", "unknown combinator '>b'"),
        ("combinators = >, >x", "unknown combinator '>x'"),
        ("combinators = <Rx, <R", "unknown combinator '<Rx'"),
        ("combinators = >, >T[frob]", "bad combinator '>T[frob]': unknown atomic category 'frob' at offset 0"),
        ("combinators = &, >, >RB, >T[(S)]", "combinator '>T[(S)]' is spelled '>T[S]'"),
        ("combinators = <T[S\\(NP)]", r"combinator '<T[S\\(NP)]' is spelled '<T[S\\NP]'"),
        ("max_composition_order = 1\ncombinators = >B2", "combinator '>B2' needs max_composition_order = 2"),
        ("combinators = <RB2x\nmax_composition_order = 1", "combinator '<RB2x' needs max_composition_order = 2"),
        ("type_raise = NP > S\ntype_raise = NP > S", "duplicate type_raise rule 'NP > S'"),
        ("type_raise = NP<S[b]\ngoal = S\ntype_raise = NP < S[b]", "duplicate type_raise rule 'NP < S[b]'"),
        ("type_raise = NP > S\ntype_raise = none", "type_raise = none must be the only type_raise line"),
        ("type_raise = none\ngoal = S\ntype_raise = NP < S", "type_raise = none must be the only type_raise line"),
        ("type_raise = NONE\ntype_raise = none", "type_raise = none must be the only type_raise line"),
        ("combinators = >\ncombinators = <", "duplicate key 'combinators'"),
        ("goal = S\ntype_raise = NP > S\ngoal = NP", "duplicate key 'goal'"),
        ("combinators =", "combinators must name at least one combinator"),
        ("combinators = ,", "combinators must name at least one combinator"),
    ],
)
def test_parser_config_errors_name_source_and_line(setting, message):
    with pytest.raises(ValueError) as err:
        ParserConfig.from_text(f"# header\n\n{setting}\n", "parser.cfg")
    # the setting's last line is the one that fails
    assert str(err.value) == f"parser.cfg:{3 + setting.count(chr(10))}: {message}"


@pytest.mark.parametrize(
    "value, flag", [("1", True), ("0", False), ("true", True), ("False", False), ("Yes", True), ("no", False)]
)
def test_parser_config_reads_every_flag_spelling(value, flag):
    assert ParserConfig.from_text(f"strict_conjunction = {value}").strict_conjunction is flag


def test_cky_unknown_token(lexicon):
    with pytest.raises(UnknownTokenError, match="unknownword"):
        cky_parse(["John", "unknownword"], lexicon, ParserConfig())


def test_cky_cell_overflow(lexicon):
    with pytest.raises(ChartOverflowError):
        cky_parse(
            "John likes the cat".split(), lexicon, ParserConfig(max_cell_items=1)
        )


#: "a c a s" overflows two cells at ``max_cell_items=2``: (0, 3), with three
#: classes of "a c a", and (2, 4), with four of "a s"
TWO_OVERFLOWS = "a | S/S | (?1 :mod (a/alpha))\na | S/S | (?1 :mod (b/beta))\n" \
    "c | S/S | (?1 :mod (c/gamma))\ns | S | (s/ess)\ns | S | (t/tee)\n"


def test_cky_fills_the_chart_column_by_column():
    """Cells fill by end, then by start from the right, so the first cell to
    overflow is (0, 3); filled width by width, it would be (2, 4)."""
    with pytest.raises(ChartOverflowError, match=re.escape("chart cell (0, 3) exceeded 2 items")):
        cky_parse("a c a s".split(), loads(TWO_OVERFLOWS), ParserConfig(max_cell_items=2))


def test_cky_rejects_bad_composition_order(lexicon):
    with pytest.raises(ValueError, match="order"):
        cky_parse(["cat"], lexicon, ParserConfig(max_composition_order=3))


def test_cky_empty_token_list(lexicon):
    assert cky_parse([], lexicon, ParserConfig()) == []


def test_cky_forest_counts_at_least_one(lexicon):
    for d in cky_parse("John likes the cat".split(), lexicon, ParserConfig()):
        assert d.forest_count >= 1


def test_replay_results_agree_for_both_relative_paraphrases(lexicon):
    teachers = replay(parse_script(script_path("math_teachers").read_text()), lexicon)
    relative = replay(parse_script(script_path("teach_relative").read_text()), lexicon)
    assert iso_equal(teachers.final.semantics, relative.final.semantics)


def test_cky_combinator_whitelist(lexicon):
    tokens = "John likes and Mary hates cats".split()
    full = ParserConfig(type_raising=NP_TO_S)
    assert cky_parse(tokens, lexicon, full)
    no_conj = ParserConfig(
        type_raising=NP_TO_S,
        enabled=frozenset({">", "<", ">B", "<B", ">Bx", "<Bx", ">RB", "<RB", ">R", "<R", ">T[S]"}),
    )
    assert cky_parse(tokens, lexicon, no_conj) == []
    few = ParserConfig.from_text("type_raise = NP > S\ncombinators = &, >, >RB, >T[S]")
    assert len(cky_parse(tokens, lexicon, few)) == 4


def test_a_whitelist_that_omits_a_configured_raise_disables_it(lexicon, monkeypatch):
    tokens = "John likes and Mary hates cats".split()
    names = "combinators = >, <, >B, <B, >Bx, <Bx, >R, <R, >RB, <RB, &"
    omitted = ParserConfig.from_text(f"type_raise = NP > S\n{names}")
    assert cky_parse(tokens, lexicon, omitted) == cky_parse(tokens, lexicon, ParserConfig.from_text(names)) == []
    named = ParserConfig.from_text(f"type_raise = NP > S\n{names}, >T[S]")
    assert len(cky_parse(tokens, lexicon, named)) == 4
    # the chart drops the raise too, not only the goal pass
    monkeypatch.setattr(derivation, "_goal_categories", lambda *args: _WantsEverything())
    assert cky_parse(tokens, lexicon, omitted) == []
    assert len(cky_parse(tokens, lexicon, named)) == 4


def test_the_readme_config_names_each_raise_it_configures():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    config = ParserConfig.from_text(block, "README.md")
    assert config.type_raising and config.enabled
    for rule in config.type_raising:
        assert raise_rule_name(rule.target, rule.direction) in config.enabled


def test_cky_strict_conjunction_blocks_two_variable_conjuncts(lexicon):
    tokens = "John arrived to eat and to party".split()
    want = parse(
        "(a/and :op1 (a2/arrive-01 :ARG1 (p2/person :name John) :purpose (e/eat-01 :ARG0 p2))"
        " :op2 (a2 :ARG1 p2 :purpose (p/party-01 :ARG0 p2)))"
    )
    default = cky_parse(tokens, lexicon, ParserConfig())
    assert any(iso_equal(d.final.semantics, want) for d in default)
    strict = cky_parse(tokens, lexicon, ParserConfig(strict_conjunction=True))
    assert not any(iso_equal(d.final.semantics, want) for d in strict)


def test_cky_strict_conjunction_keeps_single_variable_conjuncts(lexicon):
    tokens = "John likes and Mary hates cats".split()
    cfg = ParserConfig(type_raising=NP_TO_S, strict_conjunction=True)
    assert cky_parse(tokens, lexicon, cfg) != []


def test_cky_order_one_blocks_second_order_composition(lexicon):
    tokens = "Who did you persuade to smile".split()
    assert cky_parse(tokens, lexicon, ParserConfig()) != []
    assert cky_parse(tokens, lexicon, ParserConfig(max_composition_order=1)) == []


def test_cky_output_is_deterministic(lexicon):
    tokens = "What did you decide to eat yesterday".split()
    first = cky_parse(tokens, lexicon, ParserConfig())
    second = cky_parse(tokens, lexicon, ParserConfig())
    assert [d.to_script() for d in first] == [d.to_script() for d in second]
    assert [d.forest_count for d in first] == [d.forest_count for d in second]


@pytest.mark.parametrize("text", ["(", "(leaf)", "(leaf 0)", "(> (leaf 0 a.1)"])
def test_parse_script_truncated_inputs_raise_script_errors(text):
    with pytest.raises(ScriptError):
        parse_script(text)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(text=st.text(alphabet="()<>RBx2T[]leaf&. 01Sabc", max_size=40))
@settings(max_examples=150, deadline=None)
def test_parse_script_never_leaks_foreign_exceptions(text):
    try:
        parse_script(text)
    except ScriptError:
        pass


def test_wh_control_trace_category_sequence(lexicon):
    from ccgamr.category import format_category

    d = replay(parse_script(script_path("wh_control").read_text()), lexicon)
    combos = [s for s in d.steps if not s.rule.startswith("lex")]
    got = [(s.rule, format_category(s.constituent.category)) for s in combos]
    assert got == [
        (">", "S[q]/(S[b]\\NP)"),
        ("<Bx", "S[b]\\NP/NP"),
        (">B", "S[to]\\NP/NP"),
        (">RB", "S[b]\\NP/NP"),
        (">RB", "S[q]/NP"),
        (">R", "S[whq]"),
    ]


def test_light_verb_trace_category_sequence(lexicon):
    from ccgamr.category import format_category

    d = replay(parse_script(script_path("light_verb").read_text()), lexicon)
    combos = [s for s in d.steps if not s.rule.startswith("lex")]
    got = [(s.rule, format_category(s.constituent.category)) for s in combos]
    assert got == [
        ("<R", "N/NP"),
        (">", "NP"),
        (">", "N"),
        (">", "NP"),
        (">", "S\\NP"),
        ("<", "S"),
    ]


@pytest.mark.parametrize(
    "sentence, graphs",
    [
        # the chart coordinates the two deep categories, but S/NP/.../NP is no goal
        ("big and big", []),
        ("wide big", ["(w/wide :mod (b/big))"]),
        ("wide big and big", ["(w/wide :mod (b/big) :mod (b2/big) :op1-of (a/and) :op2-of a)"]),
    ],
)
def test_cky_parse_unifies_categories_a_thousand_slashes_deep(sentence, graphs):
    results = cky_parse(sentence.split(), loads(deep_lexicon_text()), ParserConfig())
    assert len(results) == len(graphs)
    for d, text in zip(results, graphs):
        assert format_category(d.final.category) == "S"
        assert iso_equal(d.final.semantics, parse(text))


# --- rebracketing skips -----------------------------------------------------

def _regular(f, a, order: int):
    """``substitute(f, a, order)`` if the chart would run it as a regular
    step: ``f`` has a free variable and no edge is shared; else None."""
    if not f.fv or combinator.relation_wise_match(f, a, order + 1) is not None:
        return None
    return graph.substitute(f, a, order)


def _bracketings(direction: str, n: int, order: int, a, b, c):
    """((A B) C) and (A (B C)) of the regular, uncrossed steps that
    ``_Chart.rebracketed`` pairs, or None if a step would not be regular.
    Backward, ``order`` is q: (A <q B) <p C and A <q (B <n C), p = q + n - 1;
    forward, it is p: (A >n B) >p C and A >m (B >p C), m = p + n - 1."""
    if direction == "backward":
        p = order + n - 1
        left = _regular(b, a, order)
        inner = _regular(c, b, n)
        return left and inner and (_regular(c, left, p), _regular(inner, a, order))
    left, inner = _regular(a, b, n), _regular(b, c, order)
    return left and inner and (_regular(left, c, order), _regular(a, inner, order + n - 1))


@given(one=support_graphs(min_fv=1, max_fv=1), middle=support_graphs(min_fv=1), other=support_graphs())
@settings(max_examples=300, deadline=None)
def test_rebracketing_a_one_variable_primary_functor_gives_an_iso_graph(one, middle, other):
    """The lemma ``_Chart.rebracketed`` rests on: with all four steps regular
    and uncrossed, the primary functor (C backward, A forward) holding one
    free variable, both bracketings give isomorphic graphs."""
    for direction, a, c in (("backward", other, one), ("forward", one, other)):
        for n in (1, 2):
            for order in range(3 - n + 1):  # no step's order exceeds 2
                both = _bracketings(direction, n, order, a, middle, c)
                if both and all(both):
                    assert iso_equal(*both), (direction, n, order)


def test_rebracketing_a_two_variable_primary_functor_reorders_its_free_variables():
    """Why ``_Chart.rebracketed`` wants one free variable on the primary
    functor: with two, (L <0 R1) <0 R2 and L <0 (R1 <B R2) are regular
    throughout but list the leftover variables in opposite orders."""
    r2 = parse("(a/alpha :ARG0 ?1 :ARG1 ?2)")
    r1 = parse("(b/beta :ARG0 ?1 :ARG1 ?2)")
    left, right = _bracketings("backward", 1, 0, parse("(c/gamma)"), r1, r2)
    assert (left.fv, right.fv) == ((2, 4), (4, 2))
    assert not iso_equal(left, right)


#: Lexicons on which a skip that dropped a guard of ``_Chart.rebracketed``
#: would change the output or fail, with a sentence, a whitelist (None
#: enables every combinator) and the sentence's forest counts.  The guards
#: they pin: a primary functor with one free variable, no shared edge on the
#: skipped pair, the skipped step's name enabled, landings recorded only for
#: regular, uncrossed steps, A B built by such a step, C a graph, and the
#: item A (B C) landed in of the skipped step's category.  The last two rows
#: pin the guards ``tests/test_smallscope.py`` shows needed, with one-slash
#: categories; it shows that the skip needs none on crossing, on B's
#: semantics or on the orders of ``_REBRACKETINGS``.
GUARDED = [
    # the primary functor r2 has two free variables: (c r1) r2 and c (r1 r2)
    # are two classes, which fill alpha's and beta's :ARG1 the other way round
    ("x | NP | (x/ex)\ny | NP | (y/why)\nc | NP | (c/gamma)\n"
     "r1 | (S\\NP)\\NP | (b/beta :ARG0 ?1 :ARG1 ?2)\n"
     "r2 | ((S\\NP)\\NP)\\(S\\NP) | (a/alpha :ARG0 ?1 :ARG1 ?2)", "x y c r1 r2", None, [1, 1]),
    # (leaves today) x shares an :ARG0 edge, and the relation-wise step fails
    # the iso principle, while leaves (today x) is regular throughout
    ("john | NP | (j/john)\nleaves | S\\NP | (l/leave-01 :ARG0 ?1)\n"
     "today | (S\\NP)\\(S\\NP) | (t/today :time-of ?1)\n"
     "x | (S\\NP)\\(S\\NP) | (?1 :ARG0 (p/person))", "john leaves today x", None, [1]),
    # b c shares a :mod edge with the first c, so that step is relation-wise
    # and records no landing; the second c's regular b c lands in an item of
    # the size the first's would have had, which a landing proved from bucket
    # state alone would mistake for the first's (kept as a regression input
    # for that hazard); (a b) c shares no edge, since the composition shifts
    # b's ?2 behind a's two
    ("y | NP | (y/why)\nx | NP | (x/ex)\nn | N | (n/en)\n"
     "a | (PP\\NP)\\N | (a/alpha :ARG0 ?1 :ARG1 ?2)\n"
     "b | ((S\\NP)\\NP)\\(PP\\NP) | (b/beta :ARG0 ?1 :mod ?2)\n"
     "c | ((S\\NP)\\NP)\\((S\\NP)\\NP) | (?1 :mod (m/em))\n"
     "c | ((S\\NP)\\NP)\\((S\\NP)\\NP) | (?1 :time (t/tee))", "y x n a b c", None, [3, 2, 2]),
    # (c b) m would be a <B step, which the whitelist drops; c (b m) is <B2
    ("x | NP | (x/ex)\nc | NP | (c/gamma)\nb | (S\\NP)\\NP | (b/beta :ARG0 ?1 :ARG1 ?2)\n"
     "m | S\\S | (?1 :mod (m/em))", "x c b m", frozenset(["<", "<B2", "<RB"]), [2]),
    # a word's rule is its entry id, which may spell a combinator's name, but
    # a word was built by no step, so it is never the A B of a rebracketing
    ("f | S/NP | (f/eff :ARG0 ?1) | >B\nd | NP/NP | (?1 :mod (d/dee))\nm | NP | (m/em)", "f d d m", None, [5]),
    ("x | NP | (x/ex) | <\nv | S\\NP | (v/vee :ARG0 ?1)\nt | S\\S | (?1 :time (t/tee))", "x v t t", None, [5]),
    # C is IDENTITY: (x v) t is backward, so t is the primary functor, and an
    # identity has no free-variable list to count
    ("x | NP | (x/ex)\nv | S\\NP | (v/vee :ARG0 ?1)\nt | S\\S | ID", "x v t", None, [2]),
    # a >B b is S/S, a modifier that passes c's S[dcl] on, while a (b c) is S:
    # one graph under two categories, two items
    ("a | S/S[dcl] | (a/alpha :ARG0 ?1)\nb | S/S | (?1 :mod (b/beta))\nc | S[dcl] | (c/gamma)", "a b c", None, [1, 1]),
]


@pytest.mark.parametrize(
    "text, sentence, enabled, counts", GUARDED,
    ids=["two_variables", "shared_edge", "shared_inner_edge", "disabled_step", "word_id_forward", "word_id_backward",
         "identity_modifier", "lost_feature"],
)
def test_rebracketing_guards_keep_each_class_and_count(monkeypatch, text, sentence, enabled, counts):
    cases = [(sentence.split(), ParserConfig(enabled=enabled))]
    results = _outputs(cases, loads(text))
    assert [count for _, count, _, _ in results[0]] == counts
    monkeypatch.setattr(derivation._Chart, "rebracketed", lambda *args: None)
    assert _outputs(cases, loads(text)) == results


#: ``_REBRACKETINGS`` as the identities it encodes: the row (x, direction of
#: y, order of y) names (y, w, z) for ((A x B) y C) = A z (B w C).
REBRACKETINGS = [
    "((A > B) >B C) = A > (B >B C)",
    "((A > B) >B2 C) = A >B (B >B2 C)",
    "((A >B B) > C) = A > (B > C)",
    "((A >B B) >B C) = A >B (B >B C)",
    "((A >B B) >B2 C) = A >B2 (B >B2 C)",
    "((A >B2 B) > C) = A >B (B > C)",
    "((A >B2 B) >B C) = A >B2 (B >B C)",
    "((A < B) < C) = A < (B <B C)",
    "((A < B) <B C) = A < (B <B2 C)",
    "((A <B B) < C) = A <B (B < C)",
    "((A <B B) <B C) = A <B (B <B C)",
    "((A <B B) <B2 C) = A <B (B <B2 C)",
    "((A <B2 B) <B C) = A <B2 (B < C)",
    "((A <B2 B) <B2 C) = A <B2 (B <B C)",
]


def test_the_rebracketing_tables_are_the_pinned_identities():
    """A change to the rule table shows here as a diff of named identities."""
    assert derivation._UNCROSSED == {
        ">": ("forward", 0),  # X/Y Y => X
        ">B": ("forward", 1),  # X/Y Y/Z => X/Z
        ">B2": ("forward", 2),  # X/Y (Y/Z)/W => (X/Z)/W
        "<": ("backward", 0),  # Y X\Y => X
        "<B": ("backward", 1),  # Y\Z X\Y => X\Z
        "<B2": ("backward", 2),  # (Y\Z)\W X\Y => (X\Z)\W
    }
    spelled = []
    for (name, direction, p), (step, inner, outer) in derivation._REBRACKETINGS.items():
        assert combinator.RULES[step][:2] == (direction, p)
        spelled.append(f"((A {name} B) {step} C) = A {outer} (B {inner} C)")
    assert spelled == REBRACKETINGS


def _differential_cases(lexicon):
    """(tokens, config) of every fixture parse, adjunct chains of 1 to 10
    adjuncts, coordination chains of 2 to 4 clauses raising off and on, and
    the goal-pass cases (windows and random strings)."""
    for sentence, goal, raising in FIXTURE_PARSES:
        yield sentence.split(), ParserConfig(goal=goal, type_raising=raising)
    for k in range(1, 11):
        yield "John likes the cat".split() + ["yesterday"] * k, ParserConfig()
    for k in range(2, 5):
        for raising in ((), NP_TO_S):
            yield coordination_chain(k), ParserConfig(type_raising=raising)
    yield from _goal_pass_cases(lexicon)


def _outputs(cases, lexicon) -> list[list[tuple]]:
    return [[(repr(d.final), d.forest_count, d.to_script(), d.steps) for d in cky_parse(tokens, lexicon, config)]
            for tokens, config in cases]


@pytest.mark.hash_seed
def test_rebracketing_skips_change_no_output(lexicon, monkeypatch):
    """Results, their order, forest counts, scripts and steps are the same
    whether or not the chart skips the rebracketings it proves."""
    cases = list(_differential_cases(lexicon))
    skipped, rebracketed = [], derivation._Chart.rebracketed

    def spy(*args):
        skipped.append(rebracketed(*args))
        return skipped[-1]

    with monkeypatch.context() as m:
        m.setattr(derivation._Chart, "rebracketed", lambda *args: None)
        want = _outputs(cases, lexicon)
    monkeypatch.setattr(derivation._Chart, "rebracketed", spy)
    assert _outputs(cases, lexicon) == want
    assert sum(map(bool, want)) > 200 and sum(skipped) > 1000


@pytest.mark.hash_seed
def test_adjunct_chains_make_a_quadratic_number_of_graph_steps(lexicon, monkeypatch):
    """Each of the C(k + 2, 3) - C(k + 1, 2) rebracketings of "John likes the
    cat" + k adjuncts that the chart would merge is skipped."""
    for k in range(1, 11):
        tokens = "John likes the cat".split() + ["yesterday"] * k
        assert _graph_steps(monkeypatch, tokens, lexicon, ParserConfig()) == 6 + math.comb(k + 1, 2), k
        catalan = math.comb(2 * k, k) // (k + 1)
        assert [d.forest_count for d in cky_parse(tokens, lexicon, ParserConfig())] == [2 * catalan] * 2


@pytest.mark.parametrize("raising", [(), NP_TO_S], ids=["plain", "raised"])
@pytest.mark.parametrize("k", [5, 6])
def test_coordination_chains_keep_every_class_without_a_failed_search(lexicon, monkeypatch, k, raising):
    """k clauses give Catalan(k - 1) * 2^k classes (bracketings times name
    readings), each of 5^k derivations with raising and of one without, and
    no search over graphs of equal size fails."""
    config = ParserConfig(type_raising=raising, max_cell_items=3000)
    results, calls = _iso_calls(monkeypatch, coordination_chain(k), lexicon, config)
    assert len(results) == math.comb(2 * k - 2, k - 1) // k * 2**k == {5: 448, 6: 2688}[k]
    assert {d.forest_count for d in results} == {5**k if raising else 1}
    assert not any(equal for found, equal in calls if not found)


def test_adjunct_chain_skips_read_recorded_landings(lexicon, monkeypatch):
    """The witness of a skip reads the landings the chart recorded and
    re-derives none: "John likes the cat" + k adjuncts makes one
    ``relation_wise_match`` call per skip (its shared-edge guard) and per
    graph step on two graphs, C(k + 2, 3) + 4 in all, and one
    ``_category_rules`` lookup per pair of items the chart visits,
    C(k + 2, 3) + 4k + 10, once the goal pass's tables are warm."""
    counts = {"relation_wise_match": 0, "_category_rules": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for module, name in ((derivation, "relation_wise_match"), (combinator, "relation_wise_match"),
                         (derivation, "_category_rules")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    derivation._goal_tables.cache_clear()
    for k in range(1, 11):
        tokens = "John likes the cat".split() + ["yesterday"] * k
        cky_parse(tokens, lexicon, ParserConfig())  # warms the goal pass's tables for these categories
        counts.update(relation_wise_match=0, _category_rules=0)
        cky_parse(tokens, lexicon, ParserConfig())
        assert counts == {"relation_wise_match": math.comb(k + 2, 3) + 4,
                          "_category_rules": math.comb(k + 2, 3) + 4 * k + 10}, k


def test_cky_parse_leaves_no_reference_cycles(lexicon):
    """The chart keys its landings by the ids of its items, and no item
    refers to an item built from it, so reference counting alone frees a
    parse's chart, also when a cell overflows after landings were recorded."""
    gc.collect()
    gc.disable()
    try:
        assert len(cky_parse("John likes the cat".split() + ["yesterday"] * 4, lexicon, ParserConfig())) == 2
        assert gc.collect() == 0
        with pytest.raises(ChartOverflowError):
            cky_parse("a c a s".split(), loads(TWO_OVERFLOWS), ParserConfig(max_cell_items=2))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("text, sentence, rules, counts", [
    # ((a >B2 b) >B2 c) would rebracket as a >B3 (b >B2 c)
    ("a | S/NP | (a/alpha :ARG0 ?1)\nb | (NP/N)/PP | (b/beta :ARG0 ?1 :ARG1 ?2)\n"
     "c | (PP/NP)/N | (c/gamma :ARG0 ?1 :ARG1 ?2)\nn | N | (n/en)\nm | NP | (m/em)", "a b c n m n", [">", ">B2"], [11, 5]),
    # ((x < b) <B2 m) would rebracket as x < (b <B3 m)
    ("x | NP | (x/ex)\ny | NP | (y/why)\nz | NP | (z/zed)\n"
     "b | ((S\\NP)\\NP)\\NP | (b/beta :ARG0 ?1 :ARG1 ?2 :ARG2 ?3)\nm | S\\S | (?1 :mod (m/em))",
     "z y x b m", ["<", "<B2"], [3, 2]),
], ids=["forward", "backward"])
def test_rebracketings_that_need_a_third_order_rule_are_built(monkeypatch, text, sentence, rules, counts):
    """No rule has order 3, so the chart builds these steps, with every
    combinator enabled or with a whitelist."""
    cases = [(sentence.split(), ParserConfig(enabled=enabled)) for enabled in (None, frozenset(rules))]
    results = _outputs(cases, loads(text))
    assert [count for r in results for _, count, _, _ in r] == counts
    monkeypatch.setattr(derivation._Chart, "rebracketed", lambda *args: None)
    assert _outputs(cases, loads(text)) == results
