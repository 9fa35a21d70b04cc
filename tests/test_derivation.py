import hashlib
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
from ccgamr.graph import Edge, invariant, iso_equal
from ccgamr.lexicon import Lexicon, loads
from ccgamr.penman import parse
from ccgamr.fixtures import script as script_path

from support import (
    FIXTURE_PARSES,
    _exact_key,
    brute_force_forest,
    constituent,
    deep_lexicon_text,
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


def test_parse_script_accepts_nesting_at_the_depth_limit(lexicon):
    d = replay(parse_script(_raised_script(penman.MAX_DEPTH)), lexicon)
    assert len(d.steps) == penman.MAX_DEPTH
    assert d.steps[0].path == (0,) * (penman.MAX_DEPTH - 1)


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


def test_replay_reports_step_path(lexicon):
    bad = Binary(">", Leaf(0, "cat.1"), Leaf(1, "cats.1"))
    with pytest.raises(ReplayError, match="step root"):
        replay(bad, lexicon)


# --- finalize ---------------------------------------------------------------

def test_finalize_accepts_completed_passive(lexicon):
    d = replay(parse_script(script_path("passive").read_text()), lexicon)
    assert finalize_check(d.final) == []


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
            assert shown(_binary_candidates(left, right, config)) == want, (left, right)
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
            assert _shown(_binary_candidates(left, right, config)) == want, (left, right)


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
    """What ``_Chart.add`` returns for one S item per graph, all in span
    (0, 1), and the forest counts of the items the cell keeps."""
    chart = derivation._Chart(ParserConfig())
    added = [chart.add((0, 1), derivation._Item(Constituent(0, 1, Atom("S"), g), "x")) for g in graphs]
    return added, [item.forest_count for item in chart.cells[0, 1]]


def test_chart_add_computes_invariants_only_for_contested_buckets(monkeypatch):
    calls = _count_calls(monkeypatch, "invariant", "iso_equal")
    text = "(l / like-01 :ARG0 (p / person) :ARG1 (c / cat) :time ?1)"
    a, b = parse(text), parse(text)
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


def test_cky_output_matches_the_pinned_digest(lexicon):
    assert cky_digest(lexicon) == CKY_DIGEST


class _WantsEverything(dict):
    """A goal pass that wants every category of every span: no graph step is
    skipped."""

    def __bool__(self):
        return True

    def get(self, span, default=None):
        return None


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
    wanted = derivation._goal_categories(tokens, lexicon, config, raisings)
    reference = reference_goal_categories(tokens, lexicon, config, raisings)
    assert sorted(wanted) == sorted(reference), (tokens, config)
    for span, cats in reference.items():
        assert wanted[span] == cats, (tokens, config, span)
    return wanted


def test_the_goal_pass_equals_its_set_based_reference(lexicon):
    """The bit-mask goal pass wants, span by span, exactly the categories the
    set-based pass it replaced wants."""
    cases = list(_goal_pass_cases(lexicon))
    found = [_assert_goal_pass_equals_reference(tokens, lexicon, config) for tokens, config in cases]
    # cases: fixtures, chains raising off and on, 100 draws of (1 + 5 goals) x 12 configs;
    # non-empty maps: fixtures, adjunct and coordination chains, random strings
    assert (len(cases), sum(map(bool, found))) == (17 + 2 * 17 + 100 * 6 * 12, 15 + 2 * 14 + 2 * 3 + 229)


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


def test_every_result_step_lies_on_a_goal_derivation_by_categories(lexicon):
    checked = 0
    for sentence, goal, raising in FIXTURE_PARSES:
        tokens, config = sentence.split(), ParserConfig(goal=goal, type_raising=raising)
        wanted = derivation._goal_categories(tokens, lexicon, config, raising)
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
    assert derivation._goal_categories(tokens, lexicon, ParserConfig(), ()) == {}
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


@pytest.mark.parametrize("raising", [(), NP_TO_S], ids=["plain", "raised"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coordination_runs_its_graph_step_only_for_wanted_categories(lexicon, monkeypatch, k, raising):
    tokens, config = coordination_chain(k), ParserConfig(type_raising=raising)
    wanted = derivation._goal_categories(tokens, lexicon, config, raising)
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


@pytest.mark.parametrize("raising", [(), NP_TO_S], ids=["plain", "raised"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_chart_holds_no_pending_conjunction_off_every_goal_derivation(lexicon, monkeypatch, k, raising):
    tokens, config = coordination_chain(k), ParserConfig(type_raising=raising)
    wanted = derivation._goal_categories(tokens, lexicon, config, raising)
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
        derivation._Item(Constituent(0, 1, e.category, e.semantics), e.entry_id) for e in lexicon.lookup("the")
    )
    assert chart.add((0, 1), the1) and not chart.add((0, 1), the2)
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


def test_chart_compares_only_graphs_with_equal_invariants(lexicon, monkeypatch):
    calls = []
    original = derivation.iso_equal

    def counting(a, b):
        calls.append(invariant(a) == invariant(b))
        return original(a, b)

    monkeypatch.setattr(derivation, "iso_equal", counting)
    for raising, searches in (((), 94), (NP_TO_S, 110)):
        calls.clear()
        results = cky_parse(coordination_chain(4), lexicon, ParserConfig(type_raising=raising))
        assert len(results) == 80  # Catalan(3) bracketings times 2^4 name readings
        assert all(calls)
        # as many as when every item was keyed by its invariant: splitting a
        # contested bucket adds no search
        assert len(calls) == searches


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
