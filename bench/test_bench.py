"""Tests of the benchmark itself: closed forms, pinned counts, checks, tracing.

    python3 -m pytest bench/test_bench.py

The chain closed forms and the fixture counts pinned in ``workloads.py`` are
checked against ``tests/support.py``'s brute-force oracle (iso-classes) and
against a derivation counter here that merges only textually identical
constituents (forest counts), at sizes where both are tractable.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "bench", ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from check import canon, from_amr, from_dot, isomorphic, tree_of  # noqa: E402
from tracing import ENTRY_POINTS, Tracer, _owner  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    lib, _ = run.set_up("fixtures", 0)
    return lib


@pytest.fixture(scope="module")
def lexicon(lib):
    return lib.lexicon.load(lib.fixtures.LEXICON_PATH)


def _key(lib, c) -> str:
    sem = c.semantics
    if isinstance(sem, lib.combinator.Identity):
        shown = "ID"
    elif isinstance(sem, lib.combinator.ConjPartial):
        shown = f"partial[{_key(lib, sem.conj)};{_key(lib, sem.right)}]"
    else:
        shown = lib.penman.serialize(sem)
    return f"{lib.category.format_category(c.category)} :: {shown}"


def forests_by_class(lib, tokens, lexicon, config) -> list[tuple[object, int]]:
    """(class graph, number of derivations) for every complete iso-class.

    Derivations are counted span by span, merging constituents only when
    their text is identical; iso-classes are formed at the very end.
    """
    cb = lib.combinator
    memo: dict = {}

    def combos(left, right):
        attempts = [
            lambda: cb.combine_application("forward", left, right),
            lambda: cb.combine_application("backward", right, left),
        ]
        for order in range(1, config.max_composition_order + 1):
            attempts.append(lambda o=order: cb.combine_composition("forward", o, left, right))
            attempts.append(lambda o=order: cb.combine_composition("backward", o, right, left))
        if isinstance(left.category, lib.category.Atom) and left.category.base == "Conj":
            attempts.append(lambda: cb.conj_attach(left, right))
        if isinstance(right.semantics, cb.ConjPartial):
            partial = right.semantics
            attempts.append(lambda: cb.coordinate(partial.conj, left, partial.right))
        for attempt in attempts:
            try:
                yield attempt().constituent
            except cb.CombinationError:
                pass

    def span(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        out: dict[str, list] = {}

        def add(c, n):
            entry = out.setdefault(_key(lib, c), [c, 0])
            entry[1] += n

        if j - i == 1:
            for e in lexicon.lookup(tokens[i]):
                add(cb.Constituent(i, j, e.category, e.semantics), 1)
        else:
            for split in range(i + 1, j):
                for left, nl in span(i, split).values():
                    for right, nr in span(split, j).values():
                        for c in combos(left, right):
                            add(c, nl * nr)
        for c, n in list(out.values()):
            for rule in config.type_raising:
                if cb.is_graph(c.semantics) and lib.category.unify(rule.source, c.category):
                    add(cb.type_raise(c, rule.target, rule.direction).constituent, n)
        memo[(i, j)] = out
        return out

    classes: list[list] = []
    for c, n in span(0, len(tokens)).values():
        cat = c.category
        if not (isinstance(cat, lib.category.Atom) and cat.base == config.goal):
            continue
        if lib.derivation.finalize_check(c):
            continue
        g = from_amr(c.semantics)
        for entry in classes:
            if isomorphic(entry[0], g):
                entry[1] += n
                break
        else:
            classes.append([g, n])
    return [(g, n) for g, n in classes]


def oracle_classes(lib, tokens, lexicon, config):
    from support import brute_force_classes

    return [from_amr(g) for g in brute_force_classes(tokens, lexicon, config)]


# cky_parse counts every type-raised item twice: the second round of
# _raise_closure raises the same NP again and the chart merges the duplicate
# by adding its count.  The benchmark pins the counts cky_parse gives (5 per
# raised clause), so a change to them is flagged; the independent count (3
# per clause) disagrees, which these marks record until the defect is fixed.
RAISED_TWICE = pytest.mark.xfail(
    strict=True, reason="cky_parse counts each type-raised item twice")


def counted_forests(lib, tokens, lexicon, config, expect):
    counted = forests_by_class(lib, tokens, lexicon, config)
    assert sorted(canon(tree_of(g)) for g, _ in counted) == list(expect.trees)
    return tuple(sorted(n for _, n in counted))


@pytest.mark.parametrize("base", [0, 1])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_adjunct_closed_form_holds_against_oracle(lib, lexicon, base, k):
    words = [random.Random(k).choice(["yesterday", "often"]) for _ in range(k)]
    tokens = workloads.adjunct_tokens(base, words)
    expect = workloads.adjunct_expect(base, words)
    config = workloads._config(lib)
    assert len(expect.trees) == 2
    assert sum(expect.forests) == 2 * workloads.ADJUNCT_BASES[base][3] * workloads.catalan(k)
    classes = oracle_classes(lib, tokens, lexicon, config)
    assert sorted(canon(tree_of(g)) for g in classes) == list(expect.trees)
    assert counted_forests(lib, tokens, lexicon, config, expect) == expect.forests


@pytest.mark.parametrize("raising", [False, True])
@pytest.mark.parametrize("first", [0, 1])
def test_coordination_classes_hold_against_oracle(lib, lexicon, raising, first):
    clauses = workloads.coordination_clauses(first, 2)
    expect = workloads.coordination_expect(clauses, raising)
    config = workloads._config(lib, raising=raising)
    assert len(expect.trees) == workloads.catalan(1) * 2 ** 2
    classes = oracle_classes(lib, workloads.coordination_tokens(clauses), lexicon, config)
    assert sorted(canon(tree_of(g)) for g in classes) == list(expect.trees)


@pytest.mark.parametrize("raising", [False, pytest.param(True, marks=RAISED_TWICE)])
def test_coordination_forests_hold_against_count(lib, lexicon, raising):
    clauses = workloads.coordination_clauses(0, 2)
    expect = workloads.coordination_expect(clauses, raising)
    tokens = workloads.coordination_tokens(clauses)
    config = workloads._config(lib, raising=raising)
    assert counted_forests(lib, tokens, lexicon, config, expect) == expect.forests


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coordination_gold_trees_are_distinct_and_counted(k):
    expect = workloads.coordination_expect(workloads.coordination_clauses(0, k), True)
    assert len(set(expect.trees)) == len(expect.trees) == workloads.catalan(k - 1) * 2 ** k
    assert expect.forests == (5 ** k,) * len(expect.trees)


SMALL_FIXTURES = [f for f in workloads.FIXTURES if len(f[1].split()) <= 7]


@pytest.mark.parametrize("row", SMALL_FIXTURES, ids=lambda f: f[0])
def test_pinned_fixture_classes_hold_against_oracle(lib, lexicon, row):
    name, sentence, goal, raising, gold, conventional, forests = row
    config = workloads._config(lib, goal, raising)
    classes = oracle_classes(lib, sentence.split(), lexicon, config)
    assert len(classes) == len(forests)
    if gold:
        want = workloads._gold(lib, gold)
        assert any(isomorphic(g, want) for g in classes)
    if conventional:
        unwanted = workloads._gold(lib, conventional)
        assert not any(isomorphic(g, unwanted) for g in classes)


@pytest.mark.parametrize(
    "row",
    [pytest.param(f, marks=[RAISED_TWICE] if f[3] else [], id=f[0]) for f in SMALL_FIXTURES],
)
def test_pinned_fixture_forests_hold_against_count(lib, lexicon, row):
    name, sentence, goal, raising, gold, conventional, forests = row
    counted = forests_by_class(lib, sentence.split(), lexicon, workloads._config(lib, goal, raising))
    assert tuple(sorted(n for _, n in counted)) == forests


@pytest.mark.parametrize("workload", ["fixtures", "adjunct_chain", "cli"])
def test_every_operation_passes_its_check(workload):
    _, ops = run.set_up(workload, 7)
    for op in ops:
        assert op.check(op.run()) is None, op.label


def test_checks_reject_wrong_outputs():
    _, ops = run.set_up("fixtures", 7)
    outputs = {op.label: op.run() for op in ops}
    like_cat = next(op for op in ops if op.label == "like_cat")
    assert like_cat.check(outputs["passive"]) is not None
    assert like_cat.check(outputs["like_cat"][:1]) is not None
    modal = next(op for op in ops if op.label == "modal_preposed")
    assert modal.check(outputs["modal_preposed"]) is None

    _, cli_ops = run.set_up("cli", 7)
    for op in cli_ops:
        code, text = op.run()
        assert op.check((code + 1, text)) is not None, op.label


def test_dot_round_trip(lib):
    g = lib.penman.parse(lib.fixtures.gold("wh_control").read_text(encoding="utf-8"))
    assert isomorphic(from_dot(lib.cli.render_dot(g)), from_amr(g))
    assert from_dot("digraph amr {\n}") is None


def test_tracer_restores_wrapped_attributes():
    lib, ops = run.set_up("cli", 3)
    originals = {(path, attr): vars(_owner(lib, path))[attr] for path, attr, _, _ in ENTRY_POINTS}
    tracer = Tracer()
    tracer.install(lib)
    try:
        assert tracer.missing == []
        for (path, attr), original in originals.items():
            assert vars(_owner(lib, path))[attr] is not original, (path, attr)
        for op in ops[:5]:
            assert op.check(tracer.run_op(op.run)) is None
    finally:
        tracer.uninstall()
    for (path, attr), original in originals.items():
        assert vars(_owner(lib, path))[attr] is original, (path, attr)
    assert len(tracer) > 5


def test_self_times_are_non_negative_and_sum_to_durations():
    lib, ops = run.set_up("fixtures", 5)
    tracer = Tracer()
    tracer.install(lib)
    try:
        for op in ops:
            tracer.run_op(op.run)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    children = [0] * len(tracer)
    subtree_self = list(own)
    for i in reversed(range(len(tracer))):  # children always follow their parent
        p = tracer.parent[i]
        if p >= 0:
            children[p] += tracer.end[i] - tracer.start[i]
            subtree_self[p] += subtree_self[i]
    for i in range(len(tracer)):
        duration = tracer.end[i] - tracer.start[i]
        assert own[i] >= 0
        assert own[i] + children[i] == duration
        assert subtree_self[i] == duration
    assert tracer.ops == len(ops)
    metrics = tracer.summary()
    assert metrics["combinator.attempts"][0] > metrics["combinator.hits"][0] > 0
    assert 0 < metrics["derivation.cky_parse.self_share"][0] < 1
