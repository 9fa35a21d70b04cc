"""Cross-cutting audits over every bundled derivation fixture."""

import re

import pytest

from ccgamr.category import arity
from ccgamr.combinator import CombinationError, ConjPartial, Identity, is_graph
from ccgamr.derivation import Binary, Leaf, ParserConfig, Unary, cky_parse, parse_script, replay
from ccgamr.fixtures import script
from ccgamr.graph import iso_equal, validate

from support import FIXTURE_PARSES, forced_variant

ALL_FIXTURES = [
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

_APP = re.compile(r"^([><])(R?)$")
_COMP = re.compile(r"^([><])(R?)B(2?)(x?)$")


def _walk(node, path=()):
    yield path, node
    if isinstance(node, Unary):
        yield from _walk(node.child, path + (0,))
    elif isinstance(node, Binary):
        yield from _walk(node.left, path + (0,))
        yield from _walk(node.right, path + (1,))


@pytest.fixture(scope="module", params=ALL_FIXTURES)
def derivation(request, lexicon):
    tree = parse_script(script(request.param).read_text())
    d = replay(tree, lexicon)
    by_path = {s.path: s for s in d.steps}
    return tree, d, by_path


def test_spans_partition_at_every_step(derivation):
    tree, d, by_path = derivation
    for path, node in _walk(tree):
        c = by_path[path].constituent
        if isinstance(node, Leaf):
            assert (c.start, c.end) == (node.token_index, node.token_index + 1)
        elif isinstance(node, Unary):
            child = by_path[path + (0,)].constituent
            assert (c.start, c.end) == (child.start, child.end)
        else:
            left = by_path[path + (0,)].constituent
            right = by_path[path + (1,)].constituent
            assert left.end == right.start
            assert (c.start, c.end) == (left.start, right.end)


def test_application_steps_drop_exactly_one_argument(derivation):
    tree, d, by_path = derivation
    for path, node in _walk(tree):
        if not isinstance(node, Binary) or not _APP.match(node.name):
            continue
        direction = by_path[path + (0,)] if node.name.startswith(">") else by_path[path + (1,)]
        assert arity(by_path[path].constituent.category) == arity(direction.constituent.category) - 1


def test_forcing_the_other_variant_fails_or_diverges(derivation):
    """Selection law: the unselected variant either fails outright or
    produces a graph that is not the recorded (figure-matching) one."""
    tree, d, by_path = derivation
    for path, node in _walk(tree):
        if not isinstance(node, Binary):
            continue
        app = _APP.match(node.name)
        comp = _COMP.match(node.name)
        if not app and not comp:
            continue  # conjunction has no variant
        left = by_path[path + (0,)].constituent
        right = by_path[path + (1,)].constituent
        if isinstance(left.semantics, (Identity, ConjPartial)) or isinstance(
            right.semantics, (Identity, ConjPartial)
        ):
            continue
        m = app or comp
        forward = m.group(1) == ">"
        f, a = (left, right) if forward else (right, left)
        other = "regular" if m.group(2) == "R" else "relation"
        order = 0 if app else 2 if comp.group(3) else 1
        recorded = by_path[path].constituent.semantics
        try:
            flipped = forced_variant("forward" if forward else "backward", order, f, a, other)
        except CombinationError:
            continue  # failing outright satisfies the law
        assert not iso_equal(flipped, recorded), (
            f"{node.name} at {path}: forced {other} variant reproduced the figure graph"
        )


def test_replay_semantics_match_recorded_steps(derivation):
    tree, d, by_path = derivation
    final = by_path[()].constituent
    assert final == d.final


def _invalid_step_graphs(d) -> list:
    """(path, problems) of each step whose graph :func:`validate` rejects."""
    graphs = [(s.path, s.constituent.semantics) for s in d.steps if is_graph(s.constituent.semantics)]
    return [(path, validate(g)) for path, g in graphs if validate(g)]


def test_every_replayed_step_graph_is_valid(derivation):
    tree, d, by_path = derivation
    assert _invalid_step_graphs(d) == []


def test_every_cky_step_graph_is_valid(lexicon):
    """A builder that broke a graph invariant, the node numbering included,
    would otherwise only make ``finalize_check`` drop a result silently."""
    results = 0
    for sentence, goal, raising in FIXTURE_PARSES:
        for d in cky_parse(sentence.split(), lexicon, ParserConfig(goal=goal, type_raising=raising)):
            assert _invalid_step_graphs(d) == [], sentence
            results += 1
    assert results >= len(FIXTURE_PARSES)
