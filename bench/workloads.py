"""Benchmark workloads: seeded inputs, their expected outputs, and checks.

Each generator takes the freshly imported library (``lib``, one attribute per
``ccgamr`` module), the loaded lexicon and a seeded ``random.Random``, and
returns the operation list that one pass of a run executes.  Expected values
come from the hand-written gold files, from graphs the generators build
themselves, from closed forms and from counts pinned below; none comes from
``cky_parse``.  The counts pinned in ``FIXTURES`` are cross-checked against
the brute-force oracle in ``tests/support.py`` by ``bench/test_bench.py``.

Operation lists are stratified: every list holds a fixed mix of input sizes
and the seed draws the order and, where a workload has them, the words and
the files.  So the runs of two
seeds do the same amount of work, and the latency quantiles fall inside one
stratum instead of between two.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Callable

from check import canon, from_amr, from_dot, isomorphic, tree_of


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the output is right
    command: str = "cky_parse"
    tokens: int = 0
    k: int | None = None
    raising: bool = False
    no_parse: bool = False  # the expected result is "no derivation"
    mismatch: bool = False  # the expected result includes a gold mismatch


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Parse operations

@dataclass(frozen=True)
class ParseExpect:
    forests: tuple  # sorted forest count of each iso-class
    gold: object = None  # Graph one class must match
    conventional: object = None  # Graph no class may match
    trees: tuple | None = None  # sorted canonical strings of all classes


def check_parse(expect: ParseExpect, results) -> str | None:
    forests = tuple(sorted(d.forest_count for d in results))
    if forests != expect.forests:
        return f"forest counts {forests}, expected {expect.forests}"
    graphs = [from_amr(d.final.semantics) for d in results]
    if expect.gold is not None and not any(isomorphic(g, expect.gold) for g in graphs):
        return "no iso-class matches the gold graph"
    if expect.conventional is not None and any(isomorphic(g, expect.conventional) for g in graphs):
        return "an iso-class matches the conventional annotation"
    if expect.trees is not None:
        got = []
        for g in graphs:
            tree = tree_of(g)
            got.append("<not a tree>" if tree is None else canon(tree))
        if sorted(got) != list(expect.trees):
            return "iso-classes differ from the generated gold graphs"
    return None


def _parse_op(lib, lexicon, label, tokens, config, expect, **props) -> Op:
    derivation = lib.derivation  # the attribute is looked up per call, so tracing sees it

    def run():
        return derivation.cky_parse(tokens, lexicon, config)

    return Op(label, run, lambda out: check_parse(expect, out), tokens=len(tokens), **props)


def _config(lib, goal="S", raising=False):
    d = lib.derivation
    return d.ParserConfig(goal=goal, type_raising=d.NP_TO_S if raising else ())


def _gold(lib, name):
    return from_amr(lib.penman.parse(lib.fixtures.gold(name).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# fixtures: the paper's own constructions

# name, sentence, goal, NP_TO_S raising, gold file, conventional-annotation
# file (documented divergences only), pinned forest count of each iso-class.
FIXTURES = (
    ("like_cat", "John likes the cat", "S", False, "like_cat", None, (2, 2)),
    ("coordination", "John likes and Mary hates cats", "S", True, "coordination", None, (4, 4, 4, 4)),
    ("passive", "John was eaten by bears", "S", False, "passive", None, (2, 2)),
    ("wh_control", "What did you decide to eat yesterday", "S", False, "wh_control", None, (2, 7)),
    ("math_teachers", "math teachers", "NP", False, "math_teachers", None, (1,)),
    ("teach_relative", "people who teach math", "NP", False, "math_teachers", None, (2,)),
    ("light_verb", "John made a decision on his major", "S", False, "light_verb", None, (14, 14)),
    ("raising", "Mary seems to practice guitar often", "S", False, "raising", None, (4, 4, 5, 5)),
    ("subject_control", "Mary wants to practice guitar", "S", False, "subject_control", None, (5, 5)),
    ("object_control", "Mary persuaded John to practice guitar", "S", False, "object_control", None,
     (5, 5, 5, 5)),
    ("object_control_wh", "Who did you persuade to smile", "S", False, "object_control_wh", None, (2,)),
    ("to_purpose", "Mary bought a ticket to see the movie", "S", False, "to_purpose", None, (10, 10)),
    ("modal_preposed", "Tomorrow John may eat rice", "S", False, "modal_preposed",
     "modal_preposed_correct", (2, 2, 2, 2)),
    ("coordinated_purpose", "John arrived to eat and to party", "S", False, "coordinated_purpose",
     "coordinated_purpose_correct", (1, 1, 1, 1, 2, 2)),
    ("right_node_raising", "I should and you may eat", "S", True, "right_node_raising",
     "right_node_raising_correct", (4,)),
    # the two coordination fixtures need raising: without it nothing parses
    ("coordination_no_raise", "John likes and Mary hates cats", "S", False, None, None, ()),
    ("right_node_raising_no_raise", "I should and you may eat", "S", False, None, None, ()),
)

#: The fifteen fixtures that ship a derivation script, with their gold file.
SCRIPTED = tuple((f[0], f[4]) for f in FIXTURES if f[4] is not None)
DIVERGENCES = tuple(f[4] for f in FIXTURES if f[5] is not None)


def fixtures(lib, lexicon, rng) -> list[Op]:
    ops = []
    for name, sentence, goal, raising, gold, conventional, forests in FIXTURES:
        expect = ParseExpect(
            forests,
            gold=_gold(lib, gold) if gold else None,
            conventional=_gold(lib, conventional) if conventional else None,
        )
        ops.append(_parse_op(
            lib, lexicon, name, sentence.split(), _config(lib, goal, raising), expect,
            raising=raising, no_parse=not forests, mismatch=conventional is not None,
        ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Gold trees for the chains, built here rather than parsed

def person(name: str, variant: int):
    """The two lexicon readings of a name: a name node, or a bare constant."""
    if variant == 0:
        return ("person", ((":name", ("name", ((":op1", (f'"{name}"', ())),))),))
    return ("person", ((":name", (name, ())),))


def clause(verb: str, name: str, variant: int, extra=()):
    return (verb, ((":ARG0", person(name, variant)), (":ARG1", ("cat", ()))) + tuple(extra))


def bracketings(items):
    """Every binary "and" tree over the items, in order."""
    if len(items) == 1:
        yield items[0]
        return
    for split in range(1, len(items)):
        for left in bracketings(items[:split]):
            for right in bracketings(items[split:]):
                yield ("and", ((":op1", left), (":op2", right)))


# ---------------------------------------------------------------------------
# adjunct_chain: spurious ambiguity over small cells

# sentence, verb concept, subject, h (forest factor of the bare sentence)
ADJUNCT_BASES = (
    ("John likes the cat", "like-01", "John", 2),
    ("Mary hates cats", "hate-01", "Mary", 1),
)
ADJUNCTS = {"yesterday": (":time", ("yesterday", ())), "often": (":frequency", ("often", ()))}
# Operations per list for each k, each on a seeded choice of sentence.  With
# this mix the median lands inside the k=10 stratum and p90 inside k=14.
ADJUNCT_MIX = {6: 3, 7: 3, 8: 3, 9: 3, 10: 4, 11: 3, 12: 3, 13: 3, 14: 4}


def adjunct_expect(base_index: int, words: list[str]) -> ParseExpect:
    """Two iso-classes (one per name reading), each with h * Catalan(k) derivations."""
    _, verb, name, h = ADJUNCT_BASES[base_index]
    extra = [ADJUNCTS[w] for w in words]
    trees = tuple(sorted(canon(clause(verb, name, v, extra)) for v in (0, 1)))
    per_class = h * catalan(len(words))
    return ParseExpect((per_class, per_class), trees=trees)


def adjunct_tokens(base_index: int, words: list[str]) -> list[str]:
    return ADJUNCT_BASES[base_index][0].split() + list(words)


def adjunct_chain(lib, lexicon, rng) -> list[Op]:
    ops = []
    config = _config(lib)
    for k, count in ADJUNCT_MIX.items():
        for _ in range(count):
            b = rng.randrange(len(ADJUNCT_BASES))
            words = [rng.choice(sorted(ADJUNCTS)) for _ in range(k)]
            ops.append(_parse_op(
                lib, lexicon, f"adjunct b{b} k{k}", adjunct_tokens(b, words), config,
                adjunct_expect(b, words), k=k,
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# coordination_chain: wide cells, pairwise dedup and re-replay

CLAUSES = (("John likes cats", "like-01", "John"), ("Mary hates cats", "hate-01", "Mary"))
# Operations per list for each k, once without and once with raising; every
# chain starts with John, so each stratum holds one input and the seed orders
# the list.  With this mix the median lands inside the k=3 no-raising stratum
# and p90 inside the k=4 no-raising one; k=4 ops take about 60% of the time.
COORDINATION_MIX = {2: 4, 3: 10, 4: 2}


def coordination_clauses(first: int, k: int):
    return [CLAUSES[(first + i) % 2] for i in range(k)]


def coordination_expect(clauses, raising: bool) -> ParseExpect:
    """Catalan(k-1) * 2^k iso-classes; each has 5^k derivations with raising, else 1."""
    trees = []
    for variants in product((0, 1), repeat=len(clauses)):
        conjuncts = [clause(verb, name, v) for (_, verb, name), v in zip(clauses, variants)]
        trees.extend(canon(t) for t in bracketings(conjuncts))
    per_class = 5 ** len(clauses) if raising else 1
    return ParseExpect((per_class,) * len(trees), trees=tuple(sorted(trees)))


def coordination_tokens(clauses) -> list[str]:
    return " and ".join(c[0] for c in clauses).split()


def coordination_chain(lib, lexicon, rng) -> list[Op]:
    ops = []
    for k, count in COORDINATION_MIX.items():
        for raising in (False, True):
            config = _config(lib, raising=raising)
            for _ in range(count):
                clauses = coordination_clauses(0, k)
                ops.append(_parse_op(
                    lib, lexicon, f"coordination k{k}{' raise' if raising else ''}",
                    coordination_tokens(clauses), config,
                    coordination_expect(clauses, raising), k=k, raising=raising,
                ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: the command-line tool in-process, stdout captured

# Each list replays and renders every scripted fixture once, compares each
# divergence with its conventional annotation and SELF_COMPARES seeded gold
# files with themselves, and checks the lexicon CHECKS times.  compare skips
# the lexicon load, so it stays a small share and the median falls among the
# calls that load it.
SELF_COMPARES = 3
CHECKS = 6


def _cli_op(lib, label, argv, check, **props) -> Op:
    cli = lib.cli

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(label, run, check, command=argv[0], **props)


def lexicon_summary(text: str) -> str:
    """The line ``ccgamr check`` prints for a valid lexicon, counted here."""
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            tokens.append(line.split("|", 1)[0].strip())
    return f"ok: {len(tokens)} entries, {len(set(tokens))} distinct tokens"


def cli(lib, lexicon, rng) -> list[Op]:
    fx = lib.fixtures
    lex = str(fx.LEXICON_PATH)
    golds = {}

    def gold(name):
        if name not in golds:
            golds[name] = _gold(lib, name)
        return golds[name]

    def replay_op(name, gold_name):
        path = fx.script(name)
        steps = path.read_text(encoding="utf-8").count("(")
        want = gold(gold_name)

        def check(out):
            code, text = out
            lines = text.splitlines()
            if code != 0 or len(lines) < 2 or lines[-1] != "gold: match":
                return f"exit {code}, expected 0 and a gold match"
            shown = [line for line in lines[:-2] if not line.startswith(" ")]
            if len(shown) != steps:
                return f"{len(shown)} trace steps, expected {steps}"
            if not isomorphic(from_amr(lib.penman.parse(lines[-2])), want):
                return "final graph differs from gold"
            return None

        argv = ["replay", "--lexicon", lex, "--derivation", str(path), "--trace",
                "--gold", str(fx.gold(gold_name))]
        return _cli_op(lib, f"replay {name}", argv, check)

    def render_op(name, gold_name):
        want = gold(gold_name)

        def check(out):
            code, text = out
            graph = from_dot(text)
            if code != 0 or graph is None:
                return f"exit {code} or malformed DOT"
            return None if isomorphic(graph, want) else "rendered graph differs from gold"

        argv = ["render", "--input", str(fx.script(name)), "--format", "dot", "--lexicon", lex]
        return _cli_op(lib, f"render {name}", argv, check)

    def compare_op(first, second):
        code = 0 if isomorphic(gold(first), gold(second)) else 3
        prefix = "isomorphic" if code == 0 else "not isomorphic: "

        def check(out):
            got, text = out
            if got != code or not text.startswith(prefix):
                return f"exit {got}, expected {code}"
            return None

        argv = ["compare", str(fx.gold(first)), str(fx.gold(second))]
        return _cli_op(lib, f"compare {first} {second}", argv, check, mismatch=code == 3)

    def check_op():
        want = lexicon_summary(fx.LEXICON_PATH.read_text(encoding="utf-8")) + "\n"

        def check(out):
            code, text = out
            return None if code == 0 and text == want else f"exit {code}, output {text!r}"

        return _cli_op(lib, "check", ["check", "--lexicon", lex], check)

    ops = [replay_op(*f) for f in SCRIPTED] + [render_op(*f) for f in SCRIPTED]
    ops += [compare_op(name, name + "_correct") for name in DIVERGENCES]
    for _ in range(SELF_COMPARES):
        name = rng.choice(SCRIPTED)[1]
        ops.append(compare_op(name, name))
    ops += [check_op() for _ in range(CHECKS)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "fixtures": fixtures,
    "adjunct_chain": adjunct_chain,
    "coordination_chain": coordination_chain,
    "cli": cli,
}
