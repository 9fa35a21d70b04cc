"""Command-line surface: parse sentences, replay scripts, validate lexicons,
render graphs and derivations, compare graphs.

Exit statuses form a stable contract: 0 success or gold match, 1 usage or
I/O error, 2 no derivation, 3 gold mismatch, 4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from dataclasses import replace

from . import penman
from .category import format_category
from .derivation import (
    ChartOverflowError,
    Derivation,
    ParserConfig,
    ReplayError,
    ScriptError,
    UnknownTokenError,
    cky_parse,
    describe_semantics,
    looks_like_script,
    parse_script,
    read_int,
    replay,
)
from .graph import AmrSubgraph, iso_equal, UNDERSPECIFIED
from .lexicon import Lexicon, LexiconError, load as load_lexicon

OK = 0
USAGE = 1
NO_DERIVATION = 2
MISMATCH = 3
INVALID = 4

MAX_CELL_ENV = "CCGAMR_MAX_CELL"


class _Exit(Exception):
    """``_Exit(code, *lines)`` ends a command: ``main`` prints the lines to
    stderr and returns the exit status ``code``."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:  # not Path, as in lexicon.load
            return f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Exit(USAGE, f"error: cannot read {path}: {err}")


def _graph(text: str, prefix: str) -> AmrSubgraph:
    try:
        return penman.parse(text)
    except penman.PenmanError as err:
        raise _Exit(USAGE, f"{prefix}{err}")


def _load_lexicon(path: str) -> Lexicon:
    """The lexicon at ``path``; ``LexiconError`` is left to the caller."""
    try:
        return load_lexicon(path)
    except (OSError, UnicodeDecodeError) as err:
        raise _Exit(USAGE, f"error: cannot read lexicon {path}: {err}")


def _valid_lexicon(path: str) -> Lexicon:
    try:
        return _load_lexicon(path)
    except LexiconError as err:
        raise _Exit(INVALID, f"lexicon {path} failed validation:", *(f"  {p}" for p in err.problems))


def _build_config(path: str | None, goal: str | None) -> ParserConfig:
    text = "" if path is None else _read(path)
    limit = os.environ.get(MAX_CELL_ENV)
    try:
        cells = read_int(MAX_CELL_ENV, limit.strip()) if limit else None
        config = ParserConfig.from_text(text, path or "<default>")
        if cells is not None:
            try:
                config = replace(config, max_cell_items=cells)
            except ValueError as err:  # only the cell bound can fail here, and the variable set it
                raise ValueError(f"{err}, found {limit.strip()!r}".replace("max_cell_items", MAX_CELL_ENV))
        return config if goal is None else replace(config, goal=goal)
    except ValueError as err:
        raise _Exit(USAGE, f"error: {err}")


def _gold(path: str | None) -> AmrSubgraph | None:  # read before any work that prints
    return _graph(_read(path), "error: bad gold graph: ") if path else None


def _gold_verdict(gold: AmrSubgraph | None, graphs, mismatch_text: str) -> int:
    """OK without a gold graph, else print whether any of ``graphs`` matches it."""
    if gold is None:
        return OK
    if any(isinstance(g, AmrSubgraph) and iso_equal(g, gold) for g in graphs):
        print("gold: match")
        return OK
    print(f"gold: {mismatch_text}")
    return MISMATCH


def _print_derivation(d: Derivation, show_script: bool) -> None:
    print(describe_semantics(d.final.semantics))
    if show_script:
        print(f"  category: {format_category(d.final.category)}")
        print(f"  script:   {d.to_script()}")
        print(f"  forest:   {d.forest_count} derivation(s) in this class")


def cmd_parse(args: argparse.Namespace) -> int:
    lex = _valid_lexicon(args.lexicon)
    config = _build_config(args.config, args.goal)
    tokens = args.sentence.split()
    if not tokens:
        raise _Exit(USAGE, "error: empty sentence")
    gold = _gold(args.gold)
    try:
        results = cky_parse(tokens, lex, config)
    except UnknownTokenError as err:
        raise _Exit(NO_DERIVATION, f"no derivation: {err}")
    except ChartOverflowError as err:
        raise _Exit(NO_DERIVATION, f"no derivation: {err} (raise {MAX_CELL_ENV} or max_cell_items)")
    if not results:
        raise _Exit(NO_DERIVATION, f"no derivation over goal category {config.goal!r}")
    for d in results:
        _print_derivation(d, args.all)
    return _gold_verdict(gold, (d.final.semantics for d in results), "no derivation matches")


def _print_trace(d: Derivation) -> None:
    for step in d.steps:
        c = step.constituent
        span = f"({c.start},{c.end})"
        print(f"{step.rule:12s} {span:8s} {format_category(c.category):28s} {describe_semantics(c.semantics)}")
        for note in step.notes:
            print(f"{'':12s} note: {note}")


def cmd_replay(args: argparse.Namespace) -> int:
    lex = _valid_lexicon(args.lexicon)
    text = _read(args.derivation)
    try:
        script = parse_script(text)
    except ScriptError as err:
        raise _Exit(USAGE, f"error: bad derivation script: {err}")
    gold = _gold(args.gold)
    try:
        d = replay(script, lex)
    except ReplayError as err:
        raise _Exit(INVALID, f"replay failed: {err}")
    if args.trace:
        _print_trace(d)
    print(describe_semantics(d.final.semantics))
    return _gold_verdict(gold, [d.final.semantics], "mismatch")


def cmd_check(args: argparse.Namespace) -> int:
    try:
        lex = _load_lexicon(args.lexicon)
    except LexiconError as err:
        for problem in err.problems:
            print(problem)
        print(f"{len(err.problems)} violation(s)")
        return INVALID
    print(f"ok: {len(lex.entries)} entries, {len(lex.tokens())} distinct tokens")
    return OK


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(g: AmrSubgraph) -> str:
    lines = ["digraph amr {", "  rankdir=TB;"]
    for node in g.nodes:
        shape = "box" if node.is_free else "ellipse"
        extra = " peripheries=2" if node.id == g.root else ""
        lines.append(f'  n{node.id} [label="{_dot_escape(_shown(g, node.id))}" shape={shape}{extra}];')
    for e in g.edges:
        label = "?" if e.label == UNDERSPECIFIED else e.label.lstrip(":")
        lines.append(f'  n{e.source} -> n{e.target} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_render(args: argparse.Namespace) -> int:
    text = _read(args.input)
    if not looks_like_script(text):
        graph = _graph(text, "error: ")
    elif not args.lexicon:
        raise _Exit(USAGE, "error: rendering a derivation needs --lexicon")
    else:
        lex = _valid_lexicon(args.lexicon)
        try:
            graph = replay(parse_script(text), lex).final.semantics
        except (ScriptError, ReplayError) as err:
            raise _Exit(USAGE, f"error: {err}")
        if not isinstance(graph, AmrSubgraph):
            raise _Exit(USAGE, "error: derivation has no graph semantics to render")
    print(render_dot(graph) if args.format == "dot" else penman.serialize(graph, indent=2))
    return OK


def _shown(g: AmrSubgraph, node_id: int) -> str:
    return g.concept(node_id) or f"?{g.fv_index(node_id)}"


def _edge_signatures(g: AmrSubgraph) -> Counter[str]:
    return Counter(f"{_shown(g, e.source)} {e.label} {_shown(g, e.target)}" for e in g.edges)


def compare_witness(g1: AmrSubgraph, g2: AmrSubgraph) -> str:
    """Smallest observable difference between two non-isomorphic graphs."""
    c1 = Counter(n.concept or "?" for n in g1.nodes)
    c2 = Counter(n.concept or "?" for n in g2.nodes)
    if c1 != c2:
        concept = min(k for k in (c1.keys() | c2.keys()) if c1[k] != c2[k])
        a, b = c1[concept], c2[concept]
        hint = " (one side reuses a reentrant node)" if {a, b} >= {1, 2} else ""
        return f"node {concept!r} appears {a} vs {b} times{hint}"
    e1, e2 = _edge_signatures(g1), _edge_signatures(g2)
    if e1 != e2:  # compared as multisets: a signature may repeat
        witness = min(k for k in (e1.keys() | e2.keys()) if e1[k] != e2[k])
        a, b = e1[witness], e2[witness]
        if a and b:
            return f"edge [{witness}] appears {a} vs {b} times"
        return f"edge [{witness}] appears only in the {'first' if a else 'second'} graph"
    # same concepts (so the same fv counts) and edge signatures
    concepts = sorted({n.concept for n in g1.nodes if n.concept is not None})
    for concept in concepts:
        mine = sorted(len(g1.incoming(n.id)) for n in g1.nodes if n.concept == concept)
        theirs = sorted(len(g2.incoming(n.id)) for n in g2.nodes if n.concept == concept)
        if mine != theirs:
            return (
                f"reentrancy differs at the {concept!r} node: "
                f"incoming-edge counts {mine} vs {theirs}"
            )
    r1, r2 = _shown(g1, g1.root), _shown(g2, g2.root)
    if r1 != r2:
        return f"roots differ: {r1!r} vs {r2!r}"
    return "same concepts, edges and incoming-edge counts, but the edges join different nodes"


def cmd_compare(args: argparse.Namespace) -> int:
    g1, g2 = (_graph(_read(path), f"error: {path}: ") for path in (args.first, args.second))
    if iso_equal(g1, g2):
        print("isomorphic")
        return OK
    print("not isomorphic: " + compare_witness(g1, g2))
    return MISMATCH


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser keeps no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="ccgamr",
        description="Derive AMR graphs compositionally with CCG combinators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="CKY-parse a sentence")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--gold", help="gold graph file to compare against")
    p.add_argument("--config", help="parser configuration file")
    p.add_argument("--goal", help="goal category base (default S)")
    p.add_argument("--all", action="store_true", help="print scripts and forest counts")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("replay", help="replay a derivation script")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--derivation", required=True)
    p.add_argument("--gold")
    p.add_argument("--trace", action="store_true", help="print every intermediate constituent")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("check", help="validate a lexicon file")
    p.add_argument("--lexicon", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("render", help="render a graph or derivation")
    p.add_argument("--input", required=True, help="graph or derivation script file")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--lexicon", help="needed when the input is a derivation script")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="compare two graph files up to isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Exit as stop:
        code, *lines = stop.args
        for line in lines:
            print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
