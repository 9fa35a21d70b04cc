"""Outside-in tracing for the benchmark's traced run.

The tracer wraps the public entry point of each layer under the name its
caller looks it up by (``ccgamr.derivation.combine_composition`` is the
combinator as the chart sees it), records one span per call, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing in ``src/`` changes:
untraced runs call the original functions.

Spans are held in memory as parallel arrays (name, parent, operation id,
start and end in nanoseconds, outcome flag) and written out at the end.  A
span's self time is its duration minus the durations of the spans it
directly contains.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter_ns

RAISED = 1  # the call raised
MARKED = 2  # a combinator picked its relation-wise variant; iso_equal said True


def _relation_wise(result) -> bool:
    rule = getattr(result, "rule", "")
    return rule[1:2] == "R"


def _true(result) -> bool:
    return result is True


# (owner inside ccgamr, attribute, span name, outcome mark).  The owner is
# the module whose namespace the caller reads the name from.
ENTRY_POINTS = (
    ("derivation", "cky_parse", "derivation.cky_parse", None),
    ("derivation", "replay", "derivation.replay", None),
    ("cli", "replay", "derivation.replay", None),
    ("cli", "parse_script", "derivation.parse_script", None),
    ("derivation", "combine_application", "combinator.combine_application", _relation_wise),
    ("derivation", "combine_composition", "combinator.combine_composition", _relation_wise),
    ("derivation", "conj_attach", "combinator.conj_attach", _relation_wise),
    ("derivation", "coordinate", "combinator.coordinate", _relation_wise),
    ("derivation", "type_raise", "combinator.type_raise", _relation_wise),
    ("combinator", "relation_wise_combine", "combinator.relation_wise_combine", None),
    ("combinator", "unify", "category.unify", None),
    ("derivation", "unify", "category.unify", None),
    ("combinator", "format_category", "category.format_category", None),
    ("cli", "format_category", "category.format_category", None),
    ("combinator", "check_iso_principle", "category.check_iso_principle", None),
    ("lexicon", "check_iso_principle", "category.check_iso_principle", None),
    ("lexicon", "parse_category", "category.parse_category", None),
    ("derivation", "parse_category", "category.parse_category", None),
    ("derivation", "iso_equal", "graph.iso_equal", _true),
    ("cli", "iso_equal", "graph.iso_equal", _true),
    ("graph", "iso_map", "graph.iso_map", None),
    ("combinator", "substitute", "graph.substitute", None),
    ("graph.Workspace", "freeze", "graph.freeze", None),
    ("lexicon", "validate", "graph.validate", None),
    ("derivation", "validate", "graph.validate", None),
    ("penman", "validate", "graph.validate", None),
    ("penman", "parse", "penman.parse", None),
    ("penman", "serialize", "penman.serialize", None),
    ("cli", "load_lexicon", "lexicon.load", None),
    ("cli", "main", "cli.main", None),
)

# Combinator calls whose parent is the chart are search attempts.
SEARCH = frozenset({
    "combinator.combine_application", "combinator.combine_composition",
    "combinator.conj_attach", "combinator.coordinate", "combinator.type_raise",
})
CHART = "derivation.cky_parse"


def _owner(lib, path: str):
    module, _, attr = path.partition(".")
    owner = getattr(lib, module)
    return getattr(owner, attr) if attr else owner


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = ["op"]
        self._ids = {"op": 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.ops = 0
        self.missing: list[str] = []  # entry points this version of ccgamr lacks
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self._op_span = self._wrap(lambda fn: fn(), 0, None)

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._ids[span]

    def _wrap(self, fn, name_id: int, mark):
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, flags = self.start, self.end, self.flag
        stack = self._stack
        tracer = self
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.ops)
            starts.append(0)
            ends.append(0)
            flags.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                starts[idx] = t0
                flags[idx] = RAISED
                stack.pop()
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if mark is not None and mark(result):
                flags[idx] = MARKED
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, lib) -> None:
        """Wrap every entry point; ``lib`` has one attribute per ccgamr module."""
        self.missing = []
        for path, attr, span, mark in ENTRY_POINTS:
            owner = _owner(lib, path)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._name_id(span), mark))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def run_op(self, fn):
        """Call ``fn`` as one operation: a root span that the rest nest in."""
        try:
            return self._op_span(fn)
        finally:
            self.ops += 1

    def self_times(self) -> list[int]:
        child = [0] * len(self.name)
        start, end = self.start, self.end
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(len(child))]

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit): ``.share`` is self time over
        operation time, ``.calls`` is calls per operation."""
        n = len(self.span_names)
        calls = [0] * n
        self_ns = [0] * n
        total_ns = [0] * n
        search = [0, 0, 0, 0]  # attempts, hits, relation-wise picks, total ns
        dedup = [0, 0, 0]  # iso_equal calls from the chart, merges, total ns
        search_ids = {self._ids[s] for s in SEARCH if s in self._ids}
        chart = self._ids.get(CHART, -1)
        iso = self._ids.get("graph.iso_equal", -1)
        names, parents, flags = self.name, self.parent, self.flag
        for i, own in enumerate(self.self_times()):
            x = names[i]
            dur = self.end[i] - self.start[i]
            calls[x] += 1
            self_ns[x] += own
            total_ns[x] += dur
            p = parents[i]
            if p < 0 or names[p] != chart:
                continue
            if x in search_ids:
                search[0] += 1
                search[1] += flags[i] != RAISED
                search[2] += flags[i] == MARKED
                search[3] += dur
            elif x == iso:
                dedup[0] += 1
                dedup[1] += flags[i] == MARKED
                dedup[2] += dur

        ops = max(self.ops, 1)
        op_ns = max(total_ns[0], 1)

        def ids(prefix):
            return [i for i, s in enumerate(self.span_names) if s.startswith(prefix)]

        def share(prefix):
            return sum(self_ns[i] for i in ids(prefix)) / op_ns, "ratio"

        def per_op(span):
            return sum(calls[i] for i in ids(span)) / ops, "1/op"

        def ratio(a, b):
            return (a / b if b else 0.0), "ratio"

        replay = self._ids.get("derivation.replay")
        return {
            "derivation.cky_parse.self_share": share("derivation.cky_parse"),
            "derivation.replay.calls": per_op("derivation.replay"),
            "derivation.replay.share": share("derivation.replay"),
            "derivation.replay.total_share": ratio(total_ns[replay] if replay else 0, op_ns),
            "derivation.parse_script.share": share("derivation.parse_script"),
            "combinator.attempts": (search[0] / ops, "1/op"),
            "combinator.hits": (search[1] / ops, "1/op"),
            "combinator.hit_ratio": ratio(search[1], search[0]),
            "combinator.share": share("combinator."),
            "combinator.search.total_share": ratio(search[3], op_ns),
            "combinator.type_raise.calls": per_op("combinator.type_raise"),
            "combinator.relation_wise.picks": (search[2] / ops, "1/op"),
            "combinator.relation_wise.ratio": ratio(search[2], search[1]),
            "combinator.relation_wise_combine.share": share("combinator.relation_wise_combine"),
            "category.format_category.calls": per_op("category.format_category"),
            "category.unify.calls": per_op("category.unify"),
            "category.share": share("category."),
            "category.parse_category.share": share("category.parse_category"),
            "graph.iso_equal.calls": per_op("graph.iso_equal"),
            "graph.dedup.merge_ratio": ratio(dedup[1], dedup[0]),
            "graph.dedup.total_share": ratio(dedup[2], op_ns),
            "graph.iso_map.share": share("graph.iso_map"),
            "graph.substitute.calls": per_op("graph.substitute"),
            "graph.substitute.share": share("graph.substitute"),
            "graph.freeze.calls": per_op("graph.freeze"),
            "graph.freeze.share": share("graph.freeze"),
            "graph.validate.calls": per_op("graph.validate"),
            "graph.validate.share": share("graph.validate"),
            "penman.parse.calls": per_op("penman.parse"),
            "penman.parse.share": share("penman.parse"),
            "penman.serialize.share": share("penman.serialize"),
            "lexicon.load.share": share("lexicon.load"),
            "cli.main.self_share": share("cli.main"),
            "trace.spans": (len(self) / ops, "1/op"),
        }

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op\tspan\tname\tparent\tstart_ns\tend_ns\tflag\n")
            names = self.span_names
            for i in range(len(self)):
                out.write(f"{self.op[i]}\t{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                          f"{self.start[i]}\t{self.end[i]}\t{self.flag[i]}\n")
