"""ccgamr benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout, in this process, with no extra threads.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs each operation once
untraced and once with every layer's entry points wrapped, and reports the
per-layer split and the tracing overhead.  Every output is checked.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a JSON record of the run goes to
``bench/out/`` and, for traced runs, the spans too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import workloads
from hostspeed import REFERENCE_S, Scaler
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

LIBRARY_MODULES = ("graph", "penman", "category", "combinator", "lexicon", "derivation", "cli", "fixtures")
SETUP_REPEATS = 11  # set-up is short, so report the median of several
MIN_SAMPLES = 100  # p90 then has at least 10 samples beyond it
SPAN_LIMIT = 1_000_000  # a traced run stops after the pass that crosses this


def set_up(workload: str, seed: int):
    """Import ccgamr afresh, load paper.lex and build the operation list."""
    for name in [m for m in sys.modules if m == "ccgamr" or m.startswith("ccgamr.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{m: importlib.import_module(f"ccgamr.{m}") for m in LIBRARY_MODULES}
    )
    lexicon = lib.lexicon.load(lib.fixtures.LEXICON_PATH)
    ops = workloads.WORKLOADS[workload](lib, lexicon, random.Random(seed))
    return lib, ops


def execute(op, call=None):
    """Time one operation, then check its output (untimed).

    Returns (seconds, problem); problem is None when the output is right.
    """
    t0 = time.perf_counter()
    try:
        out = call(op.run) if call else op.run()
    except Exception:  # an unexpected raise counts as a failed operation
        return time.perf_counter() - t0, "raised " + traceback.format_exc()
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(out)
    except Exception as err:
        return elapsed, f"check raised {type(err).__name__}: {err}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, op, problem) -> None:
        self.attempted += 1
        if problem is not None:
            if len(self.failures) < 20:
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
            self.failures.append(f"{op.label}: {problem}")


def timed_run(ops, seconds: float, tally: Tally) -> Scaler:
    """Whole passes over the list until ``seconds`` have gone by."""
    latencies = Scaler()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or tally.attempted < MIN_SAMPLES:
        for op in ops:
            elapsed, problem = execute(op)
            latencies.add(elapsed)
            tally.add(op, problem)
    latencies.flush()
    return latencies


def peak_alloc(ops) -> int:
    """tracemalloc peak, in bytes, over one untimed pass of the list.

    Garbage is collected before each operation, so the peak is that of the
    largest operation and not of cycles an earlier one left behind.
    """
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        return peak
    finally:
        tracemalloc.stop()


def traced_run(lib, ops, seconds: float, tally: Tally):
    """Each operation untraced and then traced, in whole passes."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started < seconds and len(tracer) < SPAN_LIMIT):
        for op in ops:
            elapsed, problem = execute(op)
            untraced.append(elapsed)
            tally.add(op, problem)
            tracer.install(lib)
            try:
                elapsed, problem = execute(op, tracer.run_op)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            tally.add(op, problem)
    return tracer, untraced, traced


def input_properties(seed: int, ops) -> dict:
    n = len(ops)
    tokens = sorted(op.tokens for op in ops)
    return {
        "seed": seed,
        "ops_per_list": n,
        "tokens": {"min": tokens[0], "median": statistics.median(tokens), "max": tokens[-1],
                   "histogram": dict(sorted(Counter(tokens).items()))},
        "k_histogram": dict(sorted(Counter(op.k for op in ops if op.k is not None).items())),
        "commands": dict(Counter(op.command for op in ops)),
        "raising_share": sum(op.raising for op in ops) / n,
        "no_parse_share": sum(op.no_parse for op in ops) / n,
        "mismatch_share": sum(op.mismatch for op in ops) / n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ccgamr" / "__init__.py").is_file():
        print(f"error: no ccgamr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = Scaler()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, ops = set_up(args.workload, args.seed)
        setup_times.add(time.perf_counter() - t0)
        setup_times.flush()
    imported = Path(lib.derivation.__file__).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"error: imported ccgamr from {imported}, not from {SRC}", file=sys.stderr)
        return 2

    inputs = input_properties(args.seed, ops)
    tally = Tally()
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": inputs,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    if args.trace:
        tracer, untraced, traced = traced_run(lib, ops, args.seconds, tally)
        metrics = per_layer(tracer, untraced, traced)
        record["missing_entry_points"] = tracer.missing
        record["traced_ops"] = len(traced)
    else:
        latencies = timed_run(ops, args.seconds, tally)
        metrics = end_to_end(latencies.scaled, setup_times.scaled)
        metrics["peak_alloc_mb"] = (peak_alloc(ops) / 1e6, "MB")
        raw = end_to_end(latencies.raw, setup_times.raw)
        record["raw_wall_time_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        record["calibration_loop_s"] = {
            "reference": REFERENCE_S,
            "median": statistics.median(latencies.loop_times),
            "min": min(latencies.loop_times),
            "max": max(latencies.loop_times),
        }
        record["samples"] = len(latencies.scaled)
        record["beyond_p90"] = sum(x * 1000 > metrics["latency_p90_ms"][0] for x in latencies.scaled)
        record["setup_runs_s"] = setup_times.scaled
    failed = len(tally.failures)
    error_rate = failed / tally.attempted
    record.update(attempted=tally.attempted, failed=failed, error_rate=error_rate,
                  failures=tally.failures[:20],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  cpus {record['cpus']}")
    print("inputs " + json.dumps(inputs))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'samples':40s} {record['samples']:14d} ops ({record['beyond_p90']} beyond p90)")
        for name, (value, unit) in raw.items():
            print(f"{'raw ' + name:40s} {value:14.6g} {unit} (unscaled wall time)")
    print(f"{'error_rate':40s} {error_rate:14.6g} ratio ({failed} of {tally.attempted})")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv.gz")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(op_seconds: list[float], setup_seconds: list[float]) -> dict:
    ms = [x * 1000 for x in op_seconds]
    return {
        "ops_per_s": (len(ms) / sum(op_seconds), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def per_layer(tracer: Tracer, untraced: list[float], traced: list[float]) -> dict:
    """Every per-layer metric, plus the tracing overhead."""
    metrics = tracer.summary()
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
