"""Seeded benchmark for curveglue.

Run from the repository root:

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, untraced and traced
    python3 perfbench/run.py --smoke                       # minimal sizes, every check on

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
runs give the end-to-end metrics and traced runs the per-layer metrics that
BENCHMARK.json declares.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import cli_session
import condition_grid
import operator_algebra
from harness import HERE, REFERENCE_MS, ROOT, SRC, Outcome, Pace, Tracer, hd_quantile, p50

WORKLOADS = {"cli_session": cli_session, "condition_grid": condition_grid,
             "operator_algebra": operator_algebra}
SETUPS = 5

# Failures the seed code is known to produce: (workload, step, error class).
# They count in `failed`; any other failure makes the run incorrect.
KNOWN_DEFECTS = {
    ("cli_session", "malformed.extend", "ZeroDivisionError"):
        "'1/0' in a DSL polynomial escapes as a traceback with exit 1, not exit 2",
    ("operator_algebra", "operators.verify_order", "DegreeCapExceeded"):
        "delta chains of order 3 and 4 exceed the default degree cap of 32",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run whole blocks in a closed loop until `seconds` of blocks have run,
    setting up before each of the first SETUPS blocks.  Only the first
    set-up's state is used; the later ones spread the set-up samples over
    the run.  Returns the set-up times with the index of the pace sample
    before each, the outcome and the tracer."""
    module = WORKLOADS[name]
    tracer = Tracer() if trace else None
    pace = Pace()
    setups = []

    def set_up():
        index = pace.sample()
        start = time.perf_counter()
        state = module.setup(seed, smoke, tracer)
        setups.append((time.perf_counter() - start, index))
        return state

    state = set_up()
    outcome = Outcome(pace)
    measured, block = 0.0, 0
    while True:
        start = time.perf_counter()
        module.run_block(state, block, outcome, tracer)
        measured += time.perf_counter() - start
        block += 1
        if smoke or measured >= seconds:
            break
        if len(setups) < SETUPS:
            set_up()
    pace.sample()  # the pace after the last operation
    return setups, outcome, tracer


def end_to_end(name: str, setups, outcome: Outcome) -> dict:
    latencies = outcome.latencies_ms()
    scale = outcome.pace.scale
    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(s * scale(i) for s, i in setups), "s"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1000), "1/s"),
        "op_p50_ms": (hd_quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (hd_quantile(latencies, 0.9), "ms"),
        "failed_frac": (outcome.failed / outcome.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(name: str, tracer: Tracer, outcome: Outcome) -> dict:
    """Per-layer metrics: p50 of span time, at the run's reference pace,
    unless a count.  None marks a layer that did not run on this workload."""
    scale = outcome.pace.scale()

    def p50_ms(durations):
        return (p50(durations) * scale if durations else None), "ms"

    def span(name):
        return p50_ms(tracer.durations_ms(name))

    counts, peaks = outcome.counts, outcome.peaks

    def hit_frac(which):
        total = counts[f"{which}_hits"] + counts[f"{which}_misses"]
        return (counts[f"{which}_hits"] / total if total else None), "ratio"

    check, probe = span("operators.check")[0], span("operators.probe")[0]
    return {
        "cli.interpreter_ms": span("cli.interpreter"),
        "cli.import_ms": p50_ms(tracer.values["cli.import"]),
        **{f"cli.main_ms.{verb}": span(f"cli.main.{verb}") for verb in cli_session.VERBS},
        "cli.cap_leaks": (counts["cap_leaks"], "count"),
        "dsl.parse_ms": span("dsl.parse"),
        "dsl.render_ms": span("dsl.render"),
        # Row building is what generation spends outside rref.
        "operators.rows_build_ms": p50_ms(tracer.self_ms().get("operators.generate")),
        "operators.rref_ms": span("operators.rref"),
        "operators.generate_ms": span("operators.generate"),
        "symbols.conditions_ms": span("symbols.conditions"),
        "operators.unknowns": (peaks.get("unknowns"), "count"),
        "operators.rank": (peaks.get("rank"), "count"),
        "operators.raw_rows": (peaks.get("raw_rows"), "count"),
        "operators.check_ms": (check, "ms"),
        "operators.probe_ms": (probe, "ms"),
        "operators.probe_check_ratio": ((probe / check if check and probe else None), "ratio"),
        "operators.compose_ms": span("operators.compose"),
        "operators.commutator_ms": span("operators.commutator"),
        "operators.verify_order_ms": span("operators.verify_order"),
        "poly.mul_derive_ms": span("poly.mul_derive"),
        "symbols.make_symbol_ms": span("symbols.make_symbol"),
        "symbols.bracket_ms": span("symbols.bracket"),
        "symbols.bracket_via_commutator_ms": span("symbols.bracket_via_commutator"),
        "glued.pair_apply_ms": span("glued.pair_apply"),
        "spectra.witness_ms": span("spectra.witness"),
        "poly.peak_degree": (peaks.get("peak_degree"), "count"),
        "poly.cap_exceeded": (counts["cap_exceeded"], "count"),
        "operators.generate_cache_hit_frac": hit_frac("generate"),
        "symbols.conditions_cache_hit_frac": hit_frac("symbols"),
        "trace.op_p50_ms": (hd_quantile(outcome.latencies_ms(), 0.5), "ms"),
    }


def unexpected_failures(name: str, outcome: Outcome) -> int:
    return sum(n for (step, cls), n in outcome.failures.items()
               if (name, step, cls) not in KNOWN_DEFECTS)


def report(name, seed, trace, setups, outcome, tracer, metrics) -> None:
    mode = "traced" if trace else "untraced"
    pace = outcome.pace
    print(f"== {name} (seed {seed}, {mode}): {outcome.attempted} operations of "
          f"{len(outcome.latencies)} kinds, {len(setups)} set-ups")
    print(f"  reference: median {statistics.median(pace.samples) * 1000:.2f} ms over "
          f"{len(pace.samples)} samples; times below are at its {REFERENCE_MS} ms pace")
    for metric, (value, unit) in metrics.items():
        if value is not None:
            print(f"  {metric:40s} {value:14.4f} {unit}")
    for (step, cls), n in sorted(outcome.failures.items()):
        known = KNOWN_DEFECTS.get((name, step, cls))
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        print(f"  failed  {step:32s} {cls:24s} {n:5d}  ({tag})")
    if tracer is not None:
        print("  span self time (ms, as measured): count        total         self")
        selfs = tracer.self_ms()
        for span_name in sorted(selfs):
            total = sum(tracer.durations_ms(span_name))
            print(f"    {span_name:28s} {len(selfs[span_name]):6d} {total:12.1f} "
                  f"{sum(selfs[span_name]):12.1f}")
        path = HERE / "out" / f"spans-{name}-seed{seed}.json"
        tracer.dump(path)
        print(f"  spans written to {path.relative_to(ROOT)}")


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> dict:
    """One workload in one mode, in this process."""
    setups, outcome, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    name = args.workload
    metrics = (per_layer(name, tracer, outcome) if args.trace
               else end_to_end(name, setups, outcome))
    report(name, args.seed, args.trace, setups, outcome, tracer, metrics)
    metrics = {m: metrics[m] for m in declared_metrics(bool(args.trace))}
    return {
        "correct": unexpected_failures(name, outcome) == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A layer that did not run reads 0.
        "metrics": {k: {"value": v or 0, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload untraced and traced, each in a fresh child process so
    that its peak_rss_mb and caches are its own."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv + ["--smoke"] * args.smoke, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            results[name, trace] = result or {"correct": False, "attempted": 0,
                                              "failed": 0, "metrics": {}}
    metrics = {}
    for (name, _), result in results.items():
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    for name in WORKLOADS:
        untraced = metrics.get(f"{name}.op_p50_ms", {}).get("value")
        traced = metrics.get(f"{name}.trace.op_p50_ms", {}).get("value")
        if untraced and traced:
            metrics[f"{name}.trace_overhead_frac"] = {"value": traced / untraced - 1,
                                                      "unit": "ratio"}
            print(f"== {name}: tracing overhead on op_p50_ms {traced / untraced - 1:+.2%}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, one block per run, every check on")
    args = parser.parse_args(argv)
    for needed in (SRC / "curveglue", ROOT / "tests" / "golden", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed} not found; run from a curveglue checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 1 if args.smoke and not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
