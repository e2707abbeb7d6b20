"""In-process, layer-attributed benchmark of the repro library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload consensus-n4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # one process each
    python3 perfbench/run.py --workload small-dense --tiny  # seconds, not minutes
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json

One invocation runs one workload (``spec.WORKLOADS``) in this process,
drawing every input from ``--seed``, and checks every answer.  It
prints a readable report and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``spec.END_TO_END``, measured with no instrumentation.  With
``--trace 1`` the workload runs twice, untraced in a child process and
then here with the timing shims of ``shims.py`` installed, and the
metrics are the per-layer metrics of ``spec.PER_LAYER`` from the
traced pass; ``trace.overhead_s`` is the traced total minus the
untraced one.

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import spec  # noqa: E402  (HERE is sys.path[0] when run as a script)


def _import_library() -> float:
    """Import the library and its lazy array backend; the seconds taken
    are once-per-process set-up cost."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.arraykernel import using_numpy

    if using_numpy():
        import numpy  # noqa: F401  (what the first array kernel would import)
    return time.perf_counter() - start


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _total(session, init_s: float) -> float:
    return init_s + sum(session.setup) + session.op_s


def end_to_end_metrics(session, init_s: float) -> dict:
    attempted = max(session.attempted, 1)
    return {
        "setup_s": init_s + _median(session.setup),
        "query_cold_s": _median(session.samples["query_cold"]),
        "query_s": _median(session.samples["query"]),
        "sweep_row_s": _median(session.samples["sweep_row"]),
        "total_s": _total(session, init_s),
        "peak_rss_mb": session.peak_rss_mb,
        "success_ratio": 1 - len(session.failed) / attempted,
    }


def per_layer_metrics(session, tracer, numeric, resilience, overhead_s, init_s) -> dict:
    from shims import THEOREM_LAYERS
    from workloads import SWEEP_WORKERS

    s = tracer.self_s
    counts = tracer.counts
    compile_s = s["compile"]
    certified, escalated = numeric.cells_certified, numeric.cells_escalated
    # Serial row time over the fork pool's worker-seconds per row.
    serial_row_s = _median(session.samples["serial_row"])
    parallel_row_s = _median(session.samples["sweep_row"])
    efficiency = serial_row_s / (parallel_row_s * SWEEP_WORKERS) if serial_row_s else 0.0
    work_s = sum(session.setup) + session.op_s
    metrics = {
        "compile.s": compile_s,
        "compile.nodes": counts["compile.nodes"],
        "compile.nodes_per_s": counts["compile.nodes"] / compile_s if compile_s else 0.0,
        "compile.rss_mb": counts["compile.rss_mb"],
        "index.build_s": s["index"],
        "index.runs": counts["index.runs"],
        "index.actions_s": s["index.actions"],
        "scan.s": s["scan"],
        "scan.fact_evals": tracer.fact_evals[0],
        "scan.memo_hit_ratio": (
            tracer.scan_outer_hits / tracer.scan_outer_calls
            if tracer.scan_outer_calls
            else 0.0
        ),
        "scan.min_fact_evals_per_repeat_query": min(session.repeat_query_evals, default=0),
        "independence.s": s["independence"],
        "numeric.comparisons": numeric.comparisons,
        "numeric.escalations": numeric.escalations,
        "numeric.escalation_ratio": (
            numeric.escalations / numeric.comparisons if numeric.comparisons else 0.0
        ),
        "grid.s": s["grid"],
        "kernel.build_s": s["kernel.build"],
        "grid.cells_certified": certified,
        "grid.cells_escalated": escalated,
        "grid.certified_ratio": (
            certified / (certified + escalated) if certified + escalated else 0.0
        ),
        "grid.array_batches": numeric.array_batches,
        "derive.s": s["derive"],
        "derive.rows": counts["derive.rows"],
        "shard.parallel_efficiency": efficiency,
        "shard.retries": len(resilience.retries),
        "shard.degradations": len(resilience.degradations()),
        "gc.s": tracer.gc_s,
        "gc.collections": tracer.gc_collections,
        "other.s": max(0.0, work_s - sum(s.values())),
        "trace.total_s": _total(session, init_s),
        "trace.overhead_s": overhead_s,
    }
    for layer in THEOREM_LAYERS.values():
        metrics[f"{layer}.s"] = s[layer]
    return metrics


def run_pass(name: str, seed: int, seconds: float, tiny: bool, tracer=None):
    from workloads import WORKLOADS, Session

    session = Session(tracer)
    WORKLOADS[name](session, seed, seconds, tiny=tiny)
    return session


def run_child(name: str, seed: int, seconds: float, trace: int, tiny: bool):
    """Run one workload in a fresh process; its report lines and result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode or 1)
    return lines[:-1], json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool, init_s: float
) -> dict:
    if not trace:
        session = run_pass(name, seed, seconds, tiny)
        values = end_to_end_metrics(session, init_s)
        table = spec.END_TO_END
        attempted, failed = 0, 0
    else:
        from repro import numeric_stats, reset_numeric_stats
        from repro.core.faults import reset_resilience_report, resilience_report
        from shims import Tracer

        # The untraced pass runs first, in a fresh process of its own, so
        # neither pass inherits the other's heap.
        lines, plain = run_child(name, seed, seconds, 0, tiny)
        for line in lines:
            if line.startswith("FAILED"):
                print(line)
        attempted, failed = plain["attempted"], plain["failed"]
        tracer = Tracer().install()
        reset_numeric_stats()
        reset_resilience_report()
        try:
            session = run_pass(name, seed, seconds, tiny, tracer)
        finally:
            tracer.uninstall()
        numeric = numeric_stats()
        for field in vars(numeric):
            setattr(
                numeric, field,
                getattr(numeric, field) - getattr(session.check_numeric, field),
            )
        overhead_s = _total(session, init_s) - plain["metrics"]["total_s"]["value"]
        values = per_layer_metrics(
            session, tracer, numeric, resilience_report(), overhead_s, init_s
        )
        table = spec.PER_LAYER
    for error in session.errors:
        print(f"FAILED: {error}")
    attempted += session.attempted
    failed += len(session.failed)
    metrics = {
        metric: {"value": values[metric], "unit": table[metric][0]} for metric in table
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_report(name: str, result: dict) -> None:
    print(f"== {name}: attempted={result['attempted']} failed={result['failed']}")
    for metric, cell in result["metrics"].items():
        print(f"  {metric:<40} {cell['value']:>16.6g} {cell['unit']}")


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory and the garbage
    collector's heap are per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.WORKLOADS:
        name = workload["name"]
        lines, result = run_child(name, args.seed, args.seconds, args.trace, args.tiny)
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = cell
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="consensus n=3 and small grids: a smoke run in seconds",
    )
    parser.add_argument(
        "--write-spec", action="store_true",
        help="write BENCHMARK.json at the repository root and exit",
    )
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            handle.write(spec.benchmark_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            init_s = _import_library()
        except ImportError as error:
            print(f"cannot import the library from {ROOT}/src: {error}", file=sys.stderr)
            return 2
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, init_s
        )
        _print_report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
