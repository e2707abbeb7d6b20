"""What the benchmark measures: workloads, metrics and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and a test keeps the two in
step.  :data:`LAYERS` is the written-down prediction of which
end-to-end metric each per-layer metric should move, on which workload;
a layer whose row does not name a workload should not move that
workload's figures.
"""

from __future__ import annotations

import json
from typing import Dict, List

RUN_SECONDS = 8

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "consensus-n4",
        "why": (
            "consensus(n=4), 65,536 runs: compile, cold analyze, repeat analyze "
            "with factory-rebuilt facts, one auto query; loads compile, index, "
            "action tables, fact scan, independence"
        ),
    },
    {
        "name": "consensus-n4-sweep",
        "why": (
            "the consensus(n=4) family under a Section 8 refrain sweep with "
            "parallel=2: derived rows re-scan the action fact; loads derive, "
            "action rebuild, fork pool"
        ),
    },
    {
        "name": "small-dense",
        "why": (
            "a seeded stream of FS-chain, drifted FS, attack and random-spec "
            "systems: per-call overhead, two-tier numeric kernel, grids, "
            "reweighting, theorem checkers, template compile path"
        ),
    },
]

#: name -> (unit, better, bound).  success_ratio stands for
#: 1 - failed_ratio: every end-to-end metric must be non-zero.  Over
#: ten seeds on a shared 2-core box the widest run-to-run spread
#: (interquartile range over median) of a timing was 0.08, and the
#: box's own speed drifted by up to a fifth within minutes, so the
#: timing bounds are near the 0.25 cap; set-up keeps the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "query_cold_s": ("s", "lower", 0.24),
    "query_s": ("s", "lower", 0.24),
    "sweep_row_s": ("s", "lower", 0.24),
    "total_s": ("s", "lower", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_ratio": ("ratio", "higher", 0.01),
}

#: name -> (unit, better).
PER_LAYER = {
    "compile.s": ("s", "lower"),
    "compile.nodes": ("count", "lower"),
    "compile.nodes_per_s": ("1/s", "higher"),
    "compile.rss_mb": ("MB", "lower"),
    "index.build_s": ("s", "lower"),
    "index.runs": ("count", "lower"),
    "index.actions_s": ("s", "lower"),
    "scan.s": ("s", "lower"),
    "scan.fact_evals": ("count", "lower"),
    "scan.memo_hit_ratio": ("ratio", "higher"),
    "scan.min_fact_evals_per_repeat_query": ("count", "lower"),
    "independence.s": ("s", "lower"),
    "theorem.4_2.s": ("s", "lower"),
    "theorem.5_1.s": ("s", "lower"),
    "theorem.6_2.s": ("s", "lower"),
    "theorem.7_1.s": ("s", "lower"),
    "theorem.F_1.s": ("s", "lower"),
    "theorem.7_2.s": ("s", "lower"),
    "numeric.comparisons": ("count", "lower"),
    "numeric.escalations": ("count", "lower"),
    "numeric.escalation_ratio": ("ratio", "lower"),
    "grid.s": ("s", "lower"),
    "kernel.build_s": ("s", "lower"),
    "grid.cells_certified": ("count", "higher"),
    "grid.cells_escalated": ("count", "lower"),
    "grid.certified_ratio": ("ratio", "higher"),
    "grid.array_batches": ("count", "lower"),
    "derive.s": ("s", "lower"),
    "derive.rows": ("count", "lower"),
    "shard.parallel_efficiency": ("ratio", "higher"),
    "shard.retries": ("count", "lower"),
    "shard.degradations": ("count", "lower"),
    "gc.s": ("s", "lower"),
    "gc.collections": ("count", "lower"),
    "other.s": ("s", "lower"),
    "trace.total_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: layer -> (modules, metrics, [(end-to-end metric, workload), ...]).
LAYERS = {
    "compile": (
        "protocols/compiler, messaging/system, protocols/distribution",
        ["compile.s", "compile.nodes", "compile.nodes_per_s", "compile.rss_mb"],
        [
            ("setup_s", "consensus-n4"),
            ("peak_rss_mb", "consensus-n4"),
            ("setup_s", "consensus-n4-sweep"),
            ("peak_rss_mb", "consensus-n4-sweep"),
            ("setup_s", "small-dense"),
        ],
    ),
    "index": (
        "core/engine SystemIndex construction",
        ["index.build_s", "index.runs"],
        [("setup_s", "consensus-n4")],
    ),
    "index.actions": (
        "core/engine action tables, cold and derived",
        ["index.actions_s"],
        [("query_cold_s", "consensus-n4"), ("sweep_row_s", "consensus-n4-sweep")],
    ),
    "scan": (
        "core/engine events_of/holds_mask_at/phi_at_action_mask, core/facts",
        [
            "scan.s",
            "scan.fact_evals",
            "scan.memo_hit_ratio",
            "scan.min_fact_evals_per_repeat_query",
        ],
        [("query_s", "consensus-n4"), ("sweep_row_s", "consensus-n4-sweep")],
    ),
    "independence": (
        "core/independence",
        ["independence.s"],
        [("query_cold_s", "consensus-n4"), ("query_s", "consensus-n4")],
    ),
    "theorems": (
        "core/theorems, core/pak",
        [
            "theorem.4_2.s",
            "theorem.5_1.s",
            "theorem.6_2.s",
            "theorem.7_1.s",
            "theorem.F_1.s",
            "theorem.7_2.s",
        ],
        [("query_cold_s", "consensus-n4"), ("query_s", "small-dense")],
    ),
    "numeric": (
        "core/lazyprob, core/arraykernel",
        ["numeric.comparisons", "numeric.escalations", "numeric.escalation_ratio"],
        [("query_s", "small-dense")],
    ),
    "grid": (
        "core/beliefs, core/engine threshold_kernel",
        [
            "grid.s",
            "kernel.build_s",
            "grid.cells_certified",
            "grid.cells_escalated",
            "grid.certified_ratio",
            "grid.array_batches",
        ],
        [("query_s", "small-dense"), ("sweep_row_s", "small-dense")],
    ),
    "derive": (
        "protocols/strategies, core/reweight, SystemIndex.derived",
        ["derive.s", "derive.rows"],
        [("sweep_row_s", "small-dense"), ("sweep_row_s", "consensus-n4-sweep")],
    ),
    "shard": (
        "core/shard, sweep fork rows, core/faults",
        ["shard.parallel_efficiency", "shard.retries", "shard.degradations"],
        [("sweep_row_s", "consensus-n4-sweep")],
    ),
    "runtime": (
        "the interpreter's garbage collector",
        ["gc.s", "gc.collections"],
        [("query_s", "consensus-n4")],
    ),
    "other": (
        "set-up and operation time no wrapped layer covers, including the "
        "fork pool's rows, whose spans die with the workers",
        ["other.s"],
        [],
    ),
    "trace": (
        "the traced pass itself",
        ["trace.total_s", "trace.overhead_s"],
        [],
    ),
}


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
