"""Benchmark: the indexed engine vs. the naive evaluation path.

Two comparisons over the ``bench_scaling`` tree family (consensus with
a lossy channel, deep coordinated attack):

* **indexed vs naive** — the same exact-analysis workload (achieved
  probabilities, expected acting beliefs, threshold-met measures at
  several levels, full belief profiles, occurrence events, per-time
  knowledge partitions), once through the
  :class:`~repro.core.engine.SystemIndex`-backed public API and once
  through the preserved naive implementations in
  :mod:`repro.core.naive`;
* **batched vs per-fact** — a multi-fact sweep whose rows rebuild
  syntactically identical condition facts, once through the batched
  APIs (``truths_at`` / ``beliefs_batch``) on the library's
  structural-key index and once through per-fact single queries on an
  identity-keyed index (the pre-batching behavior, where rebuilt facts
  never hit a cache; emulated here by :class:`_IdentityKeyedIndex`).

Results must be ``Fraction``-equal in both comparisons; the tables
report wall-clock times and the speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py \
        [--smoke] [--batched-only]

or under pytest (``bench_engine_speedup.py`` follows the local
``bench_*`` convention and is collected by the benchmark session).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, "src")  # allow `python benchmarks/bench_engine_speedup.py`

from repro.analysis.sweep import format_table, sweep
from repro.apps.consensus import agreement, build_consensus, decision_action
from repro.apps.coordinated_attack import (
    ATTACK,
    GENERAL_A,
    both_attack,
    build_coordinated_attack,
)
from repro.core import naive
from repro.core.atoms import does_, performed
from repro.core.beliefs import belief, occurrence_event, threshold_met_measure
from repro.core.common_belief import believes
from repro.core.constraints import achieved_probability
from repro.core.expectation import expected_belief
from repro.core.knowledge import knowledge_partition, knows
from repro.core.engine import SystemIndex
from repro.core.pps import PPS

THRESHOLDS = ("1/3", "1/2", "2/3", "9/10")


def _indexed_workload(pps: PPS, agent, action, phi) -> Tuple:
    """The whole analysis surface, through the engine-backed API."""
    results: List[object] = [
        achieved_probability(pps, agent, phi, action),
        expected_belief(pps, agent, phi, action),
    ]
    results.extend(
        threshold_met_measure(pps, agent, phi, action, p) for p in THRESHOLDS
    )
    for local in sorted(pps.local_states(agent), key=repr):
        results.append(occurrence_event(pps, agent, local))
        results.append(belief(pps, agent, phi, local))
    for t in range(pps.max_time() + 1):
        results.append(knowledge_partition(pps, agent, t))
    return tuple(results)


def _naive_workload(pps: PPS, agent, action, phi) -> Tuple:
    """The same workload through the preserved pre-index code path."""
    results: List[object] = [
        naive.naive_achieved_probability(pps, agent, phi, action),
        naive.naive_expected_belief(pps, agent, phi, action),
    ]
    results.extend(
        naive.naive_threshold_met_measure(pps, agent, phi, action, p)
        for p in THRESHOLDS
    )
    locals_seen = sorted(
        {
            run.local(agent, t)
            for run in pps.runs
            for t in run.times()
        },
        key=repr,
    )
    for local in locals_seen:
        results.append(naive.naive_occurrence_event(pps, agent, local))
        results.append(naive.naive_belief(pps, agent, phi, local))
    for t in range(pps.max_time() + 1):
        results.append(naive.naive_knowledge_partition(pps, agent, t))
    return tuple(results)


def _time(fn: Callable[[], Tuple], repeats: int) -> Tuple[float, Tuple]:
    best = float("inf")
    value: Tuple = ()
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _fresh(build: Callable[[], PPS]) -> PPS:
    """A new system instance, so the naive path cannot inherit caches."""
    return build()


def compare(
    name: str,
    build: Callable[[], PPS],
    agent,
    action,
    phi_of: Callable[[], object],
    *,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time both paths on fresh systems and check exact agreement."""
    naive_system = _fresh(build)
    naive_time, naive_result = _time(
        lambda: _naive_workload(naive_system, agent, action, phi_of()), repeats
    )
    indexed_system = _fresh(build)
    indexed_time, indexed_result = _time(
        lambda: _indexed_workload(indexed_system, agent, action, phi_of()), repeats
    )
    assert indexed_result == naive_result, f"{name}: engine parity violated"
    return {
        "system": name,
        "runs": indexed_system.run_count(),
        "naive_s": round(naive_time, 4),
        "indexed_s": round(indexed_time, 4),
        "speedup": round(naive_time / indexed_time, 1),
        "exact_match": True,
    }


def scaling_rows(*, smoke: bool = False) -> List[Dict[str, object]]:
    """One row per bench_scaling configuration, smallest to largest."""
    configurations = [
        (
            "consensus(n=2)",
            lambda: build_consensus(n=2, loss="0.1"),
            "agent-0",
            decision_action(1),
            lambda: agreement(2),
        ),
        (
            "attack(acks=3)",
            lambda: build_coordinated_attack(loss="0.1", ack_rounds=3),
            GENERAL_A,
            ATTACK,
            both_attack,
        ),
    ]
    if not smoke:
        configurations += [
            (
                "attack(acks=5)",
                lambda: build_coordinated_attack(loss="0.1", ack_rounds=5),
                GENERAL_A,
                ATTACK,
                both_attack,
            ),
            (
                "consensus(n=3)",
                lambda: build_consensus(n=3, loss="0.1"),
                "agent-0",
                decision_action(1),
                lambda: agreement(3),
            ),
        ]
    return [
        compare(name, build, agent, action, phi_of)
        for name, build, agent, action, phi_of in configurations
    ]


# ----------------------------------------------------------------------
# Batched sweep vs per-fact loop
# ----------------------------------------------------------------------


def _sweep_facts(agent, action, level):
    """One sweep row's condition facts, built fresh (as sweeps do).

    Every fact is structural, so the batched path's structural-key
    caches recognize the rebuilds; only ``believes`` varies with the
    row's ``level`` parameter, and even it shares its operand's masks.
    """
    alpha = performed(agent, action)
    acting = does_(agent, action)
    return [
        alpha,
        acting,
        knows(agent, alpha),
        believes(agent, alpha, level),
        alpha & ~acting,
        ~alpha | knows(agent, alpha),
    ]


def _sweep_grid(*, smoke: bool) -> Dict[str, Tuple]:
    if smoke:
        return {"level": ("1/2", "9/10"), "rep": (0, 1)}
    return {"level": THRESHOLDS, "rep": (0, 1, 2, 3)}


def _row_quantities(index, agent, locals_sorted, facts, masks_by_t, beliefs_by_local):
    """Fold masks/beliefs into the row's exact scalar columns."""
    out: Dict[str, object] = {}
    for k in range(len(facts)):
        out[f"mu{k}"] = sum(
            (index.probability(masks[k]) for masks in masks_by_t),
            start=Fraction(0),
        )
        out[f"belief{k}"] = sum(
            (beliefs_by_local[local][k] for local in locals_sorted),
            start=Fraction(0),
        )
    return out


class _IdentityKeyedIndex(SystemIndex):
    """The pre-batching baseline: memo caches keyed on fact identity.

    Equal-but-distinct fact objects get separate cache entries, so each
    sweep row's rebuilt facts miss every cache.
    """

    def _fact_key(self, fact):
        return fact


def _per_fact_row_fn(index: SystemIndex, agent, action):
    """The single-query path: one engine call per (fact, slice/state)."""
    locals_sorted = sorted(index.local_states(agent), key=repr)
    times = range(index.max_time + 1)

    def row(level, rep):
        facts = _sweep_facts(agent, action, level)
        masks_by_t = [
            [index.holds_mask_at(fact, t) for fact in facts] for t in times
        ]
        beliefs_by_local = {
            local: [index.belief(agent, fact, local) for fact in facts]
            for local in locals_sorted
        }
        return _row_quantities(
            index, agent, locals_sorted, facts, masks_by_t, beliefs_by_local
        )

    return row


def _batched_rows_fn(pps: PPS, agent, action):
    """The batched path: one engine call per slice/state per *row*."""
    index = pps.index()
    locals_sorted = sorted(index.local_states(agent), key=repr)
    times = range(index.max_time + 1)

    def rows(points):
        results = []
        for point in points:
            facts = _sweep_facts(agent, action, point["level"])
            masks_by_t = [index.truths_at(facts, t) for t in times]
            beliefs_by_local = {
                local: index.beliefs_batch(agent, facts, local)
                for local in locals_sorted
            }
            results.append(
                _row_quantities(
                    index, agent, locals_sorted, facts, masks_by_t, beliefs_by_local
                )
            )
        return results

    return rows


def compare_batched(
    name: str,
    build: Callable[[], PPS],
    agent,
    action,
    *,
    smoke: bool,
) -> Dict[str, object]:
    """Time the per-fact and batched sweeps; require exact agreement."""
    grid = _sweep_grid(smoke=smoke)
    single_index = _IdentityKeyedIndex(build())
    single_time, single_table = _time(
        lambda: sweep(grid, _per_fact_row_fn(single_index, agent, action)), 1
    )
    batched_pps = build()
    batched_time, batched_table = _time(
        lambda: sweep(grid, batch_row_fn=_batched_rows_fn(batched_pps, agent, action)),
        1,
    )
    assert batched_table == single_table, f"{name}: batched parity violated"
    return {
        "system": name,
        "runs": batched_pps.run_count(),
        "rows": len(batched_table),
        "per_fact_s": round(single_time, 4),
        "batched_s": round(batched_time, 4),
        "speedup": round(single_time / batched_time, 1),
        "exact_match": True,
    }


def batched_rows(*, smoke: bool = False) -> List[Dict[str, object]]:
    """One row per bench_scaling configuration, smallest to largest."""
    configurations = [
        (
            "consensus(n=2)",
            lambda: build_consensus(n=2, loss="0.1"),
            "agent-0",
            decision_action(1),
        ),
        (
            "attack(acks=3)",
            lambda: build_coordinated_attack(loss="0.1", ack_rounds=3),
            GENERAL_A,
            ATTACK,
        ),
    ]
    if not smoke:
        configurations.append(
            (
                "consensus(n=3)",
                lambda: build_consensus(n=3, loss="0.1"),
                "agent-0",
                decision_action(1),
            )
        )
    return [
        compare_batched(name, build, agent, action, smoke=smoke)
        for name, build, agent, action in configurations
    ]


def _gate_speedup(rows: List[Dict[str, object]], label: str, *, smoke: bool) -> int:
    """Enforce the >=3x bar on the largest configuration (full runs).

    Exact-match violations abort earlier, in the compare functions; the
    speedup bar is advisory in smoke mode (CI timings on tiny workloads
    are too noisy for a hard wall-clock gate) and enforced on the full
    run, whose largest configurations have a wide margin.
    """
    largest = rows[-1]
    if largest["speedup"] < 3:
        message = f"{label}: largest configuration speedup {largest['speedup']}x < 3x"
        if smoke:
            print(f"WARNING (smoke, informational): {message}", file=sys.stderr)
            return 0
        print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print(f"OK: {label} largest configuration {largest['speedup']}x >= 3x, exact match")
    return 0


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    batched_only = "--batched-only" in argv
    mode = "(smoke)" if smoke else "(full)"
    status = 0
    if not batched_only:
        rows = scaling_rows(smoke=smoke)
        print(
            format_table(
                rows,
                title=f"engine speedup: indexed SystemIndex vs naive rescan {mode}",
            )
        )
        status |= _gate_speedup(rows, "indexed-vs-naive", smoke=smoke)
    rows = batched_rows(smoke=smoke)
    print(
        format_table(
            rows,
            title="batched evaluation: truths_at/beliefs_batch sweep vs "
            f"per-fact loop {mode}",
        )
    )
    status |= _gate_speedup(rows, "batched-vs-per-fact", smoke=smoke)
    return status


# ----------------------------------------------------------------------
# pytest-benchmark entry points (collected by the benchmark session)
# ----------------------------------------------------------------------


def test_engine_speedup_table(benchmark):
    rows = benchmark.pedantic(scaling_rows, rounds=1, iterations=1)
    from conftest import emit

    emit(format_table(rows, title="engine speedup (indexed vs naive)"))
    assert all(row["exact_match"] for row in rows)
    assert rows[-1]["speedup"] >= 3


def test_batched_speedup_table(benchmark):
    rows = benchmark.pedantic(batched_rows, rounds=1, iterations=1)
    from conftest import emit

    emit(format_table(rows, title="batched evaluation (batched vs per-fact)"))
    assert all(row["exact_match"] for row in rows)
    assert rows[-1]["speedup"] >= 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
