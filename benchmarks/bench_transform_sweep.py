"""Benchmark: derived-system transforms vs materialize-and-rebuild.

PR 4 turned the Section 8 transforms (``relabel_actions``,
``refrain_below_threshold``) into a *derived-system layer*: a
transform returns an ``ActionOverlay`` over the shared parent tree and
its engine index inherits every label-independent table from the
parent's (``SystemIndex.derived``), instead of deep-copying the tree
and rebuilding the index cold.  The workload that motivates it is the
repo's main scenario-diversity pattern — dense refrain-threshold
sweeps and optimality ablations, where hundreds of rows differ from
one parent system by a handful of relabelled edges.

This benchmark sweeps the refrain threshold densely over the FS
family (Example 1 at several loss rates) through both paths:

* **derived** (the default): every row is a ``DerivedPPS`` sharing the
  parent's tree, probability kernel, partitions, and belief caches;
* **materialized** (``refrain_threshold_sweep(..., materialize=True)``):
  every row is ``materialize(refrain_below_threshold(...))`` and pays
  the historic deep copy + cold index build.

Every row pair must agree ``Fraction``-exactly on the achieved
probability and the retained coverage — parity is enforced in every
mode.  The ≥3x speedup bar on the largest family member is enforced on
the full run and advisory in ``--smoke`` (CI wall-clock on tiny
workloads is too noisy for a hard gate).  The benchmark also checks
``materialize``'s bit-identity contract: a materialized refrain must
reproduce the pre-derived-layer implementation's tree exactly — uid
sequence, leaf order, probabilities — which is asserted against an
inlined copy of that legacy path.

Usage::

    PYTHONPATH=src python benchmarks/bench_transform_sweep.py [--smoke]

or under pytest (collected by the benchmark session via the local
``bench_*`` convention).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, "src")  # allow `python benchmarks/bench_transform_sweep.py`

from repro.analysis.random_systems import tree_signature
from repro.analysis.sweep import format_table, refrain_threshold_sweep
from repro.apps.firing_squad import (
    ALICE,
    FIRE,
    THRESHOLD,
    both_fire,
    build_firing_squad,
)
from repro.core.beliefs import belief
from repro.core.reweight import materialize
from repro.core.numeric import as_fraction
from repro.core.pps import PPS, Node
from repro.protocols import refrain_below_threshold


# ----------------------------------------------------------------------
# The legacy (pre-derived-layer) transform, inlined for the bit-identity
# contract: recursive pre-order copy, then in-place relabel.
# ----------------------------------------------------------------------


def _legacy_copy_tree(root: Node) -> Node:
    counter = [0]

    def clone(node: Node, parent: Optional[Node]) -> Node:
        copy = Node(
            uid=counter[0],
            depth=node.depth,
            state=node.state,
            prob_from_parent=node.prob_from_parent,
            via_action=dict(node.via_action) if node.via_action is not None else None,
            parent=parent,
        )
        counter[0] += 1
        # repro: allow[RP003] legacy inlined oracle: mutates its own
        # deep copy during construction, never a live tree.
        copy.children = [clone(child, copy) for child in node.children]
        return copy

    return clone(root, None)


def legacy_refrain(
    pps: PPS, agent, action, phi, threshold, *, replacement="skip"
) -> PPS:
    """Byte-for-byte the PR 3 refrain_below_threshold semantics."""
    bound = as_fraction(threshold)
    idx = pps.agent_index(agent)
    cache: Dict[object, bool] = {}

    def low_belief(local: object) -> bool:
        if local not in cache:
            cache[local] = belief(pps, agent, phi, local) < bound
        return cache[local]

    root = _legacy_copy_tree(pps.root)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.via_action is not None:
            via = dict(node.via_action)
            if via.get(agent) == action and low_belief(
                node.parent.state.local(idx)
            ):
                via[agent] = replacement
            # repro: allow[RP003] legacy inlined oracle: mutates its
            # own deep copy during construction, never a live tree.
            node.via_action = via
        stack.extend(node.children)
    return PPS(pps.agents, root, name=f"{pps.name}-refrain[{action}]")


def assert_materialize_bit_identity(base: PPS) -> None:
    """A materialized refrain must reproduce the legacy tree exactly."""
    phi = both_fire()
    legacy = legacy_refrain(base, ALICE, FIRE, phi, THRESHOLD)
    hatch = materialize(refrain_below_threshold(base, ALICE, FIRE, phi, THRESHOLD))
    assert tree_signature(hatch) == tree_signature(legacy), (
        "materialize diverged from the legacy deep-copy path"
    )
    assert [run.prob for run in hatch.runs] == [
        run.prob for run in legacy.runs
    ], "materialize: leaf order / probability divergence"


# ----------------------------------------------------------------------
# The sweep table
# ----------------------------------------------------------------------


def _time_sweep(
    build: Callable[[], PPS], thresholds, *, materialize: bool
) -> Tuple[float, List[Dict[str, object]]]:
    """Time one full sweep from a *fresh* parent (no cross-path cache)."""
    base = build()
    phi = both_fire()
    start = time.perf_counter()
    rows = refrain_threshold_sweep(
        base, ALICE, phi, FIRE, thresholds, materialize=materialize
    )
    return time.perf_counter() - start, rows


def sweep_rows(*, smoke: bool = False) -> List[Dict[str, object]]:
    """One row per FS family member; the last (largest) carries the gate."""
    if smoke:
        members = [("fs(loss=0.1)", "0.1", 41)]
    else:
        members = [
            ("fs(loss=0.05)", "0.05", 81),
            ("fs(loss=0.1)", "0.1", 161),
            ("fs(loss=0.2)", "0.2", 241),
        ]
    out: List[Dict[str, object]] = []
    for name, loss, steps in members:
        build = lambda loss=loss: build_firing_squad(loss=loss)
        assert_materialize_bit_identity(build())
        thresholds = [Fraction(k, steps - 1) for k in range(steps)]
        derived_s, derived_rows = _time_sweep(
            build, thresholds, materialize=False
        )
        materialized_s, materialized_rows = _time_sweep(
            build, thresholds, materialize=True
        )
        # Fraction-exact parity of every swept quantity, every row.
        assert derived_rows == materialized_rows, f"{name}: sweep parity"
        system = build()
        out.append(
            {
                "family": name,
                "rows": steps,
                "runs": system.run_count(),
                "nodes": system.node_count(),
                "derived_s": derived_s,
                "materialized_s": materialized_s,
                "speedup": materialized_s / derived_s,
                "exact_match": True,
            }
        )
    return out


def _display(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rounded copies of benchmark rows for table printing only."""
    rounding = {"derived_s": 4, "materialized_s": 4, "speedup": 1}
    return [
        {
            key: round(value, rounding[key]) if key in rounding else value
            for key, value in row.items()
        }
        for row in rows
    ]


def _gate_speedup(rows: List[Dict[str, object]], *, smoke: bool) -> int:
    """Enforce the ≥3x bar on the largest (densest) family member."""
    largest = rows[-1]
    if largest["speedup"] < 3:
        message = (
            f"transform sweep {largest['family']} speedup "
            f"{largest['speedup']:.2f}x < 3x"
        )
        if smoke:
            print(f"WARNING (smoke, informational): {message}", file=sys.stderr)
            return 0
        print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print(
        f"OK: {largest['family']} derived-sweep speedup "
        f"{largest['speedup']:.1f}x >= 3x "
        f"({largest['rows']} thresholds, Fraction-exact, "
        "materialize bit-identical to legacy)"
    )
    return 0


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    mode = "(smoke)" if smoke else "(full)"
    rows = sweep_rows(smoke=smoke)
    print(
        format_table(
            _display(rows),
            title=f"transform sweep: derived indices vs materialize-and-rebuild {mode}",
        )
    )
    return _gate_speedup(rows, smoke=smoke)


# ----------------------------------------------------------------------
# pytest-benchmark entry points (collected by the benchmark session)
# ----------------------------------------------------------------------


def test_transform_sweep_table(benchmark):
    rows = benchmark.pedantic(sweep_rows, rounds=1, iterations=1)
    from conftest import emit

    emit(
        format_table(
            _display(rows), title="transform sweep (derived vs materialized)"
        )
    )
    assert all(row["exact_match"] for row in rows)
    assert rows[-1]["speedup"] >= 3  # unrounded: 2.95x must not pass


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
