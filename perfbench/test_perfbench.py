"""Tests of the benchmark harness, in tiny mode (consensus n=3, small grids).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAMES = [w["name"] for w in spec.WORKLOADS]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_result(name: str, *, seed: int = 3, trace: bool = False) -> dict:
    return run.run_workload(name, seed, 1, trace, True, run._import_library())


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_benchmark_json_meets_the_contract():
    data = spec.benchmark_json()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert spec.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(data)) < 64 * 1024


def test_layer_map_names_only_known_metrics_and_workloads():
    listed = set()
    for modules, metrics, moves in spec.LAYERS.values():
        listed.update(metrics)
        for metric, workload in moves:
            assert metric in spec.END_TO_END and workload in NAMES
    assert listed == set(spec.PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_reported(name):
    result = tiny_result(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.END_TO_END)
    for metric, cell in result["metrics"].items():
        assert cell["unit"] == spec.END_TO_END[metric][0]
        assert isinstance(cell["value"], (int, float)) and cell["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_is_reported(name):
    result = tiny_result(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spec.PER_LAYER)
    values = {metric: cell["value"] for metric, cell in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    # The overhead is a difference of two timings and may read negative.
    assert all(v >= 0 for m, v in values.items() if m != "trace.overhead_s")
    assert values["compile.s"] > 0 and values["scan.fact_evals"] > 0
    if name == "consensus-n4":
        # A factory-rebuilt fact misses the fact-identity caches.
        assert values["scan.min_fact_evals_per_repeat_query"] > 0
    if name == "consensus-n4-sweep":
        assert values["derive.rows"] > 0 and values["shard.parallel_efficiency"] > 0
    if name == "small-dense":
        assert values["grid.array_batches"] > 0 and values["numeric.escalations"] > 0


def test_forced_check_failure_lowers_success_ratio(monkeypatch):
    monkeypatch.setattr(workloads, "sound", lambda report: False)
    result = tiny_result("consensus-n4")
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["success_ratio"]["value"] < 1


def test_a_raising_op_counts_as_failed_and_the_run_goes_on(monkeypatch):
    real = workloads.analyze

    def flaky(*args, numeric="exact", **kwargs):
        if numeric == "auto":
            raise RuntimeError("injected")
        return real(*args, numeric=numeric, **kwargs)

    clean = tiny_result("consensus-n4")
    monkeypatch.setattr(workloads, "analyze", flaky)
    broken = tiny_result("consensus-n4")
    assert broken["attempted"] == clean["attempted"]
    assert broken["failed"] == 1
    assert broken["metrics"]["success_ratio"]["value"] == 1 - 1 / broken["attempted"]


def test_equal_seeds_give_equal_inputs():
    for seed in (0, 7):
        assert inputs.consensus_inputs(seed, n=4, repeats=4, sweep_rows=8) == (
            inputs.consensus_inputs(seed, n=4, repeats=4, sweep_rows=8)
        )
        assert inputs.dense_inputs(seed) == inputs.dense_inputs(seed)
    assert inputs.consensus_inputs(1, n=4, repeats=4, sweep_rows=8) != (
        inputs.consensus_inputs(2, n=4, repeats=4, sweep_rows=8)
    )
    assert inputs.dense_inputs(1) != inputs.dense_inputs(2)


def test_refrain_thresholds_are_drawn_only_for_safe_families():
    drawn = inputs.dense_inputs(5)
    for member in drawn.members:
        assert bool(member.refrain_thresholds) == (member.family != "random")
    for k, _ in drawn.materialize_checks:
        assert drawn.members[k].refrain_thresholds


def test_random_specs_have_a_proper_action_with_two_acting_states():
    from repro import SystemIndex
    from repro.analysis.random_systems import proper_actions_of, random_protocol_system

    for seed in inputs.RANDOM_SPECS:
        pps = random_protocol_system(seed, n_agents=2, horizon=3, n_payloads=3)
        action = proper_actions_of(pps, "a0")[0]
        assert len(SystemIndex.of(pps).state_cells("a0", action)) >= 2


def test_self_time_excludes_child_spans():
    tracer = shims.Tracer()
    inner = tracer.shim("inner", lambda: time.sleep(0.05))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.shim("outer", outer_body)()
    assert tracer.self_s["inner"] >= 0.05
    assert 0.01 <= tracer.self_s["outer"] < 0.04
    assert tracer.calls == {"inner": 1, "outer": 1}


def test_uninstall_restores_the_library():
    from repro import SystemIndex, analyze
    from repro.core import pak, theorems

    before = (
        SystemIndex.__dict__["events_of"],
        SystemIndex.__dict__["derived"],
        theorems.check_lemma_5_1,
        pak.check_lemma_5_1,
    )
    tracer = shims.Tracer().install()
    assert pak.check_lemma_5_1 is not before[3]
    tracer.uninstall()
    after = (
        SystemIndex.__dict__["events_of"],
        SystemIndex.__dict__["derived"],
        theorems.check_lemma_5_1,
        pak.check_lemma_5_1,
    )
    assert after == before
    assert analyze is pak.analyze


def test_all_runs_each_workload_in_its_own_process():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--tiny", "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {
        f"{name}/{metric}" for name in NAMES for metric in spec.END_TO_END
    }


def test_without_the_library_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
