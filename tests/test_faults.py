"""Deterministic fault injection + supervised degradation (ISSUE 10).

Three layers under test (see ``docs/robustness.md``):

* :class:`~repro.core.faults.FaultPlan` — the spec grammar, seeded
  determinism of probabilistic clauses, attempt-keyed decisions, and
  the env knob;
* the resilience ledger — :func:`record_degradation` only accepts
  moves on the ladder, worker deltas absorb losslessly;
* :class:`~repro.core.shard.ShardedExecutor` as supervisor — every
  injected fault combination that does not exhaust the retry budget
  must recover to Fraction-bit-identical masks, every downgrade must
  appear on the report, exhaustion must name the failing shard, and
  no ``/dev/shm`` segment may survive a crashed or abandoned query.
"""

from __future__ import annotations

import glob
import itertools
import os
from fractions import Fraction

import pytest

import repro.core.faults as faults_module
import repro.core.shard as shard_module
from repro import achieved_probability
from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_run_fact,
    random_state_fact,
)
from repro.analysis.sweep import refrain_threshold_sweep, reweight_sweep
from repro.apps.firing_squad import (
    ALICE,
    FIRE,
    both_fire,
    build_firing_squad,
    drift_loss,
)
from repro.core import arraykernel
from repro.core.arraykernel import WeightKernel
from repro.core.engine import SystemIndex
from repro.core.errors import FaultExhaustedError, FaultSpecError
from repro.core.facts import eventually
from repro.core.faults import (
    DEGRADATION_LADDER,
    SITES,
    FaultPlan,
    FaultRule,
    absorb_events,
    fault_plan,
    record_degradation,
    record_retry,
    report_delta,
    reset_resilience_report,
    resilience_report,
    set_fault_plan,
)
from repro.core.lazyprob import exact_value
from repro.core.shard import ShardedExecutor


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No plan and a fresh report around every test, whatever happens."""
    previous = set_fault_plan(None)
    reset_resilience_report()
    yield
    set_fault_plan(previous)
    reset_resilience_report()


# ----------------------------------------------------------------------
# FaultPlan: grammar + deterministic decisions
# ----------------------------------------------------------------------


class TestFaultPlanParsing:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "worker-crash@0,2:3~0.5; shm-alloc:*; task-submit; seed=7; hang=1.5"
        )
        assert plan.seed == 7
        assert plan.hang_seconds == 1.5
        crash, alloc, submit = plan.rules
        assert crash == FaultRule("worker-crash", ("0", "2"), 3, 0.5)
        assert alloc == FaultRule("shm-alloc", None, None, 1.0)
        assert submit == FaultRule("task-submit", None, 1, 1.0)

    def test_empty_spec_and_blank_clauses(self):
        assert FaultPlan.parse("").rules == ()
        assert FaultPlan.parse(" ; ;; ").rules == ()

    @pytest.mark.parametrize(
        "spec",
        [
            "meteor-strike",  # unknown site
            "worker-crash:0",  # non-positive hits
            "worker-crash:x",  # non-integer hits
            "worker-crash~0",  # prob out of (0, 1]
            "worker-crash~1.5",
            "worker-crash~often",
            "worker-crash@",  # empty key list
            "seed=soon",  # bad option values
            "hang=-1",
            "retries=3",  # unknown option
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_constructor_validates_sites(self):
        with pytest.raises(FaultSpecError):
            FaultPlan([FaultRule(site="not-a-site")])

    def test_every_documented_site_parses(self):
        for site in sorted(SITES):
            assert FaultPlan.parse(site).rules[0].site == site


class TestFaultPlanDecisions:
    def test_hits_bound_attempts(self):
        plan = FaultPlan.parse("task-submit:2")
        fired = [plan.should_fire("task-submit", 0, attempt=a) for a in range(4)]
        assert fired == [True, True, False, False]

    def test_unbounded_star_never_stops(self):
        plan = FaultPlan.parse("shm-alloc:*")
        assert all(plan.should_fire("shm-alloc", 0, attempt=a) for a in range(10))

    def test_keys_restrict_units(self):
        plan = FaultPlan.parse("worker-crash@1,3")
        assert not plan.should_fire("worker-crash", 0, attempt=0)
        assert plan.should_fire("worker-crash", 1, attempt=0)
        assert not plan.should_fire("worker-crash", 2, attempt=0)
        assert plan.should_fire("worker-crash", 3, attempt=0)

    def test_arrival_counter_when_no_attempt(self):
        plan = FaultPlan.parse("backend-import:1")
        assert plan.should_fire("backend-import")
        assert not plan.should_fire("backend-import")
        assert not plan.should_fire("backend-import")

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.parse("shm-alloc:*")
        assert not plan.should_fire("worker-crash", 0, attempt=0)

    def test_unknown_site_query_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("shm-alloc").should_fire("meteor-strike")

    def test_probabilistic_coin_is_seeded_and_deterministic(self):
        decide = lambda seed: [
            FaultPlan.parse(f"shm-corrupt~0.5;seed={seed}").should_fire(
                "shm-corrupt", k, attempt=0
            )
            for k in range(64)
        ]
        first, again = decide(3), decide(3)
        assert first == again  # a pure function of (seed, site, key, attempt)
        assert 0 < sum(first) < 64  # the coin actually lands both ways
        assert decide(4) != first  # and the seed actually matters

    def test_fired_log_records_events(self):
        plan = FaultPlan.parse("worker-crash@2")
        plan.should_fire("worker-crash", 2, attempt=0)
        (event,) = plan.fired
        assert (event.site, event.key, event.attempt) == ("worker-crash", "2", 0)


class TestActivePlan:
    def test_set_fault_plan_rejects_non_plans(self):
        with pytest.raises(TypeError):
            set_fault_plan("shm-alloc:*")

    def test_set_and_restore(self):
        plan = FaultPlan.parse("shm-alloc")
        previous = set_fault_plan(plan)
        assert fault_plan() is plan
        assert set_fault_plan(previous) is plan

    def test_env_knob_loads_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "shm-alloc:*;seed=3")
        monkeypatch.setattr(faults_module, "_active", None)
        monkeypatch.setattr(faults_module, "_env_loaded", False)
        plan = fault_plan()
        assert plan is not None
        assert plan.seed == 3
        assert plan.rules[0].site == "shm-alloc"


# ----------------------------------------------------------------------
# Degradation ladder + resilience report
# ----------------------------------------------------------------------


class TestResilienceReport:
    def test_only_ladder_moves_are_recordable(self):
        with pytest.raises(ValueError):
            record_degradation("morale", "high", "low", "mondays")
        with pytest.raises(ValueError):
            record_degradation("execution", "serial", "parallel", "upgrade?")
        for area, (from_mode, to_mode) in DEGRADATION_LADDER.items():
            record_degradation(area, from_mode, to_mode, "test")
        report = resilience_report()
        assert len(report.events) == len(DEGRADATION_LADDER)
        assert len(report.degradations("transport")) == 1

    def test_delta_absorbs_losslessly(self):
        record_degradation("transport", "shm", "pickle", "shm-alloc-failed")
        record_retry("shard", 2, 1, OSError("boom"))
        delta = report_delta()
        reset_resilience_report()
        assert resilience_report().events == []
        absorb_events(delta)
        report = resilience_report()
        assert report.events[0].reason == "shm-alloc-failed"
        assert report.retries[0].key == "2"
        assert "OSError" in report.retries[0].error

    def test_summary_names_every_entry(self):
        record_degradation("backend", "numpy", "python", "numpy-import-failed")
        record_retry("submit", 0, 0, RuntimeError("nope"))
        summary = resilience_report().summary()
        assert "degradations=1 retries=1" in summary
        assert "numpy -> python" in summary
        assert "submit@0" in summary


# ----------------------------------------------------------------------
# Supervised execution: injected faults must degrade, never drift
# ----------------------------------------------------------------------


def _case(seed: int):
    facts = [
        eventually(random_state_fact(seed + 40)),
        random_run_fact(seed + 41),
    ]
    reference = SystemIndex.of(
        random_protocol_system(seed, mixed_level=0.5)
    ).events_of(facts)
    return facts, reference


def _run_supervised(spec, *, seed: int = 5, queries: int = 1, **kwargs):
    """One sharded query under ``spec``; returns (masks, reference, report)."""
    facts, reference = _case(seed)
    reset_resilience_report()
    previous = set_fault_plan(FaultPlan.parse(spec) if spec else None)
    try:
        index = SystemIndex.of(random_protocol_system(seed, mixed_level=0.5))
        with ShardedExecutor(
            index, shards=3, payload=tuple(facts), **kwargs
        ) as executor:
            masks = executor.events_of(facts)
            for _ in range(queries - 1):
                assert executor.events_of(facts) == masks
    finally:
        set_fault_plan(previous)
    return masks, reference, resilience_report()


def _no_repro_segments():
    return not os.path.isdir("/dev/shm") or glob.glob("/dev/shm/repro_*") == []


class TestSupervisedExecutor:
    def test_clean_run_reports_nothing(self):
        masks, reference, report = _run_supervised(None)
        assert masks == reference
        assert report.events == [] and report.retries == []

    def test_worker_crash_mid_query_recovers(self):
        masks, reference, report = _run_supervised("worker-crash@0")
        assert masks == reference
        assert any(retry.site == "shard" for retry in report.retries)
        assert _no_repro_segments()

    def test_hang_then_timeout_recovers(self):
        masks, reference, report = _run_supervised(
            "worker-hang@1;hang=30", task_timeout=1.0
        )
        assert masks == reference
        assert any(retry.site == "shard" for retry in report.retries)
        assert _no_repro_segments()

    def test_shm_exhaustion_degrades_transport(self):
        masks, reference, report = _run_supervised("shm-alloc:*")
        assert masks == reference
        transport = report.degradations("transport")
        assert transport and all(
            event.reason == "shm-alloc-failed" for event in transport
        )
        assert report.retries == []  # pickle fallback, not a retry

    def test_corrupted_segment_checksum_retried(self):
        masks, reference, report = _run_supervised("shm-corrupt@1")
        assert masks == reference
        corrupt = [r for r in report.retries if "ShmIntegrityError" in r.error]
        assert corrupt and corrupt[0].key == "1"
        assert _no_repro_segments()

    def test_retry_exhaustion_raises_naming_the_shard(self):
        facts, _ = _case(5)
        previous = set_fault_plan(FaultPlan.parse("worker-crash@0:*"))
        try:
            index = SystemIndex.of(random_protocol_system(5, mixed_level=0.5))
            with ShardedExecutor(
                index, shards=3, payload=tuple(facts), on_exhaustion="raise"
            ) as executor:
                with pytest.raises(FaultExhaustedError) as excinfo:
                    executor.events_of(facts)
        finally:
            set_fault_plan(previous)
        message = str(excinfo.value)
        assert "shard 0" in message and "attempt" in message
        assert _no_repro_segments()

    def test_retry_exhaustion_degrades_to_serial_with_parity(self):
        masks, reference, report = _run_supervised("worker-crash@0:*", queries=2)
        assert masks == reference
        exhausted = report.degradations("execution")
        assert exhausted and exhausted[0].reason in (
            "retry-exhausted",
            "respawn-exhausted",
        )
        assert "shard 0" in exhausted[0].detail
        assert _no_repro_segments()

    def test_pool_breaking_mid_submission_is_retried(self, monkeypatch):
        # A worker can die while later shards are still being
        # submitted; submit() then raises instead of returning a future.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit
        calls = itertools.count()

        def submit(self, fn, /, *args, **kwargs):
            if next(calls) == 1:
                raise BrokenProcessPool("worker died during submission")
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        masks, reference, report = _run_supervised(None)
        assert masks == reference
        assert any(
            retry.site == "shard" and "BrokenProcessPool" in retry.error
            for retry in report.retries
        )
        assert _no_repro_segments()

    def test_no_segment_survives_abandoned_executor(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        facts, reference = _case(7)
        previous = set_fault_plan(FaultPlan.parse("worker-crash@2"))
        try:
            index = SystemIndex.of(random_protocol_system(7, mixed_level=0.5))
            executor = ShardedExecutor(index, shards=3, payload=tuple(facts))
            assert executor.events_of(facts) == reference
            # Abandon without close(): parent-named segments must already
            # have been consumed or reaped during supervision.
            executor._retire_pool(kill=True)
        finally:
            set_fault_plan(previous)
        assert glob.glob("/dev/shm/repro_*") == []


# ----------------------------------------------------------------------
# Backend + sweep injection points
# ----------------------------------------------------------------------


@pytest.mark.skipif(not arraykernel.HAVE_NUMPY, reason="NumPy not installed")
def test_backend_import_fault_degrades_to_python():
    previous_backend = arraykernel.backend()
    arraykernel.set_backend("numpy")
    previous = set_fault_plan(FaultPlan.parse("backend-import:*"))
    try:
        kernel = WeightKernel([1, 2, 3])
        assert not kernel.vectorized
        assert arraykernel.backend() == "python"
        (event,) = resilience_report().degradations("backend")
        assert (event.from_mode, event.to_mode) == ("numpy", "python")
        assert event.reason == "numpy-import-failed"
    finally:
        set_fault_plan(previous)
        arraykernel.set_backend(previous_backend)


def _refrain_sweep(parallel):
    pps = random_protocol_system(23, mixed_level=0.5)
    agent = pps.agents[0]
    action = proper_actions_of(pps, agent)[0]
    phi = eventually(random_state_fact(63))
    thresholds = [Fraction(k, 6) for k in range(7)]
    return refrain_threshold_sweep(
        pps, agent, phi, action, thresholds, parallel=parallel
    )


def _drift_measure(system, numeric):
    return {
        "achieved": achieved_probability(
            system, ALICE, both_fire(), FIRE, numeric=numeric
        )
    }


def _reweight_sweep(parallel):
    return reweight_sweep(
        build_firing_squad(),
        drift_loss,
        ["0.05", "0.1", "0.2", "0.3"],
        _drift_measure,
        param="loss",
        parallel=parallel,
    )


def _assert_submit_fault_retried(run_sweep):
    """Both sweeps share one fork path; each must retry a failed submit."""
    serial = run_sweep(None)
    previous = set_fault_plan(FaultPlan.parse("task-submit:1"))
    try:
        injected = run_sweep(2)
        report = resilience_report()
    finally:
        set_fault_plan(previous)
    assert any(retry.site == "submit" for retry in report.retries)
    assert report.degradations("execution") == []  # retried, not serial
    assert [
        {column: exact_value(cell) for column, cell in row.items()}
        for row in injected
    ] == serial


def test_sweep_task_submit_fault_is_retried_transparently():
    _assert_submit_fault_retried(_refrain_sweep)


def test_reweight_sweep_task_submit_fault_is_retried_transparently():
    _assert_submit_fault_retried(_reweight_sweep)


# ----------------------------------------------------------------------
# Shared-memory debris: a worker killed between shm_open and ftruncate
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", [None, "worker-crash@0"], ids=["create", "reap"])
def test_zero_byte_segment_under_next_name_is_unlinked(spec, monkeypatch):
    """A 0-byte segment cannot be attached to, only unlinked by name.

    The segment is planted under the name the executor hands shard 0
    next.  Without a fault the worker's create path meets it; with
    shard 0 crashing, the parent's reaper does.
    """
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    import _posixshmem

    start = next(shard_module._segment_counter)
    monkeypatch.setattr(shard_module, "_segment_counter", itertools.count(start))
    name = f"/repro_{os.getpid()}_{start}"
    os.close(
        _posixshmem.shm_open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
    )
    assert os.path.getsize("/dev/shm" + name) == 0
    facts, reference = _case(5)
    previous = set_fault_plan(FaultPlan.parse(spec) if spec else None)
    try:
        index = SystemIndex.of(random_protocol_system(5, mixed_level=0.5))
        executor = ShardedExecutor(index, shards=3, payload=tuple(facts))
        try:
            assert executor.events_of(facts) == reference
        finally:
            executor.close()
    finally:
        set_fault_plan(previous)
    assert _no_repro_segments()
