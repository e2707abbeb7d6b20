"""Sharded run spaces: combine laws, determinism, and cache hygiene.

Property tests for :mod:`repro.core.shard` (see ``docs/sharding.md``):

* the combine laws are associative and *shard-count invariant* —
  masks, integer ``(total, denominator)`` pairs, and LazyProb bounds
  recombine to the single-process values for every split;
* evaluation is deterministic across worker counts and repeated runs,
  including the ``numeric_stats()`` counters (per-worker deltas must
  be absorbed into the parent, never dropped);
* frontier selection handles the edges (K > leaves, single-leaf
  shards, derived/overlay indices);
* a fork-copied memo cache can never leak stale entries back into the
  parent index — only the explicitly combined results are written back.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_run_fact,
    random_state_fact,
)
from repro.analysis.sweep import refrain_threshold_sweep
from repro.core.engine import SystemIndex
from repro.core.errors import ConditioningOnNullEventError
from repro.core.facts import eventually
from repro.core.lazyprob import (
    LazyProb,
    exact_value,
    numeric_stats,
    reset_numeric_stats,
)
from repro.core.shard import (
    ShardPlan,
    ShardedExecutor,
    combine_bounds,
    combine_masks,
    combine_totals,
    default_shards,
    set_default_shards,
)

SHARD_COUNTS = (1, 2, 3, 5, 8, 64)


def _index(seed: int, mixed: float = 0.5) -> SystemIndex:
    return SystemIndex.of(random_protocol_system(seed, mixed_level=mixed))


def _interesting_masks(index: SystemIndex):
    phi = eventually(random_state_fact(1))
    psi = random_run_fact(2)
    full, partial = index.events_of([phi, psi])
    return [
        0,
        index.all_mask,
        full,
        partial,
        full & ~1,
        partial | 1,
        0b1011 & index.all_mask,
    ]


# ----------------------------------------------------------------------
# Combine laws
# ----------------------------------------------------------------------


class TestCombineLaws:
    def test_mask_and_total_combine_associative(self):
        parts = [0b0011, 0b0100, 0b1000, 0b0000]
        totals = [7, 11, 0, 23]
        for split in range(1, len(parts)):
            left, right = parts[:split], parts[split:]
            assert combine_masks(
                [combine_masks(left), combine_masks(right)]
            ) == combine_masks(parts)
            tl, tr = totals[:split], totals[split:]
            assert combine_totals(
                [combine_totals(tl), combine_totals(tr)]
            ) == combine_totals(totals)

    def test_bounds_combine_is_conservative_under_regrouping(self):
        # Regrouped combines may widen the error but must keep the
        # exact value inside the bound — the only property verdicts
        # rely on.
        terms = [(0.25, 1e-18), (0.125, 0.0), (0.5, 2e-17), (0.0625, 1e-19)]
        exact = sum(Fraction(a).limit_denominator(10**6) for a, _ in terms)
        flat_a, flat_e = combine_bounds(terms)
        for split in range(1, len(terms)):
            grouped = combine_bounds(
                [combine_bounds(terms[:split]), combine_bounds(terms[split:])]
            )
            assert abs(grouped[0] - float(exact)) <= grouped[1]
            assert abs(flat_a - float(exact)) <= flat_e

    def test_empty_and_infinite_bounds(self):
        assert combine_bounds([]) == (0.0, 0.0)
        approx, err = combine_bounds([(1.0, 0.0), (float("inf"), 0.0)])
        assert err == float("inf")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_shard_count_invariance_of_measures(self, seed, shards):
        index = _index(seed)
        plan = index.shard_plan(shards)
        for mask in _interesting_masks(index):
            subs = plan.submasks(mask)
            # Disjoint restrictions that OR back to the mask...
            assert combine_masks(subs) == mask
            for i, a in enumerate(subs):
                for b in subs[i + 1 :]:
                    assert a & b == 0
            # ...whose integer totals sum to the unsharded total...
            assert combine_totals(
                [index.mask_total(sub) for sub in subs]
            ) == index.mask_total(mask)
            # ...and whose combined float bound brackets the true value.
            approx, err = combine_bounds(
                [index.mask_bounds(sub) for sub in subs]
            )
            true = index.mask_total(mask)
            assert abs(approx - float(true)) <= err


# ----------------------------------------------------------------------
# Frontier / plan edge cases
# ----------------------------------------------------------------------


class TestShardPlan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_plan_partitions_run_universe(self, seed, shards):
        index = _index(seed)
        plan = index.shard_plan(shards)
        assert plan.boundaries[0] == 0
        assert plan.boundaries[-1] == index.run_count
        assert list(plan.boundaries) == sorted(set(plan.boundaries))
        assert 1 <= plan.shard_count <= min(shards, index.run_count)
        assert combine_masks(plan.masks) == index.all_mask
        for run in range(index.run_count):
            lo, hi = plan.ranges[plan.shard_of(run)]
            assert lo <= run < hi

    def test_k_above_leaf_count_clamps_to_single_leaf_shards(self):
        index = _index(1)
        plan = index.shard_plan(10 ** 6)
        assert plan.shard_count == index.run_count
        assert all(hi - lo == 1 for lo, hi in plan.ranges)

    def test_k_one_is_the_whole_universe(self):
        index = _index(1)
        plan = index.shard_plan(1)
        assert plan.ranges == ((0, index.run_count),)

    def test_plans_memoized_and_shared_with_derived_indices(self):
        from repro.protocols.strategies import refrain_below_threshold

        pps = random_protocol_system(5, mixed_level=0.5)
        index = SystemIndex.of(pps)
        agent = pps.agents[0]
        action = proper_actions_of(pps, agent)[0]
        plan = index.shard_plan(3)
        assert index.shard_plan(3) is plan
        derived = refrain_below_threshold(
            pps, agent, action, eventually(random_state_fact(6)), Fraction(1, 2)
        )
        derived_index = SystemIndex.of(derived)
        assert derived_index._shard_plans is index._shard_plans
        assert derived_index.shard_plan(3) is plan

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(4, (0, 2))  # does not reach run_count
        with pytest.raises(ValueError):
            ShardPlan(4, (1, 4))  # does not start at 0
        with pytest.raises(ValueError):
            ShardPlan(4, (0, 2, 2, 4))  # empty shard
        with pytest.raises(IndexError):
            ShardPlan(4, (0, 4)).shard_of(4)

    def test_default_shards_knob(self):
        previous = set_default_shards(5)
        try:
            assert default_shards() == 5
            assert set_default_shards(0) == 5
            assert default_shards() == 0
            with pytest.raises(ValueError):
                set_default_shards(-1)
        finally:
            set_default_shards(previous)

    def test_repro_shards_env_parsing(self, monkeypatch):
        import repro.core.shard as shard_module

        for raw, expected in (("3", 3), ("0", 0), ("", 0), ("junk", 0), ("-2", 0)):
            monkeypatch.setattr(shard_module, "_default_shards", None)
            monkeypatch.setenv("REPRO_SHARDS", raw)
            assert default_shards() == expected
        monkeypatch.setattr(shard_module, "_default_shards", None)
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert default_shards() == 0


# ----------------------------------------------------------------------
# In-process sharded scans (the REPRO_SHARDS path)
# ----------------------------------------------------------------------


class TestInProcessShardedScan:
    @pytest.mark.parametrize("shards", (2, 3, 8))
    def test_scan_bit_identical_to_serial(self, shards):
        phi = eventually(random_state_fact(11))
        psi = random_run_fact(12)
        serial_index = _index(7)
        serial_events = serial_index.events_of([phi, psi])
        serial_truths = serial_index.truths_at([phi], 1)
        previous = set_default_shards(shards)
        try:
            sharded_index = SystemIndex(random_protocol_system(7, mixed_level=0.5))
            assert sharded_index.events_of([phi, psi]) == serial_events
            assert sharded_index.truths_at([phi], 1) == serial_truths
        finally:
            set_default_shards(previous)

    def test_scan_error_isolation_matches_serial(self):
        from repro.core.facts import LambdaRunFact

        def boom(pps, run):
            raise RuntimeError("partial fact")

        bad = LambdaRunFact(boom, label="boom")
        good = random_run_fact(13)
        serial_index = _index(9)
        s_masks, s_errors = serial_index._scan_batch([bad, good], None)
        previous = set_default_shards(3)
        try:
            sharded_index = SystemIndex(random_protocol_system(9, mixed_level=0.5))
            masks, errors = sharded_index._scan_batch([bad, good], None)
        finally:
            set_default_shards(previous)
        assert masks[1] == s_masks[1]
        assert errors[1] is None is s_errors[1]
        assert type(errors[0]) is type(s_errors[0])
        assert str(errors[0]) == str(s_errors[0])


# ----------------------------------------------------------------------
# The multiprocess executor
# ----------------------------------------------------------------------


class TestShardedExecutor:
    @pytest.mark.parametrize("shards", (2, 3, 8))
    def test_events_and_truths_match_serial(self, shards):
        phi = eventually(random_state_fact(21))
        psi = random_run_fact(22)
        serial_index = _index(14)
        expected_events = serial_index.events_of([phi, psi])
        expected_truths = serial_index.truths_at([phi, psi], 1)
        index = SystemIndex(random_protocol_system(14, mixed_level=0.5))
        with ShardedExecutor(index, shards=shards, payload=(phi, psi)) as ex:
            assert ex.events_of([phi, psi]) == expected_events
            assert ex.truths_at([phi, psi], 1) == expected_truths
            # Second query hits the absorbed caches, same answer.
            assert ex.events_of([phi, psi]) == expected_events

    def test_measures_bit_identical_across_modes(self):
        index = _index(15)
        masks = _interesting_masks(index)
        with ShardedExecutor(index, shards=3) as ex:
            for mask in masks:
                assert ex.probability(mask) == index.probability(mask)
                assert ex.probability(mask, numeric="float") == index.probability(
                    mask, numeric="float"
                )
                auto = ex.probability(mask, numeric="auto")
                assert exact_value(auto) == index.probability(mask)
            given = masks[2] or index.all_mask
            for target in masks:
                assert ex.conditional(target, given) == index.conditional(
                    target, given
                )
                assert ex.conditional(
                    target, given, numeric="float"
                ) == index.conditional(target, given, numeric="float")
                assert exact_value(
                    ex.conditional(target, given, numeric="auto")
                ) == index.conditional(target, given)
            with pytest.raises(ConditioningOnNullEventError):
                ex.conditional(masks[2], 0)

    def test_auto_bounds_bracket_exact_value(self):
        index = _index(16)
        with ShardedExecutor(index, shards=5) as ex:
            for mask in _interesting_masks(index):
                value = ex.probability(mask, numeric="auto")
                if isinstance(value, LazyProb):
                    exact = index.probability(mask)
                    assert abs(value.approx - float(exact)) <= value.err

    def test_beliefs_batch_matches_serial(self):
        pps = random_protocol_system(17, mixed_level=0.5)
        index = SystemIndex.of(pps)
        phi = eventually(random_state_fact(23))
        agent = pps.agents[0]
        local = sorted(index.local_states(agent), key=repr)[0]
        serial = SystemIndex(
            random_protocol_system(17, mixed_level=0.5)
        ).beliefs_batch(agent, [phi], local)
        with ShardedExecutor(index, shards=3, payload=(phi,)) as ex:
            assert ex.beliefs_batch(agent, [phi], local) == serial
            auto = ex.beliefs_batch(agent, [phi], local, numeric="auto")
        assert [exact_value(b) for b in auto] == serial

    def test_serial_fallback_when_single_shard(self):
        index = _index(18)
        phi = eventually(random_state_fact(24))
        with ShardedExecutor(index, shards=1) as ex:
            assert ex.shard_count == 1
            assert ex._ensure_pool() is None
            assert ex.events_of([phi]) == index.events_of([phi])

    @pytest.mark.parametrize("repeat", range(3))
    def test_determinism_across_repeats_and_worker_counts(self, repeat):
        phi = eventually(random_state_fact(25))
        reference = None
        for workers in (1, 2, 4):
            index = SystemIndex(random_protocol_system(19, mixed_level=0.5))
            with ShardedExecutor(
                index, shards=4, payload=(phi,), max_workers=workers
            ) as ex:
                masks = ex.events_of([phi])
                measure = ex.probability(masks[0])
            if reference is None:
                reference = (masks, measure)
            assert (masks, measure) == reference

    def test_fork_copied_caches_never_leak_into_parent(self):
        # The regression the ISSUE names: worker processes inherit a
        # *copy* of the parent's memo caches and grow them during the
        # scan; nothing but the explicitly combined masks may come
        # back.  After a sharded run the parent's cache keys and masks
        # must equal a serial run's exactly.
        phi = eventually(random_state_fact(26))
        psi = random_run_fact(27)
        serial_index = SystemIndex(random_protocol_system(20, mixed_level=0.5))
        serial_index.events_of([phi, psi])
        sharded_index = SystemIndex(random_protocol_system(20, mixed_level=0.5))
        with ShardedExecutor(sharded_index, shards=3, payload=(phi, psi)) as ex:
            ex.events_of([phi, psi])
        assert sharded_index._fact_masks == serial_index._fact_masks
        assert set(sharded_index._slice_masks) == set(serial_index._slice_masks)
        assert sharded_index._action_free == serial_index._action_free

    def test_memo_false_leaves_parent_caches_untouched(self):
        phi = eventually(random_state_fact(28))
        index = SystemIndex(random_protocol_system(21, mixed_level=0.5))
        serial = index.events_of([phi], memo=False)
        assert not index._fact_masks
        with ShardedExecutor(index, shards=3, payload=(phi,)) as ex:
            assert ex.events_of([phi], memo=False) == serial
        assert not index._fact_masks


# ----------------------------------------------------------------------
# Parallel sweep rows + NumericStats multi-process correctness
# ----------------------------------------------------------------------


def _sweep_case(seed: int):
    pps = random_protocol_system(seed, mixed_level=0.5)
    agent = pps.agents[0]
    action = proper_actions_of(pps, agent)[0]
    phi = eventually(random_state_fact(seed + 40))
    thresholds = [Fraction(k, 12) for k in range(13)] + [Fraction(1, 2)]
    return pps, agent, phi, action, thresholds


class TestParallelSweep:
    @pytest.mark.parametrize("numeric", ("exact", "auto", "float"))
    def test_rows_identical_to_serial(self, numeric):
        pps, agent, phi, action, thresholds = _sweep_case(23)
        serial = refrain_threshold_sweep(
            pps, agent, phi, action, thresholds, numeric=numeric
        )
        pps2, agent, phi, action, thresholds = _sweep_case(23)
        parallel = refrain_threshold_sweep(
            pps2, agent, phi, action, thresholds, numeric=numeric, parallel=3
        )
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a["threshold"] == b["threshold"]
            for column in ("achieved", "coverage"):
                if numeric == "float":
                    assert a[column] == b[column]
                else:
                    assert exact_value(a[column]) == exact_value(b[column])

    def test_worker_count_invariance(self):
        rows = []
        for workers in (2, 4):
            pps, agent, phi, action, thresholds = _sweep_case(23)
            result = refrain_threshold_sweep(
                pps, agent, phi, action, thresholds,
                numeric="auto", parallel=workers,
            )
            rows.append(
                [
                    (row["threshold"], exact_value(row["achieved"]),
                     exact_value(row["coverage"]))
                    for row in result
                ]
            )
        assert rows[0] == rows[1]

    def test_numeric_stats_totals_pinned_serial_vs_sharded(self):
        # The latent-bug satellite: per-worker counters must be summed
        # into the parent on combine, not silently dropped with the
        # fork — auto-mode escalation counts are part of the sweep's
        # observable contract.
        pps, agent, phi, action, thresholds = _sweep_case(23)
        reset_numeric_stats()
        serial = refrain_threshold_sweep(
            pps, agent, phi, action, thresholds, numeric="auto"
        )
        serial_stats = numeric_stats()
        pps2, agent, phi, action, thresholds = _sweep_case(23)
        reset_numeric_stats()
        parallel = refrain_threshold_sweep(
            pps2, agent, phi, action, thresholds, numeric="auto", parallel=3
        )
        parallel_stats = numeric_stats()
        assert serial_stats == parallel_stats
        assert [exact_value(r["achieved"]) for r in serial] == [
            exact_value(r["achieved"]) for r in parallel
        ]

    def test_parallel_one_and_none_never_fork(self, monkeypatch):
        import importlib

        sweep_module = importlib.import_module("repro.analysis.sweep")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("parallel path taken for parallel<=1")

        monkeypatch.setattr(sweep_module, "_forked_rows", explode)
        pps, agent, phi, action, thresholds = _sweep_case(23)
        rows = refrain_threshold_sweep(pps, agent, phi, action, thresholds)
        assert len(rows) == len(thresholds)
        pps2, agent, phi, action, thresholds = _sweep_case(23)
        rows1 = refrain_threshold_sweep(
            pps2, agent, phi, action, thresholds, parallel=1
        )
        assert [r["threshold"] for r in rows] == [r["threshold"] for r in rows1]
