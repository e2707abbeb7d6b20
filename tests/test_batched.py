"""Batched evaluation and structural cache keys.

Two contracts are hammered here:

* **Batched parity** — ``events_of`` / ``truths_at`` / ``beliefs_batch``
  must return exactly (``Fraction``-equal) what the single-fact APIs
  return, on the seeded random-system corpus, for every fact shape the
  library builds (atoms, connectives, temporal closures, knowledge,
  graded belief).
* **Structural sharing** — two independently built, syntactically equal
  facts share one engine cache entry; opaque facts (arbitrary
  predicates) keep identity semantics; ``memo=False`` writes nothing
  into the per-system caches.
"""

from __future__ import annotations

import pytest

from repro import (
    SystemIndex,
    believes,
    does_,
    eventually,
    knows,
    performed,
)
from repro.core.naive import naive_belief, naive_runs_satisfying
from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_run_fact,
    random_state_fact,
)

BATCH_SEEDS = [(seed, seed % 3 * 0.5) for seed in range(0, 54, 3)]


def _system(seed: int, mixed: float):
    return random_protocol_system(seed, mixed_level=mixed)


def _two_run_improper_system():
    """Run 0 performs 'go' twice (improper there); run 1 performs it once."""
    from repro import PPSBuilder

    builder = PPSBuilder(["i"], name="improper-go")
    a = builder.initial("1/2", {"i": (0, "a")})
    b = builder.initial("1/2", {"i": (0, "b")})
    a1 = a.child(1, {"i": (1, "a")}, actions={"i": "go"})
    a1.child(1, {"i": (2, "a")}, actions={"i": "go"})
    b1 = b.child(1, {"i": (1, "b")}, actions={"i": "go"})
    b1.child(1, {"i": (2, "b")}, actions={"i": "wait"})
    return builder.build()


def _fact_menu(system, seed):
    """A batch covering every structural shape the engine decomposes."""
    agent = system.agents[0]
    action = proper_actions_of(system, agent)[0]
    phi = random_state_fact(seed + 1)
    chi = random_run_fact(seed + 2)
    alpha = performed(agent, action)
    return [
        phi,
        chi,
        alpha,
        eventually(phi),
        phi & alpha,
        phi | ~alpha,
        ~(phi & ~chi),
        does_(agent, action),
        knows(agent, phi),
        believes(agent, phi, "1/2"),
    ]


@pytest.mark.parametrize("seed,mixed", BATCH_SEEDS)
def test_events_of_matches_single_fact_masks(seed, mixed):
    batched_system = _system(seed, mixed)
    single_system = _system(seed, mixed)
    facts = _fact_menu(batched_system, seed)
    run_facts = [fact for fact in facts if fact.is_run_fact]
    batched = SystemIndex.of(batched_system).events_of(run_facts)
    single_index = SystemIndex.of(single_system)
    singles = [single_index.runs_satisfying_mask(fact) for fact in run_facts]
    assert batched == singles
    # ... and both agree with the naive from-scratch event scan.
    for fact, mask in zip(run_facts, batched):
        index = SystemIndex.of(batched_system)
        assert index.event_of(mask) == naive_runs_satisfying(batched_system, fact)


@pytest.mark.parametrize("seed,mixed", BATCH_SEEDS)
def test_truths_at_matches_single_fact_slices(seed, mixed):
    batched_system = _system(seed, mixed)
    single_system = _system(seed, mixed)
    facts = _fact_menu(batched_system, seed)
    batched_index = SystemIndex.of(batched_system)
    single_index = SystemIndex.of(single_system)
    for t in range(batched_index.max_time + 1):
        batched = batched_index.truths_at(facts, t)
        singles = [single_index.holds_mask_at(fact, t) for fact in facts]
        assert batched == singles
        # Per-point ground truth, bypassing both cache layers.
        runs = batched_system.runs
        for fact, mask in zip(facts, batched):
            expected = 0
            for run in runs:
                if t < run.length and fact.holds(batched_system, run, t):
                    expected |= 1 << run.index
            assert mask == expected


@pytest.mark.parametrize("seed,mixed", BATCH_SEEDS)
def test_beliefs_batch_matches_naive_beliefs(seed, mixed):
    system = _system(seed, mixed)
    index = SystemIndex.of(system)
    facts = _fact_menu(system, seed)[:6]
    for agent in system.agents:
        for local in sorted(index.local_states(agent), key=repr):
            batched = index.beliefs_batch(agent, facts, local)
            for fact, value in zip(facts, batched):
                assert value == naive_belief(system, agent, fact, local)
                assert value == index.belief(agent, fact, local)


class TestStructuralSharing:
    def test_equal_facts_share_one_slice_entry(self):
        system = random_protocol_system(7)
        index = SystemIndex.of(system)
        agent = system.agents[0]
        action = proper_actions_of(system, agent)[0]

        def build():
            return performed(agent, action) & ~does_(agent, action)

        first, second = build(), build()
        assert first is not second
        assert first.structural_key() == second.structural_key()
        mask = index.holds_mask_at(first, 0)
        cached_entries = len(index._slice_masks)
        assert index.holds_mask_at(second, 0) == mask
        assert len(index._slice_masks) == cached_entries

    def test_equal_facts_share_one_belief_entry(self):
        system = random_protocol_system(8)
        index = SystemIndex.of(system)
        agent = system.agents[0]
        action = proper_actions_of(system, agent)[0]
        local = sorted(index.local_states(agent), key=repr)[0]
        first = index.belief(agent, performed(agent, action), local)
        cached_entries = len(index._belief_cache)
        # A sweep row rebuilding the same condition hits the same entry.
        second = index.belief(agent, performed(agent, action), local)
        assert second == first
        assert len(index._belief_cache) == cached_entries

    def test_structural_key_cached_per_instance(self):
        fact = performed("a0", (0, 1)) | ~performed("a1", (0, 0))
        assert fact.structural_key() is fact.structural_key()

    def test_predicate_facts_key_on_the_callable(self):
        # Distinct keyless predicate closures (even of the same code)
        # must not share cache entries: nothing relates their semantics.
        from repro.core.atoms import state_fact

        def build():
            return state_fact(lambda state: state.env is None)

        first, second = build(), build()
        assert first.structural_key() != second.structural_key()
        # Wrapping the same callable twice is the same fact.
        predicate = first._predicate
        assert state_fact(predicate).structural_key() == first.structural_key()

    def test_keyed_predicate_facts_share_one_cache_entry(self):
        # A declared key determines the predicate, so equal-seed
        # random facts share one entry and different seeds do not.
        assert random_state_fact(5).structural_key() == (
            random_state_fact(5).structural_key()
        )
        assert random_state_fact(5).structural_key() != (
            random_state_fact(6).structural_key()
        )
        assert random_state_fact(5).structural_key() != (
            random_state_fact(5, density=0.25).structural_key()
        )
        system = random_protocol_system(8)
        index = SystemIndex.of(system)
        mask = index.holds_mask_at(random_state_fact(5), 1)
        cached_entries = len(index._slice_masks)
        assert index.holds_mask_at(random_state_fact(5), 1) == mask
        assert len(index._slice_masks) == cached_entries
        index.holds_mask_at(random_state_fact(6), 1)
        assert len(index._slice_masks) == cached_entries + 1

    def test_opaque_facts_fall_back_to_identity(self):
        from repro.core.facts import RunFact

        class Opaque(RunFact):
            def holds(self, pps, run, t):
                return True

        first, second = Opaque(), Opaque()
        assert first.structural_key() != second.structural_key()
        # The identity fallback embeds the instance, so the key cannot
        # collide with (or outlive) another fact's key.
        assert first in first.structural_key()

    def test_memo_false_leaves_caches_untouched(self):
        system = random_protocol_system(9)
        index = SystemIndex.of(system)
        agent = system.agents[0]
        action = proper_actions_of(system, agent)[0]
        fresh = performed(agent, action) & random_run_fact(42)
        facts_before = dict(index._fact_masks)
        slices_before = dict(index._slice_masks)
        with_memo = index.runs_satisfying_mask(
            performed(agent, action) & random_run_fact(42), memo=True
        )
        index._fact_masks.clear()
        index._fact_masks.update(facts_before)
        assert index.runs_satisfying_mask(fresh, memo=False) == with_memo
        assert index.truths_at([fresh], 0, memo=False)[0] == (
            index.holds_mask_at(fresh, 0, memo=False)
        )
        assert index._fact_masks == facts_before
        assert index._slice_masks == slices_before

    def test_guarded_partial_facts_keep_short_circuit_semantics(self):
        # Regression: the boolean mask decomposition must not evaluate
        # a partial sub-fact (one whose ``holds`` raises) on runs the
        # connective's own short-circuiting would never touch — e.g. a
        # guard conjunct excluding the runs where an @-action operand
        # is improper.
        from repro import ImproperActionError, TRUE, at_action, runs_satisfying
        from repro.core.facts import LambdaRunFact

        builder_pps = _two_run_improper_system()
        phi_at = at_action(TRUE, "i", "go")
        guard = LambdaRunFact(lambda pps, run: run.index == 1, label="guard")
        # Unguarded, the partial fact raises (run 0 performs 'go' twice) ...
        with pytest.raises(ImproperActionError):
            runs_satisfying(builder_pps, phi_at)
        # ... but guarded it evaluates only where the guard holds.
        assert runs_satisfying(builder_pps, guard & phi_at) == frozenset({1})
        index = SystemIndex.of(builder_pps)
        assert index.events_of([guard | ~guard, guard & phi_at]) == [
            index.all_mask,
            0b10,
        ]

    def test_phi_at_action_only_evaluates_performing_runs(self):
        # Regression: deriving phi@alpha from whole-slice truth masks
        # must not evaluate a partial phi on alive runs that do not
        # perform alpha (the historic path never touched them).
        from fractions import Fraction

        from repro import TRUE, at_action
        from repro.core.constraints import achieved_probability

        builder_pps = _two_run_improper_system()
        phi = at_action(TRUE, "i", "go")  # raises on run 0 ('go' twice)
        assert achieved_probability(builder_pps, "i", phi, "wait") == Fraction(1)

    def test_verify_system_tolerates_unreachable_partial_conditions(self):
        # Regression: the batched condition prefetch must not raise for
        # a partial condition the checker loop never evaluates (here
        # the agent has no proper actions at all, so no checker runs).
        from repro import PPSBuilder, TRUE, at_action
        from repro.analysis.verify import verify_system

        builder = PPSBuilder(["i"], name="no-proper-actions")
        a = builder.initial(1, {"i": (0, "a")})
        a1 = a.child(1, {"i": (1, "a")}, actions={"i": "go"})
        a1.child(1, {"i": (2, "a")}, actions={"i": "go"})
        pps = builder.build()
        verification = verify_system(pps, {"c": at_action(TRUE, "i", "go")})
        assert verification.results == {}
        assert verification.all_verified
