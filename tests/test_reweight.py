"""Reweighting layer: probability overlays, weight-split indices, parity.

Covers the PR 9 tentpole and satellites:

* ``ReweightedPPS`` shares the parent tree (node identity, run
  indices) and recomputes only run probabilities through the flattened
  override table;
* ``SystemIndex.derived`` inherits every shape-dependent table by
  reference for reweighted children and rebuilds the weight kernel
  bit-identical to a cold build (``_weight_tables`` single source);
* derived-vs-materialized Fraction-exact parity of measures, beliefs,
  achieved probabilities, and Lemma 5.1 verdicts on ≥18 random
  protocol systems plus the FS app, under both ``scale_adversary``
  drift and ``condition_on`` conditioning;
* the full differential grid (shards × numeric tiers × backends) over
  reweighted and conditioned systems, referenced against standalone
  materialized rebuilds;
* zero-weight edges keep their run slots; zero-total reweights and
  off-measure overrides fail loudly at construction naming an edge;
* ``Distribution.reweight`` and the app-level consumers
  (``drift_loss``, ``drift_under_adversaries``, ``reweight_sweep``).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import (
    achieved_probability,
    belief_profile,
    check_lemma_5_1,
    performing_runs,
    probability,
    runs_satisfying,
)
from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_state_fact,
)
from repro.analysis.sweep import reweight_sweep
from repro.apps.firing_squad import (
    ALICE,
    BOB,
    FIRE,
    THRESHOLD,
    both_fire,
    build_firing_squad,
    drift_loss,
)
from repro.core.atoms import local_fact, performed
from repro.core.engine import SystemIndex
from repro.core.errors import InvalidSystemError, NotStochasticError
from repro.core.facts import eventually
from repro.core.numeric import as_fraction
from repro.core.pps import DerivedPPS, Node, ProbabilityOverlay, ReweightedPPS
from repro.core.reweight import (
    condition_on,
    materialize,
    reweight_edges,
    scale_adversary,
)
from repro.protocols import (
    Adversary,
    Distribution,
    drift_under_adversaries,
    relabel_actions,
)

from parity import DEFAULT_CONFIGS, assert_fraction_parity


def _first_sibling(node: Node) -> bool:
    """Select the first of two-or-more siblings (a generic 'adversary')."""
    parent = node.parent
    return (
        parent is not None
        and len(parent.children) >= 2
        and parent.children[0] is node
    )


def _outcome(fn):
    """``("ok", value)`` or ``("raise", ExceptionName)`` — for mirrored
    assertions on systems where a transform may have stripped an
    action's entire coverage."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - mirrored, not swallowed
        return ("raise", type(exc).__name__)


# ----------------------------------------------------------------------
# Tentpole: derived-vs-materialized parity on random systems
# ----------------------------------------------------------------------


def _assert_reweight_parity(parent, derived, agent, action, phi):
    """The reweighted child and its materialized rebuild agree everywhere."""
    assert isinstance(derived, ReweightedPPS)
    assert derived.root is parent.root  # node identity preserved
    materialized = materialize(derived)

    # Run space: same indices, same exact probabilities, measure intact.
    assert len(derived.runs) == len(parent.runs) == len(materialized.runs)
    assert [r.index for r in derived.runs] == [r.index for r in parent.runs]
    assert [r.prob for r in derived.runs] == [r.prob for r in materialized.runs]
    assert sum((r.prob for r in derived.runs), start=Fraction(0)) == 1

    # Beliefs of the condition and of an action-dependent fact.  A
    # factor-0 drift can zero out every run through a local state, in
    # which case the belief there is 0/0 — identically on both sides.
    for fact in (phi, performed(agent, action)):
        assert _outcome(
            lambda: belief_profile(derived, agent, fact)
        ) == _outcome(lambda: belief_profile(materialized, agent, fact))

    # Achieved probability — or the identical refusal when the reweight
    # drove the action's coverage to zero.
    assert _outcome(
        lambda: achieved_probability(derived, agent, phi, action)
    ) == _outcome(lambda: achieved_probability(materialized, agent, phi, action))

    # Theorem verdicts.
    for threshold in ("1/3", "2/3"):
        left = _outcome(
            lambda: check_lemma_5_1(derived, agent, action, phi, threshold)
        )
        right = _outcome(
            lambda: check_lemma_5_1(materialized, agent, action, phi, threshold)
        )
        if left[0] == "ok":
            l, r = left[1], right[1]
            assert (l.premises, l.conclusion) == (r.premises, r.conclusion)
        else:
            assert left == right

    # The fast (inherited) index matches a cold rebuild of the same
    # derived system on every weight table.
    fast = SystemIndex.of(derived)
    cold = SystemIndex(derived)
    assert fast._denominator == cold._denominator
    assert fast._weights == cold._weights
    assert fast._prefix == cold._prefix


class TestRandomReweightParity:
    @pytest.mark.parametrize("seed", range(18))
    def test_scale_adversary(self, seed):
        pps = random_protocol_system(
            seed, n_agents=2, horizon=2, mixed_level=(seed % 3) / 2
        )
        agent = pps.agents[seed % len(pps.agents)]
        actions = proper_actions_of(pps, agent)
        assert actions, "generator guarantees proper actions"
        action = actions[seed % len(actions)]
        phi = random_state_fact(seed)
        factor = ("1/2", "0", "3/4")[seed % 3]
        scaled = scale_adversary(pps, _first_sibling, factor)
        _assert_reweight_parity(pps, scaled, agent, action, phi)

    @pytest.mark.parametrize("seed", range(18))
    def test_condition_on(self, seed):
        pps = random_protocol_system(
            seed, n_agents=2, horizon=2, mixed_level=(seed % 3) / 2
        )
        agent = pps.agents[seed % len(pps.agents)]
        actions = proper_actions_of(pps, agent)
        action = actions[seed % len(actions)]
        phi = random_state_fact(seed)
        conditioned = condition_on(pps, performed(agent, action))
        _assert_reweight_parity(pps, conditioned, agent, action, phi)


class TestConditionOnSemantics:
    def test_conditioned_measure_is_the_conditional(self, firing_squad):
        fact = performed(BOB, FIRE)
        mask = SystemIndex.of(firing_squad).runs_satisfying_mask(fact)
        mu = probability(firing_squad, performing_runs(firing_squad, BOB, FIRE))
        assert 0 < mu < 1
        conditioned = condition_on(firing_squad, fact)
        assert probability(
            conditioned, performing_runs(conditioned, BOB, FIRE)
        ) == 1
        for run, original in zip(conditioned.runs, firing_squad.runs):
            if mask >> run.index & 1:
                assert run.prob == original.prob / mu
            else:
                assert run.prob == 0

    def test_conditioning_on_certainty_is_identity(self, firing_squad):
        sure = eventually(local_fact(ALICE, lambda local: True, label="any"))
        conditioned = condition_on(firing_squad, sure)
        assert not conditioned.is_reweighted
        assert [r.prob for r in conditioned.runs] == [
            r.prob for r in firing_squad.runs
        ]


# ----------------------------------------------------------------------
# Tentpole: weight-split index inheritance internals
# ----------------------------------------------------------------------


class TestWeightSplitInheritance:
    def _pair(self, firing_squad):
        derived = scale_adversary(firing_squad, _first_sibling, "1/2")
        return SystemIndex.of(firing_squad), SystemIndex.of(derived), derived

    def test_shape_tables_shared_by_reference(self, firing_squad):
        parent, child, _ = self._pair(firing_squad)
        assert child.run_count == parent.run_count
        assert child.all_mask == parent.all_mask
        assert child._node_ranges is parent._node_ranges
        assert child._alive is parent._alive
        assert child._local_occurrence is parent._local_occurrence
        assert child._partitions is parent._partitions
        assert child._event_cache is parent._event_cache
        assert child._component_cache is parent._component_cache
        assert child._shard_plans is parent._shard_plans

    def test_weight_tables_rebuilt_not_shared(self, firing_squad):
        parent, child, _ = self._pair(firing_squad)
        assert child._weights is not parent._weights
        assert child._weights != parent._weights
        assert child._prefix is not parent._prefix
        assert child._prob_cache is not parent._prob_cache
        assert child._total_cache is not parent._total_cache
        assert child._bounds_cache is not parent._bounds_cache
        # Both kernels normalize: prefix totals equal the denominator.
        assert child._prefix[-1] == child._denominator
        assert parent._prefix[-1] == parent._denominator

    def test_reweighted_child_owns_its_weight_kernel(self, firing_squad):
        parent, child, _ = self._pair(firing_squad)
        assert child.weight_kernel() is not parent.weight_kernel()
        assert child.weight_kernel() is child.weight_kernel()  # memoized

    def test_relabel_child_resolves_kernel_to_parent(self, firing_squad):
        parent = SystemIndex.of(firing_squad)
        relabeled = relabel_actions(firing_squad, lambda node, via: via)
        child = SystemIndex.of(relabeled)
        assert child._weights is parent._weights
        assert child.weight_kernel() is parent.weight_kernel()

    def test_action_free_fact_masks_survive_reweighting(self, firing_squad):
        base = build_firing_squad()
        index = SystemIndex.of(base)
        sure = eventually(local_fact(ALICE, lambda local: True, label="any"))
        runs_satisfying(base, sure)  # prime the parent cache
        key = index._fact_key(sure)
        assert key in index._fact_masks and key in index._action_free
        child = SystemIndex.of(scale_adversary(base, _first_sibling, "1/2"))
        assert child._fact_masks[key] == index._fact_masks[key]

    def test_belief_cache_dropped_on_reweighting(self, firing_squad):
        from repro import belief

        base = build_firing_squad()
        phi = eventually(local_fact(BOB, lambda local: True, label="bob-any"))
        local = next(iter(SystemIndex.of(base).state_cells(ALICE, FIRE)))
        belief(base, ALICE, phi, local)  # prime
        assert SystemIndex.of(base)._belief_cache
        drifted = drift_loss(base, "0.2")
        child = SystemIndex.of(drifted)
        # Posteriors are weight-dependent: the cache starts empty and
        # refills with the *drifted* values.
        assert child._belief_cache == {}
        assert belief(drifted, ALICE, phi, local) == belief(
            materialize(drifted), ALICE, phi, local
        )

    def test_dependency_tables_cover_every_index_attribute(self, firing_squad):
        derived = scale_adversary(firing_squad, _first_sibling, "1/2")
        check_lemma_5_1(derived, ALICE, FIRE, both_fire(), THRESHOLD)
        check_lemma_5_1(
            derived, ALICE, FIRE, both_fire(), THRESHOLD, numeric="auto"
        )
        known = set(SystemIndex.DEPENDENCY_CLASS) | set(
            SystemIndex.BOOKKEEPING_ATTRS
        )
        for index in (SystemIndex.of(firing_squad), SystemIndex.of(derived)):
            unclassified = set(vars(index)) - known
            assert not unclassified, (
                f"index attributes without a dependency class: {unclassified}"
            )

    def test_dependency_class_lookup(self):
        assert SystemIndex.dependency_class("_weights") == "weight"
        assert SystemIndex.dependency_class("_belief_cache") == "weight"
        assert SystemIndex.dependency_class("_alive") == "shape"
        assert SystemIndex.dependency_class("_fact_masks") == "shape"
        with pytest.raises(KeyError):
            SystemIndex.dependency_class("pps")  # bookkeeping, not cache


# ----------------------------------------------------------------------
# Overlay chaining: reweight and relabel compose in either order
# ----------------------------------------------------------------------


class TestOverlayChaining:
    @staticmethod
    def _rename(node, via):
        if via.get(ALICE) == FIRE:
            via[ALICE] = "launch"
        return via

    def test_both_orders_agree(self, firing_squad):
        reweight_then_relabel = relabel_actions(
            scale_adversary(firing_squad, _first_sibling, "1/2"), self._rename
        )
        relabel_then_reweight = scale_adversary(
            relabel_actions(firing_squad, self._rename),
            _first_sibling,
            "1/2",
        )
        for chained in (reweight_then_relabel, relabel_then_reweight):
            assert isinstance(chained, DerivedPPS)
            assert chained.is_reweighted
            assert chained._prob_overrides and chained._edge_overrides
            assert chained.root is firing_squad.root
            assert not performing_runs(chained, ALICE, FIRE)
            assert performing_runs(chained, ALICE, "launch")
        assert [r.prob for r in reweight_then_relabel.runs] == [
            r.prob for r in relabel_then_reweight.runs
        ]
        left = probability(
            reweight_then_relabel,
            performing_runs(reweight_then_relabel, ALICE, "launch"),
        )
        right = probability(
            relabel_then_reweight,
            performing_runs(relabel_then_reweight, ALICE, "launch"),
        )
        assert left == right
        baked = materialize(reweight_then_relabel)
        assert probability(
            baked, performing_runs(baked, ALICE, "launch")
        ) == left

    def test_inverse_drift_restores_the_parent_measure(self, firing_squad):
        halved = scale_adversary(firing_squad, _first_sibling, "1/2")
        restored = scale_adversary(halved, _first_sibling, 2)
        for node in firing_squad.nodes():
            if node.parent is not None:
                assert restored.edge_probability(node) == node.prob_from_parent
        assert [r.prob for r in restored.runs] == [
            r.prob for r in firing_squad.runs
        ]

    def test_relabel_of_reweighted_parent_shares_its_weights(self, firing_squad):
        drifted = drift_loss(firing_squad, "0.2")
        relabeled = relabel_actions(drifted, self._rename)
        drifted_index = SystemIndex.of(drifted)
        child = SystemIndex.of(relabeled)
        # The relabelling did not change probabilities relative to its
        # (reweighted) parent, so the weight kernel is inherited from
        # *it*, not rebuilt a second time.
        assert child._weights is drifted_index._weights
        assert child.weight_kernel() is drifted_index.weight_kernel()


# ----------------------------------------------------------------------
# Zero-weight edges keep their run slots
# ----------------------------------------------------------------------


class TestZeroWeightEdges:
    def test_factor_zero_keeps_runs_with_zero_probability(self, firing_squad):
        removed = scale_adversary(firing_squad, _first_sibling, "0")
        assert len(removed.runs) == len(firing_squad.runs)
        assert any(r.prob == 0 for r in removed.runs)
        assert sum((r.prob for r in removed.runs), start=Fraction(0)) == 1
        materialized = materialize(removed)
        assert [r.prob for r in materialized.runs] == [
            r.prob for r in removed.runs
        ]

    def test_drift_to_boundary_keeps_runs_cold_build_prunes(self, firing_squad):
        drifted = drift_loss(firing_squad, "0")
        assert len(drifted.runs) == len(firing_squad.runs)
        cold = build_firing_squad(loss="0")
        assert len(cold.runs) < len(drifted.runs)
        # Same measure on both sides despite the differing run spaces.
        phi = eventually(both_fire())
        assert probability(drifted, runs_satisfying(drifted, phi)) == (
            probability(cold, runs_satisfying(cold, phi))
        )
        assert achieved_probability(drifted, ALICE, both_fire(), FIRE) == (
            achieved_probability(cold, ALICE, both_fire(), FIRE)
        )


# ----------------------------------------------------------------------
# Loud failure: malformed reweights at construction
# ----------------------------------------------------------------------


class TestReweightValidation:
    def test_zero_total_names_a_zeroed_edge(self, firing_squad):
        initial = firing_squad.root.children
        with pytest.raises(ValueError, match="overridden to 0"):
            reweight_edges(firing_squad, [(child, 0) for child in initial])

    def test_off_measure_total_raises_not_stochastic(self, firing_squad):
        child = firing_squad.root.children[0]
        with pytest.raises(NotStochasticError, match="expected 1"):
            reweight_edges(firing_squad, [(child, "1/4")])

    def test_negative_probability_rejected(self, firing_squad):
        child = firing_squad.root.children[0]
        with pytest.raises(InvalidSystemError, match="non-negative"):
            reweight_edges(firing_squad, [(child, Fraction(-1, 2))])

    def test_root_override_rejected(self, firing_squad):
        with pytest.raises(InvalidSystemError, match="root"):
            ProbabilityOverlay([(firing_squad.root, Fraction(1, 2))])

    def test_foreign_node_rejected(self, firing_squad):
        other = build_firing_squad(loss="0.2")
        foreign = other.root.children[0]
        with pytest.raises(InvalidSystemError, match="does not belong"):
            reweight_edges(firing_squad, [(foreign, foreign.prob_from_parent)])

    def test_scale_negative_factor_rejected(self, firing_squad):
        with pytest.raises(ValueError, match=">= 0"):
            scale_adversary(firing_squad, _first_sibling, "-1/2")

    def test_scale_overshoot_names_the_node(self, firing_squad):
        with pytest.raises(ValueError, match="exceeds 1"):
            scale_adversary(firing_squad, _first_sibling, 10)

    def test_scale_without_honest_sibling_rejected(self, firing_squad):
        with pytest.raises(ValueError, match="no honest sibling"):
            scale_adversary(firing_squad, lambda node: True, "1/2")

    def test_condition_on_zero_measure_fact_rejected(self, firing_squad):
        with pytest.raises(ValueError, match="probability zero"):
            condition_on(firing_squad, performed(ALICE, "warble"))

    def test_drift_loss_ambiguous_old_rate_rejected(self):
        half = build_firing_squad(loss="0.5")
        with pytest.raises(ValueError, match="several loss/delivery"):
            drift_loss(half, "0.3", old_loss="0.5")

    def test_drift_loss_rejects_out_of_range_target(self, firing_squad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            drift_loss(firing_squad, "3/2")


# ----------------------------------------------------------------------
# Distribution.reweight
# ----------------------------------------------------------------------


class TestDistributionReweight:
    def test_scales_and_renormalizes(self):
        d = Distribution({"a": "1/2", "b": "1/4", "c": "1/4"})
        doubled = d.reweight(lambda o: 2 if o == "a" else 1)
        assert doubled.prob("a") == Fraction(2, 3)
        assert doubled.prob("b") == Fraction(1, 6)
        assert doubled.prob("c") == Fraction(1, 6)

    def test_zero_factor_drops_the_outcome(self):
        d = Distribution({"a": "1/2", "b": "1/2"})
        kept = d.reweight(lambda o: 0 if o == "b" else 1)
        assert "b" not in kept
        assert kept.prob("a") == 1

    def test_negative_factor_rejected(self):
        d = Distribution({"a": "1/2", "b": "1/2"})
        with pytest.raises(ValueError, match="negative"):
            d.reweight(lambda o: Fraction(-1) if o == "b" else 1)

    def test_all_zero_total_names_an_outcome(self):
        d = Distribution({"a": "1/2", "b": "1/2"})
        with pytest.raises(ValueError, match="total probability to zero"):
            d.reweight(lambda o: 0)


# ----------------------------------------------------------------------
# Consumers: drift_loss vs recompile, adversary drift, the sweep
# ----------------------------------------------------------------------


class TestDriftLoss:
    def test_matches_a_cold_recompile(self, firing_squad):
        drifted = drift_loss(firing_squad, "0.2")
        cold = build_firing_squad(loss="0.2")
        phi = both_fire()
        event = eventually(phi)
        assert achieved_probability(drifted, ALICE, phi, FIRE) == Fraction(24, 25)
        for left, right in (
            (drifted, cold),
            (materialize(drifted), cold),
        ):
            assert achieved_probability(left, ALICE, phi, FIRE) == (
                achieved_probability(right, ALICE, phi, FIRE)
            )
            assert probability(left, runs_satisfying(left, event)) == (
                probability(right, runs_satisfying(right, event))
            )
            assert belief_profile(left, ALICE, phi) == belief_profile(
                right, ALICE, phi
            )

    def test_identity_drift_changes_nothing(self, firing_squad):
        same = drift_loss(firing_squad, "0.1")
        assert not same.is_reweighted
        assert [r.prob for r in same.runs] == [r.prob for r in firing_squad.runs]


class TestDriftUnderAdversaries:
    def test_drifts_every_compiled_system(self):
        compiled = {
            Adversary.of(channel="lossy"): build_firing_squad(),
            Adversary.of(channel="clean"): build_firing_squad(loss="0.05"),
        }
        drifted = drift_under_adversaries(
            compiled, lambda adv, node: _first_sibling(node), "1/2"
        )
        assert set(drifted) == set(compiled)
        for adversary, system in drifted.items():
            assert isinstance(system, ReweightedPPS)
            assert "drift(1/2)" in system.name
            direct = scale_adversary(
                compiled[adversary], _first_sibling, "1/2"
            )
            assert [r.prob for r in system.runs] == [
                r.prob for r in direct.runs
            ]

    def test_per_adversary_selection(self):
        lossy = Adversary.of(kind="lossy")
        clean = Adversary.of(kind="clean")
        compiled = {
            lossy: build_firing_squad(),
            clean: build_firing_squad(loss="0.05"),
        }
        drifted = drift_under_adversaries(
            compiled,
            lambda adv, node: adv is lossy and _first_sibling(node),
            "1/2",
        )
        assert drifted[lossy].is_reweighted
        assert not drifted[clean].is_reweighted


class TestReweightSweep:
    @staticmethod
    def _measure(system, *, numeric="exact"):
        check = check_lemma_5_1(
            system, ALICE, FIRE, both_fire(), THRESHOLD, numeric=numeric
        )
        return {
            "conclusion": check.conclusion,
            "achieved": achieved_probability(system, ALICE, both_fire(), FIRE),
        }

    def test_serial_parallel_materialized_agree(self, firing_squad):
        values = ["0.05", "0.1", "0.2", "0.05"]  # duplicate exercises fan-out
        serial = reweight_sweep(
            firing_squad, drift_loss, values, self._measure, param="loss"
        )
        parallel = reweight_sweep(
            firing_squad,
            drift_loss,
            values,
            self._measure,
            param="loss",
            parallel=2,
        )
        materialized = reweight_sweep(
            firing_squad,
            lambda p, v: materialize(drift_loss(p, v)),
            values,
            self._measure,
            param="loss",
        )
        assert serial == parallel == materialized
        assert [row["loss"] for row in serial] == [
            as_fraction(value) for value in values
        ]
        assert serial[0] == serial[3]
        assert serial[0]["achieved"] == Fraction(399, 400)
        assert serial[2]["achieved"] == Fraction(24, 25)

    def test_param_name_collision_raises(self, firing_squad):
        with pytest.raises(ValueError, match="conclusion"):
            reweight_sweep(
                firing_squad,
                drift_loss,
                ["0.2"],
                self._measure,
                param="conclusion",
            )


# ----------------------------------------------------------------------
# The differential grid: shards × numeric tiers × backends
# ----------------------------------------------------------------------


def _lemma_query(system, *, numeric="exact"):
    check = check_lemma_5_1(
        system, ALICE, FIRE, both_fire(), THRESHOLD, numeric=numeric
    )
    return {"premises": check.premises, "conclusion": check.conclusion}


def _achieved_query(system, *, numeric="exact"):
    return {
        "alice": achieved_probability(
            system, ALICE, both_fire(), FIRE, numeric=numeric
        ),
        "bob": achieved_probability(
            system, BOB, both_fire(), FIRE, numeric=numeric
        ),
    }


REWEIGHTED_FACTORIES = (
    lambda: drift_loss(build_firing_squad(), "0.2"),
    lambda: scale_adversary(build_firing_squad(), _first_sibling, "1/2"),
)


class TestReweightedParityGrid:
    def test_reweighted_lemma_verdicts(self):
        assert_fraction_parity(
            _lemma_query,
            REWEIGHTED_FACTORIES,
            DEFAULT_CONFIGS,
            reference_fn=lambda system: _lemma_query(
                materialize(system)
            ),
        )

    def test_conditioned_achieved_probabilities(self):
        # The lemma's independence scan would divide by the occurrence
        # of cells the conditioning zeroed; achieved probabilities stay
        # well-defined and non-trivial (99/100 for Alice) here.
        assert_fraction_parity(
            _achieved_query,
            [
                lambda: condition_on(
                    build_firing_squad(), performed(ALICE, FIRE)
                )
            ],
            DEFAULT_CONFIGS,
            reference_fn=lambda system: _achieved_query(
                materialize(system)
            ),
        )
