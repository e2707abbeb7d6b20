"""Derived-system transform layer: overlays, inherited indices, parity.

Covers the PR 4 tentpole and satellites:

* ``materialize`` is iterative (deep trees can't hit
  ``RecursionError``) and keeps the historic pre-order uid contract;
* ``relabel_actions`` visits edges in deterministic BFS order;
* ``refrain_below_threshold`` raises ``ValueError`` (not a bare
  assert) when a matching performance sits on a root edge;
* ``materialize(refrain_below_threshold(...))`` reproduces the legacy
  deep-copy path bit-identically (uid sequence, leaf order,
  probabilities);
* derived-vs-materialized Fraction-exact parity of measures, beliefs,
  achieved probabilities, and theorem verdicts on ≥18 random protocol
  systems plus the FS and judge apps;
* the derived index inherits exactly the label-independent tables and
  cache entries, and matches a cold rebuild of the same derived system.
"""

from __future__ import annotations

import sys
from collections import deque
from fractions import Fraction
from typing import Dict, Optional

import pytest

from repro import (
    achieved_probability,
    belief,
    belief_profile,
    check_theorem_4_2,
    check_theorem_6_2,
    performing_runs,
    probability,
    runs_satisfying,
)
from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_state_fact,
    tree_signature,
)
from repro.analysis.sweep import refrain_threshold_sweep
from repro.apps.firing_squad import (
    ALICE,
    BOB,
    FIRE,
    THRESHOLD,
    both_fire,
    build_firing_squad,
    derive_improved_firing_squad,
)
from repro.apps.judge import CONVICT, JUDGE, build_judge, guilty
from repro.core.atoms import TRUE, local_fact, performed
from repro.core.engine import SystemIndex
from repro.core.errors import ImproperActionError
from repro.core.facts import eventually
from repro.core.numeric import as_fraction
from repro.core.pps import (
    PPS,
    ActionOverlay,
    DerivedPPS,
    GlobalState,
    Node,
    OverlayRun,
)
from repro.core.reweight import materialize
from repro.protocols import refrain_below_threshold, relabel_actions


# ----------------------------------------------------------------------
# The legacy (pre-PR 4) transform, inlined as the bit-identity oracle.
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
        copy.children = [clone(child, copy) for child in node.children]
        return copy

    return clone(root, None)


def _legacy_refrain(pps: PPS, agent, action, phi, threshold) -> PPS:
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
                via[agent] = "skip"
            node.via_action = via
        stack.extend(node.children)
    return PPS(pps.agents, root, name=f"{pps.name}-refrain[{action}]")


def _chain(depth: int) -> Node:
    """A single-path tree of the given depth (raw nodes, no PPS)."""
    root = Node(uid=0, depth=0, state=None)
    node = root
    for d in range(1, depth + 1):
        child = Node(
            uid=d,
            depth=d,
            state=GlobalState(env=None, locals=((d - 1, "x"),)),
            parent=node,
            via_action={"a": "step"} if d > 1 else None,
        )
        node.children.append(child)
        node = child
    return root


# ----------------------------------------------------------------------
# Satellite: iterative materialize
# ----------------------------------------------------------------------


class TestIterativeCopyTree:
    def test_deep_chain_beyond_recursion_limit(self):
        depth = sys.getrecursionlimit() + 500
        copy = materialize(PPS(["a"], _chain(depth), validate=False)).root
        count = 0
        node: Optional[Node] = copy
        while node is not None:
            assert node.uid == count == node.depth
            count += 1
            node = node.children[0] if node.children else None
        assert count == depth + 1

    def test_matches_legacy_recursive_numbering(self, firing_squad):
        copy = materialize(firing_squad)
        legacy = PPS(
            firing_squad.agents, _legacy_copy_tree(firing_squad.root), name="rec"
        )
        assert tree_signature(copy) == tree_signature(legacy)


# ----------------------------------------------------------------------
# Satellite: BFS relabel order
# ----------------------------------------------------------------------


class TestRelabelVisitOrder:
    def _expected_bfs_uids(self, pps: PPS):
        expected = []
        queue = deque([pps.root])
        while queue:
            node = queue.popleft()
            if pps.edge_action(node) is not None:
                expected.append((node.depth, node.uid))
            queue.extend(node.children)
        return expected

    def test_derived_path_visits_in_bfs_order(self, firing_squad):
        visited = []

        def record(node, via):
            visited.append((node.depth, node.uid))
            return via

        relabel_actions(firing_squad, record)
        assert visited == self._expected_bfs_uids(firing_squad)
        # BFS is depth-monotone by construction.
        assert [d for d, _ in visited] == sorted(d for d, _ in visited)

    def test_materialized_path_visits_in_bfs_order(self, firing_squad):
        # Tag every edge with its visit number; the baked copy must
        # carry the tags in breadth-first order.
        visits = []

        def tag(node, via):
            visits.append(node.depth)
            return {agent: f"v{len(visits)}" for agent in via}

        baked = materialize(relabel_actions(firing_squad, tag))
        assert isinstance(baked, PPS) and not isinstance(baked, DerivedPPS)
        tags = []
        queue = deque([baked.root])
        while queue:
            node = queue.popleft()
            if node.via_action is not None:
                tags.append(set(node.via_action.values()))
            queue.extend(node.children)
        assert tags == [{f"v{k}"} for k in range(1, len(visits) + 1)]
        assert visits == sorted(visits)
        assert len(visits) == len(self._expected_bfs_uids(firing_squad))


# ----------------------------------------------------------------------
# Satellite: loud failure on root-edge misuse
# ----------------------------------------------------------------------


class TestRootEdgeFailsLoudly:
    def test_value_error_names_the_offending_node(self):
        root = Node(uid=0, depth=0, state=None)
        # A (degenerate, hand-built) system recording an agent action
        # on the edge out of the root: there is no acting local state.
        child = Node(
            uid=1,
            depth=1,
            state=GlobalState(env=None, locals=((0, "s"),)),
            parent=root,
            via_action={"a": "go"},
        )
        root.children.append(child)
        pps = PPS(["a"], root, name="root-edge")
        with pytest.raises(ValueError, match="leaves the root"):
            refrain_below_threshold(pps, "a", "go", TRUE, "1/2")
        with pytest.raises(ValueError, match="node 1"):
            materialize(refrain_below_threshold(pps, "a", "go", TRUE, "1/2"))

    def test_non_matching_root_edge_is_left_alone(self):
        root = Node(uid=0, depth=0, state=None)
        child = Node(
            uid=1,
            depth=1,
            state=GlobalState(env=None, locals=((0, "s"),)),
            parent=root,
            via_action={"a": "other"},
        )
        root.children.append(child)
        pps = PPS(["a"], root, name="root-edge-ok")
        derived = refrain_below_threshold(pps, "a", "go", TRUE, "1/2")
        assert len(derived.overlay) == 0


# ----------------------------------------------------------------------
# Escape hatch: bit-identity with the legacy deep-copy path
# ----------------------------------------------------------------------


class TestMaterializeBitIdentity:
    def test_firing_squad(self, firing_squad):
        phi = both_fire()
        legacy = _legacy_refrain(firing_squad, ALICE, FIRE, phi, THRESHOLD)
        hatch = materialize(
            refrain_below_threshold(firing_squad, ALICE, FIRE, phi, THRESHOLD)
        )
        assert tree_signature(hatch) == tree_signature(legacy)
        assert [r.prob for r in hatch.runs] == [r.prob for r in legacy.runs]

    @pytest.mark.parametrize("seed", [2, 7, 11])
    def test_random_systems(self, seed):
        pps = random_protocol_system(seed)
        agent = pps.agents[0]
        actions = proper_actions_of(pps, agent)
        action = actions[seed % len(actions)]
        phi = random_state_fact(seed)
        legacy = _legacy_refrain(pps, agent, action, phi, "1/2")
        hatch = materialize(refrain_below_threshold(pps, agent, action, phi, "1/2"))
        assert tree_signature(hatch) == tree_signature(legacy)

    def test_materializing_a_derived_system_bakes_the_overlay(
        self, firing_squad
    ):
        derived = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), THRESHOLD
        )
        # The standalone copy must carry the overlay's labels.
        baked = materialize(derived)
        assert isinstance(baked, PPS) and not isinstance(baked, DerivedPPS)
        assert achieved_probability(baked, ALICE, both_fire(), FIRE) == Fraction(
            990, 991
        )


# ----------------------------------------------------------------------
# Tentpole: derived-vs-materialized parity
# ----------------------------------------------------------------------


def _assert_transform_parity(pps: PPS, agent, action, phi, threshold):
    """Derived and materialized transforms agree on every quantity."""
    derived = refrain_below_threshold(pps, agent, action, phi, threshold)
    materialized = materialize(
        refrain_below_threshold(pps, agent, action, phi, threshold)
    )
    assert isinstance(derived, DerivedPPS)
    assert derived.root is pps.root  # node identity preserved

    # Measures: run distributions and performing events.
    assert [r.prob for r in derived.runs] == [r.prob for r in materialized.runs]
    for who in pps.agents:
        for act in SystemIndex.of(derived).actions_of(who) | SystemIndex.of(
            materialized
        ).actions_of(who):
            assert performing_runs(derived, who, act) == performing_runs(
                materialized, who, act
            )
            assert probability(
                derived, performing_runs(derived, who, act)
            ) == probability(materialized, performing_runs(materialized, who, act))

    # Beliefs: full profile of the condition for the acting agent.
    assert belief_profile(derived, agent, phi) == belief_profile(
        materialized, agent, phi
    )
    # ... and of an action-dependent fact.
    alpha = performed(agent, action)
    assert belief_profile(derived, agent, alpha) == belief_profile(
        materialized, agent, alpha
    )

    # Achieved probability (or identical refusal when fully stripped).
    still_performed = bool(performing_runs(derived, agent, action))
    assert still_performed == bool(performing_runs(materialized, agent, action))
    if still_performed:
        assert achieved_probability(
            derived, agent, phi, action
        ) == achieved_probability(materialized, agent, phi, action)
    else:
        with pytest.raises(ImproperActionError):
            achieved_probability(derived, agent, phi, action)
        with pytest.raises(ImproperActionError):
            achieved_probability(materialized, agent, phi, action)

    # Theorem verdicts.
    for check in (
        lambda system: check_theorem_6_2(system, agent, action, phi),
        lambda system: check_theorem_4_2(system, agent, action, phi, threshold),
    ):
        left, right = check(derived), check(materialized)
        assert left.premises == right.premises
        assert left.conclusion == right.conclusion
        assert left.verified and right.verified


class TestDerivedParity:
    @pytest.mark.parametrize("seed", range(18))
    def test_random_protocol_systems(self, seed):
        pps = random_protocol_system(
            seed, n_agents=2, horizon=2, mixed_level=(seed % 3) / 2
        )
        agent = pps.agents[seed % len(pps.agents)]
        actions = proper_actions_of(pps, agent)
        assert actions, "generator guarantees proper actions"
        action = actions[seed % len(actions)]
        phi = random_state_fact(seed)
        # Sweep thresholds from never-strips to strips-everything.
        for threshold in ("0", "1/3", "2/3", "1"):
            _assert_transform_parity(pps, agent, action, phi, threshold)

    def test_firing_squad_app(self, firing_squad):
        for threshold in ("0", "1/2", THRESHOLD, "0.995", "1"):
            _assert_transform_parity(
                firing_squad, ALICE, FIRE, both_fire(), threshold
            )

    def test_judge_app(self):
        judge = build_judge(signals=2, conviction_threshold=2)
        assert CONVICT in SystemIndex.of(judge).actions_of(JUDGE)
        for threshold in ("0", "0.7", "0.9", "1"):
            _assert_transform_parity(judge, JUDGE, CONVICT, guilty(), threshold)


# ----------------------------------------------------------------------
# Tentpole: derived index internals
# ----------------------------------------------------------------------


class TestDerivedIndexInheritance:
    def _derived_pair(self, firing_squad):
        derived = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), THRESHOLD
        )
        return SystemIndex.of(firing_squad), SystemIndex.of(derived), derived

    def test_label_independent_tables_shared_by_reference(self, firing_squad):
        parent, child, _ = self._derived_pair(firing_squad)
        assert child._weights is parent._weights
        assert child._prefix is parent._prefix
        assert child._prob_cache is parent._prob_cache
        assert child._node_ranges is parent._node_ranges
        assert child._alive is parent._alive
        assert child._local_occurrence is parent._local_occurrence
        assert child._partitions is parent._partitions
        assert child._event_cache is parent._event_cache
        assert child._component_cache is parent._component_cache

    def test_action_free_cache_entries_inherited(self):
        base = build_firing_squad()
        index = SystemIndex.of(base)
        go_up = eventually(local_fact(ALICE, lambda local: True, label="any"))
        runs_satisfying(base, go_up)  # prime the parent cache
        key = index._fact_key(go_up)
        assert key in index._fact_masks and key in index._action_free
        derived = refrain_below_threshold(
            base, ALICE, FIRE, both_fire(), THRESHOLD
        )
        child = SystemIndex.of(derived)
        assert child._fact_masks[key] == index._fact_masks[key]

    def test_action_dependent_cache_entries_invalidated(self):
        base = build_firing_squad()
        index = SystemIndex.of(base)
        alpha = performed(ALICE, FIRE)
        runs_satisfying(base, alpha)  # prime with an action-mentioning fact
        key = index._fact_key(alpha)
        assert key in index._fact_masks and key not in index._action_free
        derived = refrain_below_threshold(
            base, ALICE, FIRE, both_fire(), THRESHOLD
        )
        child = SystemIndex.of(derived)
        assert key not in child._fact_masks
        # Re-evaluated fresh, the masks genuinely differ (Alice no
        # longer fires on 'No').
        assert runs_satisfying(derived, alpha) != runs_satisfying(base, alpha)

    def test_belief_cache_inherited_for_state_facts(self):
        base = build_firing_squad()
        phi = eventually(local_fact(BOB, lambda local: True, label="bob-any"))
        local = next(iter(SystemIndex.of(base).state_cells(ALICE, FIRE)))
        belief(base, ALICE, phi, local)  # prime
        derived = refrain_below_threshold(base, ALICE, FIRE, both_fire(), "1")
        child = SystemIndex.of(derived)
        key = (ALICE, child._fact_key(phi), local)
        assert key in child._belief_cache
        assert belief(derived, ALICE, phi, local) == belief(base, ALICE, phi, local)

    def test_overlay_visible_through_accessors_not_nodes(self, firing_squad):
        _, _, derived = self._derived_pair(firing_squad)
        assert len(derived.overlay) == 1
        (node, via), = derived.overlay.items()
        assert via[ALICE] == "skip"
        # The shared node keeps the parent's label; the derived system
        # resolves the overlay.
        assert node.via_action[ALICE] == FIRE
        assert derived.edge_action(node)[ALICE] == "skip"
        assert firing_squad.edge_action(node)[ALICE] == FIRE
        # Runs share node tuples but answer actions through the overlay.
        run = next(
            r for r in derived.runs if node in r.nodes
        )
        assert isinstance(run, OverlayRun)
        assert run.nodes is firing_squad.runs[run.index].nodes
        t = node.time - 1
        assert run.action_of(ALICE, t) == "skip"
        assert firing_squad.runs[run.index].action_of(ALICE, t) == FIRE

    def test_derived_action_tables_match_cold_rebuild(self, firing_squad):
        derived = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), THRESHOLD
        )
        fast = SystemIndex.of(derived)
        fast._ensure_actions()
        cold = SystemIndex(derived)  # generic build through edge_action
        cold._ensure_actions()
        assert fast._performing == cold._performing
        assert fast._state_cells == cold._state_cells
        assert {k: sorted(v) for k, v in fast._action_records.items()} == {
            k: sorted(v) for k, v in cold._action_records.items()
        }
        assert fast._agent_actions == cold._agent_actions

    def test_chained_derivation_flattens(self, firing_squad):
        first = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), THRESHOLD
        )

        def rename(node, via):
            if via.get(ALICE) == FIRE:
                via[ALICE] = "launch"
            return via

        second = relabel_actions(first, rename)
        assert isinstance(second, DerivedPPS) and second.parent is first
        assert second.root is firing_squad.root
        # First transform's skip survives; remaining fires renamed.
        assert performing_runs(second, ALICE, "skip")
        assert performing_runs(second, ALICE, "launch")
        assert not performing_runs(second, ALICE, FIRE)
        # Quantities agree with materializing the whole chain.
        baked = materialize(relabel_actions(first, rename))
        assert probability(
            second, performing_runs(second, ALICE, "launch")
        ) == probability(baked, performing_runs(baked, ALICE, "launch"))

    def test_overlay_rejects_root(self, firing_squad):
        with pytest.raises(Exception, match="root"):
            ActionOverlay([(firing_squad.root, {ALICE: "x"})])

    def test_overlay_rejects_foreign_nodes(self, firing_squad):
        # Overrides bind by uid; a node from a *different* tree would
        # silently attach its label to the uid-colliding node here.
        other = build_firing_squad(loss="0.2")
        foreign = next(
            node for node in other.state_nodes() if node.via_action is not None
        )
        with pytest.raises(Exception, match="does not belong"):
            DerivedPPS(
                firing_squad,
                ActionOverlay([(foreign, dict(foreign.via_action))]),
            )

    def test_derive_scales_with_overrides_not_records(self, firing_squad):
        # Overriding every fire edge at once must still strip cleanly
        # (the batched filter pass, not per-edge list.remove).
        derived = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), "2"
        )
        index = SystemIndex.of(derived)
        assert index.performing_mask(ALICE, FIRE) == 0
        assert (ALICE, FIRE) not in index._action_records
        # Former fire edges joined the (pre-existing) skip edges.
        parent_index = SystemIndex.of(firing_squad)
        assert index.performing_mask(ALICE, "skip") == (
            parent_index.performing_mask(ALICE, "skip")
            | parent_index.performing_mask(ALICE, FIRE)
        )


# ----------------------------------------------------------------------
# Consumers: FS' derivation and the threshold sweep
# ----------------------------------------------------------------------


class TestDeriveImprovedFiringSquad:
    def test_matches_directly_built_improved(self, firing_squad):
        derived = derive_improved_firing_squad(firing_squad)
        assert isinstance(derived, DerivedPPS)
        direct = build_firing_squad(improved=True)
        phi = both_fire()
        assert achieved_probability(derived, ALICE, phi, FIRE) == Fraction(990, 991)
        assert achieved_probability(derived, ALICE, phi, FIRE) == (
            achieved_probability(direct, ALICE, phi, FIRE)
        )
        assert probability(
            derived, performing_runs(derived, ALICE, FIRE)
        ) == probability(direct, performing_runs(direct, ALICE, FIRE))

    def test_materialize_escape_hatch(self):
        standalone = materialize(derive_improved_firing_squad())
        assert isinstance(standalone, PPS)
        assert not isinstance(standalone, DerivedPPS)
        assert achieved_probability(
            standalone, ALICE, both_fire(), FIRE
        ) == Fraction(990, 991)


class TestRefrainThresholdSweep:
    def test_derived_rows_equal_materialized_rows(self, firing_squad):
        thresholds = [Fraction(k, 20) for k in range(21)]
        derived_rows = refrain_threshold_sweep(
            firing_squad, ALICE, both_fire(), FIRE, thresholds
        )
        materialized_rows = refrain_threshold_sweep(
            firing_squad, ALICE, both_fire(), FIRE, thresholds, materialize=True
        )
        assert derived_rows == materialized_rows
        values = [row["achieved"] for row in derived_rows]
        coverage = [row["coverage"] for row in derived_rows]
        assert values[0] == Fraction(99, 100)
        assert values[-1] == 1
        assert values == sorted(values)
        assert coverage == sorted(coverage, reverse=True)

    def test_zero_threshold_row_is_the_original_protocol(self, firing_squad):
        (row,) = refrain_threshold_sweep(
            firing_squad, ALICE, both_fire(), FIRE, ["0"]
        )
        assert row["achieved"] == achieved_probability(
            firing_squad, ALICE, both_fire(), FIRE
        )
        assert row["coverage"] == probability(
            firing_squad, performing_runs(firing_squad, ALICE, FIRE)
        )
