"""Unit tests for belief-guided transforms (Section 8)."""

from fractions import Fraction

from repro import achieved_probability, performing_runs
from repro.protocols import refrain_below_threshold, relabel_actions
from repro.core.reweight import materialize
from repro.apps.firing_squad import ALICE, FIRE, both_fire


class TestCopyTree:
    def test_structure_preserved(self, firing_squad):
        clone = materialize(firing_squad)
        assert clone.run_count() == firing_squad.run_count()
        assert sorted(r.prob for r in clone.runs) == sorted(
            r.prob for r in firing_squad.runs
        )

    def test_nodes_are_fresh_objects(self, firing_squad):
        copy = materialize(firing_squad).root
        assert copy is not firing_squad.root
        assert copy.children[0] is not firing_squad.root.children[0]

    def test_mutating_copy_leaves_original_alone(self, firing_squad):
        copy = materialize(firing_squad).root
        original_action = dict(firing_squad.root.children[0].children[0].via_action)
        copy.children[0].children[0].via_action = {"alice": "tampered"}
        assert (
            firing_squad.root.children[0].children[0].via_action == original_action
        )


class TestRelabel:
    def test_identity_relabel(self, firing_squad):
        relabelled = relabel_actions(firing_squad, lambda node, via: via)
        assert achieved_probability(
            relabelled, ALICE, both_fire(), FIRE
        ) == achieved_probability(firing_squad, ALICE, both_fire(), FIRE)

    def test_rename_action(self, firing_squad):
        def rename(node, via):
            if via.get(ALICE) == FIRE:
                via[ALICE] = "launch"
            return via

        renamed = relabel_actions(firing_squad, rename)
        assert not performing_runs(renamed, ALICE, FIRE)
        assert performing_runs(renamed, ALICE, "launch")


class TestRefrainTransform:
    def test_reproduces_section_8_improvement(self, firing_squad):
        # Alice refrains whenever her belief is below the 0.95 spec
        # threshold — exactly: she skips firing on 'No'.
        improved = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), "0.95"
        )
        assert achieved_probability(
            improved, ALICE, both_fire(), FIRE
        ) == Fraction(990, 991)

    def test_matches_directly_built_improved_protocol(
        self, firing_squad, firing_squad_improved
    ):
        transformed = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), "0.95"
        )
        assert achieved_probability(
            transformed, ALICE, both_fire(), FIRE
        ) == achieved_probability(firing_squad_improved, ALICE, both_fire(), FIRE)

    def test_threshold_zero_changes_nothing(self, firing_squad):
        unchanged = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), 0
        )
        assert achieved_probability(
            unchanged, ALICE, both_fire(), FIRE
        ) == Fraction(99, 100)

    def test_probabilities_preserved(self, firing_squad):
        improved = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), "0.95"
        )
        assert sorted(r.prob for r in improved.runs) == sorted(
            r.prob for r in firing_squad.runs
        )

    def test_custom_replacement_label(self, firing_squad):
        improved = refrain_below_threshold(
            firing_squad, ALICE, FIRE, both_fire(), "0.95", replacement="hold"
        )
        assert performing_runs(improved, ALICE, "hold")
