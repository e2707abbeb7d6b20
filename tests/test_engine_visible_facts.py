"""The library's conditions, as the engine sees them.

The consensus and Ben-Or conditions are written in the fact language
and the remaining opaque predicates carry declared keys.  Checked here:

* **Parity** — every rewrite has exactly the masks (run masks and every
  time slice) and the PAK reports of the closure fact it replaced,
  kept verbatim in ``tests/oracles/facts.py``;
* **Caching** — a rebuilt condition is answered from the caches with
  no point evaluation at all, equal keys share one entry, and an opaque
  run fact is evaluated once per run rather than once per time slice.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import facts as oracle

from repro import PPSBuilder, SystemIndex, analyze, exact_value
from repro.analysis import random_systems
from repro.analysis.random_systems import random_protocol_system
from repro.apps import ben_or, consensus
from repro.apps.judge import CONVICT, JUDGE, build_judge, guilty
from repro.apps.theorem52 import (
    AGENT_I,
    ALPHA,
    bit_is_one,
    build_theorem52,
    build_theorem52_protocol,
)
from repro.core.atoms import state_fact
from repro.core.facts import Fact, LambdaRunFact


def assert_same_masks(pps, fact, reference):
    """Run masks and every slice mask agree, on fresh indices each."""
    index = SystemIndex.of(pps)
    if reference.is_run_fact:
        assert fact.is_run_fact
        assert index.runs_satisfying_mask(fact, memo=False) == (
            index.runs_satisfying_mask(reference, memo=False)
        )
    for t in range(index.max_time + 1):
        assert index.holds_mask_at(fact, t, memo=False) == (
            index.holds_mask_at(reference, t, memo=False)
        ), t


def report_signature(report) -> tuple:
    """Every verdict and exact quantity of a PAK report."""
    return (
        report.proper,
        report.independent,
        exact_value(report.achieved),
        exact_value(report.expected_belief),
        exact_value(report.threshold_met_measure),
        report.pak_level,
        exact_value(report.pak_level_met_measure),
        {
            local: (exact_value(cell.weight), exact_value(cell.belief))
            for local, cell in report.belief_profile.items()
        },
        {
            name: (dict(check.premises), check.conclusion)
            for name, check in report.theorem_checks.items()
        },
    )


def same_reports(build, agent, action, fact, reference, threshold):
    """Reports on two fresh builds of one system, so no cache is shared."""
    return report_signature(analyze(build(), agent, action, fact, threshold)) == (
        report_signature(analyze(build(), agent, action, reference, threshold))
    )


class CountHolds:
    """Counts ``holds`` calls on every Fact class defined so far."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.by_label = {}
        pending, seen = [Fact], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get("holds")
            if raw is not None:
                monkeypatch.setattr(cls, "holds", self._counted(raw))

    def _counted(self, raw):
        counter = self

        def holds(fact, pps, run, t):
            counter.calls += 1
            counter.by_label[fact.label] = counter.by_label.get(fact.label, 0) + 1
            return raw(fact, pps, run, t)

        return holds


# ----------------------------------------------------------------------
# Consensus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_consensus_facts_match_the_closure_oracle(n):
    pps = consensus.build_consensus(n=n)
    assert_same_masks(pps, consensus.agreement(n), oracle.consensus_agreement(n))
    assert_same_masks(pps, consensus.validity(n), oracle.consensus_validity(n))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("value", [0, 1])
def test_consensus_reports_match_the_closure_oracle(n, value):
    def build():
        return consensus.build_consensus(n=n, loss="1/5")

    for fact, reference in (
        (consensus.agreement(n), oracle.consensus_agreement(n)),
        (consensus.validity(n), oracle.consensus_validity(n)),
    ):
        assert same_reports(
            build, "agent-0", consensus.decision_action(value), fact, reference, "0.9"
        )


probabilities = st.one_of(
    st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(1, 10**9), 1 - Fraction(1, 10**9)]
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(loss=probabilities, one=probabilities)
def test_consensus_parity_on_generated_parameters(loss, one):
    pps = consensus.build_consensus(n=2, loss=loss, one_probability=one)
    assert_same_masks(pps, consensus.agreement(2), oracle.consensus_agreement(2))
    assert_same_masks(pps, consensus.validity(2), oracle.consensus_validity(2))


def test_consensus_label_is_kept():
    assert consensus.agreement(4).label == "agreement(n=4)"
    assert consensus.validity(3).label == "validity(n=3)"


# ----------------------------------------------------------------------
# Ben-Or
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize("free_choice", [True, False])
def test_ben_or_facts_match_the_closure_oracle(rounds, free_choice):
    pps = ben_or.build_ben_or(rounds=rounds, free_choice=free_choice)
    assert_same_masks(
        pps,
        ben_or.agreement_among_deciders(),
        oracle.ben_or_agreement_among_deciders(),
    )
    assert_same_masks(pps, ben_or.both_decide(), oracle.ben_or_both_decide())


def test_ben_or_needs_two_rounds():
    # A one-round horizon has no decide round: the system is rejected,
    # so parity is checked from two rounds up.
    with pytest.raises(ValueError):
        ben_or.build_ben_or(rounds=1)


@pytest.mark.parametrize("free_choice", [True, False])
def test_ben_or_reports_match_the_closure_oracle(free_choice):
    def build():
        return ben_or.build_ben_or(rounds=3, free_choice=free_choice)

    for fact, reference in (
        (ben_or.agreement_among_deciders(), oracle.ben_or_agreement_among_deciders()),
        (ben_or.both_decide(), oracle.ben_or_both_decide()),
    ):
        assert same_reports(
            build, ben_or.AGENT_A, ben_or.decide_action(1), fact, reference, "1/2"
        )


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(loss=probabilities, one=probabilities, free_choice=st.booleans())
def test_ben_or_parity_on_generated_parameters(loss, one, free_choice):
    pps = ben_or.build_ben_or(
        rounds=3, loss=loss, one_probability=one, free_choice=free_choice
    )
    assert_same_masks(
        pps,
        ben_or.agreement_among_deciders(),
        oracle.ben_or_agreement_among_deciders(),
    )
    assert_same_masks(pps, ben_or.both_decide(), oracle.ben_or_both_decide())


def _double_decider_system():
    """Every pair of decide sequences, including both values by one agent.

    ``decided_value`` reads 0 first, so an agent deciding 1 and then 0
    (or 0 and then 1) counts as deciding 0; the rewrite must agree.
    """
    sequences = [(), (0,), (1,), (0, 1), (1, 0)]
    agents = (ben_or.AGENT_A, ben_or.AGENT_B)
    builder = PPSBuilder(list(agents), name="double-deciders")
    weight = Fraction(1, len(sequences) ** 2)
    for k, (seq_a, seq_b) in enumerate(
        (a, b) for a in sequences for b in sequences
    ):
        node = builder.initial(weight, {agent: (0, k) for agent in agents})
        for t in (1, 2):
            actions = {
                agent: ben_or.decide_action(seq[t - 1]) if t <= len(seq) else "wait"
                for agent, seq in zip(agents, (seq_a, seq_b))
            }
            node = node.child(1, {agent: (t, k) for agent in agents}, actions=actions)
    return builder.build()


def test_ben_or_facts_follow_the_zero_first_rule():
    pps = _double_decider_system()
    assert_same_masks(
        pps,
        ben_or.agreement_among_deciders(),
        oracle.ben_or_agreement_among_deciders(),
    )
    assert_same_masks(pps, ben_or.both_decide(), oracle.ben_or_both_decide())
    for agent in (ben_or.AGENT_A, ben_or.AGENT_B):
        for value in (0, 1):
            index = SystemIndex.of(pps)
            expected = {
                run.index
                for run in pps.runs
                if ben_or.decided_value(pps, run, agent) == value
            }
            assert index.event_of(
                index.runs_satisfying_mask(ben_or.decided(agent, value))
            ) == expected


# ----------------------------------------------------------------------
# Keyed opaque predicates
# ----------------------------------------------------------------------


def test_keyed_judge_fact_matches_the_closure_oracle():
    def build():
        return build_judge(signals=2, conviction_threshold=2)

    assert_same_masks(build(), guilty(), oracle.judge_guilty())
    assert same_reports(build, JUDGE, CONVICT, guilty(), oracle.judge_guilty(), "0.9")
    assert guilty().structural_key() == guilty().structural_key()


@pytest.mark.parametrize("build", [build_theorem52, build_theorem52_protocol])
def test_keyed_theorem52_fact_matches_the_closure_oracle(build):
    def fresh():
        return build("0.9", "0.1")

    assert_same_masks(fresh(), bit_is_one(), oracle.theorem52_bit_is_one())
    assert same_reports(
        fresh, AGENT_I, ALPHA, bit_is_one(), oracle.theorem52_bit_is_one(), "0.9"
    )
    assert bit_is_one().structural_key() == bit_is_one().structural_key()


@pytest.mark.parametrize("seed", range(4))
def test_keyed_random_facts_match_the_closure_oracle(seed):
    pps = random_protocol_system(seed)
    for density in (0.0, 0.3, 1.0):
        assert_same_masks(
            pps,
            random_systems.random_state_fact(seed, density=density),
            oracle.random_state_fact(seed, density=density),
        )
        assert_same_masks(
            pps,
            random_systems.random_run_fact(seed, density=density),
            oracle.random_run_fact(seed, density=density),
        )


def test_random_fact_keys_follow_seed_and_density():
    state, run = random_systems.random_state_fact, random_systems.random_run_fact
    assert state(3).structural_key() == state(3).structural_key()
    assert state(3).structural_key() != state(4).structural_key()
    assert state(3).structural_key() != state(3, density=0.2).structural_key()
    assert run(3).structural_key() == run(3).structural_key()
    assert run(3).structural_key() != run(4).structural_key()
    assert state(3).structural_key() != run(3).structural_key()


def test_unhashable_key_is_rejected():
    with pytest.raises(TypeError):
        state_fact(lambda state: True, key=["not", "hashable"])


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


def test_rebuilt_agreement_makes_no_point_evaluations(monkeypatch):
    pps = consensus.build_consensus(n=3)
    action = consensus.decision_action(1)
    first = analyze(pps, "agent-0", action, consensus.agreement(3), "0.9")
    counter = CountHolds(monkeypatch)
    second = analyze(pps, "agent-0", action, consensus.agreement(3), "0.9")
    assert counter.calls == 0
    assert report_signature(second) == report_signature(first)


def test_equal_seed_random_facts_share_one_cache_entry():
    pps = random_protocol_system(5)
    index = SystemIndex.of(pps)
    index.holds_mask_at(random_systems.random_state_fact(7), 1)
    entries = len(index._slice_masks)
    index.holds_mask_at(random_systems.random_state_fact(7), 1)
    assert len(index._slice_masks) == entries
    index.holds_mask_at(random_systems.random_state_fact(8), 1)
    assert len(index._slice_masks) == entries + 1


def test_opaque_run_fact_is_scanned_once_per_run(monkeypatch):
    pps = consensus.build_consensus(n=3)
    reference = oracle.consensus_agreement(3)
    counter = CountHolds(monkeypatch)
    analyze(pps, "agent-0", consensus.decision_action(1), reference, "0.9")
    # Three slices (t = 0, 1, 2) used to scan the fact three times.
    assert counter.by_label[reference.label] == pps.run_count()


def short_and_long_system():
    """One run that ends at time 1 and one that ends at time 2."""
    builder = PPSBuilder(["i"], name="short-and-long")
    short = builder.initial("1/2", {"i": (0, "short")})
    long = builder.initial("1/2", {"i": (0, "long")})
    short.child(1, {"i": (1, "short")})
    long.child(1, {"i": (1, "long")}).child(1, {"i": (2, "long")})
    return builder.build()


def partial_run_fact(calls, key):
    """A run fact that raises on the short run, recording each call."""

    def predicate(pps, run):
        calls.append(run.index)
        if run.length < 3:
            raise ValueError("undefined on short runs")
        return True

    return LambdaRunFact(predicate, label="partial", key=key)


def test_partial_run_fact_falls_back_to_the_slice_scan():
    # The fact raises on the run that dies at time 1, which the time-2
    # slice never visits: the slice answer stands, the run mask raises.
    pps = short_and_long_system()
    fact = partial_run_fact([], key="partial")
    index = SystemIndex.of(pps)
    long_run = next(run.index for run in pps.runs if run.length == 3)
    assert index.truths_at([fact], 2) == [1 << long_run]
    assert index.holds_mask_at(fact, 2) == 1 << long_run
    with pytest.raises(ValueError):
        index.runs_satisfying_mask(fact)
    with pytest.raises(ValueError):
        index.holds_mask_at(fact, 1)



@pytest.mark.parametrize("memo", [True, False])
def test_failed_run_scan_is_not_repeated(memo):
    pps = short_and_long_system()
    assert [run.length for run in pps.runs] == [2, 3]
    calls = []
    fact = partial_run_fact(calls, key=("partial-counted", memo))
    index = SystemIndex.of(pps)
    # Batched path: the run scan raises on run 0, its first call; the
    # time-2 slice (run 1 only) decides without a second run scan.
    assert index.truths_at([fact], 2, memo=memo) == [0b10]
    assert calls == [0, 1]


def test_failed_run_scan_is_remembered_across_slices():
    pps = short_and_long_system()
    calls = []
    fact = partial_run_fact(calls, key="partial-remembered")
    index = SystemIndex.of(pps)
    assert index.holds_mask_at(fact, 2) == 0b10
    assert calls == [0, 1]
    del calls[:]
    # A later slice goes straight to the slice scan, which raises on run 0.
    with pytest.raises(ValueError):
        index.holds_mask_at(fact, 1)
    assert calls == [0]
