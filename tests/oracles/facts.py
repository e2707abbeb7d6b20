"""The library's conditions as opaque closure facts: the parity oracle.

These are the predicates the library used before its conditions were
written in the fact language (``apps/consensus.py``, ``apps/ben_or.py``)
or given declared keys (``apps/theorem52.py``, ``apps/judge.py``,
``analysis/random_systems.py``).  Each one is evaluated point by point
through ``holds``, independently of the engine's mask algebra, so the
rewrites must produce exactly the same masks and reports.
"""

from __future__ import annotations

from repro.analysis.random_systems import _derived_rng
from repro.apps.ben_or import AGENT_A, AGENT_B, decided_value
from repro.apps.consensus import agent_names, decision_action
from repro.apps.judge import WITNESS
from repro.apps.theorem52 import AGENT_J, _bit_of
from repro.core.atoms import local_fact, state_fact
from repro.core.facts import Fact, LambdaRunFact
from repro.core.pps import PPS, GlobalState, Run


def consensus_agreement(n: int = 2) -> Fact:
    """The run fact "all agents decide the same value"."""
    names = agent_names(n)

    def check(pps: PPS, run: Run) -> bool:
        values = set()
        for name in names:
            for value in (0, 1):
                if run.performs(name, decision_action(value)):
                    values.add(value)
        return len(values) == 1

    return LambdaRunFact(check, label=f"agreement(n={n})")


def consensus_validity(n: int = 2) -> Fact:
    """The run fact "every decided value was some agent's input"."""
    names = agent_names(n)

    def check(pps: PPS, run: Run) -> bool:
        inputs = {run.local(name, 0)[1].payload for name in names}
        for name in names:
            for value in (0, 1):
                if run.performs(name, decision_action(value)) and value not in inputs:
                    return False
        return True

    return LambdaRunFact(check, label=f"validity(n={n})")


def ben_or_agreement_among_deciders() -> Fact:
    """The run fact "no two agents decide different values"."""

    def check(pps: PPS, run: Run) -> bool:
        values = {
            decided_value(pps, run, agent)
            for agent in (AGENT_A, AGENT_B)
        } - {None}
        return len(values) <= 1

    return LambdaRunFact(check, label="agreement-among-deciders")


def ben_or_both_decide() -> Fact:
    """The run fact "both agents decide (some value) in the run"."""

    def check(pps: PPS, run: Run) -> bool:
        return all(
            decided_value(pps, run, agent) is not None
            for agent in (AGENT_A, AGENT_B)
        )

    return LambdaRunFact(check, label="both-decide")


def theorem52_bit_is_one() -> Fact:
    """``phi``: agent ``j``'s bit equals 1."""

    def predicate(local: object) -> bool:
        t, raw = local  # stamped (time, raw)
        return _bit_of(raw) == 1

    return local_fact(AGENT_J, predicate, label="bit=1")


def judge_guilty() -> Fact:
    """The fact that the defendant is guilty (a fact about runs)."""
    return local_fact(
        WITNESS, lambda local: local[1].payload == 1, label="guilty"
    )


def random_state_fact(seed: int, *, density: float = 0.5) -> Fact:
    """A random past-based fact: a seeded predicate of the global state."""

    def predicate(state: GlobalState) -> bool:
        return _derived_rng(seed, "SF", state.env, state.locals).random() < density

    return state_fact(predicate, label=f"random-state-fact({seed})")


def random_run_fact(seed: int, *, density: float = 0.5) -> Fact:
    """A random fact about runs: a seeded predicate of the run's path."""

    def predicate(pps: PPS, run: Run) -> bool:
        shape = tuple(
            (node.state.env, node.state.locals) for node in run.nodes
        )
        return _derived_rng(seed, "RF", shape).random() < density

    return LambdaRunFact(predicate, label=f"random-run-fact({seed})")
