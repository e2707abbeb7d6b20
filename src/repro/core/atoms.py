"""Atomic facts.

These are the primitive predicates from which conditions of interest
are assembled:

* :func:`does_` — agent ``i`` is currently performing action ``alpha``
  (the paper's ``does_i(alpha)``; transient);
* :func:`performed` — the run fact ``alpha``: "``alpha`` is performed
  at some point of the current run";
* :func:`local_state_occurs` — the run fact ``l_i``: "agent ``i`` is in
  local state ``l_i`` at some point of the current run";
* :func:`state_fact` / :func:`local_fact` / :func:`env_fact` —
  transient facts determined by the current global state (these are
  automatically *past-based* in the sense of Section 4, since runs that
  agree up to time ``t`` share the time-``t`` global state);
* :data:`TRUE` and :data:`FALSE`.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .engine import SystemIndex
from .facts import Fact, RunFact, predicate_key
from .pps import PPS, Action, AgentId, GlobalState, LocalState, Run

__all__ = [
    "TRUE",
    "FALSE",
    "does_",
    "performed",
    "local_state_occurs",
    "state_fact",
    "local_fact",
    "env_fact",
    "at_time",
]


class _Constant(RunFact):
    def __init__(self, value: bool) -> None:
        self._value = value
        self.label = "true" if value else "false"

    def _structure(self):
        return (self._value,)

    def _action_dependence(self) -> bool:
        return False

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return self._value


TRUE: RunFact = _Constant(True)
"""The fact that holds at every point of every system."""

FALSE: RunFact = _Constant(False)
"""The fact that holds at no point of any system."""


# repro: allow[RP002] action atom: the conservative mentions_actions
# default (True) is exactly right for does_i(alpha).
class Does(Fact):
    """The transient fact ``does_i(alpha)``.

    True at ``(r, t)`` exactly when the action recorded on the edge
    from ``r(t)`` to ``r(t + 1)`` for agent ``i`` is ``alpha``
    (equivalently, when the environment history at ``r_e(t + 1)``
    records the performance — see the paper's Section 2.3).
    """

    def __init__(self, agent: AgentId, action: Action) -> None:
        self.agent = agent
        self.action = action
        self.label = f"does[{agent}]({action})"

    def _structure(self):
        return (self.agent, self.action)

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return run.action_of(self.agent, t) == self.action

    def engine_mask(self, index, t):
        # The (agent, action) tables already hold the performing runs
        # per time: no per-point scan needed.  The run-mask universe
        # (t is None) evaluates transient facts at time 0.
        return index.performing_at(self.agent, self.action, 0 if t is None else t)


def does_(agent: AgentId, action: Action) -> Does:
    """The transient fact that ``agent`` is currently performing ``action``."""
    return Does(agent, action)


# repro: allow[RP002] action atom: the conservative mentions_actions
# default (True) is exactly right for a performed-action fact.
class Performed(RunFact):
    """The run fact ``alpha``: the action occurs somewhere in the run."""

    def __init__(self, agent: AgentId, action: Action) -> None:
        self.agent = agent
        self.action = action
        self.label = f"performed[{agent}]({action})"

    def _structure(self):
        return (self.agent, self.action)

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        mask = SystemIndex.of(pps).performing_mask(self.agent, self.action)
        return bool((mask >> run.index) & 1)

    def engine_mask(self, index, t):
        # A run fact: the same performing mask at every slice,
        # restricted to the alive runs of the slice.
        mask = index.performing_mask(self.agent, self.action)
        if t is None:
            return mask
        return mask & index.alive_mask(t)


def performed(agent: AgentId, action: Action) -> Performed:
    """The run fact that ``agent`` performs ``action`` in the current run."""
    return Performed(agent, action)


class LocalStateOccurs(RunFact):
    """The run fact ``l_i``: agent ``i`` passes through local state ``l_i``."""

    def __init__(self, agent: AgentId, local: LocalState) -> None:
        self.agent = agent
        self.local = local
        self.label = f"occurs[{agent}]({local})"

    def _structure(self):
        return (self.agent, self.local)

    def _action_dependence(self) -> bool:
        return False

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        # Synchrony: one possible occurrence time system-wide.
        time = SystemIndex.of(pps).occurrence_time(self.agent, self.local)
        if time is None or time >= run.length:
            return False
        return run.local(self.agent, time) == self.local

    def engine_mask(self, index, t):
        # The occurrence table already holds the runs through the
        # state.  An unknown agent is left to the point scan, which
        # owns the error (and its short-circuit semantics).
        if self.agent not in index.pps.agents:
            return None
        mask = index.occurrence_mask(self.agent, self.local)
        if t is None:
            return mask
        return mask & index.alive_mask(t)


def local_state_occurs(agent: AgentId, local: LocalState) -> LocalStateOccurs:
    """The run fact that ``agent`` is in ``local`` at some point of the run."""
    return LocalStateOccurs(agent, local)


class StateFact(Fact):
    """A transient fact determined by the current global state.

    Such facts are always past-based (runs agreeing up to ``t`` agree
    on ``r(t)``), so by the paper's Lemma 4.3(b) they are local-state
    independent of every proper action.  ``key`` is the declared
    identity of the predicate (see :func:`~repro.core.facts.predicate_key`).
    """

    def __init__(
        self,
        predicate: Callable[[GlobalState], bool],
        label: str = "state-fact",
        *,
        key: Hashable = None,
    ) -> None:
        self._predicate = predicate
        self._key = predicate_key(predicate, key)
        self.label = label

    def _structure(self):
        return self._key

    def _action_dependence(self) -> bool:
        # The predicate only ever sees the current global state.
        return False

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return self._predicate(run.state(t))


def state_fact(
    predicate: Callable[[GlobalState], bool],
    label: str = "state-fact",
    *,
    key: Hashable = None,
) -> StateFact:
    """A transient fact from a predicate on the current global state.

    Pass ``key`` (a hashable value that determines ``predicate``)
    whenever the predicate is a closure built per call: equal keys let
    the engine share cache entries between rebuilt copies.
    """
    return StateFact(predicate, label, key=key)


def local_fact(
    agent: AgentId,
    predicate: Callable[[LocalState], bool],
    label: str = "local-fact",
    *,
    key: Hashable = None,
) -> Fact:
    """A transient fact from a predicate on ``agent``'s current local state.

    ``key`` is the predicate's declared identity, as for
    :func:`state_fact`; facts of different agents never share a key.
    """
    structure = (agent, *predicate_key(predicate, key))

    class _LocalFact(Fact):
        def __init__(self) -> None:
            self.label = f"{label}[{agent}]"

        def _structure(self):
            return structure

        def _action_dependence(self) -> bool:
            # The predicate only ever sees the agent's local state.
            return False

        def holds(self, pps: PPS, run: Run, t: int) -> bool:
            return predicate(run.local(agent, t))

    return _LocalFact()


def env_fact(
    predicate: Callable[[Hashable], bool], label: str = "env-fact"
) -> StateFact:
    """A transient fact from a predicate on the environment's local state."""
    return StateFact(lambda state: predicate(state.env), label)


class AtTime(Fact):
    """The transient fact "the current time is ``t0``"."""

    def __init__(self, t0: int) -> None:
        self.t0 = t0
        self.label = f"time={t0}"

    def _structure(self):
        return (self.t0,)

    def _action_dependence(self) -> bool:
        return False

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return t == self.t0


def at_time(t0: int) -> AtTime:
    """The transient fact that the current time equals ``t0``."""
    return AtTime(t0)
