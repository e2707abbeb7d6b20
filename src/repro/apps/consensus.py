"""One-shot probabilistic consensus over lossy broadcast.

Probabilistic consensus protocols that may disagree with small
probability (Rabin; Feldman–Micali) are among the paper's motivating
examples of probabilistic constraints.  This module implements the
minimal such protocol so that agreement can be studied as a
probabilistic constraint:

``n`` agents hold independent uniform binary inputs.  In round 0 every
agent broadcasts its input over the lossy channel.  At time 1 each
agent decides: the OR of its own input and every input it received
(i.e. decide 1 iff any known input is 1).  The decision is performed
as the action ``("decide", v)``.

Facts provided: per-agent decisions, the run fact
:func:`agreement` ("all agents decide the same value"), and
:func:`validity` ("some agent held the decided value initially" — here
trivially true, included for completeness of the consensus spec).
The constraint of interest is ``mu(agreement@decide_i(v) | decide_i(v))``
— exactly a paper-style probabilistic constraint, with the decision a
deterministic action.

Both run facts are written in the fact language, from ``performed``
and ``local_state_occurs`` atoms joined by ``And``/``Or``/``Not``, so
the engine evaluates them as mask algebra over its action and
local-state tables (no per-run scan), and a rebuilt ``agreement(n)``
has the same structural key as the first one and hits every cache
(``docs/engine.md``, "Facts the engine can see").
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..core.atoms import does_, local_state_occurs, performed
from ..core.facts import And, Fact, Not, Or
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS, AgentId
from ..messaging.channels import LossyChannel
from ..messaging.messages import Message, Move
from ..messaging.network import RecordingState, RoundProtocol
from ..messaging.system import MessagePassingSystem
from ..protocols.distribution import Distribution, product

__all__ = [
    "agent_names",
    "build_consensus",
    "decides",
    "decision_action",
    "someone_decides",
    "agreement",
    "validity",
]


def agent_names(n: int) -> Tuple[AgentId, ...]:
    """The canonical names of the ``n`` consensus agents."""
    return tuple(f"agent-{k}" for k in range(n))


def decision_action(value: int) -> Tuple[str, int]:
    """The action label for deciding ``value``."""
    return ("decide", value)


class _ConsensusAgent(RoundProtocol):
    """Broadcast the input, then decide the OR of everything seen."""

    def __init__(self, me: AgentId, others: Sequence[AgentId]) -> None:
        self._me = me
        self._others = tuple(others)

    def step(self, local: RecordingState) -> Move:
        t = local.rounds_elapsed
        if t == 0:
            return Move.sending(
                *(Message(self._me, other, local.payload) for other in self._others)
            )
        if t == 1:
            known = {local.payload} | set(local.received_contents(0))
            return Move.acting(decision_action(1 if 1 in known else 0))
        return Move()

    def update(
        self, local: RecordingState, move: Move, delivered: Tuple[Message, ...]
    ) -> RecordingState:
        return local.observe(move.action, delivered)


def build_consensus(
    *,
    n: int = 2,
    loss: ProbabilityLike = "0.1",
    one_probability: ProbabilityLike = "1/2",
    memoize: bool = True,
) -> PPS:
    """Compile the ``n``-agent one-shot consensus system.

    Args:
        n: number of agents (the tree grows as ``2^n * 2^(n(n-1))``;
            2 or 3 keeps everything instantaneous).
        loss: per-message loss probability.
        one_probability: probability each input bit is 1.
        memoize: compile with interning and memoized expansion
            templates (the default); ``False`` is the unmemoized
            escape hatch used by the compiler-scaling benchmark.
    """
    if n < 2:
        raise ValueError("consensus needs at least two agents")
    names = agent_names(n)
    bit = Distribution.bernoulli(as_fraction(one_probability), true=1, false=0)
    initial = product([bit] * n).map(
        lambda bits: tuple(RecordingState(b) for b in bits)
    )
    system = MessagePassingSystem(
        agents=names,
        protocols={
            name: _ConsensusAgent(name, [o for o in names if o != name])
            for name in names
        },
        channel=LossyChannel(loss),
        initial=initial,
        horizon=2,
        name=f"consensus(n={n})",
    )
    return system.compile(memoize=memoize)


def decides(agent: AgentId, value: int) -> Fact:
    """The transient fact that ``agent`` is currently deciding ``value``."""
    return does_(agent, decision_action(value))


def someone_decides(n: int, value: int) -> Fact:
    """The run fact "some agent decides ``value``" (``D_v``)."""
    return Or(*(performed(name, decision_action(value)) for name in agent_names(n)))


def agreement(n: int = 2) -> Fact:
    """The run fact "all agents decide the same value".

    Exactly one value is decided: ``(D_0 & ~D_1) | (D_1 & ~D_0)``.
    """
    zero, one = someone_decides(n, 0), someone_decides(n, 1)
    return Or(And(zero, Not(one)), And(one, Not(zero)), label=f"agreement(n={n})")


def validity(n: int = 2) -> Fact:
    """The run fact "every decided value was some agent's input".

    For each value ``v``: ``D_v`` implies that some agent's time-0
    local state is ``RecordingState(v)`` (the input ``v``).
    """
    names = agent_names(n)
    return And(
        *(
            someone_decides(n, value).implies(
                Or(*(local_state_occurs(name, (0, RecordingState(value))) for name in names))
            )
            for value in (0, 1)
        ),
        label=f"validity(n={n})",
    )
