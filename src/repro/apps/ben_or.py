"""Ben-Or-style binary consensus: the advantage of free choice.

The paper's first citation for probabilistic protocols is Ben-Or's
"Another advantage of free choice" [9]: randomization lets agents
escape the symmetric deadlocks that doom deterministic consensus.  This
module implements the two-agent, lossy-channel core of that idea:

* each *exchange* round, an undecided agent sends its current value to
  its peer;
* on receiving an equal value it becomes ready and **decides** next
  round; on receiving a differing value it schedules a *coin* round;
* in a coin round the agent replaces its value with a fair coin flip
  (a mixed action step) and returns to exchanging;
* message loss simply means retrying next round.

With ``free_choice=False`` the coin round keeps the old value — the
deterministic ablation — and agents holding different inputs **never**
decide: the runs oscillate forever (up to the horizon).  With coins,
they converge with probability approaching 1 in the number of rounds.
This is exactly the qualitative content of [9], measured.

Decisions are performed at most once per run, so ``("decide", v)`` is a
proper action and the full PAK machinery applies to constraints such as
``mu(peer decides v too @ decide(v) | decide(v))``.

The run facts :func:`agreement_among_deciders` and :func:`both_decide`
are written in the fact language over ``performed`` atoms, so the
engine evaluates them as mask algebra and rebuilt copies share cache
entries (``docs/engine.md``, "Facts the engine can see").  They follow
:func:`decided_value`'s 0-first rule exactly, including for runs where
an agent performs both decide actions.
"""

from __future__ import annotations

from typing import Tuple

from ..core.atoms import does_, performed
from ..core.facts import And, Fact, Not, Or
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS, AgentId, Run
from ..messaging.channels import LossyChannel
from ..messaging.messages import Message, Move
from ..messaging.network import RoundProtocol
from ..messaging.system import MessagePassingSystem
from ..protocols.distribution import Distribution, product

__all__ = [
    "AGENT_A",
    "AGENT_B",
    "decide_action",
    "build_ben_or",
    "decides",
    "decided_value",
    "decided",
    "agreement_among_deciders",
    "both_decide",
]

AGENT_A = "proc-a"
AGENT_B = "proc-b"


def decide_action(value: int) -> Tuple[str, int]:
    """The proper action label for deciding ``value``."""
    return ("decide", value)


class _BenOrAgent(RoundProtocol):
    """Exchange / coin / ready / done state machine (see module docs)."""

    def __init__(self, me: AgentId, peer: AgentId, *, free_choice: bool) -> None:
        self._me = me
        self._peer = peer
        self._free_choice = free_choice

    def step(self, local: Tuple):
        mode, value = local
        if mode == "active":
            return Move(
                action=("send", value),
                sends=(Message(self._me, self._peer, value),),
            )
        if mode == "coin":
            if not self._free_choice:
                return Move.acting(("keep", value))
            return Distribution(
                {
                    Move.acting(("flip", 0)): "1/2",
                    Move.acting(("flip", 1)): "1/2",
                }
            )
        if mode == "ready":
            return Move.acting(decide_action(value))
        return Move()  # done

    def update(self, local: Tuple, move: Move, delivered: Tuple[Message, ...]):
        mode, value = local
        if mode == "active":
            if delivered:
                peer_value = delivered[0].content
                return ("ready", value) if peer_value == value else ("coin", value)
            return local
        if mode == "coin":
            if move.action[0] == "flip":
                return ("active", move.action[1])
            return ("active", value)  # deterministic ablation keeps v
        if mode == "ready":
            return ("done", value)
        return local


def build_ben_or(
    *,
    loss: ProbabilityLike = "0.1",
    rounds: int = 4,
    free_choice: bool = True,
    one_probability: ProbabilityLike = "1/2",
) -> PPS:
    """Compile the retry-consensus system.

    Args:
        loss: per-message loss probability.
        rounds: horizon in rounds (each exchange or coin step is one).
        free_choice: coins enabled (the Ben-Or mechanism); ``False``
            gives the deterministic ablation.
        one_probability: probability each initial value is 1.
    """
    if rounds < 2:
        raise ValueError("need at least two rounds (exchange + decide)")
    bit = Distribution.bernoulli(as_fraction(one_probability), true=1, false=0)
    initial = product([bit, bit]).map(
        lambda bits: (("active", bits[0]), ("active", bits[1]))
    )
    system = MessagePassingSystem(
        agents=[AGENT_A, AGENT_B],
        protocols={
            AGENT_A: _BenOrAgent(AGENT_A, AGENT_B, free_choice=free_choice),
            AGENT_B: _BenOrAgent(AGENT_B, AGENT_A, free_choice=free_choice),
        },
        channel=LossyChannel(loss),
        initial=initial,
        horizon=rounds,
        name=f"ben-or(rounds={rounds},free_choice={free_choice})",
    )
    return system.compile()


def decides(agent: AgentId, value: int) -> Fact:
    """The transient fact that ``agent`` is deciding ``value`` now."""
    return does_(agent, decide_action(value))


def decided_value(pps: PPS, run: Run, agent: AgentId):
    """The value ``agent`` decides in ``run`` (None when undecided)."""
    for value in (0, 1):
        if run.performs(agent, decide_action(value)):
            return value
    return None


def decided(agent: AgentId, value: int) -> Fact:
    """The run fact "``decided_value`` of ``agent`` is ``value``".

    Mirrors :func:`decided_value`'s 0-first rule: deciding 1 counts
    only in a run where the agent never decides 0.
    """
    zero = performed(agent, decide_action(0))
    if value == 0:
        return zero
    return And(performed(agent, decide_action(value)), Not(zero))


def agreement_among_deciders() -> Fact:
    """The run fact "no two agents decide different values"."""
    return Not(
        Or(
            And(decided(AGENT_A, 0), decided(AGENT_B, 1)),
            And(decided(AGENT_A, 1), decided(AGENT_B, 0)),
        ),
        label="agreement-among-deciders",
    )


def both_decide() -> Fact:
    """The run fact "both agents decide (some value) in the run"."""
    return And(
        *(
            Or(performed(agent, decide_action(0)), performed(agent, decide_action(1)))
            for agent in (AGENT_A, AGENT_B)
        ),
        label="both-decide",
    )
