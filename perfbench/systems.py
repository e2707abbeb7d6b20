"""The systems the workloads query, built only through the public API.

The FS family is the paper's Example 1 generalized to ``rounds``
acknowledgement rounds: each extra round gives Bob another lossy
acknowledgement, so Alice's acting states (and the belief spectrum a
threshold grid must separate) grow with the member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from repro import PPS, Fact, does_
from repro.analysis.random_systems import (
    proper_actions_of,
    random_protocol_system,
    random_state_fact,
)
from repro.apps import coordinated_attack as attack
from repro.apps import firing_squad
from repro.messaging.channels import LossyChannel
from repro.messaging.messages import Message, Move
from repro.messaging.network import RecordingState, RoundProtocol
from repro.messaging.system import MessagePassingSystem
from repro.protocols.distribution import Distribution

from inputs import Member

ALICE = "alice"
BOB = "bob"
FIRE = "fire"


class ChainAlice(RoundProtocol):
    """Alice: send two messages in round 0 (if go), fire at the horizon."""

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def step(self, local: RecordingState) -> Move:
        go = local.payload
        t = local.rounds_elapsed
        if t == 0 and go == 1:
            return Move.sending(Message(ALICE, BOB, "m1"), Message(ALICE, BOB, "m2"))
        if t == self.rounds and go == 1:
            return Move.acting(FIRE)
        return Move()

    def update(self, local, move, delivered):
        return local.observe(move.action, delivered)


class ChainBob(RoundProtocol):
    """Bob: acknowledge every round, fire at the horizon iff round 0 arrived."""

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def step(self, local: RecordingState) -> Move:
        t = local.rounds_elapsed
        if 1 <= t < self.rounds:
            return Move.sending(
                Message(BOB, ALICE, "Yes" if local.received(0) else "No")
            )
        if t == self.rounds and local.received(0):
            return Move.acting(FIRE)
        return Move()

    def update(self, local, move, delivered):
        return local.observe(move.action, delivered)


def fs_chain(loss: str, rounds: int) -> PPS:
    """Compile one FS-family member."""
    initial = {
        (RecordingState(0), RecordingState(None)): Fraction(1, 2),
        (RecordingState(1), RecordingState(None)): Fraction(1, 2),
    }
    return MessagePassingSystem(
        agents=[ALICE, BOB],
        protocols={ALICE: ChainAlice(rounds), BOB: ChainBob(rounds)},
        channel=LossyChannel(loss),
        initial=Distribution(initial),
        horizon=rounds + 1,
        name=f"fs-chain[{rounds}]",
    ).compile()


@dataclass
class Query:
    """A compiled member and the constraint asked of it.

    ``phi`` builds a fresh, equal condition on every call, as a user's
    fact factory does.
    """

    pps: PPS
    agent: str
    action: object
    phi: Callable[[], Fact]


def _both_fire() -> Fact:
    return does_(ALICE, FIRE) & does_(BOB, FIRE)


def build(member: Member) -> Query:
    """Compile ``member`` and pick its query."""
    if member.family == "fs-chain":
        return Query(fs_chain(member.loss, member.size), ALICE, FIRE, _both_fire)
    if member.family == "fs-drift":
        pps = firing_squad.build_firing_squad(loss=member.loss)
        return Query(pps, firing_squad.ALICE, firing_squad.FIRE, firing_squad.both_fire)
    if member.family == "attack":
        pps = attack.build_coordinated_attack(loss=member.loss, ack_rounds=member.size)
        return Query(pps, attack.GENERAL_A, attack.ATTACK, attack.both_attack)
    if member.family == "random":
        pps = random_protocol_system(member.size, n_agents=2, horizon=3, n_payloads=3)
        action = proper_actions_of(pps, "a0")[0]
        return Query(pps, "a0", action, lambda: random_state_fact(member.fact_seed))
    raise ValueError(f"unknown member family {member.family!r}")
