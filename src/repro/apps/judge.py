"""The judge: verdicts beyond reasonable doubt.

The paper's introduction invokes the legal standard: "a guilty verdict
is allowed only if the judge very strongly believes in the defendant's
guilt."  This module models the situation so the PAK machinery can
quantify it:

* the world holds a guilt bit ``G`` (prior ``guilt_prior``);
* over ``signals`` rounds, a witness reports one signal per round;
  each signal independently equals ``G`` with probability
  ``signal_accuracy`` (a mixed action step of the witness);
* at the deadline the judge *convicts* iff at least
  ``conviction_threshold`` of the received signals said "guilty".

The condition of interest is ``phi = "the defendant is guilty"`` — a
fact about runs — and the constraint is
``mu(guilty | convict) >= p``.  The judge's belief at the moment of
conviction is the true Bayesian posterior given the observed signal
sequence (Definition 3.1 computes it for free), and Corollary 7.2's
trade-off between conviction quality ``p`` and the strength of the
judge's conviction-time belief is directly observable.

"Balance of probabilities" (the UK civil standard mentioned in the
paper) corresponds to ``conviction_threshold`` just above half the
signals; "beyond reasonable doubt" to a threshold near all of them.
"""

from __future__ import annotations

from typing import Tuple

from ..core.atoms import local_fact
from ..core.facts import Fact
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS
from ..messaging.channels import ReliableChannel
from ..messaging.messages import Message, Move
from ..messaging.network import RecordingState, RoundProtocol
from ..messaging.system import MessagePassingSystem
from ..protocols.distribution import Distribution

__all__ = [
    "JUDGE",
    "WITNESS",
    "CONVICT",
    "ACQUIT",
    "build_judge",
    "guilty",
    "convicts",
]

JUDGE = "judge"
WITNESS = "witness"
CONVICT = "convict"
ACQUIT = "acquit"
GUILTY_SIGNAL = "guilty"
INNOCENT_SIGNAL = "innocent"


class _Witness(RoundProtocol):
    """Reports a noisy signal of the guilt bit each round."""

    def __init__(self, accuracy: ProbabilityLike, rounds: int) -> None:
        self._accuracy = as_fraction(accuracy)
        self._rounds = rounds

    def step(self, local: RecordingState):
        t = local.rounds_elapsed
        if t >= self._rounds:
            return Move()
        guilt = local.payload
        truthful = GUILTY_SIGNAL if guilt == 1 else INNOCENT_SIGNAL
        lying = INNOCENT_SIGNAL if guilt == 1 else GUILTY_SIGNAL
        honest = Move.sending(
            Message(WITNESS, JUDGE, truthful), action=("report", truthful)
        )
        if self._accuracy == 1:
            return honest
        noisy = Move.sending(
            Message(WITNESS, JUDGE, lying), action=("report", lying)
        )
        return Distribution({honest: self._accuracy, noisy: 1 - self._accuracy})

    def update(
        self, local: RecordingState, move: Move, delivered: Tuple[Message, ...]
    ) -> RecordingState:
        return local.observe(move.action, delivered)


class _Judge(RoundProtocol):
    """Counts guilty signals; convicts at the deadline on a threshold."""

    def __init__(self, rounds: int, conviction_threshold: int) -> None:
        self._rounds = rounds
        self._threshold = conviction_threshold

    def step(self, local: RecordingState) -> Move:
        t = local.rounds_elapsed
        if t != self._rounds:
            return Move()
        guilty_count = sum(
            1
            for round_index in range(self._rounds)
            for content in local.received_contents(round_index)
            if content == GUILTY_SIGNAL
        )
        if guilty_count >= self._threshold:
            return Move.acting(CONVICT)
        return Move.acting(ACQUIT)

    def update(
        self, local: RecordingState, move: Move, delivered: Tuple[Message, ...]
    ) -> RecordingState:
        return local.observe(move.action, delivered)


def build_judge(
    *,
    guilt_prior: ProbabilityLike = "1/2",
    signal_accuracy: ProbabilityLike = "0.9",
    signals: int = 3,
    conviction_threshold: int = 3,
) -> PPS:
    """Compile the judge system.

    Args:
        guilt_prior: prior probability the defendant is guilty.
        signal_accuracy: per-signal probability of matching the truth.
        signals: how many signals the judge hears.
        conviction_threshold: minimum guilty signals for a conviction.
    """
    if signals < 1:
        raise ValueError("the judge needs at least one signal")
    if not (0 <= conviction_threshold <= signals):
        raise ValueError("conviction threshold outside [0, signals]")
    prior = as_fraction(guilt_prior)
    initial: dict = {}
    if prior < 1:
        initial[(RecordingState(None), RecordingState(0))] = 1 - prior
    if prior > 0:
        initial[(RecordingState(None), RecordingState(1))] = prior
    system = MessagePassingSystem(
        agents=[JUDGE, WITNESS],
        protocols={
            JUDGE: _Judge(signals, conviction_threshold),
            WITNESS: _Witness(signal_accuracy, signals),
        },
        channel=ReliableChannel(),
        initial=Distribution(initial),
        horizon=signals + 1,
        name=f"judge(k={signals},m={conviction_threshold})",
    )
    return system.compile()


def guilty() -> Fact:
    """The fact that the defendant is guilty (a fact about runs)."""
    return local_fact(
        WITNESS,
        lambda local: local[1].payload == 1,
        label="guilty",
        key="judge.guilty",
    )


def convicts() -> Fact:
    """The transient fact that the judge is currently convicting."""
    from ..core.atoms import does_

    return does_(JUDGE, CONVICT)
