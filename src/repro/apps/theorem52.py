"""The Theorem 5.2 construction (the paper's Figure 2).

For any ``0 < epsilon < p < 1`` the construction produces a pps
``T_hat(p, epsilon)`` with agents ``i`` and ``j`` in which:

* agent ``j`` holds a bit: ``bit = 1`` with probability ``p``;
* in the first round, ``j`` sends ``m_j`` when ``bit = 0``; when
  ``bit = 1`` it sends ``m_j`` with probability ``1 - epsilon/p`` and a
  distinct message ``m'_j`` with probability ``epsilon/p`` (a mixed
  action step);
* the channel is reliable; ``i`` receives the message and then
  unconditionally performs ``alpha`` at time 1.

With ``phi = "bit = 1"`` one gets *exactly*:

* ``mu(phi@alpha | alpha) = p`` — the constraint holds with equality;
* the acting belief is ``(p - epsilon)/(1 - epsilon) < p`` in the runs
  where ``m_j`` arrives, and ``1`` in the single run where ``m'_j``
  arrives;
* hence ``mu(beta_i(phi)@alpha >= p | alpha) = epsilon`` — the
  threshold-met measure can be made arbitrarily small.

``alpha`` is deterministic for ``i``, so ``phi`` is local-state
independent by Lemma 4.3(a), and Theorem 6.2's expectation identity is
exactly satisfied: ``(1-eps) * (p-eps)/(1-eps) + eps * 1 = p``.

The module provides both a direct :class:`~repro.core.builder.PPSBuilder`
construction (:func:`build_theorem52`) and a protocol-level one through
the messaging substrate (:func:`build_theorem52_protocol`), which
compile to probabilistically identical systems — tests assert the
agreement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from ..core.atoms import local_fact
from ..core.builder import PPSBuilder
from ..core.errors import UnknownLocalStateError
from ..core.facts import Fact
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS
from ..messaging.channels import ReliableChannel
from ..messaging.messages import SKIP, Message, Move
from ..messaging.network import RoundProtocol
from ..messaging.system import MessagePassingSystem
from ..protocols.distribution import Distribution

__all__ = [
    "AGENT_I",
    "AGENT_J",
    "ALPHA",
    "build_theorem52",
    "build_theorem52_protocol",
    "bit_is_one",
    "expected_off_threshold_belief",
]

AGENT_I = "i"
AGENT_J = "j"
ALPHA = "alpha"
M_GOOD = "m_j"
M_RARE = "m'_j"


def _check_parameters(p: Fraction, epsilon: Fraction) -> None:
    if not (0 < epsilon < p < 1):
        raise ValueError(
            f"the construction requires 0 < epsilon < p < 1, got "
            f"epsilon={epsilon}, p={p}"
        )


def expected_off_threshold_belief(
    p: ProbabilityLike, epsilon: ProbabilityLike
) -> Fraction:
    """The belief ``(p - eps)/(1 - eps)`` held in the common runs."""
    p_, e_ = as_fraction(p), as_fraction(epsilon)
    _check_parameters(p_, e_)
    return (p_ - e_) / (1 - e_)


def bit_is_one() -> Fact:
    """``phi``: agent ``j``'s bit equals 1.

    Works on both constructions: ``j``'s raw local state always carries
    the bit as its first element.
    """

    def predicate(local: object) -> bool:
        t, raw = local  # stamped (time, raw)
        return _bit_of(raw) == 1

    return local_fact(AGENT_J, predicate, label="bit=1", key="theorem52.bit_is_one")


def _bit_of(raw: object) -> int:
    # Raw j-states are ("bit", b) in the direct construction and
    # ("bit", b, sent_marker) tuples in the protocol construction.
    # Reachable from outside: phi_bit_is_one() can be applied to any
    # system, so a foreign local state needs a typed error.
    if not (isinstance(raw, tuple) and len(raw) >= 2 and raw[0] == "bit"):
        raise UnknownLocalStateError(
            f"agent {AGENT_J!r} local state {raw!r} does not carry a "
            "('bit', b) payload; bit_is_one() applies only to "
            "theorem-5.2 systems"
        )
    return raw[1]


def build_theorem52(
    p: ProbabilityLike = "0.9", epsilon: ProbabilityLike = "0.1"
) -> PPS:
    """The Figure 2 tree, built directly.

    Args:
        p: the probability of ``bit = 1`` (and the constraint level).
        epsilon: the target threshold-met measure.
    """
    p_, e_ = as_fraction(p), as_fraction(epsilon)
    _check_parameters(p_, e_)
    builder = PPSBuilder([AGENT_I, AGENT_J], name=f"theorem-5.2(p={p_},eps={e_})")

    s0 = builder.initial(
        1 - p_, {AGENT_I: (0, "init"), AGENT_J: (0, ("bit", 0))}
    )
    s1 = builder.initial(p_, {AGENT_I: (0, "init"), AGENT_J: (0, ("bit", 1))})

    # Round 1: j sends its message; i observes it at time 1.
    r_mid = s0.chain(
        {AGENT_I: (1, ("got", M_GOOD)), AGENT_J: (1, ("bit", 0))},
        actions={AGENT_J: f"send-{M_GOOD}"},
    )
    r1_mid = s1.child(
        1 - e_ / p_,
        {AGENT_I: (1, ("got", M_GOOD)), AGENT_J: (1, ("bit", 1))},
        actions={AGENT_J: f"send-{M_GOOD}"},
    )
    r2_mid = s1.child(
        e_ / p_,
        {AGENT_I: (1, ("got", M_RARE)), AGENT_J: (1, ("bit", 1))},
        actions={AGENT_J: f"send-{M_RARE}"},
    )

    # Round 2: i performs alpha unconditionally.
    r_mid.chain(
        {AGENT_I: (2, ("done", M_GOOD)), AGENT_J: (2, ("bit", 0))},
        actions={AGENT_I: ALPHA},
    )
    r1_mid.chain(
        {AGENT_I: (2, ("done", M_GOOD)), AGENT_J: (2, ("bit", 1))},
        actions={AGENT_I: ALPHA},
    )
    r2_mid.chain(
        {AGENT_I: (2, ("done", M_RARE)), AGENT_J: (2, ("bit", 1))},
        actions={AGENT_I: ALPHA},
    )
    return builder.build()


class _SenderJ(RoundProtocol):
    """Agent ``j``: announce the bit, honestly or with the rare tell."""

    def __init__(self, epsilon_over_p: Fraction) -> None:
        self._rare_prob = epsilon_over_p

    def step(self, local: object):
        bit = _bit_of(local)
        if len(local) > 2:  # already sent; nothing left to do
            return Move()
        good = Move.sending(
            Message(AGENT_J, AGENT_I, M_GOOD), action=f"send-{M_GOOD}"
        )
        if bit == 0:
            return good
        rare = Move.sending(
            Message(AGENT_J, AGENT_I, M_RARE), action=f"send-{M_RARE}"
        )
        if self._rare_prob == 1:
            return rare
        return Distribution({good: 1 - self._rare_prob, rare: self._rare_prob})

    def update(self, local: object, move: Move, delivered: Tuple[Message, ...]):
        if len(local) > 2:
            return local
        return local + ("sent",)


class _ReceiverI(RoundProtocol):
    """Agent ``i``: receive, then perform ``alpha`` unconditionally."""

    def step(self, local: object):
        phase = local[0]
        if phase == "init":
            return Move()
        if phase == "got":
            return Move.acting(ALPHA)
        return Move()

    def update(self, local: object, move: Move, delivered: Tuple[Message, ...]):
        if local[0] == "init" and delivered:
            return ("got", delivered[0].content)
        if local[0] == "got":
            return ("done", local[1])
        return local


def build_theorem52_protocol(
    p: ProbabilityLike = "0.9", epsilon: ProbabilityLike = "0.1"
) -> PPS:
    """The same construction expressed as a message-passing protocol."""
    p_, e_ = as_fraction(p), as_fraction(epsilon)
    _check_parameters(p_, e_)
    system = MessagePassingSystem(
        agents=[AGENT_I, AGENT_J],
        protocols={
            AGENT_I: _ReceiverI(),
            AGENT_J: _SenderJ(e_ / p_),
        },
        channel=ReliableChannel(),
        initial=Distribution(
            {
                (("init",), ("bit", 0)): 1 - p_,
                (("init",), ("bit", 1)): p_,
            }
        ),
        horizon=2,
        name=f"theorem-5.2-protocol(p={p_},eps={e_})",
    )
    return system.compile()
