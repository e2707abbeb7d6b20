"""Compile a synchronous lossy-network protocol into a pps.

:class:`MessagePassingSystem` rolls the whole Example 1 setting into a
single object: agents with :class:`~repro.messaging.network.RoundProtocol`
behaviour, a :class:`~repro.messaging.channels.ChannelModel`, an exact
initial distribution, and a bounded horizon.  :meth:`compile` expands
every combination of (joint move, per-message delivery pattern) into a
tree edge:

1. each agent draws a move from its step distribution (independent);
2. every message sent this round is independently delivered or lost
   with the channel's probability;
3. each agent's state is updated with its own realized move and the
   messages delivered *to it*, in a deterministic global order.

Agent local states are stored time-stamped (synchrony); the action
label of each agent's move is recorded on the edge, so facts like
``does_("alice", "fire")`` and run facts like
``performed("bob", "fire")`` work directly on the result.  The delivery
pattern is recorded on the edge under the reserved
:data:`~repro.protocols.compiler.ENV` key, enabling facts about the
channel itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import CompilationError
from ..core.numeric import ONE, Probability
from ..core.pps import PPS, AgentId, GlobalState, InternTable, LocalState
from ..protocols.compiler import ENV, Edge, expand_tree
from ..protocols.distribution import Distribution
from .channels import ChannelModel
from .messages import Message, Move
from .network import RoundProtocol

__all__ = ["MessagePassingSystem", "initial_configs"]


def initial_configs(
    agents: Sequence[AgentId],
    distribution: Mapping[Tuple[LocalState, ...], object],
) -> Distribution:
    """Build the initial distribution from locals-tuple -> probability.

    A thin wrapper that exists mostly for readability at call sites;
    the tuples must be ordered like ``agents``.
    """
    if not all(len(config) == len(agents) for config in distribution):
        raise CompilationError("initial configurations have wrong arity")
    return Distribution(dict(distribution))


@dataclass
class MessagePassingSystem:
    """A synchronous message-passing protocol over a lossy network.

    Attributes:
        agents: agent names.
        protocols: one :class:`RoundProtocol` per agent.
        channel: the delivery model for every message.
        initial: distribution over tuples of raw initial local states,
            ordered like ``agents``.
        horizon: number of rounds to run; the compiled tree has states
            at times ``0 .. horizon``.
        name: system name.
        record_delivery_pattern: when true (default), each edge records
            the round's delivery pattern under the reserved ``ENV`` key.
    """

    agents: Sequence[AgentId]
    protocols: Mapping[AgentId, RoundProtocol]
    channel: ChannelModel
    initial: Distribution
    horizon: int
    name: str = "message-passing"
    record_delivery_pattern: bool = True

    def __post_init__(self) -> None:
        self.agents = tuple(self.agents)
        missing = [a for a in self.agents if a not in self.protocols]
        if missing:
            raise CompilationError(f"agents without round protocols: {missing}")
        if self.horizon < 0:
            raise CompilationError("horizon must be non-negative")

    # ------------------------------------------------------------------

    def _stamped(self, raw_locals: Tuple[LocalState, ...], t: int) -> GlobalState:
        return GlobalState(env=None, locals=tuple((t, raw) for raw in raw_locals))

    def compile(self, *, memoize: bool = True) -> PPS:
        """Expand the protocol into a purely probabilistic system.

        The expansion runs through the shared breadth-first grower
        (:func:`repro.protocols.compiler.expand_tree`); a round's
        successor enumeration — joint moves, delivery patterns, state
        updates — is a pure function of the raw local-state tuple, so
        with ``memoize=True`` (the default) it is computed once per
        distinct configuration and reused as an expansion template, and
        all configurations, stamped states, and stamped local values
        are interned (``pps.intern``).  Perfect-recall configurations
        rarely recur, so ``memoize=True`` also memoizes the parts of a
        round that do: each agent's step distribution per raw local
        state, the joint-move product per tuple of (interned) step
        distributions, and the delivery-pattern distribution per tuple
        of per-message delivery probabilities.  ``memoize=False``
        re-enumerates every node; both modes produce identical trees.
        """
        agents = self.agents
        table: Optional[InternTable] = InternTable() if memoize else None
        joint_moves = self._memoized_joint_moves() if memoize else self._joint_moves
        delivery_patterns = (
            self._memoized_delivery_patterns() if memoize else self._delivery_patterns
        )

        def expand(raw_locals: Tuple[LocalState, ...], t: int) -> List[Edge]:
            edges: List[Edge] = []
            for joint_move, move_prob in joint_moves(raw_locals).items():
                sent = self._sent_messages(joint_move)
                for pattern, pattern_prob in delivery_patterns(sent).items():
                    new_locals = self._apply_round(raw_locals, joint_move, sent, pattern)
                    if table is not None:
                        new_locals = table.config(new_locals)
                    via: Dict[AgentId, object] = {
                        agent: move.action
                        for agent, move in zip(agents, joint_move)
                    }
                    if self.record_delivery_pattern:
                        via[ENV] = pattern
                    edges.append((new_locals, via, move_prob * pattern_prob))
            return edges

        if table is not None:
            def stamp(raw_locals: Tuple[LocalState, ...], t: int) -> GlobalState:
                return table.stamped_state(raw_locals, t, None, raw_locals)

            initial = [
                (table.config(raw_locals), prob)
                for raw_locals, prob in self.initial.items()
            ]
        else:
            def stamp(raw_locals: Tuple[LocalState, ...], t: int) -> GlobalState:
                return self._stamped(raw_locals, t)

            initial = list(self.initial.items())

        root = expand_tree(
            initial,
            expand=expand,
            stamp=stamp,
            stop=lambda raw_locals, t: t >= self.horizon,
            memoize=memoize,
        )
        pps = PPS(agents, root, name=self.name, intern=table)
        if not pps.runs:
            raise CompilationError("compilation produced no runs")
        return pps

    # ------------------------------------------------------------------

    def _joint_moves(
        self, raw_locals: Tuple[LocalState, ...]
    ) -> Distribution:
        """Distribution over tuples of per-agent moves (independent)."""
        return _move_product(
            [
                self.protocols[agent].step_distribution(raw)
                for agent, raw in zip(self.agents, raw_locals)
            ]
        )

    def _memoized_joint_moves(self) -> Callable[[Tuple[LocalState, ...]], Distribution]:
        """:meth:`_joint_moves` with memos that live for one compile.

        Step distributions are memoized per (agent, raw local) and
        interned by content, so the joint product can be memoized per
        tuple of distribution identities.  ``canonical`` keeps every
        interned distribution alive, so an identity is never reused.
        """
        steps: Dict[Tuple[AgentId, LocalState], Distribution] = {}
        canonical: Dict[Tuple, Distribution] = {}
        products: Dict[Tuple[int, ...], Distribution] = {}

        def joint_moves(raw_locals: Tuple[LocalState, ...]) -> Distribution:
            dists = []
            for agent, raw in zip(self.agents, raw_locals):
                dist = steps.get((agent, raw))
                if dist is None:
                    dist = self.protocols[agent].step_distribution(raw)
                    dist = canonical.setdefault(tuple(dist.items()), dist)
                    steps[(agent, raw)] = dist
                dists.append(dist)
            key = tuple(map(id, dists))
            joint = products.get(key)
            if joint is None:
                joint = products[key] = _move_product(dists)
            return joint

        return joint_moves

    @staticmethod
    def _sent_messages(joint_move: Tuple[Move, ...]) -> Tuple[Message, ...]:
        """All messages sent this round, in a deterministic global order."""
        sent: List[Message] = []
        for move in joint_move:
            sent.extend(move.sends)
        return tuple(sent)

    def _delivery_patterns(self, sent: Tuple[Message, ...]) -> Distribution:
        """Distribution over delivery bit-vectors for the sent messages."""
        return _pattern_distribution(
            tuple(self.channel.delivery_probability(message) for message in sent)
        )

    def _memoized_delivery_patterns(
        self,
    ) -> Callable[[Tuple[Message, ...]], Distribution]:
        """:meth:`_delivery_patterns` memoized per probability tuple.

        The channel is still asked about every message, so a channel
        whose probability depends on the message (``FunctionChannel``)
        gets the pattern distribution of its own probabilities.
        """
        patterns: Dict[Tuple[Probability, ...], Distribution] = {}

        def delivery_patterns(sent: Tuple[Message, ...]) -> Distribution:
            probabilities = tuple(
                self.channel.delivery_probability(message) for message in sent
            )
            dist = patterns.get(probabilities)
            if dist is None:
                dist = patterns[probabilities] = _pattern_distribution(probabilities)
            return dist

        return delivery_patterns

    def _apply_round(
        self,
        raw_locals: Tuple[LocalState, ...],
        joint_move: Tuple[Move, ...],
        sent: Tuple[Message, ...],
        pattern: Tuple[bool, ...],
    ) -> Tuple[LocalState, ...]:
        """Deliver messages per ``pattern`` and update every agent."""
        delivered_to: Dict[AgentId, List[Message]] = {a: [] for a in self.agents}
        for message, delivered in zip(sent, pattern):
            if delivered:
                if message.recipient not in delivered_to:
                    raise CompilationError(
                        f"message {message} addressed to unknown agent"
                    )
                delivered_to[message.recipient].append(message)
        return tuple(
            self.protocols[agent].update(raw, move, tuple(delivered_to[agent]))
            for agent, raw, move in zip(self.agents, raw_locals, joint_move)
        )


def _move_product(dists: Sequence[Distribution]) -> Distribution:
    """The independent joint distribution over one move per agent."""
    joint: List[Tuple[Tuple[Move, ...], Probability]] = [((), ONE)]
    for dist in dists:
        joint = [
            (moves + (move,), weight * w)
            for moves, weight in joint
            for move, w in dist.items()
        ]
    return Distribution(dict(joint))


def _pattern_distribution(probabilities: Tuple[Probability, ...]) -> Distribution:
    """Distribution over delivery bit-vectors, one bit per probability."""
    joint: List[Tuple[Tuple[bool, ...], Probability]] = [((), ONE)]
    for p in probabilities:
        outcomes: List[Tuple[bool, Probability]] = []
        if p > 0:
            outcomes.append((True, p))
        if p < 1:
            outcomes.append((False, ONE - p))
        joint = [
            (bits + (bit,), weight * w)
            for bits, weight in joint
            for bit, w in outcomes
        ]
    return Distribution(dict(joint))
