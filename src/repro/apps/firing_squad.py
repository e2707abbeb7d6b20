"""The relaxed firing squad (the paper's Example 1) and its improvement.

Setting: a synchronous network of Alice and Bob in which every message
is lost independently with probability 0.1.  Alice holds a binary flag
``go`` (1 with probability 0.5).

**Spec.** If ``go = 0`` neither agent ever fires; if ``go = 1``,
``mu(both fire | Alice fires) >= 0.95``.

**Protocol FS.** When ``go = 1`` Alice sends two messages to Bob in the
first round and fires at time 2.  Bob replies 'Yes' in the second round
and fires at time 2 if he received at least one message; otherwise he
replies 'No' and never fires.

Paper-derived exact quantities (all reproduced by this module and
asserted in tests and benchmarks):

=============================================  =============
``mu(both@fireA | fireA)``                     99/100 = 0.99
measure of fireA-runs meeting threshold 0.95   991/1000
measure of fireA-runs missing it               9/1000
Alice's acting beliefs                         1, 0, 99/100
improved FS' success                           990/991 ~ 0.99899
=============================================  =============

**Protocol FS'** (Section 8): identical except that Alice does *not*
fire after receiving 'No'.  Build it with ``improved=True``; it is also
the output of :func:`repro.protocols.strategies.refrain_below_threshold`
applied to FS — tests confirm the two coincide.
:func:`derive_improved_firing_squad` takes that second route and
returns FS' as a derived system over FS's own tree (shared nodes and
engine index, one relabelled edge), which is the cheap way to get FS'
when FS is already in hand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ..core.atoms import does_
from ..core.facts import Fact
from ..core.numeric import Probability, ProbabilityLike, as_fraction
from ..core.pps import PPS, Node
from ..messaging.channels import LossyChannel
from ..messaging.messages import Message, Move
from ..messaging.network import RecordingState, RoundProtocol
from ..messaging.system import MessagePassingSystem
from ..protocols.distribution import Distribution

__all__ = [
    "ALICE",
    "BOB",
    "FIRE",
    "THRESHOLD",
    "build_firing_squad",
    "derive_improved_firing_squad",
    "drift_loss",
    "fire_alice",
    "fire_bob",
    "both_fire",
]

ALICE = "alice"
BOB = "bob"
FIRE = "fire"
YES = "Yes"
NO = "No"
THRESHOLD = as_fraction("0.95")
"""The Spec's required probability that both fire, given Alice fires."""


class AliceProtocol(RoundProtocol):
    """Alice: send two messages in round 0 (if ``go = 1``), fire at time 2.

    With ``improved=True`` she refrains from firing after a 'No'
    (the Section 8 variant FS').
    """

    def __init__(self, *, improved: bool = False) -> None:
        self.improved = improved

    def step(self, local: RecordingState) -> Move:
        go = local.payload
        t = local.rounds_elapsed
        if t == 0 and go == 1:
            return Move.sending(
                Message(ALICE, BOB, "m1"), Message(ALICE, BOB, "m2")
            )
        if t == 2 and go == 1:
            if self.improved and NO in local.received_contents(1):
                return Move()
            return Move.acting(FIRE)
        return Move()

    def update(
        self, local: RecordingState, move: Move, delivered: Tuple[Message, ...]
    ) -> RecordingState:
        return local.observe(move.action, delivered)


class BobProtocol(RoundProtocol):
    """Bob: acknowledge in round 1, fire at time 2 iff round 0 delivered."""

    def step(self, local: RecordingState) -> Move:
        t = local.rounds_elapsed
        if t == 1:
            reply = YES if local.received(0) else NO
            return Move.sending(Message(BOB, ALICE, reply))
        if t == 2 and local.received(0):
            return Move.acting(FIRE)
        return Move()

    def update(
        self, local: RecordingState, move: Move, delivered: Tuple[Message, ...]
    ) -> RecordingState:
        return local.observe(move.action, delivered)


def build_firing_squad(
    *,
    loss: ProbabilityLike = "0.1",
    go_probability: ProbabilityLike = "0.5",
    improved: bool = False,
) -> PPS:
    """Compile the FS (or FS') system.

    Args:
        loss: per-message loss probability (paper: 0.1).
        go_probability: probability that Alice's flag is 1 (paper: 0.5).
        improved: build FS' (Alice refrains on 'No') instead of FS.
    """
    go_p = as_fraction(go_probability)
    initial: dict = {}
    if go_p < 1:
        initial[(RecordingState(0), RecordingState(None))] = 1 - go_p
    if go_p > 0:
        initial[(RecordingState(1), RecordingState(None))] = go_p
    system = MessagePassingSystem(
        agents=[ALICE, BOB],
        protocols={
            ALICE: AliceProtocol(improved=improved),
            BOB: BobProtocol(),
        },
        channel=LossyChannel(loss),
        initial=Distribution(initial),
        horizon=3,
        name="firing-squad" + ("-improved" if improved else ""),
    )
    return system.compile()


def derive_improved_firing_squad(base: Optional[PPS] = None) -> PPS:
    """FS' derived from FS by the Section 8 transform, sharing FS's tree.

    The mechanical route to the improved protocol: apply
    :func:`~repro.protocols.strategies.refrain_below_threshold` to FS
    at the Spec threshold.  The result is a
    :class:`~repro.core.pps.DerivedPPS` — same nodes, same
    probabilities, one relabelled edge (Alice's fire-on-'No') — whose
    engine index is derived from FS's, so building FS' on top of an
    already-analyzed FS is near-free.  It agrees exactly with
    ``build_firing_squad(improved=True)`` on every measure, belief, and
    achieved probability (tests assert this); wrap it in
    :func:`~repro.core.reweight.materialize` for a standalone deep copy.

    Args:
        base: an existing FS system to derive from (compiled fresh when
            omitted).  Passing the system you are already analyzing
            shares its index caches with the derived FS'.
    """
    from ..protocols.strategies import refrain_below_threshold

    if base is None:
        base = build_firing_squad()
    return refrain_below_threshold(
        base,
        ALICE,
        FIRE,
        both_fire(),
        THRESHOLD,
        name=base.name + "-improved",
    )


#: Channel edges carry at most two independent loss events per round
#: (Alice's round-0 pair); exponents are searched up to this total.
_MAX_LOSS_EVENTS = 4


def drift_loss(
    pps: PPS,
    new_loss: ProbabilityLike,
    *,
    old_loss: ProbabilityLike = "0.1",
    name: Optional[str] = None,
) -> PPS:
    """The firing squad with the channel loss probability moved to ``new_loss``.

    The app-level drift knob: every channel edge of a compiled FS/FS'
    system has probability ``old^k * (1-old)^j`` — ``k`` messages lost,
    ``j`` delivered that round — so sweeping the loss rate only
    reweights edges.  This recovers ``(k, j)`` exactly from each edge's
    current probability and overrides it to ``new^k * (1-new)^j``,
    returning a tree-sharing derived system that is bit-identical to
    ``build_firing_squad(loss=new_loss)`` on every measure (tests and
    the reweight benchmark assert this) at a fraction of the compile
    cost.  Depth-1 edges (Alice's ``go`` flag) are left untouched.  At
    the boundary rates 0 and 1 the derived system keeps the now
    impossible runs with zero weight (tree shape is shared, never
    pruned), so it agrees with the cold build on every measure but has
    more run slots.

    Args:
        pps: a compiled FS or FS' system (derived/reweighted children
            are fine; probabilities resolve through their overlays).
        new_loss: the new per-message loss probability, in ``[0, 1]``.
        old_loss: the loss probability ``pps`` was compiled with.  Must
            make the exponents identifiable — e.g. ``old_loss=1/2``
            collapses ``(2,0)``, ``(1,1)`` and ``(0,2)`` onto 1/4 and
            is rejected.
        name: label of the result (default ``"<parent>-loss(<new>)"``).

    Raises:
        ValueError: when ``new_loss`` is outside ``[0, 1]``, when some
            channel edge's probability matches no ``old^k * (1-old)^j``,
            or when a match is ambiguous.
    """
    from ..core.reweight import reweight_edges

    old = as_fraction(old_loss)
    new = as_fraction(new_loss)
    if not 0 <= new <= 1:
        raise ValueError(f"new_loss must lie in [0, 1], got {new}")
    overrides: List[Tuple[Node, Probability]] = []
    if new != old:
        powers = {
            (k, j): new**k * (1 - new) ** j
            for k in range(_MAX_LOSS_EVENTS + 1)
            for j in range(_MAX_LOSS_EVENTS + 1 - k)
        }
        for node, current, pair in _loss_profile(pps, old):
            updated = powers[pair]
            if updated != current:
                overrides.append((node, updated))
    return reweight_edges(
        pps,
        overrides,
        name=name or f"{pps.name}-loss({new})",
    )


#: Memoized channel-edge classifications, keyed weakly per system then
#: by the old loss rate: trees (and the flattened probability overlays
#: of derived systems) are immutable, so the exponent recovery depends
#: only on ``(pps, old)`` — a dense sweep drifting hundreds of rows
#: from one parent pays the edge scan once, not once per row.
_LOSS_PROFILES: "WeakKeyDictionary[PPS, Dict[Probability, Tuple[Tuple[Node, Probability, Tuple[int, int]], ...]]]" = (
    WeakKeyDictionary()
)


def _loss_profile(
    pps: PPS, old: Probability
) -> Tuple[Tuple[Node, Probability, Tuple[int, int]], ...]:
    """``(node, current_probability, (k, j))`` per reweightable channel edge."""
    per_system = _LOSS_PROFILES.setdefault(pps, {})
    profile = per_system.get(old)
    if profile is None:
        exponents: Dict[Probability, Tuple[int, int]] = {}
        ambiguous = set()
        for k in range(_MAX_LOSS_EVENTS + 1):
            for j in range(_MAX_LOSS_EVENTS + 1 - k):
                value = old**k * (1 - old) ** j
                if exponents.setdefault(value, (k, j)) != (k, j):
                    ambiguous.add(value)
        entries: List[Tuple[Node, Probability, Tuple[int, int]]] = []
        for node in pps.nodes():
            if node.depth < 2:
                continue
            current = pps.edge_probability(node)
            if current == 1:
                continue
            if current in ambiguous:
                raise ValueError(
                    f"drift_loss: edge into node {node.uid} has probability "
                    f"{current}, which several loss/delivery exponent pairs "
                    f"produce at old_loss={old}; recompile from a loss rate "
                    "with identifiable exponents"
                )
            pair = exponents.get(current)
            if pair is None:
                raise ValueError(
                    f"drift_loss: edge into node {node.uid} has probability "
                    f"{current}, not of the form old^k*(1-old)^j for "
                    f"old_loss={old}"
                )
            entries.append((node, current, pair))
        profile = tuple(entries)
        per_system[old] = profile
    return profile


def fire_alice() -> Fact:
    """The transient fact that Alice is currently firing."""
    return does_(ALICE, FIRE)


def fire_bob() -> Fact:
    """The transient fact that Bob is currently firing."""
    return does_(BOB, FIRE)


def both_fire() -> Fact:
    """``phi_both``: both agents are currently firing."""
    return fire_alice() & fire_bob()
