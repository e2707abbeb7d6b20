"""Belief-guided protocol transforms (the paper's Section 8 insight).

Theorem 6.2 implies that whenever an agent acts while holding a low
degree of belief in the constraint's condition, it drags the achieved
probability down; by *refraining* from acting at such states, the agent
weakly improves the constraint.  The paper illustrates this on the FS
protocol: Alice declining to fire after receiving 'No' raises
``mu(both fire | Alice fires)`` from 0.99 to 0.99899.

:func:`refrain_below_threshold` applies this transform mechanically to
any compiled system: every performance of the action at a local state
whose belief in the condition is below the threshold is replaced by a
substitute action (default ``"skip"``), leaving probabilities intact.

Derived systems
---------------
Relabelling edges preserves states, probabilities, tree shape, and
therefore every belief/knowledge quantity that does not mention
actions.  The transforms exploit this: they return a
:class:`~repro.core.pps.DerivedPPS` — an
:class:`~repro.core.pps.ActionOverlay` of per-edge overrides over the
*shared* parent tree, node identity preserved — whose engine index is
derived from the parent's instead of rebuilt
(:meth:`repro.core.engine.SystemIndex.derived`).  Dense threshold
sweeps and optimality ablations thereby pay O(overridden edges) per
row instead of a full copy + validate + index rebuild; see
``docs/transforms.md``.

To get a standalone deep copy with fresh node identities instead, bake
the result with :func:`repro.core.reweight.materialize`:
``materialize(refrain_below_threshold(...))`` is bit-identical (uid
sequence, leaf order, ``Fraction`` probabilities) to what the
pre-derived-layer deep-copy implementation produced.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.beliefs import belief
from ..core.facts import Fact
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS, Action, ActionOverlay, AgentId, DerivedPPS, Node

__all__ = [
    "relabel_actions",
    "refrain_candidates",
    "refrain_below_threshold",
]


def refrain_candidates(
    pps: PPS, agent: AgentId, action: Action
) -> List[Tuple[Node, Dict[AgentId, Action], object]]:
    """The edges a refrain transform can touch, with their acting states.

    One breadth-first walk (the transforms' canonical edge order)
    returning ``(node, joint action, acting local state)`` for every
    edge on which ``agent`` performs ``action``.  This is the single
    source of truth for the refrain transform's candidate semantics —
    :func:`refrain_below_threshold`'s derived path and the dense-sweep
    fast path in :func:`repro.analysis.sweep.refrain_threshold_sweep`
    both build their overrides from it.

    Raises:
        ValueError: when a matching performance is recorded on an edge
            leaving the root — there is no acting local state there, so
            a belief guard would be undefined.
    """
    idx = pps.agent_index(agent)
    candidates: List[Tuple[Node, Dict[AgentId, Action], object]] = []
    queue = deque([pps.root])
    while queue:
        node = queue.popleft()
        via = pps.edge_action(node)
        if via is not None and via.get(agent) == action:
            parent = node.parent
            if parent is None or parent.state is None:
                raise ValueError(
                    f"refrain transform: edge into node {node.uid} "
                    f"(depth {node.depth}) records {agent!r} performing "
                    f"{action!r} but leaves the root, so there is no acting "
                    "local state to evaluate the belief at"
                )
            candidates.append((node, dict(via), parent.state.local(idx)))
        queue.extend(node.children)
    return candidates


def relabel_actions(
    pps: PPS,
    relabel: Callable[[Node, Dict[AgentId, Action]], Dict[AgentId, Action]],
    *,
    name: Optional[str] = None,
) -> PPS:
    """A system equal to ``pps`` with edge action labels rewritten.

    Args:
        pps: the source system (possibly itself derived; overlays
            chain).
        relabel: called once per labelled edge, in **breadth-first
            order** over the tree (root's children first, then depth 2,
            and so on — siblings in child order), with the node the
            edge leads into and a mutable copy of the edge's joint
            action; returns the new joint action for that edge.  The
            node is the *shared* parent node and must not be mutated.
        name: name of the resulting system.

    The result is a :class:`~repro.core.pps.DerivedPPS` recording only
    the edges the callback actually changed.  Only labels change:
    states, probabilities and tree shape are preserved, so the
    transform models the same stochastic process with re-described
    behaviour.
    """
    overrides: List[Tuple[Node, Dict[AgentId, Action]]] = []
    queue = deque([pps.root])
    while queue:
        node = queue.popleft()
        via = pps.edge_action(node)
        if via is not None:
            new_via = relabel(node, dict(via))
            if new_via != via:
                overrides.append((node, dict(new_via)))
        queue.extend(node.children)
    return DerivedPPS(
        pps, ActionOverlay(overrides), name=name or f"{pps.name}-relabelled"
    )


def refrain_below_threshold(
    pps: PPS,
    agent: AgentId,
    action: Action,
    phi: Fact,
    threshold: ProbabilityLike,
    *,
    replacement: Action = "skip",
    name: Optional[str] = None,
    numeric: str = "exact",
) -> PPS:
    """Suppress performances of ``action`` at low-belief local states.

    Every edge on which ``agent`` performs ``action`` from a local state
    where ``beta_i(phi) < threshold`` (computed in the *original*
    system — the belief the agent would hold when deciding) is relabelled
    to ``replacement``.  The result is a system for the modified
    protocol "act only when sufficiently confident".

    The result is a :class:`~repro.core.pps.DerivedPPS` sharing
    ``pps``'s tree and engine index (see :func:`relabel_actions`);
    :func:`repro.core.reweight.materialize` bakes it into the historic
    deep-copy output bit-identically.

    Note that the modified agent uses the same information it had in
    the original protocol; since beliefs are a function of the local
    state, the modified behaviour is implementable.

    ``numeric="auto"`` decides the per-state belief guards through the
    two-tier kernel (:mod:`repro.core.lazyprob`): guards resolve in
    float and escalate to exact arithmetic only when a belief lies
    within round-off of the threshold, so the relabelled edge set —
    and hence the returned system — is *identical* to exact mode's.
    ``numeric="float"`` trusts round-off (exploration only).

    Raises:
        ValueError: when a matching performance is recorded on an edge
            leaving the root — there is no acting local state there, so
            the belief guard is undefined.
    """
    bound = as_fraction(threshold)
    if numeric == "auto":
        from ..core.lazyprob import LazyProb

        bound = LazyProb.from_exact(bound)
    elif numeric == "float":
        bound = float(bound)
    belief_cache: Dict[object, bool] = {}

    def low_belief(local: object) -> bool:
        if local not in belief_cache:
            belief_cache[local] = (
                belief(pps, agent, phi, local, numeric=numeric) < bound
            )
        return belief_cache[local]

    overrides = [
        (node, {**via, agent: replacement})
        for node, via, local in refrain_candidates(pps, agent, action)
        if replacement != action and low_belief(local)
    ]
    return DerivedPPS(
        pps, ActionOverlay(overrides), name=name or f"{pps.name}-refrain[{action}]"
    )
