"""Probability-changing transforms over a shared tree (adversary drift).

The paper's theorems are most interesting under *drift*: how do
Theorem 5.1 / PAK verdicts degrade as the adversary's corruption
probability or the environment's error rate moves?  Recompiling a
system per parameter value pays a full protocol compile + cold index
build per sweep row, even though reweighting an edge probability
changes neither tree shape, nor states, nor action labels — only the
integer weight vector.

The transforms here return :class:`~repro.core.pps.ReweightedPPS`
children over the *shared* parent tree (node identity preserved), whose
engine index inherits every shape-dependent structure by reference and
rebuilds only the weight vector, prefix table, and array kernels
(:meth:`repro.core.engine.SystemIndex.derived`, see
``docs/transforms.md``):

* :func:`reweight_edges` — direct per-edge probability overrides;
* :func:`scale_adversary` — the protocol-level drift knob: scale every
  adversarial branch by a factor, renormalizing honest siblings
  (threaded through :mod:`repro.protocols.adversary` for compiled
  adversary families);
* :func:`condition_on` — the conditional system given a run fact:
  non-satisfying leaf edges are zeroed and satisfying ones
  renormalized, so the result is exactly ``mu(. | fact)``.

:func:`materialize` is the one way to bake any system — plain, derived
or reweighted, however chained — into a standalone deep copy with the
resolved probabilities and action labels on fresh nodes, pinned
bit-identical (uid order, leaf order, ``Fraction`` probabilities, every
measure) to the derived path; tests assert this.  Callers that want a
standalone system write ``materialize(transform(...))``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import InvalidSystemError
from .facts import Fact
from .numeric import Probability, ProbabilityLike, as_fraction
from .pps import PPS, Node, ProbabilityOverlay, ReweightedPPS

__all__ = [
    "condition_on",
    "materialize",
    "reweight_edges",
    "scale_adversary",
]

#: ``(node, new_probability)`` pairs — nodes are identity-keyed tree
#: objects (not hashable), so overrides travel as pairs, mirroring
#: :class:`~repro.core.pps.ActionOverlay`'s constructor.
EdgeOverrides = Iterable[Tuple[Node, ProbabilityLike]]


def _override_pairs(overrides: EdgeOverrides) -> List[Tuple[Node, Probability]]:
    return [(node, as_fraction(prob)) for node, prob in overrides]


def reweight_edges(
    pps: PPS,
    overrides: EdgeOverrides,
    *,
    name: Optional[str] = None,
) -> PPS:
    """The system with the named edges' probabilities overridden.

    The fundamental reweighting transform: ``overrides`` maps non-root
    nodes of ``pps``'s tree to their new incoming-edge probabilities
    (zero allowed).  The overrides must preserve the run-space
    probability measure — rescale sibling edges complementarily, or
    use :func:`scale_adversary` / :func:`condition_on`, which do.

    Args:
        pps: the parent system (may itself be derived or reweighted;
            overlays flatten).
        overrides: ``node -> probability`` mapping or ``(node,
            probability)`` pairs.
        name: label of the result (default ``"<parent>-reweighted"``).

    Raises:
        ValueError: when the reweighted run space has zero total
            probability (the message names an offending zeroed edge).
        NotStochasticError: when the total is neither zero nor one.
    """
    return ReweightedPPS(
        pps,
        ProbabilityOverlay(_override_pairs(overrides)),
        name=name,
    )


def scale_adversary(
    pps: PPS,
    select: Callable[[Node], bool],
    factor: ProbabilityLike,
    *,
    name: Optional[str] = None,
) -> PPS:
    """Scale every adversarial branch by ``factor``, renormalizing the rest.

    The protocol-level drift knob: ``select`` marks the adversarial
    outcome edges (called on the node each edge leads into), and every
    selected edge's probability is multiplied by ``factor`` while its
    unselected siblings are rescaled complementarily, so each touched
    node's outgoing distribution stays a distribution.  ``factor > 1``
    strengthens the adversary, ``factor < 1`` weakens it, ``factor=0``
    removes the adversarial branches (their runs keep index slots with
    zero weight — tree shape is shared, not pruned).

    With selected mass ``s`` at a node, selected edges scale by
    ``factor`` and unselected ones by ``(1 - factor*s) / (1 - s)``.

    Raises:
        ValueError: when ``factor`` is negative, when ``factor * s > 1``
            at some node, or when every child of a node is selected and
            ``factor != 1`` (there is no honest mass to absorb the
            change) — each message names the offending node.
    """
    scale = as_fraction(factor)
    if scale < 0:
        raise ValueError(f"scale_adversary factor must be >= 0, got {scale}")
    overrides: List[Tuple[Node, Probability]] = []
    if scale != 1:
        for node in pps.nodes():
            if not node.children:
                continue
            chosen = {
                id(child): child for child in node.children if select(child)
            }
            if not chosen:
                continue
            mass = sum(
                (pps.edge_probability(child) for child in chosen.values()),
                start=Fraction(0),
            )
            if mass == 0:
                continue
            scaled = scale * mass
            if scaled > 1:
                raise ValueError(
                    f"scale_adversary: node {node.uid}'s adversarial mass "
                    f"{mass} scaled by {scale} exceeds 1"
                )
            honest = 1 - mass
            if honest == 0:
                raise ValueError(
                    f"scale_adversary: every branch of node {node.uid} is "
                    f"adversarial (mass 1); scaling by {scale} leaves no "
                    "honest sibling to renormalize against"
                )
            rescale = (1 - scaled) / honest
            for child in node.children:
                p = pps.edge_probability(child)
                q = p * (scale if id(child) in chosen else rescale)
                if q != p:
                    overrides.append((child, q))
    return ReweightedPPS(
        pps,
        ProbabilityOverlay(overrides),
        name=name or f"{pps.name}-scaled",
    )


def condition_on(
    pps: PPS,
    fact: Fact,
    *,
    name: Optional[str] = None,
) -> PPS:
    """The conditional system ``mu(. | fact)`` over the shared tree.

    ``fact`` is evaluated as a run fact; leaf edges of non-satisfying
    runs are zeroed and leaf edges of satisfying runs divided by
    ``mu(fact)``, so every run's probability becomes exactly its
    conditional probability.  Run indices, tree shape, states, and
    labels are untouched — the result answers every query as the
    conditioned measure while still sharing the parent's
    shape-dependent index structure.

    Raises:
        ValueError: when ``fact`` has probability zero in ``pps``
            (conditioning would divide by zero downstream).
    """
    from .engine import SystemIndex  # late import: engine imports pps

    index = SystemIndex.of(pps)
    mask = index.runs_satisfying_mask(fact)
    measure = index.probability(mask)
    if measure == 0:
        raise ValueError(
            f"cannot condition {pps.name!r} on {fact!r}: the fact has "
            "probability zero (no run satisfies it with positive weight)"
        )
    overrides: List[Tuple[Node, Probability]] = []
    for run in pps.runs:
        leaf = run.nodes[-1]
        current = pps.edge_probability(leaf)
        if mask >> run.index & 1:
            if measure != 1:
                overrides.append((leaf, current / measure))
        elif current != 0:
            overrides.append((leaf, Fraction(0)))
    return ReweightedPPS(
        pps,
        ProbabilityOverlay(overrides),
        name=name or f"{pps.name}|{fact!r}",
    )


def materialize(pps: PPS) -> PPS:
    """A standalone deep copy with resolved probabilities and labels baked in.

    The single way to turn a derived system (relabelled, refrained,
    reweighted, conditioned, or any chain of these) into a plain
    :class:`~repro.core.pps.PPS`: fresh nodes numbered in depth-first
    pre-order from 0, each carrying ``pps.edge_probability`` /
    ``pps.edge_action`` resolved through the whole overlay chain.  The
    walk is iterative, so trees deeper than the interpreter's
    recursion limit copy fine; on a plain system it is a structural
    deep copy.  Zero-probability edges are kept (dropping them would
    renumber runs), so the copy is bit-identical to the derived system
    on every run index, weight, and measure — and it is not
    re-validated (``validate=False``), since the
    conditional constructions legitimately carry zero edges and
    node-level sums that the global run-space check in
    :class:`~repro.core.pps.ReweightedPPS` has already vetted.
    """
    counter = 0
    result: Optional[Node] = None
    stack: List[Tuple[Node, Optional[Node]]] = [(pps.root, None)]
    while stack:
        node, parent = stack.pop()
        via = pps.edge_action(node)
        copy = Node(
            uid=counter,
            depth=node.depth,
            state=node.state,
            prob_from_parent=pps.edge_probability(node),
            via_action=dict(via) if via is not None else None,
            parent=parent,
        )
        counter += 1
        if parent is None:
            result = copy
        else:
            parent.children.append(copy)
        # Reversed push: children are copied (and numbered) first-child
        # first, matching the recursive pre-order numbering.
        stack.extend((child, copy) for child in reversed(node.children))
    if result is None:  # pragma: no cover - stack always yields the root
        raise InvalidSystemError("cannot materialize an empty tree")
    return PPS(
        pps.agents,
        result,
        name=pps.name,
        validate=False,
        intern=pps.intern,
    )
