"""The indexed evaluation engine: per-system bitmask run-sets and caches.

Every query the library answers ultimately reduces to set algebra over
the (finite) run space of a pps and to exact-rational measures of the
resulting sets.  The naive evaluation strategy — rescan ``pps.runs``
and rebuild a ``frozenset`` for every query — is perfectly correct but
pays ``O(|R| * T)`` per query, which multiplies painfully across
sweeps, Monte-Carlo cross-validation, and the theorem checkers.

:class:`SystemIndex` is computed once per system (and cached *on* the
system object, so every layer that touches the same pps shares it) and
holds:

* **bitmask run-sets** — an event is an ``int`` whose bit ``k`` is set
  iff run ``k`` belongs to the event.  Intersection, union, and
  complement are single machine-word-per-64-runs operations;
* an **exact probability kernel** — run weights are reduced to integer
  numerators over one common denominator, so ``mu(event)`` is an
  integer popcount-weighted sum folded back into a single
  :class:`~fractions.Fraction`.  A prefix table of the weights makes
  contiguous index ranges O(1); because runs are collected in DFS
  order, the runs through *any* tree node form exactly such a range;
* precomputed **structure tables** — ``local state -> (time, mask)``
  per agent, per-time knowledge partitions, ``node uid -> (lo, hi)``
  leaf ranges, and ``(agent, action) -> performing mask / performance
  times / per-local-state cells``;
* **memo caches** keyed by :meth:`~repro.core.facts.Fact.structural_key`
  — satisfying run masks for run facts, per-time-slice truth masks for
  transient facts, and posterior beliefs per (agent, fact, local
  state).  Structural keys let equal-but-distinct fact objects (e.g.
  the per-row rebuilds of a sweep) share one cache entry; opaque facts
  fall back to identity keys automatically;
* **batched evaluation** — :meth:`SystemIndex.events_of`,
  :meth:`SystemIndex.truths_at`, and :meth:`SystemIndex.beliefs_batch`
  evaluate a list of facts in one pass per run-slice, decomposing
  boolean connectives into mask algebra so shared subexpressions are
  evaluated once per batch.

Cache invalidation is *never*: a pps tree is immutable after
validation (nothing in the library mutates nodes of a built system),
so an index computed once is valid for the lifetime of the system.

Derived systems (:class:`~repro.core.pps.DerivedPPS` — protocol
transforms represented as per-edge action overlays over a shared
parent tree) do not get cold builds: :meth:`SystemIndex.derived`
inherits every label-independent table and cache from the parent's
index and rebuilds only the (agent, action) tables for the overridden
edges, invalidating just the fact-cache entries whose facts mention
actions (see ``docs/transforms.md``).

Every table and memo cache of the index is additionally classified in
:data:`SystemIndex.DEPENDENCY_CLASS` as **shape-dependent** (a function
of tree shape, states, and edge labels only) or **weight-dependent**
(additionally reads the probability weight vector) — the per-entry
dependency record behind the weight split.  A *reweighted* child
(:class:`~repro.core.pps.ReweightedPPS` — per-edge probability
overrides, shape and labels untouched) inherits every shape-dependent
structure by reference and rebuilds exactly the weight-dependent ones:
the weight vector, prefix table, array kernels, and the measure-bearing
caches.  Satisfying-run masks are weight-*independent*, so a reweighted
row of an adversary-parameter sweep reuses the parent's fact masks
outright and pays only one integer-weight rebuild.

The kernel is **two-tier** (see ``docs/numerics.md``): every measure
starts as an integer weight total over one common denominator
(:meth:`SystemIndex.mask_total`), and the ``numeric=`` knob on
:meth:`SystemIndex.probability` / :meth:`SystemIndex.conditional` /
:meth:`SystemIndex.belief` / :meth:`SystemIndex.beliefs_batch` selects
how the total is folded: ``"exact"`` (default, normalized
:class:`~fractions.Fraction`), ``"auto"``
(:class:`~repro.core.lazyprob.LazyProb` — float-filtered comparisons
with exact-on-demand escalation, verdicts identical to exact), or
``"float"`` (raw floats, no guarantees).

The public frozenset-based :class:`~repro.core.measure.Event` API is
preserved throughout the library; this module is the engine underneath
it, and :meth:`SystemIndex.mask_of` / :meth:`SystemIndex.event_of`
are the interop boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .arraykernel import ThresholdKernel, WeightKernel, div_bounds, float_with_err
from .bitset import bit_positions, bits
from .errors import (
    ConditioningOnNullEventError,
    UnknownAgentError,
    UnknownLocalStateError,
)
from .lazyprob import LazyProb, check_numeric_mode
from .numeric import ONE, ZERO, Probability
from .pps import PPS, Action, AgentId, DerivedPPS, LocalState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .facts import Fact

__all__ = ["SystemIndex", "bits"]

#: Marks, in a ``memo=False`` overlay, the run-mask key of a run fact
#: whose whole-run scan raised (:meth:`SystemIndex._leaf_mask`).
_RUN_SCAN_FAILED = object()


class SystemIndex:
    """Precomputed bitmask index of one pps; obtain via :meth:`of`.

    The index is attached to the system on first use, so repeated
    queries — across the core operators, the analysis sweeps, and the
    benchmarks — all share one set of tables.
    """

    #: The per-entry dependency record: every table and memo cache of
    #: the index, classified by what can invalidate it.  ``"shape"``
    #: entries are functions of the tree shape, states, and edge
    #: labels only; ``"weight"`` entries additionally read the
    #: probability weight vector.  :meth:`derived` consults this
    #: record: an action overlay shares *everything* (weights
    #: included) and filters fact caches per-entry through
    #: ``_action_free``; a reweighting inherits every ``"shape"``
    #: structure by reference and rebuilds or drops every ``"weight"``
    #: one.  Every cache write in this module must target a classified
    #: attribute — enforced statically by analyzer rule RP009 and at
    #: runtime by the engine test suite.
    DEPENDENCY_CLASS: Dict[str, str] = {
        # weight-dependent: the exact/array probability kernels and
        # every cache holding measures, posteriors, or verdicts
        # computed from them.
        "_denominator": "weight",
        "_weights": "weight",
        "_prefix": "weight",
        "_prob_cache": "weight",
        "_total_cache": "weight",
        "_weight_kernel": "weight",
        "_bounds_cache": "weight",
        "_den_bounds": "weight",
        "_threshold_kernels": "weight",
        "_belief_cache": "weight",
        "_lazy_beliefs": "weight",
        "_independence_cache": "weight",
        # shape-dependent: structure tables and mask-valued caches
        # (bitmasks record *which* runs satisfy a fact — a question
        # probabilities never enter).
        "run_count": "shape",
        "all_mask": "shape",
        "max_time": "shape",
        "_node_ranges": "shape",
        "_alive": "shape",
        "_local_occurrence": "shape",
        "_partitions": "shape",
        "_event_cache": "shape",
        "_component_cache": "shape",
        "_shard_plans": "shape",
        "_fact_masks": "shape",
        "_slice_masks": "shape",
        "_at_action_cache": "shape",
        "_performing": "shape",
        "_action_records": "shape",
        "_performance_times": "shape",
        "_state_cells": "shape",
        "_agent_actions": "shape",
        "_proper_cache": "shape",
        "_performing_at": "shape",
        "_failed_run_scans": "shape",
    }

    #: Instance attributes that are bookkeeping, not cached data:
    #: identity and the derivation machinery itself.
    #: ``DEPENDENCY_CLASS`` and this set together must cover every
    #: attribute the constructor assigns (asserted by the test suite).
    BOOKKEEPING_ATTRS: FrozenSet[str] = frozenset(
        {
            "pps",
            "_action_free",
            "_derived_parent",
            "_inherit_pack",
        }
    )

    @classmethod
    def dependency_class(cls, attr: str) -> str:
        """``"shape"`` or ``"weight"`` for a classified index attribute.

        Raises:
            KeyError: for attributes outside the dependency record —
                adding a cache without classifying it is a bug this
                surfaces (and RP009 catches statically).
        """
        return cls.DEPENDENCY_CLASS[attr]

    @staticmethod
    def _weight_tables(runs) -> Tuple[int, List[int], List[int]]:
        """``(denominator, weights, prefix)`` for a run tuple.

        The single source of the integer-weight kernel: the cold
        constructor and the reweighted branch of :meth:`derived` both
        build through here, which is what pins a derived reweighted
        index bit-identical to a from-scratch rebuild.
        """
        denominator = 1
        for run in runs:
            q = run.prob.denominator
            denominator = denominator // gcd(denominator, q) * q
        weights = [
            run.prob.numerator * (denominator // run.prob.denominator)
            for run in runs
        ]
        prefix = [0]
        for weight in weights:
            prefix.append(prefix[-1] + weight)
        return denominator, weights, prefix

    def __init__(self, pps: PPS) -> None:
        self.pps = pps
        runs = pps.runs
        self.run_count = len(runs)
        self.all_mask = (1 << self.run_count) - 1

        # --- exact probability kernel -----------------------------------
        # Run weights as integer numerators over one common denominator;
        # prefix sums give O(1) measures of contiguous index ranges.
        denominator, weights, prefix = self._weight_tables(runs)
        self._denominator = denominator
        self._weights: List[int] = weights
        self._prefix: List[int] = prefix
        self._prob_cache: Dict[int, Probability] = {}
        # Raw integer weight totals per mask: the common input of every
        # numeric mode.  Exact mode folds a total into a normalized
        # Fraction (memoized in _prob_cache); the float/auto modes use
        # the (total, denominator) pair directly, skipping the gcd.
        self._total_cache: Dict[int, int] = {}
        # The array view of the weight vector (repro.core.arraykernel),
        # built lazily on first bounds query; (approx, err) bounds per
        # mask are memoized alongside the exact totals and shared with
        # derived indices exactly like _total_cache.
        self._weight_kernel: Optional[WeightKernel] = None
        self._bounds_cache: Dict[int, Tuple[float, float]] = {}
        self._den_bounds: Tuple[float, float] = float_with_err(denominator)
        # Sorted threshold kernels per (agent, fact key, action) — the
        # bisected grid structure of docs/numerics.md.  Never inherited
        # (it reads the action cells), but its expensive input — the
        # exact acting posteriors — lives in _belief_cache, which *is*
        # inherited for action-free facts.
        self._threshold_kernels: Dict[
            Tuple[AgentId, object, Action], ThresholdKernel
        ] = {}

        # --- structure tables -------------------------------------------
        # Runs are collected in DFS order, so the runs through any node
        # form a contiguous index range [lo, hi).
        self._node_ranges: Dict[int, Tuple[int, int]] = {}
        self._assign_leaf_ranges()

        max_time = max((run.final_time for run in runs), default=-1)
        self.max_time = max_time
        alive = [0] * (max_time + 1)
        for run in runs:
            bit = 1 << run.index
            for t in range(run.length):
                alive[t] |= bit
        self._alive: List[int] = alive

        # local state -> (time, occurrence mask), plus the per-time
        # knowledge partitions, all from one pass over the tree.
        self._local_occurrence: Dict[AgentId, Dict[LocalState, Tuple[int, int]]]
        self._partitions: Dict[AgentId, List[Dict[LocalState, int]]]
        self._build_local_tables()

        # --- lazily built action tables ---------------------------------
        self._performing: Optional[Dict[Tuple[AgentId, Action], int]] = None
        self._action_records: Dict[
            Tuple[AgentId, Action], List[Tuple[int, int]]
        ] = {}
        self._performance_times: Dict[
            Tuple[AgentId, Action], Dict[int, Tuple[int, ...]]
        ] = {}
        self._state_cells: Dict[Tuple[AgentId, Action], Dict[LocalState, int]] = {}
        self._agent_actions: Dict[AgentId, set] = {}
        self._proper_cache: Dict[Tuple[AgentId, Action], bool] = {}
        self._performing_at: Dict[Tuple[AgentId, Action], Dict[int, int]] = {}

        # --- memo caches keyed by Fact structural key -------------------
        # (opaque facts fall back to identity-shaped keys).
        self._fact_masks: Dict[object, int] = {}
        self._slice_masks: Dict[Tuple[object, int], int] = {}
        self._belief_cache: Dict[Tuple[AgentId, object, LocalState], Probability] = {}
        # Auto/float-mode twin of _belief_cache: posteriors as LazyProb
        # values built from raw int pairs — no Fraction normalization
        # until a comparison actually escalates (see docs/numerics.md).
        self._lazy_beliefs: Dict[Tuple[AgentId, object, LocalState], LazyProb] = {}
        # Independence verdicts (Definition 4.1) per (fact key, agent,
        # action): identical across numeric modes, recomputed by every
        # theorem premise otherwise.  Never inherited by derived
        # indices — the verdict inspects action cells.
        self._independence_cache: Dict[Tuple[object, AgentId, Action], bool] = {}
        self._at_action_cache: Dict[Tuple[AgentId, object, Action], int] = {}
        self._component_cache: Dict[
            Tuple[Tuple[AgentId, ...], int], Dict[int, int]
        ] = {}
        self._event_cache: Dict[int, FrozenSet[int]] = {}
        # Fact keys whose cached entries are label-independent
        # (Fact.mentions_actions() returned False at caching time);
        # only these survive into a derived index.
        self._action_free: Set[object] = set()
        # Run-mask keys of run facts whose whole-run scan raised: their
        # slices go straight to the slice scan (see _leaf_mask).
        self._failed_run_scans: Set[object] = set()
        # Set by derived(): the parent index the action tables are
        # incrementally rebuilt from on first use.
        self._derived_parent: Optional["SystemIndex"] = None
        # Memoized label-independent cache subsets handed to derived
        # indices; see _inheritable_pack().
        self._inherit_pack: Optional[Tuple[Tuple[int, ...], tuple]] = None
        # Shard plans per shard count (core/shard.py): pure functions of
        # the tree's leaf ranges, so derived indices share the dict by
        # reference and a dense sweep plans each K once.
        self._shard_plans: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, pps: PPS) -> "SystemIndex":
        """The system's index, built on first use and cached on the pps.

        A :class:`~repro.core.pps.DerivedPPS` never gets a cold build
        here: its index is derived from its parent's via
        :meth:`derived`, inheriting every label-independent table.
        """
        index = getattr(pps, "_system_index", None)
        if index is None:
            if isinstance(pps, DerivedPPS):
                index = cls.derived(cls.of(pps.parent), pps)
            else:
                index = cls(pps)
            pps._system_index = index  # type: ignore[attr-defined]
        return index

    @classmethod
    def derived(cls, parent: "SystemIndex", pps: "DerivedPPS") -> "SystemIndex":
        """An index for ``pps`` inheriting ``parent``'s tables.

        ``pps`` must be a derived system whose parent is exactly
        ``parent.pps``.  Everything *shape-dependent* (see
        :data:`DEPENDENCY_CLASS`) is shared by reference — leaf ranges,
        alive masks, local occurrence/partition tables,
        common-knowledge components, and the event-interop cache —
        because neither overlay kind touches states or tree shape.

        For a pure action overlay the *weight-dependent* kernel is
        shared too (weights, prefix table, memoized measures, array
        bounds): relabelling preserves probabilities.  For a
        **reweighted** child (:class:`~repro.core.pps.ReweightedPPS`,
        or any chain whose probability overrides differ from the
        parent's) the weight vector, prefix table, and array-kernel
        state are rebuilt from the child's own runs — through the same
        :meth:`_weight_tables` helper the cold constructor uses, so the
        result is bit-identical to a from-scratch build — and every
        measure-bearing cache starts empty.

        Fact-mask and slice-mask entries are inherited for facts that
        never inspect actions
        (:meth:`~repro.core.facts.Fact.mentions_actions`) in *both*
        cases — masks record which runs satisfy a fact, a
        weight-independent question.  Belief caches additionally
        require unchanged weights.  The (agent, action) tables are
        rebuilt incrementally, touching only the overridden edges, on
        first use.
        """
        if not isinstance(pps, DerivedPPS) or pps.parent is not parent.pps:
            raise ValueError(
                "derived() requires the DerivedPPS whose parent is exactly "
                "the parent index's system"
            )
        # The child is weight-split from the parent exactly when its
        # flattened probability overrides differ from the parent's own
        # (a relabelling of a reweighted parent inherits the parent's
        # table unchanged and still shares the parent's weights).
        reweighted = pps._prob_overrides != getattr(
            pps.parent, "_prob_overrides", {}
        )
        index = cls.__new__(cls)
        index.pps = pps
        index.run_count = parent.run_count
        index.all_mask = parent.all_mask
        if reweighted:
            # Weight-dependent kernel: rebuilt from the child's own run
            # probabilities; memoized measures and bounds start empty.
            denominator, weights, prefix = cls._weight_tables(pps.runs)
            index._denominator = denominator
            index._weights = weights
            index._prefix = prefix
            index._prob_cache = {}
            index._total_cache = {}
            index._weight_kernel = None
            index._bounds_cache = {}
            index._den_bounds = float_with_err(denominator)
        else:
            # Exact probability kernel: identical weights, shared memo.
            index._denominator = parent._denominator
            index._weights = parent._weights
            index._prefix = parent._prefix
            index._prob_cache = parent._prob_cache
            index._total_cache = parent._total_cache
            # Array kernel: weights are identical, so the float view,
            # the per-mask bounds memo, and the denominator bounds are
            # shared; the kernel itself is resolved through the parent
            # lazily (it may not be built yet).
            index._weight_kernel = None
            index._bounds_cache = parent._bounds_cache
            index._den_bounds = parent._den_bounds
        # Threshold kernels are action- and weight-dependent and start
        # empty either way.
        index._threshold_kernels = {}
        # Structure tables: the tree is literally the parent's.
        index._node_ranges = parent._node_ranges
        index.max_time = parent.max_time
        index._alive = parent._alive
        index._local_occurrence = parent._local_occurrence
        index._partitions = parent._partitions
        index._event_cache = parent._event_cache
        index._component_cache = parent._component_cache
        # Action tables: incremental rebuild deferred to first use.
        index._performing = None
        index._action_records = {}
        index._performance_times = {}
        index._state_cells = {}
        index._agent_actions = {}
        index._proper_cache = {}
        index._performing_at = {}
        index._derived_parent = parent
        index._inherit_pack = None
        # Fact caches: label-independent entries carry over verbatim.
        # The filtered views are memoized on the parent (invalidated by
        # growth — engine caches only ever grow), so a dense sweep
        # deriving hundreds of rows from one parent pays the filtering
        # once and each row only a shallow copy.
        free, fact_masks, slice_masks, belief_cache, lazy_beliefs = (
            parent._inheritable_pack()
        )
        index._action_free = set(free)
        index._fact_masks = dict(fact_masks)
        index._slice_masks = dict(slice_masks)
        if reweighted:
            # Posteriors are weight-dependent (DEPENDENCY_CLASS); only
            # the mask-valued caches above survive a reweighting.
            index._belief_cache = {}
            index._lazy_beliefs = {}
        else:
            index._belief_cache = dict(belief_cache)
            index._lazy_beliefs = dict(lazy_beliefs)
        index._at_action_cache = {}
        index._independence_cache = {}
        # A partial fact may raise on the parent's labels and not on the
        # child's (e.g. an improper action): failures start afresh.
        index._failed_run_scans = set()
        # Shard plans depend only on the shared tree's leaf ranges.
        index._shard_plans = parent._shard_plans
        return index

    def _inheritable_pack(self):
        """The label-independent subsets of the fact/belief caches.

        Rebuilt only when a cache has grown since the last derivation;
        see :meth:`derived`.
        """
        stamp = (
            len(self._action_free),
            len(self._fact_masks),
            len(self._slice_masks),
            len(self._belief_cache),
            len(self._lazy_beliefs),
        )
        pack = self._inherit_pack
        if pack is not None and pack[0] == stamp:
            return pack[1]
        free = self._action_free
        filtered = (
            free,
            {key: mask for key, mask in self._fact_masks.items() if key in free},
            {
                key: mask
                for key, mask in self._slice_masks.items()
                if key[0] in free
            },
            {
                key: value
                for key, value in self._belief_cache.items()
                if key[1] in free
            },
            {
                key: value
                for key, value in self._lazy_beliefs.items()
                if key[1] in free
            },
        )
        self._inherit_pack = (stamp, filtered)
        return filtered

    def _fact_key(self, fact: "Fact") -> object:
        """The memo-cache key of a fact: its structural key."""
        return fact.structural_key()

    def _note_action_free(self, fact: "Fact") -> None:
        """Record that a just-cached fact never inspects action labels.

        Derived indices (:meth:`derived`) inherit exactly the cache
        entries whose keys are recorded here: for those facts the
        masks and posteriors are a function of states, probabilities,
        and partitions only, all of which an action overlay preserves.
        """
        if not fact.mentions_actions():
            self._action_free.add(self._fact_key(fact))

    def _assign_leaf_ranges(self) -> None:
        """DFS matching :attr:`PPS.runs` order: node -> [lo, hi) leaf range."""
        counter = 0
        stack: List[Tuple[object, bool]] = [(self.pps.root, False)]
        lows: Dict[int, int] = {}
        while stack:
            node, done = stack.pop()
            if done:
                self._node_ranges[node.uid] = (lows[node.uid], counter)
                continue
            lows[node.uid] = counter
            if node.is_leaf and not node.is_root:
                counter += 1
                self._node_ranges[node.uid] = (counter - 1, counter)
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))
        # Runs exclude the root, so it carries no range: node_mask(root)
        # is the empty event, matching runs_through's historic contract.
        self._node_ranges.pop(self.pps.root.uid, None)

    def _build_local_tables(self) -> None:
        agents = self.pps.agents
        occurrence: Dict[AgentId, Dict[LocalState, Tuple[int, int]]] = {
            agent: {} for agent in agents
        }
        # Compiled systems carry an InternTable (pps.intern): equal
        # local states in the tree are identical objects, so the hot
        # accumulation loop can group by id() — hashing each *distinct*
        # local value once per system instead of once per (node, agent)
        # pair.  That matters for perfect-recall locals whose hash is
        # O(history).  Hand-built trees (no table) keep by-value keys.
        interned = self.pps.intern is not None
        # agent -> t -> key -> [local, mask]; key is id(local) or local.
        acc: Dict[AgentId, List[Dict[object, List[object]]]] = {
            agent: [dict() for _ in range(self.max_time + 1)] for agent in agents
        }
        for node in self.pps.state_nodes():
            state = node.state
            if state is None:
                continue
            mask = self.node_mask(node)
            t = node.time
            for idx, agent in enumerate(agents):
                local = state.local(idx)
                cells = acc[agent][t]
                key = id(local) if interned else local
                entry = cells.get(key)
                if entry is None:
                    cells[key] = [local, mask]
                else:
                    entry[1] |= mask
        partitions: Dict[AgentId, List[Dict[LocalState, int]]] = {}
        for agent in agents:
            slices: List[Dict[LocalState, int]] = []
            table = occurrence[agent]
            for t, cells in enumerate(acc[agent]):
                merged = {local: mask for local, mask in cells.values()}
                slices.append(merged)
                for local, mask in merged.items():
                    # Synchrony: each local state occurs at one time only.
                    table[local] = (t, mask)
            partitions[agent] = slices
        self._local_occurrence = occurrence
        self._partitions = partitions

    def _ensure_actions(self) -> None:
        """Build the (agent, action) tables in one pass over the tree edges.

        A node at time ``T`` whose ``via_action`` is set represents the
        edge on which that joint action was performed at time ``T - 1``
        by every run through the node — and the runs through a node are
        exactly its O(1) leaf-range mask, so each shared edge is
        visited once, not once per run.  Entries are recorded for
        *every* name appearing in ``via_action``, including reserved
        environment pseudo-agents that are not in ``pps.agents`` (facts
        such as ``performed(ENV, ...)`` must keep working); only the
        per-local-state cells require a real agent position.
        """
        if self._performing is not None:
            return
        if self._derived_parent is not None:
            self._derive_actions_from(self._derived_parent)
            return
        performing: Dict[Tuple[AgentId, Action], int] = {}
        records: Dict[Tuple[AgentId, Action], List[Tuple[int, int]]] = {}
        cells: Dict[Tuple[AgentId, Action], Dict[LocalState, int]] = {}
        agent_actions: Dict[AgentId, set] = {agent: set() for agent in self.pps.agents}
        positions = {agent: k for k, agent in enumerate(self.pps.agents)}
        for node in self.pps.state_nodes():
            via = self.pps.edge_action(node)
            t = node.time - 1
            if via is None or t < 0:
                continue
            mask = self.node_mask(node)
            parent = node.parent
            parent_state = parent.state if parent is not None else None
            for agent, action in via.items():
                key = (agent, action)
                performing[key] = performing.get(key, 0) | mask
                records.setdefault(key, []).append((t, mask))
                agent_actions.setdefault(agent, set()).add(action)
                idx = positions.get(agent)
                if idx is not None and parent_state is not None:
                    cell = cells.setdefault(key, {})
                    local = parent_state.local(idx)
                    cell[local] = cell.get(local, 0) | mask
        self._performing = performing
        self._action_records = records
        self._state_cells = cells
        self._agent_actions = agent_actions

    def _derive_actions_from(self, parent: "SystemIndex") -> None:
        """Rebuild the (agent, action) tables from the parent's, touching
        only the overlay's overridden edges.

        Every edge contributed exactly one ``(t, node_mask)`` record
        per (agent, action) pair of its joint action, and node masks of
        same-depth nodes are disjoint, so each old contribution is
        identified unambiguously and can be stripped before the new
        label's contributions are added.  Untouched entries are shared
        with the parent (copy-on-write per key), so the cost is
        O(overridden edges), not O(tree).
        """
        parent._ensure_actions()
        # repro: allow[RP006] internal invariant: _ensure_actions() just
        # populated _performing; the assert only narrows for the type
        # checker.
        assert parent._performing is not None
        pps = self.pps
        performing = dict(parent._performing)
        records = dict(parent._action_records)
        cells = dict(parent._state_cells)
        own_cells: set = set()
        positions = {agent: k for k, agent in enumerate(pps.agents)}
        # Record-list edits are batched per key and applied in one
        # filtering pass at the end, so a row that overrides E edges of
        # one key costs O(len(records[key]) + E), not O(E^2) as
        # per-edge list.remove would.
        strip: Dict[Tuple[AgentId, Action], set] = {}
        add: Dict[Tuple[AgentId, Action], List[Tuple[int, int]]] = {}

        def cell_dict(key: Tuple[AgentId, Action]) -> Dict[LocalState, int]:
            if key not in own_cells:
                cells[key] = dict(cells.get(key, {}))
                own_cells.add(key)
            return cells[key]

        for node, new_via in pps.overlay.items():
            t = node.time - 1
            if t < 0:
                # Edges into time-0 nodes never enter the action tables
                # (nature's initial choice is not an agent action).
                continue
            mask = self.node_mask(node)
            old_via = pps.parent.edge_action(node) or {}
            parent_state = node.parent.state if node.parent is not None else None
            for agent, action in old_via.items():
                if new_via.get(agent) == action:
                    # The override leaves this agent's label alone (a
                    # typical refrain override rewrites one agent of a
                    # joint action); stripping and re-adding an
                    # identical contribution would be wasted table
                    # surgery.
                    continue
                key = (agent, action)
                performing[key] &= ~mask
                strip.setdefault(key, set()).add((t, mask))
                idx = positions.get(agent)
                if idx is not None and parent_state is not None:
                    cell = cell_dict(key)
                    local = parent_state.local(idx)
                    remaining = cell[local] & ~mask
                    if remaining:
                        cell[local] = remaining
                    else:
                        del cell[local]
            for agent, action in new_via.items():
                if old_via.get(agent) == action:
                    continue
                key = (agent, action)
                performing[key] = performing.get(key, 0) | mask
                add.setdefault(key, []).append((t, mask))
                idx = positions.get(agent)
                if idx is not None and parent_state is not None:
                    cell = cell_dict(key)
                    local = parent_state.local(idx)
                    cell[local] = cell.get(local, 0) | mask
        for key in set(strip) | set(add):
            dropped = strip.get(key, set())
            kept = [entry for entry in records.get(key, ()) if entry not in dropped]
            # Each edge contributed exactly one unique (t, mask) record,
            # so every strip target must have been present.
            # repro: allow[RP006] internal bookkeeping invariant, not
            # reachable from the public API.
            assert len(kept) == len(records.get(key, ())) - len(dropped)
            kept.extend(add.get(key, ()))
            records[key] = kept
        # Prune entries an override emptied, so the tables describe the
        # derived system exactly as a cold rebuild would.
        self._performing = {key: mask for key, mask in performing.items() if mask}
        self._action_records = {key: lst for key, lst in records.items() if lst}
        self._state_cells = {key: cell for key, cell in cells.items() if cell}
        agent_actions: Dict[AgentId, set] = {agent: set() for agent in pps.agents}
        for agent, action in self._performing:
            agent_actions.setdefault(agent, set()).add(action)
        self._agent_actions = agent_actions

    # ------------------------------------------------------------------
    # Event interop and the probability kernel
    # ------------------------------------------------------------------

    def mask_of(self, event: FrozenSet[int]) -> int:
        """The bitmask of a frozenset-of-run-indices event."""
        mask = 0
        for index in event:
            mask |= 1 << index
        return mask

    def event_of(self, mask: int) -> FrozenSet[int]:
        """The frozenset event of a bitmask (memoized)."""
        cached = self._event_cache.get(mask)
        if cached is None:
            cached = frozenset(bits(mask))
            self._event_cache[mask] = cached
        return cached

    def complement(self, mask: int) -> int:
        return self.all_mask & ~mask

    def mask_total(self, mask: int) -> int:
        """The integer weight total of a mask over the common denominator.

        ``probability(mask) == Fraction(mask_total(mask), denominator)``
        by construction.  This is the value every numeric mode starts
        from; it is memoized per mask (and shared with derived indices,
        since an action overlay never changes weights).
        """
        if mask == 0:
            return 0
        if mask == self.all_mask:
            return self._prefix[-1]
        cached = self._total_cache.get(mask)
        if cached is None:
            lo = (mask & -mask).bit_length() - 1
            hi = mask.bit_length()
            if mask == (1 << hi) - (1 << lo):
                # Contiguous range (every subtree event is one): O(1).
                cached = self._prefix[hi] - self._prefix[lo]
            else:
                cached = sum(map(self._weights.__getitem__, bit_positions(mask)))
            self._total_cache[mask] = cached
        return cached

    def weight_kernel(self) -> WeightKernel:
        """The array view of the weight vector (lazily built, shared).

        Derived indices whose weight vector *is* the parent's (action
        overlays) resolve through the parent, so the float arrays are
        materialized once per tree, not once per overlay row.  A
        reweighted index owns a different vector and therefore builds
        (and memoizes) its own kernel.
        """
        parent = self._derived_parent
        if parent is not None and self._weights is parent._weights:
            return parent.weight_kernel()
        kernel = self._weight_kernel
        if kernel is None:
            kernel = WeightKernel(self._weights)
            self._weight_kernel = kernel
        return kernel

    def mask_bounds(self, mask: int) -> Tuple[float, float]:
        """``(approx, err)`` bounds on a mask's integer weight total.

        The float tier of :meth:`mask_total`: the true total provably
        lies in ``[approx - err, approx + err]``.  Masks whose exact
        total is already known (memoized, trivial, or a contiguous
        range — O(1) via the prefix table) convert directly; scattered
        masks go through the weight kernel's vectorized reduction when
        NumPy is available, and fall back to the exact integer total
        (error from conversion only) otherwise — the pure-Python
        backend's bounds are never looser than the vectorized ones, so
        verdicts certified on one backend are certified on both.
        """
        if mask == 0:
            # repro: allow[RP001] float bounds are this API's contract:
            # the bounds tier reports certified float envelopes.
            return (0.0, 0.0)
        cached = self._bounds_cache.get(mask)
        if cached is not None:
            return cached
        total = self._total_cache.get(mask)
        if total is None:
            lo = (mask & -mask).bit_length() - 1
            hi = mask.bit_length()
            if mask == self.all_mask or mask == (1 << hi) - (1 << lo):
                total = self.mask_total(mask)
        if total is not None:
            bounds = float_with_err(total)
        else:
            kernel = self.weight_kernel()
            if kernel.vectorized:
                bounds = kernel.mask_bounds(mask)
            else:
                bounds = float_with_err(self.mask_total(mask))
        self._bounds_cache[mask] = bounds
        return bounds

    def _lazy_conditional(self, target: int, given: int) -> LazyProb:
        """``mu(target | given)`` as a bounds-first deferred LazyProb.

        The float tier comes from :meth:`mask_bounds` (a vectorized
        reduction on the NumPy backend — no per-bit Python loop); the
        exact integer pair is deferred in a thunk, so grids whose
        verdicts certify in float never sum the exact totals at all,
        while an escalating comparison recovers the *same* unnormalized
        pair eager ``from_ratio`` construction would have carried.
        """
        inter = target & given
        num_a, num_e = self.mask_bounds(inter)
        den_a, den_e = self.mask_bounds(given)
        approx, err = div_bounds(num_a, num_e, den_a, den_e)
        return LazyProb(
            approx,
            err,
            pair_thunk=lambda: (self.mask_total(inter), self.mask_total(given)),
        )

    def probability(self, mask: int, *, numeric: str = "exact"):
        """``mu_T`` of a bitmask event.

        ``numeric`` selects the tier: ``"exact"`` (the default) returns
        a memoized normalized :class:`~fractions.Fraction`; ``"auto"``
        returns a :class:`~repro.core.lazyprob.LazyProb` carrying the
        raw ``(total, denominator)`` pair (no gcd paid unless a
        comparison escalates — verdicts guaranteed identical to exact);
        ``"float"`` returns a bare float with no exactness guarantee.
        Trivial masks short-circuit to exact ``0``/``1`` in auto mode.
        """
        if numeric == "exact":
            if mask == 0:
                return ZERO
            if mask == self.all_mask:
                return ONE
            cached = self._prob_cache.get(mask)
            if cached is not None:
                return cached
            result = Fraction(self.mask_total(mask), self._denominator)
            self._prob_cache[mask] = result
            return result
        if numeric == "float":
            return self.mask_total(mask) / self._denominator
        check_numeric_mode(numeric)
        if mask == 0:
            return ZERO
        if mask == self.all_mask:
            return ONE
        num_a, num_e = self.mask_bounds(mask)
        approx, err = div_bounds(num_a, num_e, *self._den_bounds)
        return LazyProb(
            approx,
            err,
            pair_thunk=lambda: (self.mask_total(mask), self._denominator),
        )

    def conditional(self, target: int, given: int, *, numeric: str = "exact"):
        """``mu_T(target | given)`` for bitmask events.

        In ``"auto"``/``"float"`` mode the common denominator cancels:
        the conditional is the plain ratio of the two masks' integer
        weight totals, so no ``Fraction`` is built at all.
        """
        if given == 0:
            raise ConditioningOnNullEventError(
                "cannot condition on an empty event (e.g. an action that is "
                "never performed)"
            )
        if numeric == "exact":
            return self.probability(target & given) / self.probability(given)
        if numeric == "float":
            return self.mask_total(target & given) / self.mask_total(given)
        check_numeric_mode(numeric)
        return self._lazy_conditional(target, given)

    # ------------------------------------------------------------------
    # Structure tables
    # ------------------------------------------------------------------

    def node_mask(self, node) -> int:
        """The mask of runs whose path passes through ``node``."""
        rng = self._node_ranges.get(node.uid)
        if rng is None:
            return 0
        lo, hi = rng
        return (1 << hi) - (1 << lo)

    def alive_mask(self, t: int) -> int:
        """The mask of runs whose length exceeds ``t``."""
        if 0 <= t <= self.max_time:
            return self._alive[t]
        return 0

    def _occurrence_table(self, agent: AgentId) -> Dict[LocalState, Tuple[int, int]]:
        table = self._local_occurrence.get(agent)
        if table is None:
            raise UnknownAgentError(
                f"unknown agent {agent!r}; agents are {self.pps.agents}"
            )
        return table

    def occurrence(self, agent: AgentId, local: LocalState) -> Optional[Tuple[int, int]]:
        """``(time, mask)`` for a local state, or ``None`` if it never occurs."""
        return self._occurrence_table(agent).get(local)

    def _occurrence_or_raise(
        self, agent: AgentId, local: LocalState
    ) -> Tuple[int, int]:
        """``(time, mask)``, raising for never-occurring states.

        The shared entry guard of every belief path (exact and lazy,
        single and batched) — one place owns the error contract.

        Raises:
            UnknownLocalStateError: when ``local`` never occurs for the
                agent.
        """
        entry = self.occurrence(agent, local)
        if entry is None:
            raise UnknownLocalStateError(
                f"local state {local!r} of agent {agent!r} never occurs "
                f"in {self.pps.name}"
            )
        return entry

    def occurrence_mask(self, agent: AgentId, local: LocalState) -> int:
        entry = self.occurrence(agent, local)
        return 0 if entry is None else entry[1]

    def occurrence_time(self, agent: AgentId, local: LocalState) -> Optional[int]:
        entry = self.occurrence(agent, local)
        return None if entry is None else entry[0]

    def local_states(self, agent: AgentId) -> FrozenSet[LocalState]:
        return frozenset(self._occurrence_table(agent))

    def partition(self, agent: AgentId, t: int) -> Mapping[LocalState, int]:
        """Local state -> mask of time-``t`` runs in that information cell."""
        slices = self._partitions.get(agent)
        if slices is None:
            raise UnknownAgentError(
                f"unknown agent {agent!r}; agents are {self.pps.agents}"
            )
        if 0 <= t <= self.max_time:
            return slices[t]
        return {}

    # ------------------------------------------------------------------
    # Action tables
    # ------------------------------------------------------------------

    def performing_mask(self, agent: AgentId, action: Action) -> int:
        """The mask of ``R_alpha``: runs in which the action is performed."""
        self._ensure_actions()
        # repro: allow[RP006] internal invariant: _ensure_actions() just
        # populated _performing (type-narrowing only).
        assert self._performing is not None
        return self._performing.get((agent, action), 0)

    def performance_times(
        self, agent: AgentId, action: Action
    ) -> Mapping[int, Tuple[int, ...]]:
        """Run index -> times of performance (performing runs only).

        Expanded lazily per queried (agent, action) from the per-edge
        records and memoized; unqueried actions never pay the per-run
        expansion.
        """
        self._ensure_actions()
        key = (agent, action)
        cached = self._performance_times.get(key)
        if cached is None:
            table: Dict[int, List[int]] = {}
            for t, mask in self._action_records.get(key, ()):
                for run_index in bits(mask):
                    table.setdefault(run_index, []).append(t)
            cached = {
                run_index: tuple(sorted(ts)) for run_index, ts in table.items()
            }
            self._performance_times[key] = cached
        return cached

    def performing_at(self, agent: AgentId, action: Action, t: int) -> int:
        """The mask of runs in which the action is performed *at time t*.

        Folded once per (agent, action) from the per-edge records and
        memoized; this is the direct mask of the transient fact
        ``does_i(alpha)`` at ``t`` (see ``Does.engine_mask``), making
        action atoms O(edges) to evaluate instead of one ``holds`` call
        per (run, slice) point.
        """
        self._ensure_actions()
        key = (agent, action)
        table = self._performing_at.get(key)
        if table is None:
            table = {}
            for rt, mask in self._action_records.get(key, ()):
                table[rt] = table.get(rt, 0) | mask
            self._performing_at[key] = table
        return table.get(t, 0)

    def state_cells(
        self, agent: AgentId, action: Action
    ) -> Mapping[LocalState, int]:
        """Acting local state -> mask of runs performing there (``Q^{l}``)."""
        self._ensure_actions()
        return self._state_cells.get((agent, action), {})

    def actions_of(self, agent: AgentId) -> FrozenSet[Action]:
        self._ensure_actions()
        return frozenset(self._agent_actions.get(agent, ()))

    def is_proper_action(self, agent: AgentId, action: Action) -> bool:
        """Whether the action is proper for the agent (memoized).

        Proper: performed at least once somewhere, at most once per
        run.  Every checker and threshold query re-asserts properness,
        so the verdict is cached per (agent, action); it is a pure
        function of the action tables, which never change for a built
        index.
        """
        self._ensure_actions()
        key = (agent, action)
        cached = self._proper_cache.get(key)
        if cached is None:
            # Straight from the per-edge records: same-time records are
            # disjoint, so "at most once per run" is exactly "no run
            # appears in two records", i.e. the union's popcount equals
            # the sum of the records' popcounts.  No per-run expansion.
            records = self._action_records.get(key, ())
            if not records:
                cached = False
            else:
                union = 0
                total = 0
                for _, mask in records:
                    union |= mask
                    total += mask.bit_count()
                cached = union.bit_count() == total
            self._proper_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Fact evaluation caches
    # ------------------------------------------------------------------

    def runs_satisfying_mask(self, fact: "Fact", *, memo: bool = True) -> int:
        """The satisfying-run mask of a run fact (memoized structurally).

        Boolean connectives (``And``/``Or``/``Not``) are decomposed
        into mask algebra over their operands' memoized masks, so
        shared subexpressions are evaluated once.

        Pass ``memo=False`` when evaluating a throwaway fact object:
        cached subresults are still *read*, but nothing new is written
        to the per-system caches, so single-use facts are not pinned on
        the system.
        """
        return self._combine_mask(fact, None, None if memo else {})

    def holds_mask_at(self, fact: "Fact", t: int, *, memo: bool = True) -> int:
        """The mask of time-``t``-alive runs at which ``fact`` holds at ``t``.

        Boolean connectives are decomposed into mask algebra over the
        slice masks of their operands.  Pass ``memo=False`` for
        throwaway fact objects (e.g. the per-iteration refinements of a
        fixpoint): results are kept in a per-call overlay instead of
        the per-system caches, so the objects are not pinned for the
        system's lifetime.
        """
        return self._combine_mask(fact, t, None if memo else {})

    # -- single-fact evaluation (cache + boolean decomposition) --------
    #
    # Throughout, ``t is None`` selects the run-mask universe (all
    # runs, facts evaluated at time 0) and an ``int`` ``t`` selects the
    # time-``t`` slice (alive runs, facts evaluated at ``t``); one
    # evaluator and one connective classifier serve both.

    @staticmethod
    def _connective(fact: "Fact"):
        """``(kind, operands)`` for a decomposable connective, else ``None``."""
        from .facts import And, Not, Or

        if isinstance(fact, And):
            return ("and", fact.conjuncts)
        if isinstance(fact, Or):
            return ("or", fact.disjuncts)
        if isinstance(fact, Not):
            return ("not", (fact.operand,))
        return None

    def _universe(self, t: Optional[int]) -> int:
        return self.all_mask if t is None else self.alive_mask(t)

    def _mask_cache(self, t: Optional[int]) -> Dict[object, int]:
        return self._fact_masks if t is None else self._slice_masks

    def _cache_key(self, fact: "Fact", t: Optional[int]) -> object:
        bare = self._fact_key(fact)
        return bare if t is None else (bare, t)

    def _scan_mask(self, fact: "Fact", t: Optional[int]) -> int:
        """One fact's mask by direct point evaluation; raises what it raises."""
        (mask,), (error,) = self._scan_batch([fact], t)
        if error is not None:
            raise error
        return mask

    def _leaf_mask(
        self, fact: "Fact", t: Optional[int], overlay: Optional[Dict[object, int]]
    ) -> int:
        """An opaque leaf's mask by point evaluation.

        A run fact is scanned once per run, not once per slice: its
        time-``t`` slice is its run mask restricted to the runs alive
        at ``t``.  When the run scan raises (a partial fact may raise
        on runs that die before ``t``), the slice scan decides, so the
        error semantics are exactly those of scanning the slice; the
        failure is recorded, so later slices skip the run scan.
        """
        if t is not None and fact.is_run_fact and not self._run_scan_failed(
            fact, overlay
        ):
            try:
                return self._combine_mask(fact, None, overlay) & self.alive_mask(t)
            except Exception:
                self._note_run_scan_failed(self._fact_key(fact), overlay)
        return self._scan_mask(fact, t)

    def _run_scan_failed(
        self, fact: "Fact", overlay: Optional[Dict[object, int]]
    ) -> bool:
        """Whether ``fact``'s whole-run scan is known to raise."""
        key = self._fact_key(fact)
        if key in self._failed_run_scans:
            return True
        return overlay is not None and (_RUN_SCAN_FAILED, key) in overlay

    def _note_run_scan_failed(
        self, key: object, overlay: Optional[Dict[object, int]]
    ) -> None:
        # Under memo=False the record stays in the per-call overlay, like
        # every other result of the call.
        if overlay is None:
            self._failed_run_scans.add(key)
        else:
            overlay[(_RUN_SCAN_FAILED, key)] = 0

    def _combine_mask(
        self, fact: "Fact", t: Optional[int], overlay: Optional[Dict[object, int]]
    ) -> int:
        key = self._cache_key(fact, t)
        cache = self._mask_cache(t)
        cached = cache.get(key)
        if cached is None and overlay is not None:
            cached = overlay.get(key)
        if cached is not None:
            return cached
        parts = self._connective(fact)
        if parts is None:
            mask = fact.engine_mask(self, t)
            if mask is None:
                mask = self._leaf_mask(fact, t, overlay)
        else:
            kind, operands = parts
            try:
                if kind == "and":
                    mask = self._universe(t)
                    for operand in operands:
                        mask &= self._combine_mask(operand, t, overlay)
                        if not mask:
                            break
                elif kind == "or":
                    mask = 0
                    for operand in operands:
                        mask |= self._combine_mask(operand, t, overlay)
                else:  # not
                    mask = self._universe(t) & ~self._combine_mask(
                        operands[0], t, overlay
                    )
            except Exception:
                # A sub-fact is partial (its ``holds`` raises) on runs
                # the connective's own short-circuiting would never
                # evaluate — e.g. ``guard & phi@alpha`` with an alpha
                # that is improper only outside the guard.  Re-evaluate
                # the composite per point, exactly as the pre-batching
                # engine did; if that raises too, the raise is genuine.
                mask = self._scan_mask(fact, t)
        if overlay is None:
            cache[key] = mask
            self._note_action_free(fact)
        else:
            overlay[key] = mask
        return mask

    # -- batched evaluation: one pass per run-slice per *batch* --------

    def shard_plan(self, shards: int):
        """The memoized :class:`~repro.core.shard.ShardPlan` for ``shards``.

        The requested count is clamped to ``[1, run_count]`` inside the
        plan builder; plans are pure functions of the tree's leaf
        ranges, so the memo dict is shared with derived indices.
        """
        from .shard import ShardPlan

        key = max(1, min(int(shards), self.run_count)) if self.run_count else 1
        plan = self._shard_plans.get(key)
        if plan is None:
            plan = ShardPlan.for_index(self, key)
            self._shard_plans[key] = plan
        return plan

    def _scan_points(
        self,
        facts: Sequence["Fact"],
        points: Sequence[Tuple[object, int, int]],
        masks: List[int],
        errors: List[Optional[Exception]],
    ) -> None:
        """The point-evaluation inner loop over an ordered point list.

        Mutates ``masks``/``errors`` in place so shards of one scan can
        share them: a fact whose ``holds`` raised earlier (in this call
        or an earlier shard) is skipped, preserving the exact
        first-error short-circuit of the unsharded pass.
        """
        pps = self.pps
        for run, bit, time in points:
            for k, fact in enumerate(facts):
                if errors[k] is not None:
                    continue
                try:
                    if fact.holds(pps, run, time):
                        masks[k] |= bit
                except Exception as exc:
                    errors[k] = exc

    def _scan_points_of(
        self, t: Optional[int], lo: int, hi: int
    ) -> List[Tuple[object, int, int]]:
        """The ordered evaluation points of run range ``[lo, hi)`` at ``t``.

        ``t=None`` scans whole runs (one point per run); otherwise only
        the runs alive at ``t``.  Points are ascending by run index, so
        concatenating consecutive ranges reproduces the full-scan order.
        """
        runs = self.pps.runs
        if t is None:
            return [(run, 1 << run.index, 0) for run in runs[lo:hi]]
        range_mask = (1 << hi) - (1 << lo)
        return [
            (runs[i], 1 << i, t) for i in bits(self.alive_mask(t) & range_mask)
        ]

    def _scan_batch(
        self, facts: Sequence["Fact"], t: Optional[int]
    ) -> Tuple[List[int], List[Optional[Exception]]]:
        """Masks of several facts in one pass over the runs (or a slice).

        Exceptions are isolated per fact: a fact whose ``holds`` raises
        stops being evaluated and gets its first exception recorded in
        the second list (with ``None`` for clean facts), so one partial
        fact cannot poison the rest of a batch.  Callers re-raise or
        fall back as their own contracts require.

        Under ``REPRO_SHARDS=N`` (:func:`~repro.core.shard.default_shards`)
        the pass is decomposed over the N-shard plan's ranges, walked in
        ascending shard order over shared result lists — the same points
        in the same order, so results are bit-identical to the unsharded
        scan (this keeps the decomposition itself under the whole tier-1
        suite).
        """
        masks = [0] * len(facts)
        errors: List[Optional[Exception]] = [None] * len(facts)
        from .shard import default_shards

        shards = default_shards()
        if shards > 1 and self.run_count > 1:
            for lo, hi in self.shard_plan(shards).ranges:
                self._scan_points(
                    facts, self._scan_points_of(t, lo, hi), masks, errors
                )
        else:
            self._scan_points(
                facts, self._scan_points_of(t, 0, self.run_count), masks, errors
            )
        return masks, errors

    def _scan_batch_range(
        self, facts: Sequence["Fact"], t: Optional[int], lo: int, hi: int
    ) -> Tuple[List[int], List[Optional[Exception]]]:
        """:meth:`_scan_batch` restricted to the run range ``[lo, hi)``.

        The per-shard unit of :class:`~repro.core.shard.ShardedExecutor`
        workers: masks OR and first-in-shard-order errors combine back
        to exactly the full scan's results because ranges partition the
        run universe in ascending order.
        """
        masks = [0] * len(facts)
        errors: List[Optional[Exception]] = [None] * len(facts)
        self._scan_points(facts, self._scan_points_of(t, lo, hi), masks, errors)
        return masks, errors

    def _collect_leaves(
        self,
        fact: "Fact",
        t: Optional[int],
        pending: Dict[object, "Fact"],
        overlay: Optional[Dict[object, int]],
    ) -> None:
        """Gather the uncached non-connective subfacts of ``fact``.

        ``t`` selects the slice caches; ``None`` selects the run-mask
        caches.  Connectives are never scanned directly — they combine
        from their operands' masks — so only leaves land in ``pending``.
        Opaque run-fact leaves are collected for the run-mask universe
        whatever ``t`` is (see :meth:`_leaf_mask`), under their run-mask
        key, unless their run scan is known to raise.
        """
        key = self._cache_key(fact, t)
        if key in pending:
            return
        if key in self._mask_cache(t) or (overlay is not None and key in overlay):
            return
        parts = self._connective(fact)
        if parts is None:
            # Facts that can state their own mask (e.g. action atoms
            # reading the (agent, action) tables) bypass the point scan
            # entirely and are cached immediately.
            mask = fact.engine_mask(self, t)
            if mask is not None:
                if overlay is None:
                    self._mask_cache(t)[key] = mask
                    self._note_action_free(fact)
                else:
                    overlay[key] = mask
            elif (
                t is not None
                and fact.is_run_fact
                and not self._run_scan_failed(fact, overlay)
            ):
                self._collect_leaves(fact, None, pending, overlay)
            else:
                pending[key] = fact
        else:
            for operand in parts[1]:
                self._collect_leaves(operand, t, pending, overlay)

    def _cache_scanned(
        self,
        pending: Dict[object, "Fact"],
        t: Optional[int],
        overlay: Optional[Dict[object, int]],
        scan=None,
    ) -> None:
        """Scan the pending leaves in one pass and cache the clean ones.

        ``pending`` is what :meth:`_collect_leaves` gathered for slice
        ``t``: leaves gathered under their run-mask key are scanned over
        whole runs, the rest over the slice.  ``scan(facts, t) ->
        (masks, errors)`` defaults to :meth:`_scan_batch`.  Leaves whose ``holds`` raised are left
        uncached; when their mask is actually demanded,
        :meth:`_combine_mask` re-raises (for a top-level leaf) or falls
        back to per-point composite evaluation (for a guarded
        sub-fact), matching the pre-batching semantics.
        """
        scan = scan or self._scan_batch
        universes: Dict[Optional[int], Dict[object, "Fact"]] = {}
        for key, fact in pending.items():
            # A slice key is ``(bare, t)``; a run-mask key is the bare key.
            universe = None if key == self._fact_key(fact) else t
            universes.setdefault(universe, {})[key] = fact
        for universe, group in universes.items():
            masks, errors = scan(list(group.values()), universe)
            self._absorb_scanned(group, universe, overlay, masks, errors)

    def _absorb_scanned(
        self,
        pending: Dict[object, "Fact"],
        t: Optional[int],
        overlay: Optional[Dict[object, int]],
        masks: Sequence[int],
        errors: Sequence[Optional[Exception]],
    ) -> None:
        """Write scan results for ``pending`` back into this index's caches.

        The single merge point for externally computed scans: a
        :class:`~repro.core.shard.ShardedExecutor` combines per-worker
        results and hands them here, so worker-side cache growth (lost
        with the fork) is re-absorbed by the parent under the same
        keying and ``_action_free`` discipline as an in-process scan.
        Errored facts stay uncached; an errored whole-run scan of a run
        fact is recorded so that its slices skip it (:meth:`_leaf_mask`).
        """
        target = self._mask_cache(t) if overlay is None else overlay
        for (key, fact), mask, error in zip(pending.items(), masks, errors):
            if error is None:
                target[key] = mask
                if overlay is None:
                    self._note_action_free(fact)
            elif t is None and fact.is_run_fact:
                self._note_run_scan_failed(key, overlay)

    def events_of(self, facts: Sequence["Fact"], *, memo: bool = True) -> List[int]:
        """Satisfying-run masks for a batch of facts, one pass over the runs.

        All uncached leaf subfacts of the batch are evaluated in a
        single traversal of the run list (instead of one traversal per
        fact); boolean connectives combine from the leaf masks.  Results
        are identical to per-fact :meth:`runs_satisfying_mask` calls.
        """
        facts = list(facts)
        overlay: Optional[Dict[object, int]] = None if memo else {}
        pending: Dict[object, "Fact"] = {}
        for fact in facts:
            self._collect_leaves(fact, None, pending, overlay)
        if pending:
            self._cache_scanned(pending, None, overlay)
        return [self._combine_mask(fact, None, overlay) for fact in facts]

    def truths_at(
        self, facts: Sequence["Fact"], t: int, *, memo: bool = True
    ) -> List[int]:
        """Time-``t`` truth masks for a batch of facts, one slice pass.

        The batched analogue of :meth:`holds_mask_at`: the time-``t``
        slice is traversed once for all uncached leaves of the batch.
        """
        facts = list(facts)
        overlay: Optional[Dict[object, int]] = None if memo else {}
        pending: Dict[object, "Fact"] = {}
        for fact in facts:
            self._collect_leaves(fact, t, pending, overlay)
        if pending:
            self._cache_scanned(pending, t, overlay)
        return [self._combine_mask(fact, t, overlay) for fact in facts]

    def beliefs_batch(
        self,
        agent: AgentId,
        facts: Sequence["Fact"],
        local: LocalState,
        *,
        memo: bool = True,
        numeric: str = "exact",
    ) -> List[Probability]:
        """``mu_T(phi@l | l)`` for a batch of facts at one local state.

        Facts whose posterior is already cached are answered directly;
        the rest share one batched slice evaluation at the state's
        occurrence time.  Results are identical to per-fact
        :meth:`belief` calls; ``numeric`` selects the tier exactly as
        for :meth:`belief`.

        Raises:
            UnknownLocalStateError: when ``local`` never occurs for the
                agent.
        """
        if numeric != "exact":
            return self._lazy_beliefs_batch(agent, facts, local, memo, numeric)
        facts = list(facts)
        t, occurs = self._occurrence_or_raise(agent, local)
        results: List[Optional[Probability]] = [None] * len(facts)
        missing: List[int] = []
        for k, fact in enumerate(facts):
            cached = self._belief_cache.get((agent, self._fact_key(fact), local))
            if cached is not None:
                results[k] = cached
            else:
                missing.append(k)
        if missing:
            masks = self.truths_at([facts[k] for k in missing], t, memo=memo)
            for k, mask in zip(missing, masks):
                # repro: allow[RP007] exact-only tail: non-exact modes
                # returned via _lazy_beliefs_batch above.
                value = self.conditional(occurs & mask, occurs)
                results[k] = value
                if memo:
                    self._belief_cache[(agent, self._fact_key(facts[k]), local)] = value
                    self._note_action_free(facts[k])
        return results  # type: ignore[return-value]

    def _lazy_beliefs_batch(
        self,
        agent: AgentId,
        facts: Sequence["Fact"],
        local: LocalState,
        memo: bool,
        numeric: str,
    ) -> List[object]:
        """Batched posteriors as int-pair LazyProbs (or their floats)."""
        check_numeric_mode(numeric)
        facts = list(facts)
        t, occurs = self._occurrence_or_raise(agent, local)
        results: List[Optional[LazyProb]] = [None] * len(facts)
        missing: List[int] = []
        for k, fact in enumerate(facts):
            cached = self._lazy_beliefs.get((agent, self._fact_key(fact), local))
            if cached is not None:
                results[k] = cached
            else:
                missing.append(k)
        if missing:
            masks = self.truths_at([facts[k] for k in missing], t, memo=memo)
            for k, mask in zip(missing, masks):
                value = self._lazy_conditional(mask, occurs)
                results[k] = value
                if memo:
                    self._lazy_beliefs[(agent, self._fact_key(facts[k]), local)] = value
                    self._note_action_free(facts[k])
        if numeric == "float":
            return [value.approx for value in results]  # type: ignore[union-attr]
        return results  # type: ignore[return-value]

    def belief(
        self,
        agent: AgentId,
        phi: "Fact",
        local: LocalState,
        *,
        memo: bool = True,
        numeric: str = "exact",
    ) -> Probability:
        """``mu_T(phi@l | l)``, memoized per (agent, fact key, state).

        ``numeric="auto"`` returns the posterior as a
        :class:`~repro.core.lazyprob.LazyProb` built from the raw
        ``(satisfied total, occurrence total)`` integer pair — cached
        per (agent, fact key, state) like the exact posterior, but with
        no ``Fraction`` normalization unless a comparison escalates.
        ``numeric="float"`` returns that value's float approximation.

        Raises:
            UnknownLocalStateError: when ``local`` never occurs for the
                agent.
        """
        if numeric != "exact":
            return self._lazy_belief(agent, phi, local, memo, numeric)
        key = (agent, self._fact_key(phi), local)
        if memo:
            cached = self._belief_cache.get(key)
            if cached is not None:
                return cached
        t, occurs = self._occurrence_or_raise(agent, local)
        # Every run in the occurrence mask passes through ``local`` at
        # ``t`` (synchrony), so phi@l reduces to truth at time t.
        satisfied = occurs & self.holds_mask_at(phi, t, memo=memo)
        # repro: allow[RP007] exact-only tail: non-exact modes returned
        # via _lazy_belief above.
        result = self.conditional(satisfied, occurs)
        if memo:
            self._belief_cache[key] = result
            self._note_action_free(phi)
        return result

    def _lazy_belief(
        self, agent: AgentId, phi: "Fact", local: LocalState, memo: bool, numeric: str
    ):
        """The posterior as an int-pair LazyProb (or its float approx)."""
        check_numeric_mode(numeric)
        key = (agent, self._fact_key(phi), local)
        value: Optional[LazyProb] = self._lazy_beliefs.get(key) if memo else None
        if value is None:
            t, occurs = self._occurrence_or_raise(agent, local)
            satisfied = self.holds_mask_at(phi, t, memo=memo)
            value = self._lazy_conditional(satisfied, occurs)
            if memo:
                self._lazy_beliefs[key] = value
                self._note_action_free(phi)
        return value if numeric == "auto" else value.approx

    def threshold_kernel(
        self, agent: AgentId, phi: "Fact", action: Action
    ) -> ThresholdKernel:
        """The sorted/bisected threshold kernel of one belief family.

        Built once per (agent, fact key, action) from the acting
        posteriors — **exact** values, pulled through
        :meth:`belief`, so the sort keys land in (and are reused
        from) ``_belief_cache``, which derived indices inherit for
        action-free facts: a dense refrain sweep deriving hundreds of
        rows pays the posterior computations once and each row only
        the O(L log L) sort over cached ``Fraction`` values.  See
        :class:`repro.core.arraykernel.ThresholdKernel` for how grids
        are answered from it.
        """
        key = (agent, self._fact_key(phi), action)
        kernel = self._threshold_kernels.get(key)
        if kernel is None:
            kernel = ThresholdKernel(
                [
                    (self.belief(agent, phi, local), cell)
                    for local, cell in self.state_cells(agent, action).items()
                ]
            )
            self._threshold_kernels[key] = kernel
        return kernel

    def phi_at_action_mask(
        self, agent: AgentId, phi: "Fact", action: Action, *, memo: bool = True
    ) -> int:
        """The ``phi@alpha`` run mask for a *proper* action, memoized.

        Keyed on the caller's ``phi`` rather than a freshly built
        ``AtAction`` wrapper, so repeated queries — e.g. the theorem
        checkers each re-deriving the achieved probability of the same
        condition — hit the cache.  Evaluated through the per-slice
        truth masks of ``phi`` (grouping performing runs by performance
        time), so the same masks serve beliefs, knowledge, and
        independence checks of the same condition.
        """
        key = (agent, self._fact_key(phi), action)
        if memo:
            cached = self._at_action_cache.get(key)
            if cached is not None:
                return cached
        by_time: Dict[int, int] = {}
        if self.is_proper_action(agent, action):
            # Proper: every performing run performs exactly once, so
            # the per-edge records *are* the first-performance grouping
            # — no per-run expansion of performance_times needed.
            for t, mask in self._action_records.get((agent, action), ()):
                by_time[t] = by_time.get(t, 0) | mask
        else:
            for run_index, times in self.performance_times(agent, action).items():
                t = times[0]
                by_time[t] = by_time.get(t, 0) | (1 << run_index)
        try:
            mask = 0
            for t, performers in by_time.items():
                # Performing at t implies alive at t, so the slice mask
                # of phi covers every performer.
                mask |= performers & self.holds_mask_at(phi, t, memo=memo)
        except Exception:
            # phi is partial (its ``holds`` raises) on an alive run
            # that does not perform the action — runs the historic
            # per-performing-run evaluation never touched.  Restrict to
            # exactly those runs; a raise from one of *them* is genuine
            # and propagates.
            pps = self.pps
            runs = pps.runs
            mask = 0
            for run_index, times in self.performance_times(agent, action).items():
                if phi.holds(pps, runs[run_index], times[0]):
                    mask |= 1 << run_index
        if memo:
            self._at_action_cache[key] = mask
        return mask

    def common_components(
        self, agents: Tuple[AgentId, ...], t: int
    ) -> Dict[int, int]:
        """Run index -> reachable-component mask for the time-``t`` slice.

        Two runs are linked when some agent of the group has the same
        local state in both; the returned masks are the transitive
        closures used by common knowledge.
        """
        key = (agents, t)
        cached = self._component_cache.get(key)
        if cached is not None:
            return cached
        alive = list(bits(self.alive_mask(t)))
        parent: Dict[int, int] = {index: index for index in alive}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for agent in agents:
            for mask in self.partition(agent, t).values():
                members = bits(mask)
                first = next(members, None)
                if first is None:
                    continue
                root = find(first)
                for other in members:
                    other_root = find(other)
                    if other_root != root:
                        parent[other_root] = root
        groups: Dict[int, int] = {}
        for index in alive:
            root = find(index)
            groups[root] = groups.get(root, 0) | (1 << index)
        components = {index: groups[find(index)] for index in alive}
        self._component_cache[key] = components
        return components

    def __repr__(self) -> str:
        return (
            f"SystemIndex({self.pps.name!r}, runs={self.run_count}, "
            f"cached_facts={len(self._fact_masks)}, "
            f"cached_beliefs={len(self._belief_cache)})"
        )
