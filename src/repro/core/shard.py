"""Sharded run spaces: splitting one index's leaf universe across cores.

Runs are collected in DFS order, so the runs through *any* tree node
form a contiguous index range (``docs/engine.md``).  That makes the
bitmask universe splittable at any tree frontier: a
:class:`ShardPlan` picks a frontier whose leaf ranges partition
``[0, run_count)`` into ``K`` contiguous shards, and every engine
quantity then decomposes per shard —

* **masks** restrict by intersection with a shard's range mask and
  recombine by OR;
* **integer weight totals** (the input of every numeric mode) restrict
  to sub-masks and recombine by integer addition over the one common
  denominator;
* **float error bounds** recombine through
  :func:`~repro.core.arraykernel.sum_bounds`, whose error term is
  valid for any summation order, so a bound combined across shards is
  conservative regardless of how the work was split.

All three combines are associative, and the implementations below
always fold **in ascending shard order** — never over a set or an
identity-keyed mapping — so a sharded evaluation is deterministic for
a fixed shard count and its exact values are *bit-identical* to the
single-process path for every shard count (``docs/sharding.md``
records the laws; rule RP008 of ``repro.tools.check`` polices the
fixed-order discipline).

Two execution surfaces consume a plan:

* the engine's own point scans (:meth:`SystemIndex._scan_batch`)
  consult :func:`default_shards` (the ``REPRO_SHARDS`` environment
  knob) and walk the plan's shards in order within the current
  process — same work, same results, exercising the decomposition on
  every tier-1 run;
* :class:`ShardedExecutor` evaluates shards in parallel worker
  processes (``concurrent.futures.ProcessPoolExecutor`` over a
  ``fork`` context, so the index — and any closure-carrying facts
  registered as payload — are inherited by the workers without
  pickling).  The pool is created once and amortized across queries;
  when ``K <= 1``, ``fork`` is unavailable, or a task cannot be
  shipped, evaluation falls back to the serial in-process path with
  identical results.

Worker processes run with fork-copied memo caches and a fork-copied
:func:`~repro.core.lazyprob.numeric_stats` counter; nothing a worker
caches or counts leaks back by itself.  The executor therefore merges
explicitly: combined masks are written back into the parent index
through the engine's own cache discipline
(:meth:`SystemIndex._absorb_scanned` — structural keys and
``_action_free`` records included), and each worker returns a counter
delta that the parent folds into the global stats via
:func:`~repro.core.lazyprob.absorb_stats`.

Result masks are arbitrary-precision ints one bit per run; pickling
them through the result pipe re-serializes ``run_count / 8`` bytes per
fact per shard.  Workers therefore ship mask payloads out-of-band as
packed little-endian byte arrays in a ``multiprocessing.shared_memory``
segment (one segment per task, unlinked by the parent after
reassembly) and send only the segment name, per-mask lengths, and a CRC32 checksum through the pipe
(the parent verifies length + checksum before trusting the bytes);
where shared memory is unavailable or refuses allocation the masks
fall back to in-band pickling — both transports reconstruct the
identical integers (the ``tests/parity.py`` grid runs the sharded
executor over every numeric tier).

:class:`ShardedExecutor` is a *supervisor*, not just a dispatcher
(``docs/robustness.md``): every task carries a per-task timeout, a
failed shard is re-dispatched with bounded retry + exponential
backoff, a broken pool is killed and respawned (budgeted), and
shared-memory segments are parent-named so any segment belonging to a
crashed or abandoned task can be reaped.  When the budget runs out the
executor either raises :class:`~repro.core.errors.FaultExhaustedError`
naming the failing shard or degrades to the serial scan — and *every*
downgrade (parallel→serial, shm→pickle) is recorded as a
:class:`~repro.core.faults.DegradationEvent` on the process's
:func:`~repro.core.faults.resilience_report`, never swallowed.
Deterministic fault injection for all of these paths comes from
:mod:`repro.core.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import zlib
from bisect import bisect_right
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .arraykernel import div_bounds, float_with_err, sum_bounds
from .errors import (
    ConditioningOnNullEventError,
    FaultExhaustedError,
    ShmIntegrityError,
)
from .faults import (
    absorb_events,
    hang_seconds,
    maybe_fire,
    record_degradation,
    record_retry,
    report_delta,
    reset_resilience_report,
)
from .lazyprob import (
    LazyProb,
    absorb_stats,
    check_numeric_mode,
    numeric_stats,
    reset_numeric_stats,
)
from .numeric import ONE, ZERO

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .engine import SystemIndex
    from .facts import Fact
    from .pps import Action, AgentId, LocalState

__all__ = [
    "ShardPlan",
    "ShardedExecutor",
    "default_shards",
    "set_default_shards",
    "combine_masks",
    "combine_totals",
    "combine_bounds",
    "combine_errors",
]


# ----------------------------------------------------------------------
# The REPRO_SHARDS knob
# ----------------------------------------------------------------------

# The process-default shard count: 0/1 means "no sharding" (the
# single-pass scan).  Resolved lazily from the environment on first
# use, so importing the module never reads os.environ at a surprising
# time; tests flip it via set_default_shards, mirroring
# arraykernel.set_backend.
_default_shards: Optional[int] = None


def _shards_from_env() -> int:
    raw = os.environ.get("REPRO_SHARDS", "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 0
    return value if value > 0 else 0


def default_shards() -> int:
    """The process-default shard count (``REPRO_SHARDS``; 0 = off).

    ``REPRO_SHARDS=N`` makes every engine point scan decompose over an
    ``N``-shard plan (in-process, fixed shard order — results are
    bit-identical to the unsharded scan); ``0``, ``1``, unset, or an
    unparseable value leave the single-pass scan in place.
    """
    global _default_shards
    if _default_shards is None:
        _default_shards = _shards_from_env()
    return _default_shards


def set_default_shards(shards: int) -> int:
    """Set the process-default shard count, returning the previous one.

    The test hook behind the parity grids: flipping the knob changes
    how scans are *scheduled*, never what they compute.

    Raises:
        ValueError: for negative shard counts.
    """
    global _default_shards
    if shards < 0:
        raise ValueError(f"shard count must be >= 0, got {shards}")
    previous = default_shards()
    _default_shards = int(shards)
    return previous


# ----------------------------------------------------------------------
# Combine laws (fixed shard order; see docs/sharding.md)
# ----------------------------------------------------------------------


def combine_masks(parts: Sequence[int]) -> int:
    """OR per-shard masks, folded in the given (ascending-shard) order.

    Shard ranges are disjoint, so OR over them is a disjoint union:
    associative, and equal to the unsharded mask for any split.
    """
    mask = 0
    for part in parts:
        mask |= part
    return mask


def combine_totals(parts: Sequence[int]) -> int:
    """Sum per-shard integer weight totals (one common denominator).

    Integer addition is exact and associative, so the combined total —
    and every ``Fraction`` folded from it — is bit-identical to the
    single-process total for any shard count.
    """
    total = 0
    for part in parts:
        total += part
    return total


def combine_errors(parts: Sequence[Optional[Exception]]) -> Optional[Exception]:
    """The first per-shard exception in ascending shard order, if any.

    Shards cover ascending run ranges, so the first erroring shard's
    first exception is exactly the exception the serial point scan
    would have recorded.
    """
    for part in parts:
        if part is not None:
            return part
    return None


def combine_bounds(
    parts: Sequence[Tuple[float, float]]
) -> Tuple[float, float]:
    """Combine per-shard ``(approx, err)`` bounds into one bound.

    Delegates to :func:`~repro.core.arraykernel.sum_bounds`: the error
    term covers the accumulated rounding of *any* summation order, so
    the combined bound is conservative no matter how many shards the
    total was split across.  The exact value the bound brackets is the
    sum of the shards' exact totals — shard-count invariant — so a
    comparison that escalates lands on the identical integers.
    """
    return sum_bounds(parts)


# ----------------------------------------------------------------------
# Shard plans: a tree frontier as contiguous leaf ranges
# ----------------------------------------------------------------------


class ShardPlan:
    """K contiguous leaf ranges covering one index's run universe.

    Built by :meth:`for_index` from a tree frontier: starting from the
    root's children, the widest expandable frontier node is repeatedly
    replaced by its children until the frontier carries at least one
    candidate boundary per requested shard, then the frontier's range
    boundaries are grouped into ``K`` contiguous shards of near-equal
    leaf count.  Because every node's leaf range is contiguous and
    DFS-ordered, the resulting shards partition ``[0, run_count)``
    exactly; derived indices share the parent's plan (same tree, same
    ranges).

    The requested count is clamped to ``[1, run_count]``, so ``K``
    greater than the number of leaves degrades to single-leaf shards
    rather than empty ones.
    """

    __slots__ = ("run_count", "boundaries", "ranges", "masks")

    def __init__(self, run_count: int, boundaries: Sequence[int]) -> None:
        bounds = list(boundaries)
        if not bounds or bounds[0] != 0 or bounds[-1] != run_count:
            raise ValueError(
                f"shard boundaries {bounds} must cover [0, {run_count}]"
            )
        for left, right in zip(bounds, bounds[1:]):
            if right <= left:
                raise ValueError(
                    f"shard boundaries {bounds} must be strictly increasing"
                )
        self.run_count = run_count
        self.boundaries: Tuple[int, ...] = tuple(bounds)
        self.ranges: Tuple[Tuple[int, int], ...] = tuple(
            zip(self.boundaries, self.boundaries[1:])
        )
        self.masks: Tuple[int, ...] = tuple(
            (1 << hi) - (1 << lo) for lo, hi in self.ranges
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def for_index(cls, index: "SystemIndex", shards: int) -> "ShardPlan":
        """A plan splitting ``index``'s leaf universe into ``shards``."""
        run_count = index.run_count
        if run_count <= 0:
            return cls(0, (0,)) if run_count == 0 else cls(run_count, (0, run_count))
        k = max(1, min(int(shards), run_count))
        if k == 1:
            return cls(run_count, (0, run_count))
        cuts = _frontier_boundaries(index, k)
        return cls(run_count, _balanced_cuts(cuts, run_count, k))

    # -- queries --------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.ranges)

    def shard_of(self, run_index: int) -> int:
        """The shard holding ``run_index``."""
        if not 0 <= run_index < self.run_count:
            raise IndexError(
                f"run index {run_index} outside [0, {self.run_count})"
            )
        return bisect_right(self.boundaries, run_index) - 1

    def submasks(self, mask: int) -> List[int]:
        """``mask`` restricted to each shard, in ascending shard order.

        The restrictions are pairwise disjoint and OR back to ``mask``
        (:func:`combine_masks`), so any per-mask quantity that sums
        over runs decomposes exactly over this list.
        """
        return [mask & shard_mask for shard_mask in self.masks]

    def __repr__(self) -> str:
        return (
            f"ShardPlan(runs={self.run_count}, "
            f"shards={self.shard_count}, boundaries={self.boundaries})"
        )


def _frontier_boundaries(index: "SystemIndex", k: int) -> List[int]:
    """Candidate cut positions from a ``>= k``-node tree frontier.

    The frontier starts at the root's children and repeatedly expands
    the widest node that still has children, until every frontier node
    is narrower than the ideal shard width ``ceil(n / k)`` (or is a
    leaf).  Cut candidates therefore accumulate where the leaf mass is
    — a skewed tree yields enough boundaries to balance the wide side
    instead of splitting only at the top level.
    """
    ranges = index._node_ranges
    frontier: List[object] = list(index.pps.root.children)
    target_width = max(1, -(-index.run_count // k))  # ceil(n / k)

    def width(node: object) -> int:
        rng = ranges.get(node.uid)
        return 0 if rng is None else rng[1] - rng[0]

    while True:
        best_pos = -1
        best_width = target_width
        for pos, node in enumerate(frontier):
            if node.children and width(node) > best_width:
                best_pos = pos
                best_width = width(node)
        if best_pos < 0:
            break
        node = frontier[best_pos]
        frontier[best_pos : best_pos + 1] = list(node.children)
    cuts = sorted(
        {ranges[node.uid][0] for node in frontier if node.uid in ranges}
    )
    return [cut for cut in cuts if cut > 0]


def _balanced_cuts(candidates: Sequence[int], run_count: int, k: int) -> List[int]:
    """``k`` near-equal contiguous groups from candidate cut positions.

    For each of the ``k - 1`` interior boundaries the candidate closest
    to the ideal position ``j * run_count / k`` is chosen (compared in
    exact integer arithmetic, ties to the left), subject to staying
    strictly between the previous choice and the positions the
    remaining boundaries still need.  When the frontier offered fewer
    candidates than requested shards the plan simply has fewer, wider
    shards — never an empty one.
    """
    chosen: List[int] = [0]
    pool = [cut for cut in candidates if 0 < cut < run_count]
    for j in range(1, k):
        remaining = k - j  # boundaries still to place after this one
        best: Optional[int] = None
        best_score: Optional[int] = None
        for pos, cut in enumerate(pool):
            if cut <= chosen[-1]:
                continue
            if len(pool) - pos - 1 < remaining - 1:
                break
            # |cut - j*run_count/k| compared exactly as |cut*k - j*run_count|.
            score = abs(cut * k - j * run_count)
            if best_score is None or score < best_score:
                best = cut
                best_score = score
        if best is None:
            break
        chosen.append(best)
    chosen.append(run_count)
    return chosen


# ----------------------------------------------------------------------
# The fork-based sharded executor
# ----------------------------------------------------------------------

# Worker-process state, inherited by fork at pool creation: the index
# the workers evaluate against, the plan they shard by, and a payload
# tuple of caller objects (e.g. closure-carrying facts) that cannot be
# pickled but *can* be inherited.  Tasks reference payload entries by
# position, so nothing unpicklable ever crosses the pipe.
_WORKER_STATE: Optional[Tuple["SystemIndex", ShardPlan, tuple]] = None


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` off-POSIX."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _picklable_error(error: Optional[Exception]) -> Optional[Exception]:
    """``error`` if it survives a pickle round-trip, else a summary.

    Scan errors come from arbitrary ``Fact.holds`` implementations;
    one that cannot cross the process boundary is reported as a
    ``RuntimeError`` carrying its type and message rather than
    poisoning the whole result future.
    """
    if error is None:
        return None
    try:
        pickle.dumps(error)
        return error
    except Exception:  # repro: allow[RP010] picklability probe: any failure means "summarize", the caller records nothing because no mode changed
        return RuntimeError(f"{type(error).__name__}: {error}")


#: Parent-side sequence for deterministic, reapable segment names: the
#: parent names every segment *before* dispatch, so a crashed or
#: abandoned task's segment can be unlinked by name even though the
#: worker never reported back.
_segment_counter = itertools.count()


def _unlink_segment(name: str) -> None:
    """Unlink a segment by name without attaching to it; absent is fine.

    Attaching is not an option for debris: a worker killed between
    ``shm_open`` and ``ftruncate`` leaves a 0-byte segment, and
    attaching to that raises ``ValueError`` (nothing to mmap).
    """
    import _posixshmem

    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


def _create_segment(shared_memory, name: Optional[str], size: int):
    """Create a segment, replacing a stale leftover of the same name.

    A same-named segment can only be debris from a killed worker of a
    previous attempt (parent names are process-unique), so it is safe
    to unlink and re-create.
    """
    if name is None:
        return shared_memory.SharedMemory(create=True, size=size)
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        _unlink_segment(name)
        return shared_memory.SharedMemory(name=name, create=True, size=size)


def _pack_masks(
    masks: Sequence[int],
    *,
    shard: Optional[int] = None,
    attempt: Optional[int] = None,
    name: Optional[str] = None,
):
    """Ship run masks out-of-band: ``("shm", name, sizes, crc)`` when possible.

    Each mask is packed as its minimal little-endian byte array and the
    packed blobs concatenated into one shared-memory segment, so the
    result pipe carries only the segment name, the per-mask lengths,
    and a CRC32 over the payload (:func:`_unpack_masks` verifies both
    before trusting the bytes).  The segment is *not* unlinked here —
    ownership passes to the parent, and the worker-side resource
    tracker is told to forget it so worker shutdown does not reclaim
    (or warn about) a segment the parent still reads.  Falls back to
    the in-band form ``("pickle", masks)`` when shared memory is
    unavailable or refuses the allocation, recording the shm→pickle
    transport downgrade.

    Fault sites: ``shm-alloc`` (keyed by ``shard``) simulates the
    allocation failure; ``shm-corrupt`` flips a payload byte after the
    checksum is computed, so the parent's verification must catch it.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - minimal builds
        return ("pickle", list(masks))
    blobs = [
        mask.to_bytes((mask.bit_length() + 7) // 8, "little") for mask in masks
    ]
    total = sum(len(blob) for blob in blobs)
    try:
        if maybe_fire("shm-alloc", key=shard, attempt=attempt):
            raise OSError("injected shm-alloc fault")
        segment = _create_segment(shared_memory, name, max(1, total))
    except (OSError, ValueError) as error:
        record_degradation(
            "transport", "shm", "pickle", "shm-alloc-failed", repr(error)
        )
        return ("pickle", list(masks))
    offset = 0
    for blob in blobs:
        segment.buf[offset : offset + len(blob)] = blob
        offset += len(blob)
    checksum = zlib.crc32(bytes(segment.buf[:total])) if total else zlib.crc32(b"")
    if maybe_fire("shm-corrupt", key=shard, attempt=attempt):
        if total:
            segment.buf[0] = segment.buf[0] ^ 0xFF
        else:
            checksum ^= 0xFF
    out_name = segment.name
    segment.close()
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + out_name, "shared_memory")
    except Exception:  # repro: allow[RP010] best-effort tracker bookkeeping: nothing degrades, the transport mode is unchanged
        pass
    return ("shm", out_name, [len(blob) for blob in blobs], checksum)


def _unpack_masks(packed) -> List[int]:
    """Reassemble masks from :func:`_pack_masks`, unlinking the segment.

    The segment is unlinked on *every* path — including a failed
    length or checksum verification, which raises
    :class:`~repro.core.errors.ShmIntegrityError` naming the segment
    (the supervisor treats that as a retryable shard failure).
    """
    if packed[0] == "pickle":
        return list(packed[1])
    from multiprocessing import shared_memory

    _, name, sizes, checksum = packed
    segment = shared_memory.SharedMemory(name=name)
    try:
        total = sum(sizes)
        if segment.size < total:
            raise ShmIntegrityError(
                f"shared-memory segment {name!r} is shorter than its "
                f"length header ({segment.size} < {total} bytes)"
            )
        payload = bytes(segment.buf[:total])
        if zlib.crc32(payload) != checksum:
            raise ShmIntegrityError(
                f"shared-memory segment {name!r} failed its checksum "
                f"({total} bytes)"
            )
        masks: List[int] = []
        offset = 0
        for size in sizes:
            masks.append(int.from_bytes(payload[offset : offset + size], "little"))
            offset += size
    finally:
        segment.close()
        segment.unlink()
    return masks


def _scan_shard_task(
    shard: int,
    fact_refs: Sequence[Tuple[str, object]],
    t: Optional[int],
    attempt: int = 0,
    segment_name: Optional[str] = None,
):
    """Worker task: scan one shard's run range for the referenced facts.

    Returns ``(packed_masks, errors, stats_delta, report_delta)`` —
    masks travel via :func:`_pack_masks`; the numeric counters *and*
    the resilience report are reset on entry so each delta covers
    exactly this task's work (workers are forked with the parent's
    state, which must not be re-counted on merge).

    ``attempt`` is the supervisor's retry ordinal for this shard; all
    worker-side fault decisions are keyed on it, so a fault spec like
    ``worker-crash@0`` fires on the first attempt and *not* on the
    re-dispatch, regardless of which forked process runs it.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive: task outside a pool
        raise RuntimeError("shard worker has no inherited state")
    index, plan, payload = state
    if maybe_fire("worker-crash", key=shard, attempt=attempt):
        os._exit(13)  # hard exit: simulates OOM-kill / segfault, not an exception
    if maybe_fire("worker-hang", key=shard, attempt=attempt):
        time.sleep(hang_seconds())
    facts = [
        payload[ref] if kind == "payload" else ref
        for kind, ref in fact_refs
    ]
    reset_numeric_stats()
    reset_resilience_report()
    lo, hi = plan.ranges[shard]
    masks, errors = index._scan_batch_range(facts, t, lo, hi)
    return (
        _pack_masks(masks, shard=shard, attempt=attempt, name=segment_name),
        [_picklable_error(error) for error in errors],
        numeric_stats(),
        report_delta(),
    )


class ShardedExecutor:
    """Parallel per-shard evaluation against one index, pool amortized.

    The executor owns (at most) one ``fork``-context process pool,
    created lazily on the first parallel query and reused until
    :meth:`close` — a sweep issuing hundreds of queries pays the fork
    cost once.  Every query is decomposed over the plan's shards,
    evaluated per shard, and recombined **in ascending shard order**
    with the module's combine laws, so results are bit-identical to
    the serial engine path; on any transport failure (unpicklable
    fact, broken pool, no ``fork`` on the platform) the query silently
    recomputes serially instead.

    ``payload`` registers objects the workers must reach but pickle
    cannot carry (closure-backed facts): they are inherited by fork
    and referenced by position.  Objects created *after* the pool
    exists cannot be registered — fork already happened — so build the
    executor after the fact universe of the workload is known, or let
    the picklability probe route novel facts through pickling.

    Supervision knobs (``docs/robustness.md``): ``task_timeout`` bounds
    each shard task's wall clock (a late task is treated as a hung
    worker, the pool is killed and respawned); ``max_retries`` bounds
    re-dispatches per shard; ``backoff`` seeds the exponential
    retry delay; ``max_pool_respawns`` bounds how many times a broken
    pool is rebuilt; ``on_exhaustion`` picks between degrading to the
    serial scan (default — bit-identical results, recorded on the
    resilience report) and raising
    :class:`~repro.core.errors.FaultExhaustedError` naming the shard.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        index: "SystemIndex",
        *,
        shards: Optional[int] = None,
        payload: Sequence[object] = (),
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        max_pool_respawns: int = 2,
        on_exhaustion: str = "degrade",
    ) -> None:
        if on_exhaustion not in ("degrade", "raise"):
            raise ValueError(
                f"on_exhaustion must be 'degrade' or 'raise', got {on_exhaustion!r}"
            )
        self.index = index
        requested = default_shards() if shards is None else int(shards)
        self.plan = index.shard_plan(requested)
        self.payload = tuple(payload)
        self._payload_ids = {id(obj): pos for pos, obj in enumerate(self.payload)}
        self._max_workers = max_workers
        self._task_timeout = 300.0 if task_timeout is None else float(task_timeout)
        self._max_retries = int(max_retries)
        self._backoff = float(backoff)
        self._max_pool_respawns = int(max_pool_respawns)
        self._on_exhaustion = on_exhaustion
        self._respawns = 0
        self._pool = None
        self._pool_failed = False
        self._saved_state: Optional[tuple] = None
        self._live_segments: Set[str] = set()

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down, reap stray segments, restore worker state."""
        self._retire_pool(kill=False)
        self._reap_segments(list(self._live_segments))

    def _retire_pool(self, *, kill: bool) -> None:
        """Drop the pool: graceful shutdown, or terminate hung workers.

        ``kill=True`` is the supervision path for a broken or timed-out
        pool — waiting for a hung worker would block forever, so the
        worker processes are terminated outright and joined.  Either
        way the module worker state is restored, and a later
        :meth:`_ensure_pool` may respawn (budget permitting).
        """
        global _WORKER_STATE
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if kill:
            processes = list(getattr(pool, "_processes", {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5.0)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_STATE = self._saved_state  # type: ignore[assignment]
        self._saved_state = None

    def _reap_segments(self, names: Sequence[str]) -> None:
        """Unlink parent-named segments whose tasks never reported back.

        Call only after the owning workers are dead or done — a live
        worker could otherwise re-create a segment after its reap.
        Segments the task never created (crash before pack, pickle
        fallback) simply do not exist; that is not an error.
        """
        if not names:
            return
        for name in names:
            try:
                _unlink_segment(name)
            except (ImportError, OSError):  # pragma: no cover - no POSIX shm
                continue
            self._live_segments.discard(name)

    def _next_segment_name(self) -> str:
        return f"repro_{os.getpid()}_{next(_segment_counter)}"

    @property
    def shard_count(self) -> int:
        return self.plan.shard_count

    @property
    def respawns(self) -> int:
        """How many times the worker pool has been killed and rebuilt."""
        return self._respawns

    def _ensure_pool(self):
        """The live pool, creating it on first use; ``None`` = serial.

        ``_WORKER_STATE`` must be set *before* the pool exists and stay
        set while it lives: worker processes fork lazily on the first
        submit and inherit whatever the global holds at that moment.
        """
        global _WORKER_STATE
        if self._pool is not None:
            return self._pool
        if self._pool_failed or self.plan.shard_count <= 1:
            return None
        context = _fork_context()
        if context is None:
            self._pool_failed = True
            record_degradation(
                "execution",
                "parallel",
                "serial",
                "no-fork",
                "fork start method unavailable on this platform",
            )
            return None
        from concurrent.futures import ProcessPoolExecutor

        workers = self._max_workers or min(
            self.plan.shard_count, os.cpu_count() or 1
        )
        self._saved_state = _WORKER_STATE
        _WORKER_STATE = (self.index, self.plan, self.payload)
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, workers), mp_context=context
            )
        except (OSError, ValueError) as error:  # pragma: no cover - resource limits
            _WORKER_STATE = self._saved_state
            self._saved_state = None
            self._pool_failed = True
            record_degradation(
                "execution", "parallel", "serial", "pool-create-failed", repr(error)
            )
            return None
        return self._pool

    # -- the sharded scan ----------------------------------------------

    def _fact_refs(
        self, facts: Sequence["Fact"]
    ) -> Optional[List[Tuple[str, object]]]:
        """Transport references for the facts, or ``None`` if unshippable.

        Payload facts travel by position (fork-inherited, no pickling);
        anything else must survive ``pickle`` — one closure-backed
        stranger falls the whole batch back to the serial path, which
        is always correct.
        """
        refs: List[Tuple[str, object]] = []
        for fact in facts:
            pos = self._payload_ids.get(id(fact))
            if pos is not None:
                refs.append(("payload", pos))
                continue
            try:
                pickle.dumps(fact)
            except Exception:  # repro: allow[RP010] picklability probe: _scan_leaves records the degradation when this returns None
                return None
            refs.append(("object", fact))
        return refs

    def _scan_leaves(self, leaves: Sequence["Fact"], t: Optional[int]):
        """Per-shard supervised parallel scan, serial fallback.

        The serial path answers every query the parallel path answers
        with bit-identical results, so every downgrade to it is safe —
        and every downgrade is recorded (here for unshippable facts;
        inside :meth:`_supervised_parts` for retry/respawn exhaustion;
        in :meth:`_ensure_pool` for pool-level failures).  A plan of
        one shard is serial *by design*, not a degradation.
        """
        pool = self._ensure_pool()
        if pool is not None:
            refs = self._fact_refs(leaves)
            if refs is None:
                record_degradation(
                    "execution",
                    "parallel",
                    "serial",
                    "unpicklable-fact",
                    "a fact in the batch is neither payload nor picklable",
                )
            else:
                parts = self._supervised_parts(refs, t)
                if parts is not None:
                    # Fold strictly in ascending shard order (RP008).
                    for _, _, delta, events in parts:
                        absorb_stats(delta)
                        absorb_events(events)
                    masks = [
                        combine_masks([part[0][k] for part in parts])
                        for k in range(len(leaves))
                    ]
                    errors = [
                        combine_errors([part[1][k] for part in parts])
                        for k in range(len(leaves))
                    ]
                    return masks, errors
        return self.index._scan_batch(leaves, t)

    def _supervised_parts(self, refs, t: Optional[int]):
        """Dispatch every shard with timeout/retry/respawn supervision.

        Returns the per-shard ``(masks, errors, stats_delta, events)``
        list in shard order, or ``None`` when the retry or respawn
        budget ran out and ``on_exhaustion="degrade"`` (the exhaustion
        is recorded as a parallel→serial :class:`DegradationEvent`
        whose detail names the failing shard).  With
        ``on_exhaustion="raise"`` exhaustion raises
        :class:`~repro.core.errors.FaultExhaustedError` instead.

        Each wave submits every still-pending shard, collects results
        under the per-task timeout, then re-dispatches the failures
        after an exponential backoff.  A broken or timed-out pool is
        killed (hung workers terminated) and respawned within the
        respawn budget; because segments are parent-named, every
        segment belonging to a failed task is reaped after the kill,
        so no ``/dev/shm`` residue survives a crashed query.
        """
        from concurrent.futures import Future
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        shard_count = self.plan.shard_count
        results: List[Optional[tuple]] = [None] * shard_count
        attempts = [0] * shard_count
        pending = list(range(shard_count))
        while pending:
            pool = self._ensure_pool()
            if pool is None:
                # The latch point (_ensure_pool / exhaustion below)
                # already recorded the degradation.
                return None
            names: Dict[int, str] = {}
            futures: Dict[int, object] = {}
            for shard in pending:
                name = self._next_segment_name()
                names[shard] = name
                self._live_segments.add(name)
                try:
                    futures[shard] = pool.submit(
                        _scan_shard_task, shard, refs, t, attempts[shard], name
                    )
                except BrokenProcessPool as error:
                    # A worker died before every shard was submitted:
                    # this shard fails like any task of the broken pool.
                    broken: Future = Future()
                    broken.set_exception(error)
                    futures[shard] = broken
            failed: List[Tuple[int, BaseException]] = []
            pool_broken = False
            pool_error: Optional[BaseException] = None
            for shard in pending:
                future = futures[shard]
                if pool_broken and not future.done():
                    failed.append((shard, pool_error))
                    continue
                try:
                    packed, errs, delta, events = future.result(
                        timeout=self._task_timeout
                    )
                    results[shard] = (_unpack_masks(packed), errs, delta, events)
                    self._live_segments.discard(names[shard])
                except (BrokenProcessPool, FuturesTimeout) as error:
                    pool_broken = True
                    pool_error = error
                    failed.append((shard, error))
                except (ShmIntegrityError, OSError, EOFError, pickle.PickleError) as error:
                    failed.append((shard, error))
            if pool_broken:
                # Kill before reaping: a live (hung) worker could
                # otherwise re-create a segment after its reap.
                self._retire_pool(kill=True)
                self._respawns += 1
            self._reap_segments([names[shard] for shard, _ in failed])
            next_pending: List[int] = []
            for shard, error in failed:
                record_retry("shard", shard, attempts[shard], error)
                attempts[shard] += 1
                if attempts[shard] > self._max_retries:
                    return self._exhausted(
                        f"shard {shard} failed after {attempts[shard]} attempts "
                        f"(last error: {error!r})",
                        "retry-exhausted",
                    )
                next_pending.append(shard)
            if pool_broken and self._respawns > self._max_pool_respawns:
                return self._exhausted(
                    f"worker pool respawn budget ({self._max_pool_respawns}) "
                    f"exhausted; last error: {pool_error!r}",
                    "respawn-exhausted",
                )
            if next_pending:
                delay = self._backoff * (2 ** min(attempts[next_pending[0]] - 1, 4))
                if delay > 0:
                    time.sleep(delay)
            pending = next_pending
        return results

    def _exhausted(self, message: str, reason: str):
        """Shared exhaustion epilogue: latch serial, raise or degrade."""
        self._pool_failed = True
        self._retire_pool(kill=True)
        self._reap_segments(list(self._live_segments))
        if self._on_exhaustion == "raise":
            raise FaultExhaustedError(message)
        record_degradation("execution", "parallel", "serial", reason, message)
        return None

    def _batch_masks(
        self, facts: Sequence["Fact"], t: Optional[int], memo: bool
    ) -> List[int]:
        index = self.index
        overlay: Optional[Dict[object, int]] = None if memo else {}
        pending: Dict[object, "Fact"] = {}
        for fact in facts:
            index._collect_leaves(fact, t, pending, overlay)
        if pending:
            # Merge back into the parent index through the engine's own
            # cache discipline (structural keys + _action_free records):
            # worker-side cache growth died with the fork, the combined
            # masks are what survives.
            index._cache_scanned(pending, t, overlay, scan=self._scan_leaves)
        return [index._combine_mask(fact, t, overlay) for fact in facts]

    # -- queries --------------------------------------------------------

    def events_of(
        self, facts: Sequence["Fact"], *, memo: bool = True
    ) -> List[int]:
        """Satisfying-run masks, shards scanned in parallel.

        Identical to :meth:`SystemIndex.events_of` — the per-shard
        masks are disjoint restrictions of the same point scan and OR
        back in ascending shard order.
        """
        return self._batch_masks(list(facts), None, memo)

    def truths_at(
        self, facts: Sequence["Fact"], t: int, *, memo: bool = True
    ) -> List[int]:
        """Time-``t`` truth masks, shards scanned in parallel."""
        return self._batch_masks(list(facts), t, memo)

    def beliefs_batch(
        self,
        agent: "AgentId",
        facts: Sequence["Fact"],
        local: "LocalState",
        *,
        memo: bool = True,
        numeric: str = "exact",
    ):
        """Batched posteriors; the slice scan runs sharded.

        The expensive part of a posterior is the truth scan at the
        occurrence time; it runs through the sharded path (priming the
        parent's slice caches), after which the engine's own batch
        folds the measures — so values, caching, and ``numeric``
        semantics are *by construction* those of
        :meth:`SystemIndex.beliefs_batch`.
        """
        check_numeric_mode(numeric)
        facts = list(facts)
        t, _ = self.index._occurrence_or_raise(agent, local)
        self.truths_at(facts, t, memo=memo)
        return self.index.beliefs_batch(
            agent, facts, local, memo=memo, numeric=numeric
        )

    def probability(self, mask: int, *, numeric: str = "exact"):
        """``mu_T`` of a mask from per-shard ``(total, denominator)`` pairs.

        Exact/float tiers: per-shard integer totals summed in shard
        order — bit-identical to the serial fold for any shard count.
        Auto tier: per-shard float bounds combined order-insensitively
        (:func:`combine_bounds`); the deferred exact pair sums the same
        shard totals, so escalations land on identical integers.
        """
        index = self.index
        if numeric == "exact":
            if mask == 0:
                return ZERO
            if mask == index.all_mask:
                return ONE
            return Fraction(self._sharded_total(mask), index._denominator)
        if numeric == "float":
            return self._sharded_total(mask) / index._denominator
        check_numeric_mode(numeric)
        if mask == 0:
            return ZERO
        if mask == index.all_mask:
            return ONE
        num_a, num_e = self._sharded_bounds(mask)
        approx, err = div_bounds(num_a, num_e, *index._den_bounds)
        return LazyProb(
            approx,
            err,
            pair_thunk=lambda: (self._sharded_total(mask), index._denominator),
        )

    def conditional(self, target: int, given: int, *, numeric: str = "exact"):
        """``mu_T(target | given)`` from per-shard totals.

        Same combine laws as :meth:`probability`; the common
        denominator cancels, so the non-exact tiers never build a
        ``Fraction`` unless a comparison escalates.
        """
        if given == 0:
            raise ConditioningOnNullEventError(
                "cannot condition on an empty event (e.g. an action that is "
                "never performed)"
            )
        if numeric == "exact":
            return self.probability(target & given) / self.probability(given)
        if numeric == "float":
            return self._sharded_total(target & given) / self._sharded_total(
                given
            )
        check_numeric_mode(numeric)
        inter = target & given
        num_a, num_e = self._sharded_bounds(inter)
        den_a, den_e = self._sharded_bounds(given)
        approx, err = div_bounds(num_a, num_e, den_a, den_e)
        return LazyProb(
            approx,
            err,
            pair_thunk=lambda: (
                self._sharded_total(inter),
                self._sharded_total(given),
            ),
        )

    # -- per-shard measure folds ---------------------------------------

    def _sharded_total(self, mask: int) -> int:
        """The exact integer total as a shard-order sum of sub-totals."""
        return combine_totals(
            [self.index.mask_total(sub) for sub in self.plan.submasks(mask)]
        )

    def _sharded_bounds(self, mask: int) -> Tuple[float, float]:
        """Float bounds combined across shards (order-insensitive err)."""
        if mask == 0:
            return (0.0, 0.0)
        return combine_bounds(
            [self.index.mask_bounds(sub) for sub in self.plan.submasks(mask)]
        )

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor({self.index.pps.name!r}, "
            f"shards={self.plan.shard_count}, "
            f"pool={'live' if self._pool is not None else 'cold'})"
        )
