"""Parameter-sweep harness for the benchmark tables.

Every benchmark regenerates a "table" of the reproduction — a grid of
parameter combinations with derived exact quantities.  :func:`sweep`
runs a row function over the cartesian product of a parameter grid and
collects the rows; :func:`format_table` renders them for terminal
output (benchmarks print these so the reproduced tables are visible in
the benchmark logs).

:func:`refrain_threshold_sweep` is the transform-aware sweep: one
parent system, one row per refrain threshold, every row a derived
system (:class:`~repro.core.pps.DerivedPPS`) sharing the parent's tree
and engine index — the workload the derived-system layer exists for.
:func:`reweight_sweep` is its weight-side sibling: one row per
probability-parameter value, every row a
:class:`~repro.core.pps.ReweightedPPS` child inheriting the parent
index's shape-dependent tables and rebuilding only weights
(``docs/transforms.md``) — the adversary-drift workload of ISSUE 9.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..core import reweight
from ..core.constraints import achieved_probability
from ..core.engine import SystemIndex
from ..core.facts import Fact
from ..core.faults import (
    absorb_events,
    maybe_fire,
    record_degradation,
    record_retry,
)
from ..core.lazyprob import LazyProb, check_numeric_mode
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import PPS, Action, ActionOverlay, AgentId, DerivedPPS

__all__ = [
    "sweep",
    "refrain_threshold_sweep",
    "reweight_sweep",
    "format_table",
    "format_value",
]

Row = Dict[str, object]


def sweep(
    grid: Mapping[str, Sequence[object]],
    row_fn: Optional[Callable[..., Mapping[str, object]]] = None,
    *,
    batch_row_fn: Optional[
        Callable[[Sequence[Dict[str, object]]], Sequence[Mapping[str, object]]]
    ] = None,
    numeric: Optional[str] = None,
) -> List[Row]:
    """Evaluate a row function on every point of the parameter grid.

    Exactly one of ``row_fn`` and ``batch_row_fn`` must be given.

    Args:
        grid: parameter name -> values; the cartesian product is
            traversed in a deterministic order.
        row_fn: called with each grid point as keyword arguments; its
            result is merged (after) the parameters into the row.
        batch_row_fn: called once with the full list of grid points
            (as dicts) and must return one result mapping per point,
            in order.  Use this to submit the whole sweep's facts to
            the engine's batched evaluation (one run-slice pass per
            batch instead of per fact) and to share structural-key
            cache hits across rows.
        numeric: when given (``"exact"``/``"auto"``/``"float"``), the
            mode is validated and forwarded to ``row_fn`` as an extra
            ``numeric=`` keyword (or to ``batch_row_fn`` as a second
            positional argument), so a whole table can be flipped onto
            the two-tier kernel from one knob.  ``None`` (default)
            forwards nothing — existing row functions are untouched.

    Returns:
        one merged row dict per grid point.

    Raises:
        TypeError: unless exactly one of ``row_fn``/``batch_row_fn`` is
            supplied.
        ValueError: when a result mapping's keys collide with a grid
            parameter name (the result would silently overwrite the
            parameter column), when ``batch_row_fn`` returns the wrong
            number of results, or for an unknown ``numeric`` mode.
    """
    if (row_fn is None) == (batch_row_fn is None):
        raise TypeError("sweep() takes exactly one of row_fn or batch_row_fn")
    if numeric is not None:
        check_numeric_mode(numeric)
    names = list(grid)
    points = [
        dict(zip(names, combo))
        for combo in iter_product(*(grid[name] for name in names))
    ]
    if batch_row_fn is not None:
        if numeric is None:
            results = list(batch_row_fn([dict(point) for point in points]))
        else:
            results = list(batch_row_fn([dict(point) for point in points], numeric))
        if len(results) != len(points):
            raise ValueError(
                f"batch_row_fn returned {len(results)} results "
                f"for {len(points)} grid points"
            )
    else:
        # repro: allow[RP006] internal invariant: the explicit TypeError
        # validation above guarantees one of the two (type-narrowing).
        assert row_fn is not None
        if numeric is None:
            results = [row_fn(**point) for point in points]
        else:
            results = [row_fn(**point, numeric=numeric) for point in points]
    rows: List[Row] = []
    for params, result in zip(points, results):
        collisions = sorted(set(params) & set(result))
        if collisions:
            raise ValueError(
                f"row result would overwrite grid parameter(s) {collisions}; "
                "rename the result keys"
            )
        row: Row = dict(params)
        row.update(result)
        rows.append(row)
    return rows


def refrain_threshold_sweep(
    pps: PPS,
    agent: AgentId,
    phi: Fact,
    action: Action,
    thresholds: Sequence[ProbabilityLike],
    *,
    replacement: Action = "skip",
    materialize: bool = False,
    numeric: str = "exact",
    parallel: Optional[int] = None,
) -> List[Row]:
    """One row per refrain threshold, sharing one parent index.

    For each threshold the system is transformed with
    :func:`~repro.protocols.strategies.refrain_below_threshold` and the
    row records the modified protocol's achieved probability
    ``mu(phi@alpha | alpha)`` and retained coverage ``mu(alpha)`` —
    the value-vs-coverage trade of the paper's Section 8, made dense.

    Every row is a derived system over the *same* parent: the acting
    beliefs that decide the relabelling are memoized once on the
    parent's index and shared across all rows, and each row's index
    inherits everything label-independent from the parent's.  Pass
    ``materialize=True`` to build each row instead as
    ``materialize(refrain_below_threshold(...))``
    (:func:`repro.core.reweight.materialize`): a full copy and cold
    index build per row, independent of the sweep's hoisted fast path
    — the oracle that derived rows are checked against.

    A threshold of 0 never strips an edge (beliefs are never negative),
    so the first row of the usual ``0 .. 1`` grid reports the original
    protocol's numbers.

    Repeated threshold values are deduplicated before any system is
    built and the computed rows fanned back out in input order (each
    duplicate gets its own row dict), so degenerate grids pay
    per-*distinct*-threshold work only.

    ``numeric="auto"`` runs the whole sweep — the belief guards inside
    the transform and both reported measures — through the two-tier
    kernel: every row's relabelled edge set is identical to exact
    mode's, and the reported ``LazyProb`` cells carry identical exact
    values on demand.  This is the dense-sweep fast path the kernel
    exists for: O(rows) float work, exact work only at boundary hits.

    ``parallel=N`` (N > 1) distributes the distinct-threshold rows over
    ``N`` forked worker processes (``docs/sharding.md``): the acting
    beliefs are hoisted on the parent index *before* the fork exactly
    as in serial mode, each worker builds a contiguous chunk of the
    deduplicated threshold list, and the parent reassembles rows — and
    absorbs each worker's ``numeric_stats()`` delta — in chunk order,
    so rows, exact values, and counter totals are identical to the
    serial sweep.  Any transport failure (no ``fork`` on the platform,
    an unpicklable row cell) falls back to the serial path, recording
    the degradation; ``parallel=None``/``0``/``1`` never forks at all.

    Returns:
        one row dict per threshold:
        ``{"threshold", "achieved", "coverage"}``, exact rationals
        (``LazyProb``/float cells in the non-default modes).
    """
    check_numeric_mode(numeric)
    if materialize:
        from ..protocols.strategies import refrain_below_threshold

        def build(bound: Fraction) -> PPS:
            return reweight.materialize(
                refrain_below_threshold(
                    pps,
                    agent,
                    action,
                    phi,
                    bound,
                    replacement=replacement,
                    numeric=numeric,
                )
            )

    else:
        build = _candidate_edge_transform(
            pps, agent, action, phi, replacement=replacement, numeric=numeric
        )

    def build_row(bound: Fraction) -> Row:
        modified = build(bound)
        index = SystemIndex.of(modified)
        return {
            "threshold": bound,
            "achieved": achieved_probability(
                modified, agent, phi, action, numeric=numeric
            ),
            "coverage": index.probability(
                index.performing_mask(agent, action), numeric=numeric
            ),
        }

    return _sweep_rows(build_row, thresholds, parallel)


def reweight_sweep(
    pps: PPS,
    transform: Callable[[PPS, Fraction], PPS],
    values: Sequence[ProbabilityLike],
    measure: Callable[..., Mapping[str, object]],
    *,
    param: str = "value",
    numeric: str = "exact",
    parallel: Optional[int] = None,
) -> List[Row]:
    """One row per probability-parameter value, sharing one parent index.

    The weight-side sibling of :func:`refrain_threshold_sweep`: for
    each value the system is reweighted with ``transform(pps, value)``
    — e.g. :func:`repro.apps.firing_squad.drift_loss`, or a lambda over
    :func:`repro.core.reweight.scale_adversary` — and the row records
    ``measure(system, numeric=...)``, a mapping of named cells (achieved
    probabilities, theorem verdicts, PAK levels, ...).

    The parent's index is built (and registry-cached) once before any
    row; every row is then a :class:`~repro.core.pps.ReweightedPPS`
    child whose index inherits all shape-dependent tables by reference
    and rebuilds only the weight vector, prefix table, and array
    kernels.  Rows compose with the action-side transforms — ``measure``
    may itself refrain/relabel the reweighted child, and a reweighted
    child may feed :func:`refrain_threshold_sweep` — since overlays
    flatten under chaining.  For the deep-copy-and-rebuild baseline,
    pass a transform that materializes its result, e.g.
    ``lambda p, v: materialize(drift_loss(p, v))``.

    Repeated values are deduplicated before any system is built and the
    computed rows fanned back out in input order, and ``parallel=N``
    (N > 1) distributes the distinct values over ``N`` forked workers
    exactly as in :func:`refrain_threshold_sweep`: the parent index is
    hoisted before the fork, workers build contiguous chunks, and rows
    and ``numeric_stats()`` deltas are reassembled in chunk order —
    serial results by construction, with a recorded serial fallback on
    any transport failure.

    Returns:
        one row dict per value: ``{param: value, **measure_cells}``.

    Raises:
        ValueError: for an unknown ``numeric`` mode, or when ``measure``
            returns a cell named ``param``.
    """
    check_numeric_mode(numeric)
    SystemIndex.of(pps)  # hoist: one shared parent index, built pre-fork

    def build_row(value: Fraction) -> Row:
        result = measure(transform(pps, value), numeric=numeric)
        if param in result:
            raise ValueError(
                f"measure() returned a cell named {param!r}, which would "
                "overwrite the parameter column; rename one of them"
            )
        row: Row = {param: value}
        row.update(result)
        return row

    return _sweep_rows(build_row, values, parallel)


def _sweep_rows(
    build_row: Callable[[Fraction], Row],
    values: Sequence[ProbabilityLike],
    parallel: Optional[int],
) -> List[Row]:
    """Both sweeps' row loop: dedupe, build (forked or serial), fan out.

    ``build_row`` is the one row builder of the serial loop and the
    forked workers, so a forked row is the serial row by construction.
    Repeated values are built once and every input position gets its
    own copy of the row dict, in input order.
    """
    bounds = [as_fraction(value) for value in values]
    distinct = list(dict.fromkeys(bounds))
    computed: Optional[Dict[Fraction, Row]] = None
    if parallel is not None and parallel > 1 and len(distinct) > 1:
        computed = _forked_rows(build_row, distinct, parallel)
    if computed is None:
        computed = {bound: build_row(bound) for bound in distinct}
    return [dict(computed[bound]) for bound in bounds]


# Fork-inherited state for _chunk_task: the sweep's row builder (a
# closure over the parent system, query, and hoisted tables) and its
# distinct values cannot (and need not) cross the pipe — workers are
# forked after this global is set and read it directly.
_FORK_STATE: Optional[tuple] = None


def _encode_cell(value: object):
    """A picklable wire form of one row cell.

    ``LazyProb`` cells carry closures, so they travel as their
    ``(approx, err)`` envelope plus the materialized exact integer pair
    — the parent rebuilds an equivalent value whose ``exact()`` is
    bit-identical.  Everything else (Fractions, floats) pickles as-is.
    """
    if isinstance(value, LazyProb):
        pair = value._pair()
        if pair is None:
            exact = value.exact()
            pair = (exact.numerator, exact.denominator)
        return ("lazy", value.approx, value.err, pair[0], pair[1])
    return ("raw", value)


def _decode_cell(encoded) -> object:
    if encoded[0] == "lazy":
        _, approx, err, num, den = encoded
        return LazyProb(approx, err, pair_thunk=lambda: (num, den))
    return encoded[1]


def _submit_with_retry(
    pool, task, chunk, *, key: int, retries: int = 2, backoff: float = 0.02
):
    """Submit one chunk to the pool, retrying transient submission errors.

    Task submission can fail transiently (saturated pipe, fd pressure)
    with ``OSError``; the ``task-submit`` fault site simulates exactly
    that, keyed by chunk index and attempt so a spec like
    ``task-submit:2`` fails the first two attempts and succeeds on the
    third.  Every retry is recorded on the resilience report; an
    exhausted budget re-raises, which the caller turns into the
    recorded serial fallback.
    """
    attempt = 0
    while True:
        try:
            if maybe_fire("task-submit", key=key, attempt=attempt):
                raise OSError("injected task-submit fault")
            return pool.submit(task, chunk)
        except (OSError, RuntimeError) as error:
            record_retry("submit", key, attempt, error)
            attempt += 1
            if attempt > retries:
                raise
            time.sleep(backoff * (2 ** (attempt - 1)))


def _chunk_task(chunk: Sequence[int]):
    """Worker task: build the rows for one contiguous chunk of values.

    Returns encoded rows in chunk order plus this task's
    ``numeric_stats()`` and resilience-report deltas (both are reset on
    entry — the forked copies of the parent's counters and events must
    not be re-counted on absorb).
    """
    from ..core.faults import report_delta, reset_resilience_report
    from ..core.lazyprob import numeric_stats, reset_numeric_stats

    state = _FORK_STATE
    if state is None:  # pragma: no cover - defensive: task outside a pool
        raise RuntimeError("sweep worker has no inherited state")
    build_row, distinct = state
    reset_numeric_stats()
    reset_resilience_report()
    rows = []
    for pos in chunk:
        row = build_row(distinct[pos])
        rows.append({key: _encode_cell(value) for key, value in row.items()})
    return rows, numeric_stats(), report_delta()


def _forked_rows(
    build_row: Callable[[Fraction], Row],
    distinct: Sequence[Fraction],
    parallel: int,
) -> Optional[Dict[Fraction, Row]]:
    """The distinct-value rows via a forked pool, or ``None``.

    ``None`` means "could not run parallel" (no ``fork`` context, pool
    creation refused, or a result failed to cross the pipe) and sends
    the caller down the serial path — never a changed result; each
    such fallback is recorded as a parallel→serial degradation.  The
    pool is created once for the whole sweep and the chunks are
    contiguous in value order, so reassembly — rows *and* stats
    absorption — is deterministic regardless of which worker finished
    first.
    """
    import multiprocessing

    from ..core.lazyprob import absorb_stats

    global _FORK_STATE
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        record_degradation(
            "execution", "parallel", "serial", "no-fork",
            "fork start method unavailable on this platform",
        )
        return None
    workers = min(parallel, len(distinct))
    chunks: List[List[int]] = [[] for _ in range(workers)]
    for pos in range(len(distinct)):
        chunks[pos * workers // len(distinct)].append(pos)
    from concurrent.futures import ProcessPoolExecutor

    saved = _FORK_STATE
    _FORK_STATE = (build_row, tuple(distinct))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = [
                _submit_with_retry(pool, _chunk_task, chunk, key=pos)
                for pos, chunk in enumerate(chunks)
            ]
            try:
                parts = [future.result() for future in futures]
            except Exception as error:
                # Workers run arbitrary row functions; any result that
                # cannot be computed or shipped degrades the whole
                # sweep to the serial path (identical rows).
                record_degradation(
                    "execution", "parallel", "serial", "worker-failed",
                    repr(error),
                )
                return None
    except (OSError, ValueError) as error:
        record_degradation(
            "execution", "parallel", "serial", "pool-or-submit-failed",
            repr(error),
        )
        return None
    finally:
        _FORK_STATE = saved
    computed: Dict[Fraction, Row] = {}
    for chunk, (rows, delta, events) in zip(chunks, parts):
        absorb_stats(delta)
        absorb_events(events)
        for pos, encoded in zip(chunk, rows):
            computed[distinct[pos]] = {
                key: _decode_cell(value) for key, value in encoded.items()
            }
    return computed


def _candidate_edge_transform(
    pps: PPS,
    agent: AgentId,
    action: Action,
    phi: Fact,
    *,
    replacement: Action,
    numeric: str,
):
    """A per-threshold builder of refrain-derived systems for one sweep.

    :func:`~repro.protocols.strategies.refrain_below_threshold` walks
    the whole tree per call; across a dense sweep every row repeats
    that walk only to rediscover the same handful of matching edges.
    This helper enumerates them once
    (:func:`~repro.protocols.strategies.refrain_candidates`, the
    transform's own candidate semantics), hoists each acting state's
    posterior, and returns a closure that builds the row's
    :class:`~repro.core.pps.DerivedPPS` from O(candidate edges) belief
    guards.  The produced system is identical to the transform's (same
    overrides, discovered in the same breadth-first order).
    """
    from ..protocols.strategies import refrain_candidates

    index = SystemIndex.of(pps)
    candidates = refrain_candidates(pps, agent, action)
    guard_numeric = "auto" if numeric == "float" else numeric
    beliefs = {
        local: index.belief(agent, phi, local, numeric=guard_numeric)
        for _, _, local in candidates
    }

    def make_row(bound: Fraction) -> PPS:
        if numeric == "auto":
            comparand: object = LazyProb.from_exact(bound)
        elif numeric == "float":
            comparand = bound.numerator / bound.denominator
        else:
            comparand = bound
        overrides = []
        for node, via, local in candidates:
            b = beliefs[local]
            low = (b.approx < comparand) if numeric == "float" else (b < comparand)
            if low and replacement != action:
                overrides.append((node, {**via, agent: replacement}))
        return DerivedPPS(
            pps,
            ActionOverlay(overrides),
            name=f"{pps.name}-refrain[{action}]",
        )

    return make_row


def format_value(value: object) -> str:
    """Render a cell, marking exact values apart from approximations.

    * ``Fraction`` — exact: ``p/q (~float)`` (integral ones bare);
    * ``LazyProb`` — exact value available on demand: rendered from
      :meth:`~repro.core.lazyprob.LazyProb.exact` as ``p/q (~float)=``,
      the trailing ``=`` marking "exact, lazily materialized";
    * ``float`` — approximate: ``~x`` at 12 significant digits (stable
      fixed precision, so float-mode tables diff cleanly across runs).
    """
    if isinstance(value, LazyProb):
        exact = value.exact()
        if exact.denominator == 1:
            return f"{exact.numerator}="
        return f"{exact} (~{float(exact):.6g})="
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value} (~{float(value):.6g})"
    if isinstance(value, float):
        return f"~{value:.12g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(
    rows: Sequence[Row],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0])
    cells = [[format_value(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(row[k]) for row in cells))
        for k, col in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[k]) for k, col in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)
