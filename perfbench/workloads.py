"""The three workloads and the checks that make their answers count.

A workload is a fixed amount of work for its seed and ``seconds``: the
number of repeated operations is the run length divided by a nominal
per-operation cost measured on the reference machine (2 cores, Python
3.11, NumPy 2.4), so a faster library finishes the same work sooner
and every timing stays comparable between two versions.

Every operation is timed on its own.  A full garbage collection of the
consensus(n=4) heap takes about a second, and when it falls depends on
everything allocated before, so the consensus workloads freeze the
compiled system (``gc.freeze()``, untimed, as a long-running service
does after loading its data): later collections skip it, and no
operation pays for a collection owed to set-up.  Every answer is
checked after the
timed operations on that system have finished, so a reference
computation can neither warm a cache a timed operation then uses nor
count toward a timing.  An operation that raises, or whose answer fails
a check, counts as failed, and the run goes on.

The checks:

* every analysis satisfies the Theorem 6.2 identity
  (``achieved == expected_belief``) and every theorem check verifies
  (its premises imply its conclusion);
* a query made with a freshly built fact, or in ``numeric="auto"``,
  gives the same verdicts and the same exact values as the exact serial
  analysis with the original fact;
* auto-mode sweep rows, grids and theorem checks equal their exact
  serial counterparts, parallel sweep rows equal serial ones, and on a
  sub-sample of small-dense rows the derived system's row equals the
  ``materialize=True`` row.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    NumericStats,
    SystemIndex,
    analyze,
    check_lemma_5_1,
    check_theorem_7_1,
    exact_value,
    expected_belief,
    numeric_stats,
    threshold_met_measures,
)
from repro.analysis.sweep import refrain_threshold_sweep, reweight_sweep
from repro.apps.consensus import agent_names, agreement, build_consensus, decision_action
from repro.apps.firing_squad import drift_loss
from repro.core.constraints import achieved_probability
from repro.protocols.strategies import refrain_below_threshold

import systems
from shims import peak_rss_mb
from inputs import consensus_inputs, dense_inputs

#: Nominal costs on the reference machine, which turn ``seconds`` into
#: a fixed operation count.
NOMINAL_REPEAT_QUERY_S = 2.5  # consensus(n=4) analyze with a rebuilt fact
NOMINAL_SWEEP_BATCH_S = 6.0  # four consensus(n=4) rows on two workers
NOMINAL_DENSE_PASS_S = 0.25  # one pass over the small-dense stream

CONSENSUS_SETUPS = 2  # a consensus(n=4) compile alone takes ~7 s
SWEEP_WORKERS = 2
SWEEP_BATCH = 4
REQUERIES = 2  # analyze calls with a rebuilt fact after the cold one


class Session:
    """Timings, operation accounting and deferred checks of one pass."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup: List[float] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op_s = 0.0
        self.attempted = 0
        self.failed: set = set()
        self.errors: List[str] = []
        self.repeat_query_evals: List[int] = []
        self.check_numeric = NumericStats()
        self.peak_rss_mb = 0.0
        self._checks: List[Tuple[int, str, Callable[[], bool]]] = []

    # -- timed work ----------------------------------------------------

    def average_since(self, marks: Dict[str, int]) -> None:
        """Replace each sample list's entries after ``marks`` by their mean.

        A small-dense pass mixes systems of very different sizes; one mean
        per pass keeps the per-seed member mix from moving the median.
        """
        for kind, samples in self.samples.items():
            tail = samples[marks.get(kind, 0) :]
            if tail:
                del samples[marks.get(kind, 0) :]
                samples.append(sum(tail) / len(tail))

    def timed_setup(self, build: Callable[[], object]) -> object:
        """Run one set-up repetition; its time is one ``setup_s`` sample."""
        start = time.perf_counter()
        built = build()
        self.setup.append(time.perf_counter() - start)
        return built

    def op(
        self,
        kind: Optional[str],
        fn: Callable,
        *args,
        per: int = 1,
        repeat_query: bool = False,
        **kwargs,
    ) -> Tuple[int, object]:
        """Time one operation; ``kind`` names the sample list it feeds
        (``per`` divides its time, e.g. by the rows of a sweep)."""
        op_id = self.attempted
        self.attempted += 1
        tracer = self.tracer
        evals = tracer.fact_evals[0] if tracer is not None else 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # a failed op is counted, not fatal
            self.op_s += time.perf_counter() - start
            self.fail(op_id, f"{kind or getattr(fn, '__name__', 'op')} raised {error!r}")
            return op_id, None
        elapsed = time.perf_counter() - start
        self.op_s += elapsed
        if kind is not None:
            self.samples[kind].append(elapsed / per)
        if repeat_query and tracer is not None:
            self.repeat_query_evals.append(tracer.fact_evals[0] - evals)
        return op_id, result

    @contextmanager
    def untraced(self):
        """Pass library calls straight through the tracer's shims."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def release(self) -> None:
        """Collect the previous repetition's garbage, untimed and untraced."""
        with self.untraced():
            gc.unfreeze()
            gc.collect()

    # -- checks --------------------------------------------------------

    def fail(self, op_id: int, message: str) -> None:
        self.failed.add(op_id)
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, op_id: int, label: str, predicate: Callable[[], bool]) -> None:
        """Defer a check of operation ``op_id`` to :meth:`run_checks`."""
        self._checks.append((op_id, label, predicate))

    def run_checks(self) -> None:
        """Run the deferred checks with tracing paused.

        The memory high-water mark is read first, so the reference
        computations of the last checks never count toward it.
        """
        self.peak_rss_mb = peak_rss_mb()
        checks, self._checks = self._checks, []
        before = numeric_stats()
        with self.untraced():
            for op_id, label, predicate in checks:
                if op_id in self.failed:
                    continue
                try:
                    ok = predicate()
                except Exception as error:  # the check itself broke
                    self.fail(op_id, f"check {label} raised {error!r}")
                    continue
                if not ok:
                    self.fail(op_id, f"check {label} failed")
        after = numeric_stats()
        for name in vars(after):
            setattr(
                self.check_numeric,
                name,
                getattr(self.check_numeric, name)
                + getattr(after, name)
                - getattr(before, name),
            )


# ----------------------------------------------------------------------
# Answers compared by value
# ----------------------------------------------------------------------


def sound(report) -> bool:
    """Theorem 6.2 holds and every theorem check verifies."""
    return (
        exact_value(report.achieved) == exact_value(report.expected_belief)
        and report.expectation_identity_holds
        and report.all_theorems_verified
    )


def report_signature(report) -> tuple:
    """Every verdict and exact quantity of a PAK report."""
    return (
        report.proper,
        report.independent,
        exact_value(report.achieved),
        exact_value(report.expected_belief),
        exact_value(report.threshold_met_measure),
        report.pak_level,
        exact_value(report.pak_level_met_measure),
        {
            local: (exact_value(cell.weight), exact_value(cell.belief))
            for local, cell in report.belief_profile.items()
        },
        {
            name: (dict(check.premises), check.conclusion)
            for name, check in report.theorem_checks.items()
        },
    )


def same_report(report, reference) -> bool:
    return sound(report) and report_signature(report) == report_signature(reference)


def exact_rows(rows) -> list:
    return [{key: exact_value(value) for key, value in row.items()} for row in rows]


def check_signature(check) -> tuple:
    return (
        check.verified,
        dict(check.premises),
        check.conclusion,
        {key: exact_value(value) for key, value in check.details.items()},
    )




# ----------------------------------------------------------------------
# consensus-n4 and consensus-n4-sweep
# ----------------------------------------------------------------------


def _consensus_systems(session: Session, inputs, agent, action, phi) -> object:
    """Set up fresh systems, each followed by its cold analysis; the
    last one is returned for the rest of the workload."""

    def build():
        pps = build_consensus(n=inputs.n, loss=inputs.loss)
        SystemIndex.of(pps)
        return pps

    pps = None
    for _ in range(CONSENSUS_SETUPS):
        pps = None
        session.release()
        pps = session.timed_setup(build)
        gc.freeze()
        op, cold = session.op(
            "query_cold", analyze, pps, agent, action, phi, inputs.cold_threshold
        )
        session.check(op, "cold analyze sound", lambda r=cold: sound(r))
    return pps


def consensus_n4(session: Session, seed: int, seconds: float, *, tiny: bool) -> None:
    """Cold analyze, repeat analyze with rebuilt facts, one auto query,
    and a two-row serial refrain sweep."""
    n = 3 if tiny else 4
    repeats = max(3, round(seconds / NOMINAL_REPEAT_QUERY_S))
    inputs = consensus_inputs(seed, n=n, repeats=repeats, sweep_rows=2)
    agent = agent_names(n)[inputs.agent]
    action = decision_action(1)
    phi = agreement(n)
    pps = _consensus_systems(session, inputs, agent, action, phi)

    def reference(threshold):
        return analyze(pps, agent, action, phi, threshold)

    for threshold in inputs.repeat_thresholds:
        op, report = session.op(
            "query", analyze, pps, agent, action, agreement(n), threshold,
            repeat_query=True,
        )
        session.check(
            op, "rebuilt-fact analyze equals exact",
            lambda r=report, t=threshold: same_report(r, reference(t)),
        )
    op, report = session.op(
        "query", analyze, pps, agent, action, agreement(n), inputs.auto_threshold,
        numeric="auto", repeat_query=True,
    )
    session.check(
        op, "auto analyze equals exact",
        lambda r=report: same_report(r, reference(inputs.auto_threshold)),
    )

    thresholds = inputs.sweep_thresholds
    op, rows = session.op(
        "sweep_row", refrain_threshold_sweep, pps, agent, phi, action, thresholds,
        per=len(thresholds),
    )

    def row_identity() -> bool:
        derived = refrain_below_threshold(pps, agent, action, phi, thresholds[0])
        return rows[0]["achieved"] == expected_belief(derived, agent, phi, action)

    session.check(op, "derived row satisfies Theorem 6.2", row_identity)
    session.run_checks()


def consensus_n4_sweep(session: Session, seed: int, seconds: float, *, tiny: bool) -> None:
    """Cold analyze, analyze calls with a rebuilt fact, refrain sweep
    batches on the fork pool, and two serial baseline rows."""
    n = 3 if tiny else 4
    batches = max(3, round(seconds / NOMINAL_SWEEP_BATCH_S))
    inputs = consensus_inputs(
        seed, n=n, repeats=REQUERIES, sweep_rows=batches * SWEEP_BATCH
    )
    agent = agent_names(n)[inputs.agent]
    action = decision_action(1)
    phi = agreement(n)
    # The cold analysis also hoists the acting beliefs the rows share.
    pps = _consensus_systems(session, inputs, agent, action, phi)

    # Re-queries run before any row, so neither the rows' garbage nor
    # the fork pool's exiting workers land in their time.  A query with
    # the original fact object is answered from the caches in ~5 ms,
    # too short to time steadily on a shared 2-core box; a rebuilt fact
    # re-scans, as in consensus-n4.
    for threshold in inputs.repeat_thresholds:
        op, report = session.op(
            "query", analyze, pps, agent, action, agreement(n), threshold,
            repeat_query=True,
        )
        session.check(
            op, "rebuilt-fact analyze equals exact",
            lambda r=report, t=threshold: same_report(
                r, analyze(pps, agent, action, phi, t)
            ),
        )

    thresholds = inputs.sweep_thresholds
    batch_rows = []
    for b in range(batches):
        chunk = thresholds[b * SWEEP_BATCH : (b + 1) * SWEEP_BATCH]
        op, rows = session.op(
            "sweep_row", refrain_threshold_sweep, pps, agent, phi, action, chunk,
            parallel=SWEEP_WORKERS, per=len(chunk),
        )
        batch_rows.append((op, chunk, rows))

    # The serial baseline of the fork pool: the sweep's first and last
    # rows (one from each worker's chunk) as one-row serial sweeps.  In
    # the traced pass these are also the rows whose layers are seen, as
    # the forked workers' spans die with them.
    for op, chunk, rows in (batch_rows[0], batch_rows[-1]):
        k = 0 if op == batch_rows[0][0] else len(chunk) - 1
        _, serial = session.op(
            "serial_row", refrain_threshold_sweep, pps, agent, phi, action, [chunk[k]]
        )
        session.check(
            op, "parallel row equals serial row",
            lambda rows=rows, k=k, serial=serial: serial is not None
            and exact_rows([rows[k]]) == exact_rows(serial),
        )
    session.run_checks()


# ----------------------------------------------------------------------
# small-dense
# ----------------------------------------------------------------------


def _boundary_bounds(query, phi) -> List[Fraction]:
    """Bounds the float tier cannot decide: two acting beliefs ``b``
    themselves and ``b + 1e-17``."""
    index = SystemIndex.of(query.pps)
    beliefs = sorted(
        {
            index.belief(query.agent, phi, local)
            for local in index.state_cells(query.agent, query.action)
        }
    )
    out: List[Fraction] = []
    for b in [b for b in beliefs if 0 < b < 1][:2]:
        out += [b, b + Fraction(1, 10**17)]
    return out


def _grid(query, phi, points: int, numeric: str) -> list:
    bounds = [Fraction(k, points - 1) for k in range(points)]
    bounds += _boundary_bounds(query, phi)
    return threshold_met_measures(
        query.pps, query.agent, phi, query.action, bounds, numeric=numeric
    )


def _drift_measure(agent, phi, action):
    def measure(system, *, numeric="exact"):
        return {
            "achieved": achieved_probability(system, agent, phi, action, numeric=numeric)
        }

    return measure


def _epsilon_checks(query, phi, eps: Fraction, numeric: str) -> tuple:
    pps, agent, action = query.pps, query.agent, query.action
    return (
        check_lemma_5_1(pps, agent, action, phi, 1 - eps, numeric=numeric),
        check_theorem_7_1(pps, agent, action, phi, eps, eps, numeric=numeric),
    )


def _dense_member(session: Session, query, member, materialize_rows) -> None:
    pps, agent, action = query.pps, query.agent, query.action
    phi = query.phi()
    first, *later = member.query_thresholds

    op, cold = session.op("query_cold", analyze, pps, agent, action, phi, first)
    session.check(op, "cold analyze sound", lambda: sound(cold))
    for threshold in later:
        op, report = session.op(
            "query", analyze, pps, agent, action, query.phi(), threshold,
            numeric="auto", repeat_query=True,
        )
        session.check(
            op, "auto analyze equals exact",
            lambda r=report, t=threshold: same_report(
                r, analyze(pps, agent, action, phi, t)
            ),
        )

    if member.refrain_thresholds:
        thresholds = member.refrain_thresholds
        op, rows = session.op(
            "sweep_row", refrain_threshold_sweep, pps, agent, phi, action, thresholds,
            numeric="auto", per=len(thresholds),
        )
        session.check(
            op, "auto sweep rows equal exact",
            lambda rows=rows: exact_rows(rows)
            == exact_rows(refrain_threshold_sweep(pps, agent, phi, action, thresholds)),
        )
        for k in materialize_rows:
            session.check(
                op, "derived row equals materialized row",
                lambda k=k, rows=rows: exact_rows([rows[k]])
                == exact_rows(
                    refrain_threshold_sweep(
                        pps, agent, phi, action, [thresholds[k]], materialize=True
                    )
                ),
            )

    if member.drift_losses:
        measure = _drift_measure(agent, phi, action)
        losses = member.drift_losses
        op, rows = session.op(
            "sweep_row", reweight_sweep, pps, drift_loss, losses, measure,
            param="loss", numeric="auto", per=len(losses),
        )
        session.check(
            op, "auto drift rows equal exact",
            lambda rows=rows: exact_rows(rows)
            == exact_rows(reweight_sweep(pps, drift_loss, losses, measure, param="loss")),
        )

    op, measures = session.op(None, _grid, query, phi, member.grid_points, "auto")
    session.check(
        op, "auto grid equals exact",
        lambda: [exact_value(m) for m in measures]
        == list(_grid(query, phi, member.grid_points, "exact")),
    )

    for text in member.epsilons:
        eps = Fraction(text)
        op, checks = session.op(None, _epsilon_checks, query, phi, eps, "auto")
        session.check(
            op, "auto epsilon checks equal exact",
            lambda checks=checks, eps=eps: all(c.verified for c in checks)
            and [check_signature(c) for c in checks]
            == [check_signature(c) for c in _epsilon_checks(query, phi, eps, "exact")],
        )
    session.run_checks()


def dense_sizes(tiny: bool) -> dict:
    if tiny:
        return dict(
            chains=(2, 3), acks=(1, 2), randoms=2, queries=2, refrain_rows=3,
            drift_rows=2, grid_points=17, epsilons=2, materialize_checks=2,
        )
    return {}


def small_dense(session: Session, seed: int, seconds: float, *, tiny: bool) -> None:
    """Passes over a seeded stream of small systems, each pass compiling
    the stream afresh and then querying it."""
    inputs = dense_inputs(seed, **dense_sizes(tiny))
    passes = max(3, round(seconds / NOMINAL_DENSE_PASS_S))

    def build_stream():
        queries = [systems.build(member) for member in inputs.members]
        for query in queries:
            SystemIndex.of(query.pps)
        return queries

    checked: Dict[int, List[int]] = defaultdict(list)
    for member_index, row in inputs.materialize_checks:
        checked[member_index].append(row)
    for p in range(passes):
        stream = session.timed_setup(build_stream)
        marks = {kind: len(samples) for kind, samples in session.samples.items()}
        for k, (query, member) in enumerate(zip(stream, inputs.members)):
            _dense_member(session, query, member, checked[k] if p == 0 else [])
        session.average_since(marks)


WORKLOADS = {
    "consensus-n4": consensus_n4,
    "consensus-n4-sweep": consensus_n4_sweep,
    "small-dense": small_dense,
}
