"""Timing shims for the traced run: layer spans, self time and counters.

The traced run wraps the public entry points of each library layer with
a shim that records a span around the call.  Spans nest: a layer's
*self time* is its spans' durations minus the time covered by the child
spans opened inside them, so a query that scans facts inside a theorem
check charges the scan to ``scan`` and only the remainder to the
theorem.  Spans are aggregated as they close (per-layer self seconds,
call counts and counters), so tracing holds O(layers) memory however
many calls it sees.

Everything here patches and restores attributes of already imported
``repro`` modules; the library itself carries no timing code.  A target
that a later version of the library no longer has is skipped, so its
layer simply reports zero.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20 if hasattr(os, "sysconf") else 0.0


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_rss_mb() -> float:
    """Peak resident set size of this process plus that of its largest
    waited-for child (the fork pool's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _patch_scope() -> List[object]:
    """Modules whose globals may hold a wrapped function: the library's
    and the benchmark's own (``from x import f`` copies the reference)."""
    scope = []
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "repro" or name.startswith("repro."):
            scope.append(module)
        elif os.path.dirname(os.path.abspath(getattr(module, "__file__", "") or "/")) == _HERE:
            scope.append(module)
    return scope


class Tracer:
    """Layer spans and counters for one traced workload pass.

    Use :meth:`install` to wrap the layers and :meth:`uninstall` to
    restore them.  While :attr:`paused` is set the shims pass calls
    straight through, which keeps the correctness checks out of the
    per-layer figures.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # One element so the hot Fact.holds shim increments a list slot.
        self.fact_evals = [0]
        self.scan_outer_calls = 0
        self.scan_outer_hits = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.paused = False
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- span bookkeeping ----------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [0.0, layer, self.fact_evals[0], time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[3]
        stack = self._stack
        stack.pop()
        layer = frame[1]
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        if stack:
            stack[-1][0] += elapsed
        if layer == "scan" and not any(f[1] == "scan" for f in stack):
            self.scan_outer_calls += 1
            if self.fact_evals[0] == frame[2]:
                self.scan_outer_hits += 1
        return elapsed

    def shim(
        self,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[tuple, object, float], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a ``layer`` span; ``after(args, result, s)``
        runs once the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(frame)
            if after is not None:
                after(args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "shim")
        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, name: str, layer: str, after=None) -> None:
        """Wrap module-level function ``name`` wherever it is referenced."""
        original = getattr(module, name, None)
        if original is None:
            return
        replacement = self.shim(layer, original, after)
        for scope in _patch_scope():
            for attr, value in list(vars(scope).items()):
                if value is original:
                    self._set(scope, attr, replacement)

    def wrap_method(self, cls: type, name: str, layer: str, after=None) -> None:
        """Wrap a method (plain, class- or static-) defined on ``cls``."""
        raw = cls.__dict__.get(name)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.shim(layer, raw.__func__, after))
        else:
            replacement = self.shim(layer, raw, after)
        self._set(cls, name, replacement)

    def count_fact_holds(self, fact_base: type) -> None:
        """Count every ``holds`` call on ``fact_base`` and its subclasses."""
        evals = self.fact_evals
        tracer = self
        seen = set()
        pending = [fact_base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get("holds")
            if raw is None or not callable(raw):
                continue

            def counted(*args, _fn=raw, **kwargs):
                if not tracer.paused:
                    evals[0] += 1
                return _fn(*args, **kwargs)

            self._set(cls, "holds", counted)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif not self.paused:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> "Tracer":
        """Wrap every layer's entry points (see the layer map in spec.py)."""
        # Every module whose `from ... import` copies of the wrapped
        # functions must be patched is loaded first.
        import repro.analysis.sweep  # noqa: F401
        import repro.core.pak  # noqa: F401
        from repro.core import beliefs, engine, facts, independence
        from repro.core import pps as pps_module
        from repro.core import reweight, theorems
        from repro.messaging import system as messaging_system
        from repro.protocols import compiler, strategies

        index = engine.SystemIndex

        def compiled(args, result, elapsed) -> None:
            self.counts["compile.nodes"] += result.node_count()

        def indexed(args, result, elapsed) -> None:
            self.counts["index.runs"] += args[0].run_count

        def derived(args, result, elapsed) -> None:
            self.counts["derive.rows"] += 1

        owner = messaging_system.MessagePassingSystem
        raw = owner.__dict__.get("compile")
        if raw is not None:
            self._set(owner, "compile", self._compile_shim(self.shim("compile", raw, compiled)))
        self.wrap_function(compiler, "compile_system", "compile", compiled)

        self.wrap_method(index, "__init__", "index", indexed)
        self.wrap_method(index, "_ensure_actions", "index.actions")
        for name in (
            "events_of",
            "truths_at",
            "holds_mask_at",
            "runs_satisfying_mask",
            "phi_at_action_mask",
        ):
            self.wrap_method(index, name, "scan")
        self.wrap_function(facts, "runs_satisfying", "scan")
        self.wrap_function(facts, "points_satisfying", "scan")
        self.count_fact_holds(facts.Fact)

        for name in (
            "is_local_state_independent",
            "independence_report",
            "lemma_4_3_applies",
            "is_past_based",
            "is_run_based",
        ):
            self.wrap_function(independence, name, "independence")

        for name, layer in THEOREM_LAYERS.items():
            self.wrap_function(theorems, name, layer)

        self.wrap_function(beliefs, "threshold_met_measures", "grid")
        self.wrap_function(beliefs, "threshold_met_measure", "grid")
        self.wrap_method(index, "threshold_kernel", "kernel.build")

        for name in ("refrain_below_threshold", "relabel_actions"):
            self.wrap_function(strategies, name, "derive")
        for name in ("reweight_edges", "condition_on", "scale_adversary"):
            self.wrap_function(reweight, name, "derive")
        self.wrap_method(pps_module.DerivedPPS, "__init__", "derive")
        self.wrap_method(index, "derived", "derive", derived)

        gc.callbacks.append(self._on_gc)
        return self

    def _compile_shim(self, inner: Callable) -> Callable:
        """Record the resident-memory growth of each compile call."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = current_rss_mb()
            result = inner(*args, **kwargs)
            if not tracer.paused:
                grown = current_rss_mb() - before
                tracer.counts["compile.rss_mb"] = max(
                    tracer.counts["compile.rss_mb"], grown
                )
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


#: Theorem checker -> span name; the metric is ``<span>.s``.
THEOREM_LAYERS = {
    "check_theorem_4_2": "theorem.4_2",
    "check_lemma_5_1": "theorem.5_1",
    "check_theorem_6_2": "theorem.6_2",
    "check_theorem_7_1": "theorem.7_1",
    "check_lemma_f_1": "theorem.F_1",
    "check_corollary_7_2": "theorem.7_2",
}
