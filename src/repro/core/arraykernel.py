"""The array numeric backend: vectorized reductions and bisected thresholds.

PR 5's two-tier kernel (:mod:`repro.core.lazyprob`) made every
threshold verdict float-fast and exact-on-demand — but the *filter
itself* still ran as a Python loop: a ``T x L`` threshold grid paid
``O(T * L)`` interpreted comparisons, and every scattered-mask measure
paid a per-bit Python sum.  This module moves those hot reductions
onto arrays (NumPy when available) under the exact same
conservative-error discipline:

* :func:`float_with_err` — the float view of an exact integer plus a
  bound on its conversion error (zero when the integer is exactly
  representable; big-int weights beyond 2**53 get a relative
  rounding-error term, and integers beyond float range get ``inf`` —
  every comparison on such a value escalates rather than mis-certifies);
* :class:`WeightKernel` — the engine's integer weight vector as
  ``float64`` approximation + per-entry error arrays, with
  mask-restricted sums as vectorized reductions (bitmask ->
  ``np.unpackbits`` -> fancy-indexed sum) and a summation error bound
  covering both the per-entry conversion errors and the accumulated
  rounding of the reduction itself;
* :class:`ThresholdKernel` — the bisected threshold kernel: acting
  posteriors exactly sorted once (distinct values, suffix-union met
  masks), monotone float certification envelopes, and per-bound
  location by :meth:`ThresholdKernel.locate_batch` — two vectorized
  ``searchsorted`` passes bracket every bound's exact insertion point,
  and only bounds whose bracket is ambiguous escalate to exact integer
  bisection.  A grid of ``G`` bounds over ``L`` acting states costs
  ``O(L log L)`` once plus ``O(G log L)`` float work, instead of the
  scalar filter's ``O(G * L)``;
* :func:`div_bounds` / :func:`dot_bounds` — forward-error propagation
  for the ratio and weighted-sum shapes the engine needs
  (conditionals, ``beliefs_batch`` posteriors, expectation dot
  products).

**NumPy is optional.**  ``pip install .[fast]`` enables the vectorized
paths; without it (or with ``REPRO_PURE_PYTHON=1`` in the environment)
every function here falls back to pure-Python loops with the *same
API and the same verdicts* — the error bounds are conservative in both
backends, and every certified verdict is certified against the same
exact oracle, so which backend ran is unobservable except in speed.
Tests flip backends via :func:`set_backend` to prove exactly that.

See ``docs/numerics.md`` for the error-bound derivation and how the
engine threads these kernels through its hot paths.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .bitset import bit_positions
from .faults import maybe_fire, record_degradation
from .lazyprob import ABS_EPS, REL_EPS

__all__ = [
    "HAVE_NUMPY",
    "backend",
    "set_backend",
    "using_numpy",
    "float_with_err",
    "div_bounds",
    "sum_bounds",
    "dot_bounds",
    "WeightKernel",
    "ThresholdKernel",
]

def _detect_numpy() -> bool:  # pragma: no cover - both CI matrix legs
    if os.environ.get("REPRO_PURE_PYTHON"):
        return False
    try:
        from importlib.util import find_spec

        return find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


HAVE_NUMPY = _detect_numpy()

# Availability is probed without importing (find_spec); the ~100ms
# numpy import is paid only when the first vectorized kernel is built,
# so exact-only workloads never load it.  Methods on a vectorized
# kernel may use the ``_np`` global directly: their constructor went
# through :func:`_numpy` first.
_np = None


def _numpy():
    global _np
    # The fault site fires even when numpy is already cached: a chaos
    # spec must be able to exercise the degradation path on any query,
    # not only the process's very first vectorized kernel.
    if maybe_fire("backend-import"):
        raise ImportError("injected backend-import fault")
    if _np is None:
        import numpy

        _np = numpy
    return _np


def _numpy_or_degrade():
    """:func:`_numpy`, degrading to the pure-Python backend on failure.

    A NumPy import that raises (broken installation, or the
    ``backend-import`` fault site) flips the active backend to
    ``"python"`` for every *subsequently built* kernel, records the
    numpy→python downgrade on the resilience report, and returns
    ``None`` — the caller takes the pure-Python path, whose verdicts
    are identical by construction.
    """
    global _backend
    try:
        return _numpy()
    except ImportError as error:
        _backend = "python"
        record_degradation(
            "backend", "numpy", "python", "numpy-import-failed", repr(error)
        )
        return None

# The active backend: "numpy" when available, else "python".  Kernels
# consult this at *construction* time, so tests can build one kernel
# per backend and compare; already-built kernels keep their backend.
_backend = "numpy" if HAVE_NUMPY else "python"


def backend() -> str:
    """The active backend name: ``"numpy"`` or ``"python"``."""
    return _backend


def using_numpy() -> bool:
    """Whether newly built kernels will use vectorized NumPy paths."""
    return _backend == "numpy"


def set_backend(name: str) -> str:
    """Select the backend for subsequently built kernels (tests only).

    Returns the previous backend name so callers can restore it.

    Raises:
        ValueError: for names other than ``"numpy"``/``"python"``, or
            when ``"numpy"`` is requested but NumPy is not installed.
    """
    global _backend
    if name not in ("numpy", "python"):
        raise ValueError(f"backend must be 'numpy' or 'python', got {name!r}")
    if name == "numpy" and not HAVE_NUMPY:
        raise ValueError("NumPy backend requested but numpy is not installed")
    previous = _backend
    _backend = name
    return previous


# ----------------------------------------------------------------------
# Scalar conversions and error propagation
# ----------------------------------------------------------------------

# One correctly rounded float step is within half an ulp; every bound
# here budgets a full ulp per step (REL_EPS = 2^-52) plus the subnormal
# cushion ABS_EPS, matching lazyprob's discipline.  Bounds only ever
# over-estimate: a loose bound costs a spurious escalation, never a
# wrong certification.

# Integers up to 2**53 convert to float exactly.
_EXACT_INT_LIMIT = 1 << 53


def float_with_err(value: int) -> Tuple[float, float]:
    """The float view of an exact integer and a bound on its error.

    * ``|value| <= 2**53``: exactly representable — error 0.
    * larger: ``int.__float__`` is correctly rounded, so the error is
      at most one ulp of the result — ``|approx| * 2**-52``.  This is
      the rounding-error term that keeps big-integer weights honest:
      a comparison that the term does not certify escalates to exact
      integer arithmetic instead of trusting the rounded float.
    * beyond float range entirely: ``(±inf, inf)`` — nothing certifies,
      everything escalates.
    """
    try:
        approx = float(value)
    except OverflowError:
        return (math.inf if value > 0 else -math.inf), math.inf
    if -_EXACT_INT_LIMIT <= value <= _EXACT_INT_LIMIT:
        return approx, 0.0
    return approx, abs(approx) * REL_EPS


def div_bounds(
    num_approx: float, num_err: float, den_approx: float, den_err: float
) -> Tuple[float, float]:
    """``(approx, err)`` of a ratio from its operands' bounds.

    Mirrors ``LazyProb``'s division propagation: when the divisor's
    interval is not bounded away from zero (or anything is non-finite)
    the error is ``inf`` — comparisons on the result always escalate.
    """
    approx = num_approx / den_approx if den_approx != 0.0 else math.nan
    lo = abs(den_approx) - den_err
    # nan/inf operands (overflowed totals) land here too: a bound that
    # cannot be certified must always escalate.
    if not (lo > 0.0 and math.isfinite(lo) and math.isfinite(approx)):
        return approx, math.inf
    err = (
        2.0 * (num_err + abs(approx) * den_err) / lo
        + abs(approx) * REL_EPS
        + ABS_EPS
    )
    return approx, err


def sum_bounds(terms: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """``(approx, err)`` of ``sum_i t_i`` from per-term bounds.

    The order-insensitive combine behind shard recombination
    (``core/shard.py``): per-term errors add, and the accumulated
    rounding of the reduction is covered by an ``n * REL_EPS *
    sum |t_i|`` term valid for *any* summation order — so a bound
    combined from per-shard bounds is conservative no matter how the
    underlying total was split, and a bound is never tightened by
    resharding.  Non-finite terms propagate to an ``inf`` error:
    comparisons on the result always escalate.
    """
    n = len(terms)
    if n == 0:
        return 0.0, 0.0
    approx = 0.0
    term_err = 0.0
    abs_sum = 0.0
    for ta, te in terms:
        approx += ta
        abs_sum += abs(ta)
        term_err += te
    if not (math.isfinite(approx) and math.isfinite(term_err)):
        return approx, math.inf
    return approx, term_err + n * REL_EPS * abs_sum + ABS_EPS


def dot_bounds(
    xs: Sequence[Tuple[float, float]], ys: Sequence[Tuple[float, float]]
) -> Tuple[float, float]:
    """``(approx, err)`` of ``sum_i x_i * y_i`` from per-term bounds.

    Per-term error is the product rule (``|x| e_y + |y| e_x + e_x
    e_y``); the accumulated rounding of the reduction is covered by an
    ``n * REL_EPS * sum |x_i y_i|`` term, valid for any summation
    order (NumPy's pairwise reduction is strictly tighter).
    """
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if _backend == "numpy" and n >= 2 and _numpy_or_degrade() is not None:
        xa = _np.array([x[0] for x in xs], dtype=_np.float64)
        xe = _np.array([x[1] for x in xs], dtype=_np.float64)
        ya = _np.array([y[0] for y in ys], dtype=_np.float64)
        ye = _np.array([y[1] for y in ys], dtype=_np.float64)
        prods = xa * ya
        abs_prods = _np.abs(prods)
        approx = float(prods.sum())
        term_err = float(
            (_np.abs(xa) * ye + _np.abs(ya) * xe + xe * ye).sum()
        )
        err = term_err + n * REL_EPS * float(abs_prods.sum()) + ABS_EPS
        return approx, err
    approx = 0.0
    term_err = 0.0
    abs_sum = 0.0
    for (xa, xe), (ya, ye) in zip(xs, ys):
        prod = xa * ya
        approx += prod
        abs_sum += abs(prod)
        term_err += abs(xa) * ye + abs(ya) * xe + xe * ye
    return approx, term_err + n * REL_EPS * abs_sum + ABS_EPS


# ----------------------------------------------------------------------
# The weight kernel: mask-restricted sums as array reductions
# ----------------------------------------------------------------------


class WeightKernel:
    """The integer weight vector as float arrays with error bounds.

    Built once per system index from the engine's exact integer
    weights (numerators over the common denominator).  ``vectorized``
    tells the engine whether :meth:`mask_bounds` is an array reduction
    (NumPy backend) or whether the engine should prefer its memoized
    exact integer totals (pure-Python backend — summing floats in a
    Python loop would cost the same as summing the exact ints, so the
    fallback simply isn't built).
    """

    __slots__ = ("size", "vectorized", "_approx", "_err", "_any_err")

    def __init__(self, weights: Sequence[int]) -> None:
        self.size = len(weights)
        pairs = [float_with_err(w) for w in weights]
        self.vectorized = _backend == "numpy" and _numpy_or_degrade() is not None
        if self.vectorized:
            self._approx = _np.array([p[0] for p in pairs], dtype=_np.float64)
            self._err = _np.array([p[1] for p in pairs], dtype=_np.float64)
        else:
            self._approx = [p[0] for p in pairs]
            self._err = [p[1] for p in pairs]
        self._any_err = any(p[1] != 0.0 for p in pairs)

    def _selector(self, mask: int):
        """The boolean selection array of a bitmask (NumPy backend)."""
        nbytes = (self.size + 7) // 8
        raw = _np.frombuffer(
            mask.to_bytes(nbytes, "little"), dtype=_np.uint8
        )
        return _np.unpackbits(raw, bitorder="little", count=self.size).view(
            _np.bool_
        )

    def mask_bounds(self, mask: int) -> Tuple[float, float]:
        """``(approx, err)`` of the weight total over the mask's entries.

        The error bound is the sum of the selected entries' conversion
        errors plus ``k * REL_EPS * sum |w_i|`` for the ``k``-term
        reduction (any summation order), plus the subnormal cushion.
        """
        if mask == 0:
            return 0.0, 0.0
        if self.vectorized:
            sel = self._selector(mask)
            chosen = self._approx[sel]
            k = chosen.shape[0]
            total = float(chosen.sum())
            abs_total = float(_np.abs(chosen).sum())
            conv = float(self._err[sel].sum()) if self._any_err else 0.0
            return total, conv + k * REL_EPS * abs_total + ABS_EPS
        total = 0.0
        abs_total = 0.0
        conv = 0.0
        k = 0
        approx = self._approx
        err = self._err
        for i in bit_positions(mask):
            total += approx[i]
            abs_total += abs(approx[i])
            conv += err[i]
            k += 1
        return total, conv + k * REL_EPS * abs_total + ABS_EPS


# ----------------------------------------------------------------------
# The bisected threshold kernel
# ----------------------------------------------------------------------

# Certification envelopes inflate each side's error window by 8x (vs
# the scalar filter's 4x): the envelope arithmetic itself — gap sums,
# the ± that builds lo/hi, the running min/max — rounds, and the extra
# factor absorbs every such step with room to spare.  Looser windows
# only cost spurious exact refinements at the bracket edges.
_ENV = 8.0


def _gap(approx: float) -> float:
    return _ENV * (abs(approx) * REL_EPS + ABS_EPS)


class ThresholdKernel:
    """Sorted acting-posterior structure answering threshold grids.

    Built from ``(exact posterior, cell mask)`` rows — one per acting
    local state.  Holds the *distinct* exact posteriors ascending
    (``values``), the suffix-union met masks (``suffix_masks[j]`` is
    the union of cells whose posterior is ``>= values[j]``;
    ``suffix_masks[m]`` is 0), and two monotone float envelopes:

    * ``hi_env[j]`` — a running max of ``float(v_j) + gap_j``: every
      bound strictly above it is certifiably above ``v_0..v_j``;
    * ``lo_env[j]`` — a suffix running min of ``float(v_j) - gap_j``:
      every bound strictly below it is certifiably below
      ``v_j..v_{m-1}``.

    For a bound ``p`` the exact insertion point ``j*`` (first ``j``
    with ``v_j >= p``, so the met mask is exactly
    ``suffix_masks[j*]``) is bracketed by two envelope lookups; when
    the bracket is a single point the verdict is certified in float,
    otherwise the kernel bisects the bracket with exact ``Fraction``
    comparisons — each counted as an escalation.  The met mask is
    *always* the one exact mode computes.
    """

    __slots__ = ("values", "suffix_masks", "lo_env", "hi_env", "_numpy")

    def __init__(self, rows: Sequence[Tuple[Fraction, int]]) -> None:
        groups: dict = {}
        for value, cell in rows:
            groups[value] = groups.get(value, 0) | cell
        values: List[Fraction] = sorted(groups)
        m = len(values)
        suffix = [0] * (m + 1)
        for j in range(m - 1, -1, -1):
            suffix[j] = suffix[j + 1] | groups[values[j]]
        self.values = values
        self.suffix_masks = suffix
        approx = [float(v) for v in values]
        lo = [a - _gap(a) for a in approx]
        hi = [a + _gap(a) for a in approx]
        # Monotone envelopes: prefix-max of hi, suffix-min of lo.
        for j in range(1, m):
            if hi[j] < hi[j - 1]:
                hi[j] = hi[j - 1]
        for j in range(m - 2, -1, -1):
            if lo[j] > lo[j + 1]:
                lo[j] = lo[j + 1]
        self._numpy = _backend == "numpy" and _numpy_or_degrade() is not None
        if self._numpy:
            self.lo_env = _np.array(lo, dtype=_np.float64)
            self.hi_env = _np.array(hi, dtype=_np.float64)
        else:
            self.lo_env = lo
            self.hi_env = hi

    def __len__(self) -> int:
        return len(self.values)

    # -- exact location (the oracle) -----------------------------------

    def locate_exact(self, bound: Fraction) -> int:
        """The insertion point by pure exact bisection (no stats)."""
        return bisect_left(self.values, bound)

    def _refine(self, bound: Fraction, a: int, b: int) -> Tuple[int, int]:
        """Exact bisection of ``values[a:b]``; returns (point, compares)."""
        compares = 0
        while a < b:
            mid = (a + b) // 2
            compares += 1
            if self.values[mid] < bound:
                a = mid + 1
            else:
                b = mid
        return a, compares

    # -- float-certified location --------------------------------------

    def _needles(self, bound: Fraction) -> Tuple[float, float]:
        """The bound's certification window ``[bf - gap, bf + gap]``.

        A bound whose float view overflows gets an infinite window —
        the whole kernel range becomes the bracket and exact bisection
        decides (probability-scale bounds never hit this; it guards
        adversarial Fractions).
        """
        try:
            bf = bound.numerator / bound.denominator
        except OverflowError:
            return -math.inf, math.inf
        gap = _gap(bf)
        return bf - gap, bf + gap

    def bracket(self, bound: Fraction) -> Tuple[int, int]:
        """``(a, b)`` with the exact insertion point certifiably in it.

        ``a`` counts the values certifiably below the bound; values at
        ``b`` and beyond are certifiably above it.  ``a == b`` means
        the insertion point is certified without exact arithmetic.
        """
        needle_lo, needle_hi = self._needles(bound)
        a = bisect_left(self.hi_env, needle_lo)
        b = bisect_right(self.lo_env, needle_hi)
        # Envelope crossings can make the bracket degenerate (b < a)
        # only through conservative overlap; widen to keep the exact
        # refinement sound.
        return (a, b) if b >= a else (min(a, b), max(a, b))

    def locate(self, bound: Fraction) -> Tuple[int, int]:
        """``(insertion point, exact compares)`` for one bound."""
        a, b = self.bracket(bound)
        if a == b:
            return a, 0
        return self._refine(bound, a, b)

    def locate_batch(
        self, bounds: Sequence[Fraction]
    ) -> Tuple[List[int], int, int, int]:
        """Insertion points for a whole grid of bounds in one pass.

        Returns ``(points, certified, escalated, exact_compares)``:
        how many bounds resolved purely from the float envelopes, how
        many needed exact refinement, and how many exact comparisons
        the refinements performed.  NumPy backend: both envelope
        lookups for *all* bounds are two vectorized ``searchsorted``
        calls; pure-Python backend: two ``bisect`` calls per bound.
        Verdicts are identical either way.
        """
        m = len(self.values)
        points: List[int] = []
        certified = 0
        escalated = 0
        compares = 0
        if self._numpy and m and len(bounds) > 1:
            # The per-bound float views stay a Python loop (exact int
            # division), but the certification windows are array ops —
            # the same IEEE operations as _needles, so identical
            # windows either way.
            floats: List[float] = []
            overflowed: List[int] = []
            for bound in bounds:
                try:
                    floats.append(bound.numerator / bound.denominator)
                except OverflowError:
                    overflowed.append(len(floats))
                    floats.append(0.0)
            bfs = _np.array(floats, dtype=_np.float64)
            gaps = _ENV * (_np.abs(bfs) * REL_EPS + ABS_EPS)
            los = bfs - gaps
            his = bfs + gaps
            for i in overflowed:
                los[i] = -math.inf
                his[i] = math.inf
            a_arr = _np.searchsorted(self.hi_env, los, side="left")
            b_arr = _np.searchsorted(self.lo_env, his, side="right")
            for bound, a, b in zip(bounds, a_arr.tolist(), b_arr.tolist()):
                if b < a:
                    a, b = min(a, b), max(a, b)
                if a == b:
                    certified += 1
                    points.append(a)
                else:
                    escalated += 1
                    point, n = self._refine(bound, a, b)
                    compares += n
                    points.append(point)
            return points, certified, escalated, compares
        for bound in bounds:
            point, n = self.locate(bound)
            if n:
                escalated += 1
                compares += n
            else:
                certified += 1
            points.append(point)
        return points, certified, escalated, compares

    def met_mask(self, point: int) -> int:
        """The met mask of an insertion point (suffix union)."""
        return self.suffix_masks[point]
