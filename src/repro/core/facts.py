"""Facts over purely probabilistic systems.

Following the paper's Section 2.3, a *fact* (or event) over a pps ``T``
is identified with the set of points at which it is true; we represent
it intensionally as a predicate ``holds(pps, run, t)``.

Some facts are *facts about runs*: their truth value at a point depends
only on the run, not on the time (``(T, r, t) |= psi`` iff
``(T, r, t') |= psi`` for all ``t, t'``).  These are modelled by
:class:`RunFact`; only run facts correspond directly to events of the
probability space over runs and may therefore be fed to
:func:`runs_satisfying`.

Boolean structure is provided through operator overloading: ``p & q``,
``p | q``, ``~p`` and ``p.implies(q)``.  The connectives preserve
run-fact-ness: a conjunction of run facts is itself (semantically and
class-wise) a run fact.

The temporal closures ``eventually(phi)`` and ``always(phi)`` lift a
transient fact to the run facts "phi holds at some point of the run" /
"phi holds at every point of the run" (the paper uses the former, e.g.
the run fact ``alpha`` is ``eventually(does_i(alpha))``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Optional, Set, Tuple

from .engine import SystemIndex, bits
from .measure import Event
from .pps import PPS, Run

__all__ = [
    "Fact",
    "RunFact",
    "LambdaFact",
    "LambdaRunFact",
    "predicate_key",
    "And",
    "Or",
    "Not",
    "eventually",
    "always",
    "runs_satisfying",
    "points_satisfying",
    "fact_equivalent",
]


class Fact(ABC):
    """A (possibly transient) fact: a predicate over points of a pps."""

    label: str = "fact"
    _structural_key: Optional[Tuple[object, ...]] = None
    _mentions_actions: Optional[bool] = None

    def _structure(self) -> Optional[Tuple[object, ...]]:
        """The fact's structural fingerprint, or ``None`` when opaque.

        Subclasses whose semantics are fully determined by hashable
        attributes (operands, agents, actions, levels) override this to
        return those attributes; the engine may then share memo entries
        between equal-but-distinct instances.  The default ``None``
        keeps identity semantics for opaque facts (arbitrary
        predicates), which is always sound.
        """
        return None

    def structural_key(self) -> Tuple[object, ...]:
        """A hashable key identifying the fact up to syntactic structure.

        Two independently built facts with the same structure (same
        class, same operands) share one key, so the per-system engine
        caches hit across e.g. sweep rows that rebuild the same
        condition.  Facts without a declared structure fall back to an
        identity key that embeds the instance itself — collision-free,
        and pinning exactly what an identity-keyed cache would pin.

        The key is computed once and cached on the instance.
        """
        key = self._structural_key
        if key is None:
            parts = self._structure()
            if parts is None:
                key = (type(self).__qualname__, self)
            else:
                key = (type(self).__qualname__, *parts)
            self._structural_key = key
        return key

    def _action_dependence(self) -> bool:
        """Whether the fact's truth may depend on edge action labels.

        Subclasses whose semantics are a pure function of states,
        probabilities, and information partitions override this to
        ``False`` (or to derive it from their operands).  The default
        ``True`` is the conservative answer for opaque predicates,
        which may inspect ``run.action_of`` freely.
        """
        return True

    def mentions_actions(self) -> bool:
        """Whether evaluating the fact may inspect edge action labels.

        A structural (syntactic) property, computed once per instance:
        ``False`` guarantees the fact's truth masks and posteriors are
        identical in every system sharing this one's tree, states, and
        probabilities — which is exactly what a derived system
        (:class:`~repro.core.pps.DerivedPPS`) preserves.  The engine
        uses this to decide which memo-cache entries a derived index
        may inherit from its parent; ``True`` is always sound (it only
        forfeits cache reuse).
        """
        value = self._mentions_actions
        if value is None:
            value = self._action_dependence()
            self._mentions_actions = value
        return value

    def engine_mask(self, index, t) -> Optional[int]:
        """A direct bitmask for this fact, or ``None`` to point-scan.

        ``t`` selects the time slice (``None`` means the run-mask
        universe, where facts are evaluated at time 0).  Facts whose
        truth set is already tabulated by the engine — e.g. action
        atoms reading the (agent, action) tables — override this so
        the evaluator skips the per-(run, point) ``holds`` scan
        entirely.  The returned mask must equal exactly what that scan
        would produce (parity is asserted in the test-suite); ``None``
        (the default) is always sound.
        """
        return None

    @abstractmethod
    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        """Whether the fact is true at the point ``(run, t)`` of ``pps``.

        ``run`` must be one of ``pps.runs``: the built-in operators
        (knowledge, beliefs, ``@``-operators, ``does``/``performed``)
        answer from ``pps``'s index tables keyed by ``run.index``, so
        a run of a *different* system paired with this ``pps`` is not
        meaningful (this has always been the semantic contract — the
        knowledge and belief operators compared foreign runs against
        ``pps.runs`` even before the indexed engine).
        """

    @property
    def is_run_fact(self) -> bool:
        """Whether truth at a point depends only on the run.

        This is a *structural* property: it is ``True`` when the fact
        is built from :class:`RunFact` leaves and boolean connectives.
        A transient fact may still happen to be time-invariant in a
        particular system; use :func:`repro.core.independence.is_run_based`
        for the semantic check.
        """
        return False

    def holds_in_run(self, pps: PPS, run: Run) -> bool:
        """Truth value in a run; only meaningful for run facts."""
        if not self.is_run_fact:
            raise TypeError(
                f"{self.label!r} is transient; its truth value needs a time. "
                "Wrap it with eventually()/always() or an @-operator first."
            )
        return self.holds(pps, run, 0)

    # Boolean structure ------------------------------------------------

    def __and__(self, other: "Fact") -> "Fact":
        return And(self, other)

    def __or__(self, other: "Fact") -> "Fact":
        return Or(self, other)

    def __invert__(self) -> "Fact":
        return Not(self)

    def implies(self, other: "Fact") -> "Fact":
        """Material implication ``self -> other``."""
        return Or(Not(self), other)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class RunFact(Fact):
    """A fact whose truth value is a property of the whole run."""

    @property
    def is_run_fact(self) -> bool:
        return True


def predicate_key(predicate: Callable, key: Hashable) -> Tuple[object, ...]:
    """The structure of an opaque predicate fact: its declared key, else
    the callable itself.

    A declared ``key`` must *determine the predicate*: two facts of one
    class with equal keys must hold at exactly the same points of every
    system.  The engine then shares cache entries between independently
    built copies (e.g. a factory that returns a fresh closure per call).
    Without a key the fact is keyed on the callable object, so wrapping
    the same callable twice is one fact while two closures of the same
    code stay distinct — sound, but a rebuilt closure misses every
    cache.

    Raises:
        TypeError: when ``key`` is not hashable.
    """
    if key is None:
        return (predicate,)
    hash(key)
    return ("key", key)


# repro: allow[RP002] opaque predicate: nothing is known about action
# dependence, so the conservative default (True) is the only sound
# answer.
class LambdaFact(Fact):
    """A transient fact defined by an arbitrary point predicate.

    ``key`` is the fact's declared identity (see :func:`predicate_key`):
    give one whenever the predicate is rebuilt per call, or equal facts
    miss every engine cache.
    """

    def __init__(
        self,
        predicate: Callable[[PPS, Run, int], bool],
        label: str = "fact",
        *,
        key: Hashable = None,
    ) -> None:
        self._predicate = predicate
        self._key = predicate_key(predicate, key)
        self.label = label

    def _structure(self) -> Tuple[object, ...]:
        return self._key

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return self._predicate(pps, run, t)


# repro: allow[RP002] opaque predicate: the conservative
# action-dependence default (True) is the only sound answer.
class LambdaRunFact(RunFact):
    """A run fact defined by an arbitrary run predicate.

    ``key`` is the fact's declared identity, as for :class:`LambdaFact`.
    """

    def __init__(
        self,
        predicate: Callable[[PPS, Run], bool],
        label: str = "run-fact",
        *,
        key: Hashable = None,
    ) -> None:
        self._predicate = predicate
        self._key = predicate_key(predicate, key)
        self.label = label

    def _structure(self) -> Tuple[object, ...]:
        return self._key

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return self._predicate(pps, run)


class And(Fact):
    """Conjunction of facts; a run fact when all conjuncts are.

    ``label`` names the conjunction (it defaults to the joined operand
    labels); labels are display-only and never part of the key.
    """

    def __init__(self, *conjuncts: Fact, label: Optional[str] = None) -> None:
        if not conjuncts:
            raise ValueError("And() needs at least one conjunct")
        self.conjuncts: Tuple[Fact, ...] = conjuncts
        self.label = label or "(" + " & ".join(c.label for c in conjuncts) + ")"

    def _structure(self) -> Tuple[object, ...]:
        return tuple(c.structural_key() for c in self.conjuncts)

    def _action_dependence(self) -> bool:
        return any(c.mentions_actions() for c in self.conjuncts)

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return all(c.holds(pps, run, t) for c in self.conjuncts)

    @property
    def is_run_fact(self) -> bool:
        return all(c.is_run_fact for c in self.conjuncts)


class Or(Fact):
    """Disjunction of facts; a run fact when all disjuncts are.

    ``label`` works as for :class:`And`.
    """

    def __init__(self, *disjuncts: Fact, label: Optional[str] = None) -> None:
        if not disjuncts:
            raise ValueError("Or() needs at least one disjunct")
        self.disjuncts: Tuple[Fact, ...] = disjuncts
        self.label = label or "(" + " | ".join(d.label for d in disjuncts) + ")"

    def _structure(self) -> Tuple[object, ...]:
        return tuple(d.structural_key() for d in self.disjuncts)

    def _action_dependence(self) -> bool:
        return any(d.mentions_actions() for d in self.disjuncts)

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return any(d.holds(pps, run, t) for d in self.disjuncts)

    @property
    def is_run_fact(self) -> bool:
        return all(d.is_run_fact for d in self.disjuncts)


class Not(Fact):
    """Negation of a fact; a run fact when the operand is.

    ``label`` works as for :class:`And`.
    """

    def __init__(self, operand: Fact, *, label: Optional[str] = None) -> None:
        self.operand = operand
        self.label = label or f"~{operand.label}"

    def _structure(self) -> Tuple[object, ...]:
        return (self.operand.structural_key(),)

    def _action_dependence(self) -> bool:
        return self.operand.mentions_actions()

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return not self.operand.holds(pps, run, t)

    @property
    def is_run_fact(self) -> bool:
        return self.operand.is_run_fact


class _Eventually(RunFact):
    def __init__(self, operand: Fact) -> None:
        self.operand = operand
        self.label = f"<>{operand.label}"

    def _structure(self) -> Tuple[object, ...]:
        return (self.operand.structural_key(),)

    def _action_dependence(self) -> bool:
        return self.operand.mentions_actions()

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return any(self.operand.holds(pps, run, time) for time in run.times())


class _Always(RunFact):
    def __init__(self, operand: Fact) -> None:
        self.operand = operand
        self.label = f"[]{operand.label}"

    def _structure(self) -> Tuple[object, ...]:
        return (self.operand.structural_key(),)

    def _action_dependence(self) -> bool:
        return self.operand.mentions_actions()

    def holds(self, pps: PPS, run: Run, t: int) -> bool:
        return all(self.operand.holds(pps, run, time) for time in run.times())


def eventually(fact: Fact) -> RunFact:
    """The run fact "``fact`` holds at some point of the current run"."""
    return _Eventually(fact)


def always(fact: Fact) -> RunFact:
    """The run fact "``fact`` holds at every point of the current run"."""
    return _Always(fact)


def runs_satisfying(pps: PPS, fact: Fact) -> Event:
    """The event (set of run indices) where a run fact is true.

    The satisfying run set is computed once per fact *structural key*
    and memoized on the system's
    :class:`~repro.core.engine.SystemIndex`, so re-querying the same
    fact object — or a structurally equal rebuild of it — is O(1).

    Raises:
        TypeError: if ``fact`` is not structurally a run fact.
    """
    if not fact.is_run_fact:
        raise TypeError(
            f"{fact.label!r} is transient and does not denote a run event"
        )
    index = SystemIndex.of(pps)
    return index.event_of(index.runs_satisfying_mask(fact))


def points_satisfying(pps: PPS, fact: Fact) -> Set[Tuple[int, int]]:
    """All points ``(run index, time)`` at which ``fact`` holds.

    Evaluated one time slice at a time through the index's memoized
    per-slice truth masks, so repeated queries of the same fact object
    (e.g. both sides of :func:`fact_equivalent`) do not re-evaluate.
    """
    index = SystemIndex.of(pps)
    return {
        (run_index, t)
        for t in range(index.max_time + 1)
        for run_index in bits(index.holds_mask_at(fact, t))
    }


def fact_equivalent(pps: PPS, left: Fact, right: Fact) -> bool:
    """Whether two facts hold at exactly the same points of ``pps``."""
    return points_satisfying(pps, left) == points_satisfying(pps, right)
