"""Formula AST for the epistemic-probabilistic logic.

The core library treats facts *semantically* (sets of points), exactly
as the paper's Section 2.3 does.  This layer adds a *syntactic* face: a
small formula language with atomic propositions, boolean connectives,
the knowledge modality ``K_i``, the graded belief modality
``B_i >= p`` (and the other comparisons), and the action predicate
``does_i(alpha)``.

A formula is compiled against a *valuation* (proposition name ->
:class:`~repro.core.facts.Fact`) into a semantic fact via
:meth:`Formula.to_fact`, after which all core machinery applies.  The
concrete syntax is provided by :mod:`repro.logic.parser`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from ..core.atoms import FALSE, TRUE, does_
from ..core.beliefs import belief_at
from ..core.errors import FormulaError
from ..core.facts import Fact, LambdaFact
from ..core.knowledge import Knows
from ..core.numeric import ProbabilityLike, as_fraction
from ..core.pps import Action, AgentId

__all__ = [
    "Formula",
    "Prop",
    "Top",
    "Bottom",
    "Neg",
    "Conj",
    "Disj",
    "Impl",
    "Know",
    "Belief",
    "DoesF",
    "Valuation",
    "COMPARISONS",
]

Valuation = Mapping[str, Fact]

COMPARISONS = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


class Formula:
    """Base class of the formula AST."""

    def to_fact(self, valuation: Valuation) -> Fact:
        """Compile the formula to a semantic fact."""
        raise NotImplementedError

    # Operator sugar mirroring the Fact algebra.
    def __and__(self, other: "Formula") -> "Formula":
        return Conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Disj(self, other)

    def __invert__(self) -> "Formula":
        return Neg(self)

    def implies(self, other: "Formula") -> "Formula":
        return Impl(self, other)


@dataclass(frozen=True)
class Prop(Formula):
    """An atomic proposition, resolved through the valuation."""

    name: str

    def to_fact(self, valuation: Valuation) -> Fact:
        try:
            return valuation[self.name]
        except KeyError:
            raise FormulaError(
                f"proposition {self.name!r} missing from the valuation "
                f"(known: {sorted(valuation)})"
            ) from None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top(Formula):
    """The constant true formula."""

    def to_fact(self, valuation: Valuation) -> Fact:
        return TRUE

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    """The constant false formula."""

    def to_fact(self, valuation: Valuation) -> Fact:
        return FALSE

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Neg(Formula):
    """Negation."""

    operand: Formula

    def to_fact(self, valuation: Valuation) -> Fact:
        return ~self.operand.to_fact(valuation)

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class Conj(Formula):
    """Conjunction."""

    left: Formula
    right: Formula

    def to_fact(self, valuation: Valuation) -> Fact:
        return self.left.to_fact(valuation) & self.right.to_fact(valuation)

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Disj(Formula):
    """Disjunction."""

    left: Formula
    right: Formula

    def to_fact(self, valuation: Valuation) -> Fact:
        return self.left.to_fact(valuation) | self.right.to_fact(valuation)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Impl(Formula):
    """Material implication."""

    left: Formula
    right: Formula

    def to_fact(self, valuation: Valuation) -> Fact:
        return self.left.to_fact(valuation).implies(self.right.to_fact(valuation))

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class Know(Formula):
    """The knowledge modality ``K_i(phi)``."""

    agent: AgentId
    operand: Formula

    def to_fact(self, valuation: Valuation) -> Fact:
        return Knows(self.agent, self.operand.to_fact(valuation))

    def __str__(self) -> str:
        return f"K[{self.agent}] {self.operand}"


@dataclass(frozen=True)
class Belief(Formula):
    """The graded belief modality ``B_i <cmp> <level> (phi)``.

    ``Belief("alice", ">=", "0.9", phi)`` holds at a point exactly when
    ``beta_alice(phi) >= 9/10`` there.
    """

    agent: AgentId
    comparison: str
    level: Fraction
    operand: Formula

    def __init__(
        self,
        agent: AgentId,
        comparison: str,
        level: ProbabilityLike,
        operand: Formula,
    ) -> None:
        if comparison not in COMPARISONS:
            raise FormulaError(
                f"unknown comparison {comparison!r}; use one of {sorted(COMPARISONS)}"
            )
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "comparison", comparison)
        object.__setattr__(self, "level", as_fraction(level))
        object.__setattr__(self, "operand", operand)

    def to_fact(self, valuation: Valuation) -> Fact:
        inner = self.operand.to_fact(valuation)
        compare = COMPARISONS[self.comparison]
        agent, level = self.agent, self.level

        return LambdaFact(
            lambda pps, run, t: compare(belief_at(pps, agent, inner, run, t), level),
            label=f"B[{agent}]{self.comparison}{level}({inner.label})",
            key=("belief", agent, self.comparison, level, inner.structural_key()),
        )

    def __str__(self) -> str:
        return f"B[{self.agent}]{self.comparison}{self.level} {self.operand}"


@dataclass(frozen=True)
class DoesF(Formula):
    """The action predicate ``does_i(alpha)``."""

    agent: AgentId
    action: Action

    def to_fact(self, valuation: Valuation) -> Fact:
        return does_(self.agent, self.action)

    def __str__(self) -> str:
        return f"does[{self.agent}]({self.action})"
