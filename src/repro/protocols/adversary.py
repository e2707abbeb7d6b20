"""Adversaries: fixing nondeterministic choices before compilation.

Probabilistic reasoning in the presence of nondeterminism requires
fixing all nondeterministic choices first (Pnueli; Halpern–Tuttle; the
paper's Section 2).  An *adversary* is such a fixing: e.g. "Alice's
``go`` flag is set nondeterministically" becomes two adversaries, one
per flag value, each inducing its own pps.

:class:`Adversary` is an immutable record of named choices;
:func:`enumerate_adversaries` expands a choice space into all
adversaries; :func:`compile_under_adversaries` builds one pps per
adversary from a system factory.  Analyses (beliefs, constraints,
theorems) are then run per-adversary, matching the paper's
"probabilities are only defined once the adversary is fixed".

Once compiled, an adversary family can *drift* without recompiling:
:func:`scale_adversary` (re-exported from :mod:`repro.core.reweight`)
scales the probability of marked adversarial branches inside one
system, and :func:`drift_under_adversaries` applies it across a whole
compiled family, producing tree-sharing
:class:`~repro.core.pps.ReweightedPPS` children whose engine indices
inherit every shape-dependent table from the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Dict, Hashable, List, Mapping, Sequence, Tuple

from ..core.numeric import ProbabilityLike
from ..core.pps import PPS, Node
from ..core.reweight import scale_adversary
from .compiler import ProtocolSystem, compile_system

__all__ = [
    "Adversary",
    "compile_under_adversaries",
    "drift_under_adversaries",
    "enumerate_adversaries",
    "scale_adversary",
]


@dataclass(frozen=True)
class Adversary:
    """A complete assignment of the nondeterministic choices.

    Attributes:
        choices: the named choices, as a sorted tuple of pairs so that
            adversaries are hashable and have a canonical form.
    """

    choices: Tuple[Tuple[str, Hashable], ...]

    @classmethod
    def of(cls, **choices: Hashable) -> "Adversary":
        """Build an adversary from keyword choices."""
        return cls(tuple(sorted(choices.items())))

    def get(self, name: str) -> Hashable:
        """The value fixed for choice ``name``.

        Raises:
            KeyError: when the adversary does not fix that choice.
        """
        for key, value in self.choices:
            if key == name:
                return value
        raise KeyError(f"adversary fixes no choice named {name!r}")

    def describe(self) -> str:
        return ", ".join(f"{key}={value!r}" for key, value in self.choices)

    def __str__(self) -> str:
        return f"Adversary({self.describe()})"


def enumerate_adversaries(
    space: Mapping[str, Sequence[Hashable]]
) -> List[Adversary]:
    """All adversaries over a finite choice space.

    Args:
        space: choice name -> the values the scheduler may pick.

    Returns:
        one :class:`Adversary` per element of the cartesian product,
        in a deterministic order.
    """
    names = sorted(space)
    combos = iter_product(*(space[name] for name in names))
    return [
        Adversary(tuple(zip(names, combo)))
        for combo in combos
    ]


def compile_under_adversaries(
    space: Mapping[str, Sequence[Hashable]],
    make_system: Callable[[Adversary], ProtocolSystem],
    *,
    name_prefix: str = "adversary",
) -> Dict[Adversary, PPS]:
    """Compile one pps per adversary of the choice space.

    Args:
        space: the nondeterministic choice space.
        make_system: factory producing the (purely probabilistic)
            protocol system once the adversary is fixed.
        name_prefix: systems are named ``f"{name_prefix}[{choices}]"``.
    """
    systems: Dict[Adversary, PPS] = {}
    for adversary in enumerate_adversaries(space):
        system = make_system(adversary)
        systems[adversary] = compile_system(
            system, name=f"{name_prefix}[{adversary.describe()}]"
        )
    return systems


def drift_under_adversaries(
    compiled: Mapping[Adversary, PPS],
    select: Callable[[Adversary, Node], bool],
    factor: ProbabilityLike,
) -> Dict[Adversary, PPS]:
    """Scale the adversarial branches of every system in a compiled family.

    The family-level drift knob: for each ``(adversary, pps)`` pair of
    ``compiled``, applies :func:`scale_adversary` with the selection
    ``node -> select(adversary, node)``, so the marking may depend on
    which nondeterministic choices that system was compiled under.
    Systems whose selection marks no edge come back unchanged-measure
    (but still as cheap derived children, keeping the return type
    uniform).

    Args:
        compiled: an adversary family, e.g. from
            :func:`compile_under_adversaries`.
        select: marks adversarial outcome edges, given the adversary
            the system was compiled under and the node the edge leads
            into.
        factor: the common scale applied to every selected edge.
    """
    return {
        adversary: scale_adversary(
            pps,
            lambda node, _adv=adversary: select(_adv, node),
            factor,
            name=f"{pps.name}-drift({factor})",
        )
        for adversary, pps in compiled.items()
    }
