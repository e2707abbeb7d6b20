"""Seeded workload inputs.

Every input the library sees is drawn here from ``--seed`` with a
private :class:`random.Random`, before any library call: the same seed
(and size) always gives equal inputs, and nothing is adapted to the
library's answers.  Probabilities are exact rationals written as
strings.

Refrain thresholds are drawn only for the FS, attack and consensus
families.  In each of them some acting state has belief 1 (an agent
that heard everything is certain), so a threshold of at most 1 never
strips every acting edge; on an arbitrary random spec a row can strip
them all, which raises ``ImproperActionError`` by design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

#: Random specs (``random_protocol_system(spec, n_agents=2, horizon=3,
#: n_payloads=3)``) whose agent ``a0`` has a proper action with at least
#: two acting states and an achieved probability strictly between 0 and
#: 1; a test re-verifies them.  The specs are fixed because their sizes
#: differ tenfold and would move the stream's mean cost from seed to
#: seed; the seed draws each one's random state fact instead.
RANDOM_SPECS: Tuple[int, ...] = (2, 3, 20, 23, 28, 32)

#: Loss rates k/100 with k coprime to 100: every member of a family has
#: the same denominators, so exact arithmetic costs the same per seed.
_LOSSES = tuple(f"{k}/100" for k in range(3, 20) if gcd(k, 100) == 1)


def _thresholds(rng: random.Random, count: int, lo: int, hi: int) -> Tuple[str, ...]:
    """``count`` distinct thresholds k/1000 with lo <= k <= hi, ascending."""
    picks = sorted(rng.sample(range(lo, hi + 1), count))
    return tuple(str(Fraction(k, 1000)) for k in picks)


@dataclass(frozen=True)
class ConsensusInputs:
    """Inputs of both consensus workloads."""

    n: int
    loss: str
    agent: int
    cold_threshold: str
    repeat_thresholds: Tuple[str, ...]
    auto_threshold: str
    sweep_thresholds: Tuple[str, ...]


#: Consensus loss rates.  For each, the refrain thresholds 1 - c*loss
#: with 0.56 <= c <= 0.74 fall between the same two acting-belief
#: levels of consensus(n=4) (e.g. 0.9301 and 0.953 at loss 9/100), so
#: every row strips the same third of the acting runs and a row's cost
#: does not depend on the seed.
_CONSENSUS_LOSSES = ("9/100", "11/100", "13/100")


def consensus_inputs(
    seed: int, *, n: int, repeats: int, sweep_rows: int
) -> ConsensusInputs:
    rng = random.Random(f"consensus:{seed}")
    loss = rng.choice(_CONSENSUS_LOSSES)
    agent = rng.randrange(n)
    queries = _thresholds(rng, repeats + 2, 500, 999)
    order = list(queries)
    rng.shuffle(order)
    spread = sorted(rng.sample(range(560, 741), sweep_rows))
    return ConsensusInputs(
        n=n,
        loss=loss,
        agent=agent,
        cold_threshold=order[0],
        repeat_thresholds=tuple(order[1 : 1 + repeats]),
        auto_threshold=order[1 + repeats],
        sweep_thresholds=tuple(
            str(1 - Fraction(c, 1000) * Fraction(loss)) for c in reversed(spread)
        ),
    )


@dataclass(frozen=True)
class Member:
    """One system of the small-dense stream.

    ``family`` is ``fs-chain``, ``fs-drift``, ``attack`` or ``random``;
    ``size`` is the chain rounds, the ack rounds or the spec seed, and
    ``fact_seed`` seeds a random member's state fact.
    """

    family: str
    size: int
    fact_seed: int
    loss: str
    query_thresholds: Tuple[str, ...]
    refrain_thresholds: Tuple[str, ...]
    drift_losses: Tuple[str, ...]
    grid_points: int
    epsilons: Tuple[str, ...]


@dataclass(frozen=True)
class DenseInputs:
    members: Tuple[Member, ...]
    materialize_checks: Tuple[Tuple[int, int], ...]  # (member, row) pairs


def dense_inputs(
    seed: int,
    *,
    chains: Tuple[int, ...] = (2, 3, 4, 5, 6),
    acks: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
    randoms: int = len(RANDOM_SPECS),
    queries: int = 5,
    refrain_rows: int = 41,
    drift_rows: int = 9,
    grid_points: int = 2049,
    epsilons: int = 8,
    materialize_checks: int = 4,
) -> DenseInputs:
    rng = random.Random(f"small-dense:{seed}")
    layout = [("fs-chain", r) for r in chains]
    layout.append(("fs-drift", 0))
    layout += [("attack", a) for a in acks]
    layout += [("random", s) for s in RANDOM_SPECS[:randoms]]
    members = []
    for family, size in layout:
        refrains = family != "random"
        members.append(
            Member(
                family=family,
                size=size,
                fact_seed=rng.randrange(10**6) if family == "random" else 0,
                # drift_loss recovers edge exponents from the compile-time
                # loss, which must be its default of 1/10.
                loss="1/10" if family == "fs-drift" else rng.choice(_LOSSES),
                query_thresholds=_thresholds(rng, queries + 1, 1, 999),
                refrain_thresholds=(
                    _thresholds(rng, refrain_rows, 0, 1000) if refrains else ()
                ),
                drift_losses=(
                    _thresholds(rng, drift_rows, 1, 450)
                    if family == "fs-drift"
                    else ()
                ),
                grid_points=grid_points,
                epsilons=_thresholds(rng, epsilons, 1, 999),
            )
        )
    sweeping = [k for k, member in enumerate(members) if member.refrain_thresholds]
    checks = tuple(
        sorted(
            (k, rng.randrange(refrain_rows))
            for k in rng.sample(sweeping, min(materialize_checks, len(sweeping)))
        )
    )
    return DenseInputs(members=tuple(members), materialize_checks=checks)
