"""Seeded random system generators for property-based testing.

The paper's theorems quantify over *all* pps; the test-suite
approximates that universal claim by hammering the theorem checkers on
randomly generated systems.  Soundness of the generators matters: the
theorems' premises (protocol structure, properness, synchrony) must
hold *by construction*, so that a failed check indicates a library bug
rather than a malformed input.

:func:`random_protocol_system` therefore generates systems through the
real protocol compiler, with protocols drawn from seed-derived hash
streams:

* every agent's raw local state is ``(t, payload)``; the transition
  advances ``t``, so every action label ``(t, k)`` is performed at most
  once per run — all performed actions are automatically *proper*;
* action distributions depend only on ``(agent, local state)`` — the
  protocol-structure premise of Lemma 4.3(b) holds by construction;
* ``mixed_level`` controls how often steps are mixed, covering both
  Lemma 4.3(a) (deterministic) and genuinely mixed regimes.

Fact generators:

* :func:`random_state_fact` — a predicate of the current global state
  (always past-based, hence local-state independent of every proper
  action by Lemma 4.3(b));
* :func:`random_run_fact` — a predicate of the whole run (may be
  *dependent* on actions, exercising the theorems' vacuous branches).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.atoms import state_fact
from ..core.facts import Fact, LambdaRunFact
from ..core.pps import PPS, Action, AgentId, GlobalState, Run
from ..protocols.compiler import Config, ProtocolSystem, compile_system
from ..protocols.distribution import Distribution
from ..protocols.environment import FunctionEnvironment

__all__ = [
    "random_protocol_spec",
    "random_protocol_system",
    "random_state_fact",
    "random_run_fact",
    "rotor_spec",
    "tree_signature",
    "proper_actions_of",
]


def _derived_rng(*parts: object) -> random.Random:
    """A deterministic RNG derived from structured keys (not ``hash``,
    which is salted per interpreter run)."""
    return random.Random(":".join(repr(part) for part in parts))


def _random_weights(rng: random.Random, n: int) -> List[object]:
    """``n`` positive rational weights summing to one."""
    from fractions import Fraction

    raw = [rng.randint(1, 5) for _ in range(n)]
    total = sum(raw)
    return [Fraction(value, total) for value in raw]


def random_protocol_spec(
    seed: int,
    *,
    n_agents: int = 2,
    horizon: int = 2,
    n_payloads: int = 3,
    n_actions: int = 2,
    mixed_level: float = 0.5,
    n_initials: int = 2,
) -> ProtocolSystem:
    """The uncompiled :class:`ProtocolSystem` behind
    :func:`random_protocol_system`.

    Exposed separately so callers can compile the same specification
    more than once — e.g. the compiler parity suite compiles each spec
    with and without expansion-template memoization and asserts the
    trees are identical.

    Args:
        seed: generator seed (same seed, same system).
        n_agents: number of agents.
        horizon: number of rounds.
        n_payloads: size of each agent's raw payload alphabet.
        n_actions: size of the per-round action alphabet.
        mixed_level: probability that a local state's step is a mixed
            action (0 = fully deterministic protocols).
        n_initials: number of initial configurations.
    """
    agents = tuple(f"a{k}" for k in range(n_agents))

    def protocol_for(agent: AgentId):
        def act(local: object) -> Distribution:
            t, payload = local
            rng = _derived_rng(seed, "P", agent, t, payload)
            labels = [(t, k) for k in range(n_actions)]
            if rng.random() >= mixed_level or n_actions == 1:
                return Distribution.point(rng.choice(labels))
            count = rng.randint(2, n_actions)
            chosen = rng.sample(labels, count)
            weights = _random_weights(rng, count)
            return Distribution(dict(zip(chosen, weights)))

        return act

    def environment(env_state: object, joint: object) -> Distribution:
        rng = _derived_rng(seed, "E", env_state, tuple(sorted(joint.items())))
        if rng.random() < 0.5:
            return Distribution.point(0)
        weights = _random_weights(rng, 2)
        return Distribution(dict(zip((0, 1), weights)))

    def transition(env_state, locals_map, joint_actions, env_action):
        t = env_state
        new_locals = {}
        for agent in agents:
            _, payload = locals_map[agent]
            rng = _derived_rng(
                seed, "T", agent, t, payload, joint_actions[agent], env_action
            )
            new_locals[agent] = (t + 1, rng.randrange(n_payloads))
        return t + 1, new_locals

    init_rng = _derived_rng(seed, "I")
    configs = []
    seen = set()
    for _ in range(n_initials):
        payloads = tuple(init_rng.randrange(n_payloads) for _ in agents)
        if payloads in seen:
            continue
        seen.add(payloads)
        configs.append(Config(env=0, locals=tuple((0, p) for p in payloads)))
    weights = _random_weights(init_rng, len(configs))

    return ProtocolSystem(
        agents=agents,
        protocols={agent: protocol_for(agent) for agent in agents},
        transition=transition,
        initial=Distribution(dict(zip(configs, weights))),
        environment=FunctionEnvironment(environment),
        horizon=horizon,
    )


def random_protocol_system(seed: int, **kwargs: object) -> PPS:
    """A random pps generated through the protocol compiler.

    Accepts the same keyword arguments as :func:`random_protocol_spec`
    and compiles the resulting specification.
    """
    system = random_protocol_spec(seed, **kwargs)  # type: ignore[arg-type]
    return compile_system(system, name=f"random-{seed}")


def rotor_spec(
    *, n_agents: int = 4, modulus: int = 3, horizon: int = 4, coins: int = 2
) -> ProtocolSystem:
    """A bounded-memory synchronous system with massive config reuse.

    Each agent's raw local state is an integer mod ``modulus``; the
    first ``coins`` agents flip fair coins, the rest always act 1, and
    every agent advances its own state by its action.  The reachable
    configuration set has at most ``modulus ** n_agents`` elements
    while the tree has ``(2 ** coins) ** horizon`` runs — the
    repeated-configuration regime of synchronous protocols, where one
    expansion template serves thousands of nodes.  Shared by the
    compile-parity tests and ``benchmarks/bench_compiler_scaling.py``.
    """
    agents = tuple(f"w{i}" for i in range(n_agents))

    def protocol_for(i: int):
        if i < coins:
            return lambda local: Distribution.uniform([0, 1])
        return lambda local: Distribution.point(1)

    def transition(env, locals_map, joint_actions, env_action):
        return env, {a: (locals_map[a] + joint_actions[a]) % modulus for a in agents}

    return ProtocolSystem(
        agents=agents,
        protocols={a: protocol_for(i) for i, a in enumerate(agents)},
        transition=transition,
        initial=Distribution.point(Config(env=None, locals=(0,) * n_agents)),
        horizon=horizon,
    )


def tree_signature(pps: PPS) -> List[Tuple]:
    """Every observable of every node, in pre-order.

    The compile-parity contract in one value: two systems whose
    signatures are equal have identical uid sequences, depths, states,
    edge probabilities, and via-actions — the benchmark and the parity
    suite both compare trees through this.  Edge labels are resolved
    through :meth:`~repro.core.pps.PPS.edge_action`, so a derived
    system's signature shows its overlay, not the parent's raw labels.
    """
    out: List[Tuple] = []
    stack = [pps.root]
    while stack:
        node = stack.pop()
        via = pps.edge_action(node)
        out.append(
            (
                node.uid,
                node.depth,
                node.state,
                node.prob_from_parent,
                dict(via) if via is not None else None,
            )
        )
        stack.extend(reversed(node.children))
    return out


def random_state_fact(seed: int, *, density: float = 0.5) -> Fact:
    """A random past-based fact: a seeded predicate of the global state."""

    def predicate(state: GlobalState) -> bool:
        return _derived_rng(seed, "SF", state.env, state.locals).random() < density

    # The predicate draws from repr(seed), so the key does too (1 and
    # 1.0 are equal keys but different streams).
    return state_fact(
        predicate,
        label=f"random-state-fact({seed})",
        key=("random_state_fact", repr(seed), density),
    )


def random_run_fact(seed: int, *, density: float = 0.5) -> Fact:
    """A random fact about runs: a seeded predicate of the run's path.

    Depends on the *entire* run (future included), so it is generally
    neither past-based nor local-state independent — useful for
    exercising the theorems' premise-failure branches.
    """

    def predicate(pps: PPS, run: Run) -> bool:
        shape = tuple(
            (node.state.env, node.state.locals) for node in run.nodes
        )
        return _derived_rng(seed, "RF", shape).random() < density

    return LambdaRunFact(
        predicate,
        label=f"random-run-fact({seed})",
        key=("random_run_fact", repr(seed), density),
    )


def proper_actions_of(pps: PPS, agent: AgentId) -> List[Action]:
    """All proper actions of ``agent`` in ``pps``, deterministically ordered.

    Served from the system index's action tables (one edge scan per
    system, regardless of how many actions are interrogated).
    """
    from ..core.actions import is_proper
    from ..core.engine import SystemIndex

    index = SystemIndex.of(pps)
    return sorted(
        (
            action
            for action in index.actions_of(agent)
            if is_proper(pps, agent, action)
        ),
        key=repr,
    )
