"""Compile-parity and interning tests for the scaled-up compiler.

The memoized construction (interned states + expansion templates,
PR 3) must be *observationally identical* to the unmemoized one: same
node count, same breadth-first uid sequence, same DFS leaf order, same
exact run measures.  These tests compare the two paths on random
protocol systems, on the message-passing apps, and on hand-written
systems engineered so that configurations recur heavily (the regime
the templates exist for).
"""

import pickle
from fractions import Fraction

import pytest

from repro.analysis.random_systems import (
    random_protocol_spec,
    rotor_spec,
    tree_signature,
)
from repro.apps.consensus import build_consensus
from repro.apps.coordinated_attack import build_coordinated_attack
from repro.core.engine import SystemIndex
from repro.core.pps import GlobalState, InternTable
from repro.protocols import (
    Config,
    Distribution,
    FunctionEnvironment,
    ProtocolSystem,
    compile_system,
)

PARITY_SEEDS = range(18)


def assert_compile_parity(memo, plain):
    assert memo.node_count() == plain.node_count()
    assert tree_signature(memo) == tree_signature(plain)
    # Leaf (run) order and exact measures.
    assert len(memo.runs) == len(plain.runs)
    for a, b in zip(memo.runs, plain.runs):
        assert a.prob == b.prob and isinstance(a.prob, Fraction)
        assert [n.uid for n in a.nodes] == [n.uid for n in b.nodes]
        assert [n.state for n in a.nodes] == [n.state for n in b.nodes]


class TestCompileParity:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_systems_memoized_vs_plain(self, seed):
        kwargs = dict(
            n_agents=1 + seed % 3,
            horizon=2 + seed % 2,
            n_actions=1 + seed % 3,
            mixed_level=(seed % 4) / 3,
        )
        memo = compile_system(random_protocol_spec(seed, **kwargs))
        plain = compile_system(random_protocol_spec(seed, **kwargs), memoize=False)
        assert_compile_parity(memo, plain)

    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            dict(n_agents=3, modulus=2, horizon=3),
            dict(n_agents=4, modulus=3, horizon=4),
            dict(n_agents=2, modulus=5, horizon=5, coins=1),
        ],
    )
    def test_repeated_config_systems(self, spec_kwargs):
        memo = compile_system(rotor_spec(**spec_kwargs))
        plain = compile_system(rotor_spec(**spec_kwargs), memoize=False)
        assert_compile_parity(memo, plain)
        # The whole point: far fewer distinct configs than nodes.
        assert memo.intern.distinct_configs < memo.node_count() / 2

    def test_message_passing_apps(self):
        for memo, plain in [
            (
                build_consensus(n=2, loss="0.1"),
                build_consensus(n=2, loss="0.1", memoize=False),
            ),
            (
                build_coordinated_attack(loss="0.3", ack_rounds=3),
                build_coordinated_attack(loss="0.3", ack_rounds=3, memoize=False),
            ),
        ]:
            assert_compile_parity(memo, plain)

    def test_final_predicate_parity(self):
        def spec():
            return ProtocolSystem(
                agents=["a"],
                protocols={"a": lambda local: Distribution.uniform(["l", "r"])},
                transition=lambda env, locals_map, joint, env_action: (
                    env,
                    {"a": joint["a"]},
                ),
                initial=Distribution.point(Config(env=None, locals=("l",))),
                horizon=4,
                final=lambda env, locals_map, t: locals_map["a"] == "r",
            )

        assert_compile_parity(
            compile_system(spec()), compile_system(spec(), memoize=False)
        )

    def test_environment_branching_parity(self):
        def spec():
            return ProtocolSystem(
                agents=["a", "b"],
                protocols={
                    "a": lambda local: Distribution.uniform([0, 1]),
                    "b": lambda local: 0,
                },
                transition=lambda env, locals_map, joint, env_action: (
                    env_action,
                    {a: (locals_map[a] + joint[a]) % 2 for a in ("a", "b")},
                ),
                initial=Distribution.point(Config(env=0, locals=(0, 0))),
                environment=FunctionEnvironment(
                    lambda env, joint: Distribution.weighted((0, "2/3"), (1, "1/3"))
                ),
                horizon=3,
                record_env_action=True,
            )

        assert_compile_parity(
            compile_system(spec()), compile_system(spec(), memoize=False)
        )

    def test_engine_tables_agree_across_paths(self):
        """The intern-aware index construction matches the by-value one."""
        memo = compile_system(rotor_spec(n_agents=3, modulus=3, horizon=4))
        plain = compile_system(
            rotor_spec(n_agents=3, modulus=3, horizon=4), memoize=False
        )
        assert memo.intern is not None and plain.intern is None
        im, ip = SystemIndex.of(memo), SystemIndex.of(plain)
        for agent in memo.agents:
            assert im.local_states(agent) == ip.local_states(agent)
            for t in range(im.max_time + 1):
                assert dict(im.partition(agent, t)) == dict(ip.partition(agent, t))
            for local in im.local_states(agent):
                assert im.occurrence(agent, local) == ip.occurrence(agent, local)
            assert im.actions_of(agent) == ip.actions_of(agent)


class TestInterning:
    def test_equal_states_are_identical_objects(self):
        pps = compile_system(rotor_spec(n_agents=3, modulus=2, horizon=4))
        by_value = {}
        for node in pps.state_nodes():
            by_value.setdefault(node.state, set()).add(id(node.state))
            for local in node.state.locals:
                by_value.setdefault(("local", local), set()).add(id(local))
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_messaging_states_are_interned(self):
        pps = build_consensus(n=2, loss="0.1")
        assert pps.intern is not None
        seen = {}
        for node in pps.state_nodes():
            seen.setdefault(node.state, set()).add(id(node.state))
        assert all(len(ids) == 1 for ids in seen.values())

    def test_plain_path_attaches_no_table(self):
        pps = compile_system(rotor_spec(horizon=2), memoize=False)
        assert pps.intern is None

    def test_cached_hash_not_pickled(self):
        # Regression (review finding): the cached __hash__ lives in
        # __dict__ and string hashes are salted per process, so a
        # pickled-through instance must drop it and recompute locally.
        for value in (
            GlobalState(env="e", locals=((0, "x"),)),
            Config(env="e", locals=("x",)),
        ):
            hash(value)  # populate the cache
            assert "_hash" in value.__dict__
            restored = pickle.loads(pickle.dumps(value))
            assert "_hash" not in restored.__dict__
            assert restored == value
            assert hash(restored) == hash(value)  # same-process: must agree

    def test_intern_table_counters(self):
        table = InternTable()
        a = table.config(("x", 1))
        b = table.config(("x", 1))
        assert a is b
        assert table.distinct_configs == 1
        s1 = table.stamped_state(a, 0, None, ("x",))
        s2 = table.stamped_state(b, 0, None, ("x",))
        assert s1 is s2
        assert table.distinct_states == 1
        assert table.distinct_locals == 1


class TestTemplateSharing:
    def test_via_mappings_equal_across_stamped_nodes(self):
        """Template-stamped siblings agree on via_action with the plain path."""
        memo = compile_system(rotor_spec(n_agents=2, modulus=2, horizon=3))
        plain = compile_system(
            rotor_spec(n_agents=2, modulus=2, horizon=3), memoize=False
        )
        for a, b in zip(memo.runs, plain.runs):
            for t in a.times():
                for agent in memo.agents:
                    assert a.action_of(agent, t) == b.action_of(agent, t)

    def test_memoized_is_default(self):
        pps = compile_system(rotor_spec(horizon=2))
        assert pps.intern is not None


def gossip_system(channel) -> "MessagePassingSystem":
    """Three agents gossip their bits, then each flips a fair coin.

    Every agent returns a freshly built (equal) coin distribution, so
    the step memo must intern by content; the channel decides per
    message.
    """
    from repro.messaging import (
        FunctionRoundProtocol,
        Message,
        MessagePassingSystem,
        Move,
    )

    agents = ("a", "b", "c")

    def protocol(me):
        def step(local):
            bit, heard, t = local
            if t == 0:
                return Move.sending(
                    *(Message(me, other, bit) for other in agents if other != me)
                )
            return Distribution(
                {Move.acting(("coin", 0)): "1/2", Move.acting(("coin", 1)): "1/2"}
            )

        def update(local, move, delivered):
            bit, heard, t = local
            return (bit, heard + tuple(m.content for m in delivered), t + 1)

        return FunctionRoundProtocol(step, update)

    return MessagePassingSystem(
        agents=agents,
        protocols={agent: protocol(agent) for agent in agents},
        channel=channel,
        initial=Distribution(
            {
                ((0, (), 0), (1, (), 0), (1, (), 0)): "1/3",
                ((1, (), 0), (0, (), 0), (0, (), 0)): "2/3",
            }
        ),
        horizon=2,
        name="gossip",
    )


class TestMessagePassingCompileMemo:
    """The step, joint-move and delivery-pattern memos of the
    message-passing compile keep the tree identical to re-enumeration."""

    def test_consensus_matches_the_re_enumerating_compile(self):
        assert_compile_parity(
            build_consensus(n=3, loss="1/5"),
            build_consensus(n=3, loss="1/5", memoize=False),
        )

    def test_message_dependent_channel_is_asked_per_message(self):
        from repro.messaging import FunctionChannel

        asked = {True: 0, False: 0}
        mode = [True]

        def deliver(message):
            asked[mode[0]] += 1
            return Fraction(1, 2) if message.sender == "a" else Fraction(3, 4)

        memo = gossip_system(FunctionChannel(deliver)).compile()
        mode[0] = False
        plain = gossip_system(FunctionChannel(deliver)).compile(memoize=False)
        assert_compile_parity(memo, plain)
        # Every message of every expanded configuration is still put
        # to the channel; only the pattern product is shared.
        assert asked[True] == asked[False] > 0
        probabilities = {
            node.prob_from_parent
            for run in memo.runs
            for node in run.nodes[1:2]
        }
        assert len(probabilities) > 1

    def test_equal_step_distributions_are_shared(self):
        from repro.messaging import LossyChannel

        memo = gossip_system(LossyChannel("1/3")).compile()
        plain = gossip_system(LossyChannel("1/3")).compile(memoize=False)
        assert_compile_parity(memo, plain)
