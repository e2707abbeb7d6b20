"""Tests for the static invariant analyzer (``repro.tools.check``).

Every rule gets a positive fixture (the rule fires), a negative fixture
(analogous clean code stays silent), and a suppressed fixture (an
inline ``# repro: allow[...]`` silences it).  A meta-test then runs the
analyzer over the live source tree and requires a clean strict pass —
the same gate CI enforces.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.tools import rules as _rules  # noqa: F401  (populates REGISTRY)
from repro.tools import check as check_cli
from repro.tools.framework import (
    CheckConfig,
    Finding,
    ProjectModel,
    REGISTRY,
    active_rules,
    apply_baseline,
    baseline_payload,
    check_source,
    load_baseline,
    render_json,
    render_text,
)

ROOT = Path(__file__).resolve().parents[1]


def run_rule(source, rule, config=None, rel_path="snippet.py", extra=()):
    """Run one rule (or several) over a dedented source snippet."""
    source = textwrap.dedent(source)
    config = config or CheckConfig()
    model = ProjectModel(config)
    try:
        model.add_file(rel_path, ast.parse(source))
    except SyntaxError:
        pass  # check_source reports it as a PARSE error

    for extra_path, extra_source in extra:
        model.add_file(extra_path, ast.parse(textwrap.dedent(extra_source)))
    ids = [rule] if isinstance(rule, str) else list(rule)
    return check_source(source, rel_path, config, model, active_rules(ids))


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# Registry basics
# ---------------------------------------------------------------------------


def test_all_ten_rules_registered():
    assert {
        "RP001",
        "RP002",
        "RP003",
        "RP004",
        "RP005",
        "RP006",
        "RP007",
        "RP008",
        "RP009",
        "RP010",
    } <= set(REGISTRY)
    assert len(REGISTRY) >= 10


def test_active_rules_rejects_unknown_ids():
    with pytest.raises(KeyError):
        active_rules(["RP999"])


# ---------------------------------------------------------------------------
# RP001: float arithmetic in exact-core modules
# ---------------------------------------------------------------------------


def exact_core_config():
    return CheckConfig(exact_core=("snippet.py",), numeric_tiers=())


def test_rp001_fires_on_float_literal_call_and_math():
    result = run_rule(
        """
        import math
        HALF = 0.5
        def f(x):
            return float(x) + math.sqrt(2)
        """,
        "RP001",
        exact_core_config(),
    )
    assert rule_ids(result) == ["RP001", "RP001", "RP001"]


def test_rp001_fires_on_inexact_from_math_import():
    result = run_rule(
        "from math import sqrt\n", "RP001", exact_core_config()
    )
    assert rule_ids(result) == ["RP001"]


def test_rp001_clean_on_exact_arithmetic():
    result = run_rule(
        """
        import math
        from fractions import Fraction
        from math import gcd
        def f(a, b):
            return Fraction(a, b) + math.comb(b, 2) + gcd(a, b)
        """,
        "RP001",
        exact_core_config(),
    )
    assert result.findings == []


def test_rp001_exempts_fstring_display_conversion():
    result = run_rule(
        """
        def show(x):
            return f"{float(x):.6g}"
        """,
        "RP001",
        exact_core_config(),
    )
    assert result.findings == []


def test_rp001_silent_outside_exact_core():
    result = run_rule("HALF = 0.5\n", "RP001", CheckConfig())
    assert result.findings == []


def test_rp001_silent_in_sanctioned_numeric_tier():
    config = CheckConfig(exact_core=("snippet.py",), numeric_tiers=("snippet.py",))
    result = run_rule("HALF = 0.5\n", "RP001", config)
    assert result.findings == []


def test_rp001_suppressed_by_allow_comment():
    result = run_rule(
        "HALF = 0.5  # repro: allow[RP001] display constant\n",
        "RP001",
        exact_core_config(),
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP002: Fact subclasses with an unpaired structural hook
# ---------------------------------------------------------------------------


def test_rp002_fires_on_structure_without_dependence():
    result = run_rule(
        """
        class Half(Fact):
            def _structure(self):
                return ("half",)
        """,
        "RP002",
    )
    assert rule_ids(result) == ["RP002"]
    assert "Half" in result.findings[0].message


def test_rp002_fires_on_dependence_without_structure():
    result = run_rule(
        """
        class Half(Fact):
            def _action_dependence(self):
                return False
        """,
        "RP002",
    )
    assert rule_ids(result) == ["RP002"]


def test_rp002_clean_when_paired_or_fully_inherited():
    result = run_rule(
        """
        class Paired(Fact):
            def _structure(self):
                return ("p",)
            def _action_dependence(self):
                return False

        class Inherited(Fact):
            pass

        class NotAFact:
            def _structure(self):
                return ()
        """,
        "RP002",
    )
    assert result.findings == []


def test_rp002_sees_inheritance_across_files():
    # Middle is defined in another scanned file; Leaf inherits its
    # _structure, so defining only _action_dependence pairs up fine.
    result = run_rule(
        """
        class Leaf(Middle):
            def _action_dependence(self):
                return False
        """,
        "RP002",
        extra=[
            (
                "other.py",
                """
                class Middle(Fact):
                    def _structure(self):
                        return ("m",)
                """,
            )
        ],
    )
    assert result.findings == []


def test_rp002_suppressed_by_comment_block_above_class():
    result = run_rule(
        """
        # repro: allow[RP002] action atom: the conservative default is
        # exactly right for this fact family.
        class Half(Fact):
            def _structure(self):
                return ("half",)
        """,
        "RP002",
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP003: mutation of interned/immutable objects
# ---------------------------------------------------------------------------


def test_rp003_fires_on_method_mutation_of_immutable_class():
    result = run_rule(
        """
        class Node:
            def __init__(self, state):
                self.state = state
            def rewrite(self, state):
                self.state = state
        """,
        "RP003",
    )
    assert rule_ids(result) == ["RP003"]
    assert "rewrite" in result.findings[0].message


def test_rp003_memo_slot_backfill_is_sanctioned():
    result = run_rule(
        """
        class Node:
            def __hash__(self):
                self._hash = 7
                return self._hash
        """,
        "RP003",
    )
    assert result.findings == []


def test_rp003_fires_on_immutable_attr_assignment():
    result = run_rule(
        """
        def relabel(node, via):
            node.via_action = via
        """,
        "RP003",
    )
    assert rule_ids(result) == ["RP003"]


def test_rp003_constructor_assignment_is_clean():
    result = run_rule(
        """
        class Wrapper:
            def __init__(self, node, via):
                node.via_action = via
                self.node = node
        """,
        "RP003",
    )
    assert result.findings == []


def test_rp003_fires_on_object_setattr_outside_ctor():
    result = run_rule(
        """
        class Config:
            def poke(self, value):
                object.__setattr__(self, "env", value)
        """,
        "RP003",
    )
    assert rule_ids(result) == ["RP003"]


def test_rp003_object_setattr_memo_slot_or_ctor_is_clean():
    result = run_rule(
        """
        class Config:
            def __init__(self, env):
                object.__setattr__(self, "env", env)
            def __hash__(self):
                object.__setattr__(self, "_hash", 7)
                return self._hash
        """,
        "RP003",
    )
    assert result.findings == []


def test_rp003_suppressed_by_allow_comment():
    result = run_rule(
        """
        def relabel(node, via):
            # repro: allow[RP003] fresh private copy, not yet published
            node.via_action = via
        """,
        "RP003",
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP004: engine fact-cache discipline
# ---------------------------------------------------------------------------


def engine_config():
    return CheckConfig(engine_modules=("snippet.py",))


def test_rp004_fires_on_unkeyed_and_unrecorded_write():
    result = run_rule(
        """
        class SystemIndex:
            def stash(self, fact):
                entry = self._compute(fact)
                self._belief_cache[entry] = 1
        """,
        "RP004",
        engine_config(),
    )
    # One finding for the missing structural key, one for the missing
    # _action_free record (the cache is inheritable).
    assert rule_ids(result) == ["RP004", "RP004"]


def test_rp004_fires_on_missing_action_free_record_only():
    result = run_rule(
        """
        class SystemIndex:
            def stash(self, fact, value):
                key = self._fact_key(fact)
                self._belief_cache[key] = value
        """,
        "RP004",
        engine_config(),
    )
    assert rule_ids(result) == ["RP004"]
    assert "_note_action_free" in result.findings[0].message


def test_rp004_clean_disciplined_write():
    result = run_rule(
        """
        class SystemIndex:
            def stash(self, fact, value):
                key = self._fact_key(fact)
                self._belief_cache[key] = value
                self._note_action_free(key, fact)
        """,
        "RP004",
        engine_config(),
    )
    assert result.findings == []


def test_rp004_non_inheritable_cache_needs_only_the_key():
    result = run_rule(
        """
        class SystemIndex:
            def stash(self, fact, value):
                key = self._cache_key(fact)
                self._independence_cache[key] = value
        """,
        "RP004",
        engine_config(),
    )
    assert result.findings == []


def test_rp004_blesses_pre_keyed_entries_from_parameter():
    result = run_rule(
        """
        class SystemIndex:
            def flush(self, pending):
                for key, value in pending:
                    self._independence_cache[key] = value
        """,
        "RP004",
        engine_config(),
    )
    assert result.findings == []


def test_rp004_silent_outside_engine_modules():
    result = run_rule(
        """
        class SystemIndex:
            def stash(self, fact):
                entry = self._compute(fact)
                self._belief_cache[entry] = 1
        """,
        "RP004",
        CheckConfig(engine_modules=("somewhere_else.py",)),
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# RP005: nondeterminism sources
# ---------------------------------------------------------------------------


def deterministic_config():
    return CheckConfig(deterministic_modules=("snippet.py",))


def test_rp005_fires_on_id_sort_set_iteration_and_global_rng():
    result = run_rule(
        """
        import random
        def compile_tree(nodes):
            ordered = sorted(nodes, key=id)
            for node in set(nodes):
                random.shuffle(node)
            return ordered
        """,
        "RP005",
        deterministic_config(),
    )
    assert rule_ids(result) == ["RP005", "RP005", "RP005"]


def test_rp005_fires_on_unseeded_random_instance():
    result = run_rule(
        """
        from random import Random
        def shuffler():
            return Random()
        """,
        "RP005",
        deterministic_config(),
    )
    assert rule_ids(result) == ["RP005"]


def test_rp005_clean_deterministic_idioms():
    result = run_rule(
        """
        from random import Random
        def compile_tree(nodes, seed):
            rng = Random(seed)
            ordered = sorted(nodes, key=lambda n: n.uid)
            for node in sorted(set(nodes), key=lambda n: n.uid):
                rng.shuffle(node)
            return ordered
        """,
        "RP005",
        deterministic_config(),
    )
    assert result.findings == []


def test_rp005_silent_outside_deterministic_modules():
    result = run_rule(
        "ordered = sorted([], key=id)\n", "RP005", CheckConfig()
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# RP006: bare asserts
# ---------------------------------------------------------------------------


def test_rp006_fires_on_bare_assert():
    result = run_rule(
        """
        def f(x):
            assert x > 0
            return x
        """,
        "RP006",
    )
    assert rule_ids(result) == ["RP006"]


def test_rp006_clean_on_typed_raise():
    result = run_rule(
        """
        def f(x):
            if x <= 0:
                raise ValueError(f"x must be positive, got {x}")
            return x
        """,
        "RP006",
    )
    assert result.findings == []


def test_rp006_skips_advisory_trees():
    source = "def f(x):\n    assert x > 0\n"
    config = CheckConfig()
    model = ProjectModel(config)
    model.add_file("bench.py", ast.parse(source))
    result = check_source(
        source, "bench.py", config, model, active_rules(["RP006"]), advisory=True
    )
    assert result.findings == []


def test_rp006_suppressed_with_justification():
    result = run_rule(
        """
        def f(x):
            # repro: allow[RP006] internal invariant (type-narrowing)
            assert x is not None
            return x
        """,
        "RP006",
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP007: dropped numeric= knob
# ---------------------------------------------------------------------------

NUMERIC_HELPER = """
def helper(x, numeric="auto"):
    return x
"""


def test_rp007_fires_on_dropped_knob():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def outer(x, numeric="auto"):
            return helper(x)
        """),
        "RP007",
    )
    assert rule_ids(result) == ["RP007"]
    assert "helper" in result.findings[0].message


def test_rp007_clean_when_threaded():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def by_keyword(x, numeric="auto"):
            return helper(x, numeric=numeric)

        def by_position(x, numeric="auto"):
            return helper(x, numeric)

        def by_splat(x, numeric="auto", **kw):
            return helper(x, **kw)
        """),
        "RP007",
    )
    assert result.findings == []


def test_rp007_exempts_mode_decided_branches():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def outer(x, numeric="auto"):
            if numeric == "exact":
                return helper(x)
            return helper(x, numeric=numeric)
        """),
        "RP007",
    )
    assert result.findings == []


def test_rp007_silent_without_numeric_parameter():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def outer(x):
            return helper(x)
        """),
        "RP007",
    )
    assert result.findings == []


def test_rp007_nested_function_charged_to_its_own_scope():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def outer(x, numeric="auto"):
            def inner(y, numeric="auto"):
                return helper(y)
            return inner(x, numeric=numeric)
        """),
        "RP007",
    )
    # Only inner() drops the knob; outer() threads it to inner().
    assert rule_ids(result) == ["RP007"]
    assert "inner()" in result.findings[0].message


def test_rp007_suppressed_by_allow_comment():
    result = run_rule(
        NUMERIC_HELPER
        + textwrap.dedent("""
        def outer(x, numeric="auto"):
            # repro: allow[RP007] mode-independent verdict by contract
            return helper(x)
        """),
        "RP007",
    )
    assert result.findings == []
    assert result.suppressed == 1



# ---------------------------------------------------------------------------
# RP008: nondeterministic shard-combine order
# ---------------------------------------------------------------------------


def shard_config():
    return CheckConfig(shard_modules=("snippet.py",))


def test_rp008_fires_on_set_iteration_in_combine_fold():
    result = run_rule(
        """
        def combine_masks(parts):
            out = 0
            for mask in set(parts):
                out |= mask
            return out
        """,
        "RP008",
        shard_config(),
    )
    assert rule_ids(result) == ["RP008"]
    assert "combine_masks()" in result.findings[0].message


def test_rp008_fires_on_set_comprehension_iterable():
    result = run_rule(
        """
        def merge_errors(parts):
            return [err for err in {p.err for p in parts} if err]
        """,
        "RP008",
        shard_config(),
    )
    assert rule_ids(result) == ["RP008"]
    assert "merge_errors()" in result.findings[0].message


def test_rp008_fires_on_id_keyed_sort():
    result = run_rule(
        """
        def absorb_deltas(deltas):
            for delta in sorted(deltas, key=id):
                delta.apply()
        """,
        "RP008",
        shard_config(),
    )
    assert rule_ids(result) == ["RP008"]
    assert "absorb_deltas()" in result.findings[0].message


def test_rp008_clean_on_index_ordered_folds():
    result = run_rule(
        """
        def combine_totals(parts):
            total = 0
            for part in parts:
                total += part
            return total

        def gather_results(shards):
            return [s.result for s in sorted(shards, key=lambda s: s.index)]
        """,
        "RP008",
        shard_config(),
    )
    assert result.findings == []


def test_rp008_silent_outside_combine_scope():
    # Set iteration in a non-combine helper of a shard module is
    # RP005's business (order of *shard folds* is RP008's only claim).
    result = run_rule(
        """
        def collect(parts):
            return [p for p in set(parts)]
        """,
        "RP008",
        shard_config(),
    )
    assert result.findings == []


def test_rp008_silent_outside_shard_modules():
    result = run_rule(
        """
        def combine_masks(parts):
            for mask in set(parts):
                pass
        """,
        "RP008",
        CheckConfig(),
    )
    assert result.findings == []


def test_rp008_suppressed_by_allow_comment():
    result = run_rule(
        """
        def combine_masks(parts):
            # repro: allow[RP008] masks OR-combine order-insensitively
            for mask in set(parts):
                pass
        """,
        "RP008",
        shard_config(),
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP009: weight-split dependency classification and invalidation order
# ---------------------------------------------------------------------------


def weight_split_config():
    return CheckConfig(weight_split_modules=("snippet.py",))


WEIGHT_SPLIT_TABLES = """
class SystemIndex:
    DEPENDENCY_CLASS = {"_weights": "weight", "run_count": "shape"}
    BOOKKEEPING_ATTRS = frozenset({"pps"})
"""


def test_rp009_fires_on_unclassified_attribute():
    result = run_rule(
        WEIGHT_SPLIT_TABLES
        + textwrap.dedent("""
            def __init__(self, pps):
                self.pps = pps
                self._weights = [1]
                self._mystery_cache = {}
        """).replace("\n", "\n    "),
        "RP009",
        weight_split_config(),
    )
    assert rule_ids(result) == ["RP009"]
    assert "_mystery_cache" in result.findings[0].message


def test_rp009_fires_on_set_iteration_in_derived_path():
    result = run_rule(
        WEIGHT_SPLIT_TABLES
        + textwrap.dedent("""
            def derived(cls, pps, parent):
                for attr in {"_weights", "run_count"}:
                    pass
        """).replace("\n", "\n    "),
        "RP009",
        weight_split_config(),
    )
    assert rule_ids(result) == ["RP009"]
    assert "derived()" in result.findings[0].message


def test_rp009_fires_on_id_sort_in_invalidation_path():
    result = run_rule(
        """
        def invalidate_measures(index, caches):
            for cache in sorted(caches, key=id):
                cache.clear()
        """,
        "RP009",
        weight_split_config(),
    )
    assert rule_ids(result) == ["RP009"]
    assert "invalidate_measures()" in result.findings[0].message


def test_rp009_clean_on_classified_attrs_and_table_iteration():
    result = run_rule(
        WEIGHT_SPLIT_TABLES
        + textwrap.dedent("""
            def __init__(self, pps):
                self.pps = pps
                self._weights = [1]

            def derived(cls, pps, parent):
                for attr, kind in cls.DEPENDENCY_CLASS.items():
                    pass
        """).replace("\n", "\n    "),
        "RP009",
        weight_split_config(),
    )
    assert result.findings == []


def test_rp009_attr_check_needs_the_declaring_class():
    # A class without the dependency tables (another module's helper)
    # is outside half (a)'s claim; only marked functions are checked.
    result = run_rule(
        """
        class Helper:
            def __init__(self):
                self._scratch = {}
        """,
        "RP009",
        weight_split_config(),
    )
    assert result.findings == []


def test_rp009_silent_outside_weight_split_modules():
    result = run_rule(
        WEIGHT_SPLIT_TABLES
        + textwrap.dedent("""
            def __init__(self, pps):
                self._mystery_cache = {}
        """).replace("\n", "\n    "),
        "RP009",
        CheckConfig(),
    )
    assert result.findings == []


def test_rp009_suppressed_by_allow_comment():
    result = run_rule(
        WEIGHT_SPLIT_TABLES
        + textwrap.dedent("""
            def __init__(self, pps):
                # repro: allow[RP009] scratch slot, never seen by derived()
                self._scratch = {}
        """).replace("\n", "\n    "),
        "RP009",
        weight_split_config(),
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP010: silent degradation on the execution stack
# ---------------------------------------------------------------------------


def execution_config():
    return CheckConfig(execution_modules=("snippet.py",))


def test_rp010_fires_on_silent_broad_except():
    result = run_rule(
        """
        def scan_leaves(index, leaves):
            try:
                return parallel_scan(index, leaves)
            except Exception:
                return serial_scan(index, leaves)
        """,
        "RP010",
        execution_config(),
    )
    assert rule_ids(result) == ["RP010"]
    assert "except Exception" in result.findings[0].message


def test_rp010_fires_on_bare_except_and_broad_tuple():
    result = run_rule(
        """
        def fallback(task):
            try:
                return task()
            except:
                return None

        def fallback2(task):
            try:
                return task()
            except (ValueError, BaseException):
                return None
        """,
        "RP010",
        execution_config(),
    )
    assert rule_ids(result) == ["RP010", "RP010"]
    assert "bare except" in result.findings[0].message


def test_rp010_clean_when_degradation_is_recorded():
    result = run_rule(
        """
        def scan_leaves(index, leaves):
            try:
                return parallel_scan(index, leaves)
            except Exception as error:
                record_degradation(
                    "execution", "parallel", "serial", "worker-failed",
                    repr(error),
                )
                return serial_scan(index, leaves)

        def retried(pool, chunk):
            try:
                return pool.submit(chunk)
            except Exception as error:
                faults.record_retry("submit", 0, 0, error)
                raise
        """,
        "RP010",
        execution_config(),
    )
    assert result.findings == []


def test_rp010_clean_on_reraise_and_narrow_excepts():
    result = run_rule(
        """
        def narrow(task):
            try:
                return task()
            except (OSError, ValueError):
                return None

        def reraised(task):
            try:
                return task()
            except Exception:
                raise RuntimeError("wrapped")
        """,
        "RP010",
        execution_config(),
    )
    assert result.findings == []


def test_rp010_silent_outside_execution_modules():
    result = run_rule(
        """
        def helper(task):
            try:
                return task()
            except Exception:
                return None
        """,
        "RP010",
        CheckConfig(),
    )
    assert result.findings == []


def test_rp010_suppressed_by_allow_comment():
    result = run_rule(
        """
        def probe(fact):
            try:
                pickle.dumps(fact)
            except Exception:  # repro: allow[RP010] probe only, caller records
                return None
        """,
        "RP010",
        execution_config(),
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP011: closure facts without a declared key
# ---------------------------------------------------------------------------


def keyed_fact_config():
    return CheckConfig(keyed_fact_scope=("snippet.py",), keyed_fact_exempt=())


def test_rp011_fires_on_keyless_closure_facts():
    result = run_rule(
        """
        def agreement(n):
            return LambdaRunFact(lambda pps, run: True, label="agreement")

        def guilty():
            return local_fact("witness", lambda local: True, key=None)

        def phi(seed):
            return atoms.state_fact(lambda state: seed > 0)
        """,
        "RP011",
        keyed_fact_config(),
    )
    assert rule_ids(result) == ["RP011", "RP011", "RP011"]
    assert "LambdaRunFact(...)" in result.findings[0].message


def test_rp011_clean_when_keyed_or_written_with_atoms():
    result = run_rule(
        """
        def agreement(n):
            return Or(performed("a", 0), performed("b", 0))

        def guilty():
            return local_fact("witness", check, label="guilty", key="guilty")

        def forwarded(**options):
            return state_fact(check, **options)
        """,
        "RP011",
        keyed_fact_config(),
    )
    assert result.findings == []


def test_rp011_exempts_the_fact_modules_and_non_library_code():
    source = """
        def env_fact(predicate):
            return StateFact(lambda state: predicate(state.env))
        """
    exempt = CheckConfig(
        keyed_fact_scope=("snippet.py",), keyed_fact_exempt=("snippet.py",)
    )
    assert run_rule(source, "RP011", exempt).findings == []
    assert run_rule(source, "RP011", CheckConfig()).findings == []


def test_rp011_suppressed_by_allow_comment():
    result = run_rule(
        """
        def probe():
            # repro: allow[RP011] one-shot fact, never rebuilt
            return LambdaFact(lambda pps, run, t: True)
        """,
        "RP011",
        keyed_fact_config(),
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RP012: per-bit mask walks outside the decode primitive
# ---------------------------------------------------------------------------


def test_rp012_fires_on_per_bit_walks():
    result = run_rule(
        """
        def total(mask, weights):
            out = 0
            while mask:
                lsb = mask & -mask
                out += weights[lsb.bit_length() - 1]
                mask ^= lsb
            return out

        def positions(m):
            while m:
                yield (-m & m).bit_length() - 1
                m &= m - 1
        """,
        "RP012",
    )
    assert rule_ids(result) == ["RP012", "RP012"]
    assert "bit_positions" in result.findings[0].message


def test_rp012_clean_on_single_lowest_bit_and_other_loops():
    result = run_rule(
        """
        def lowest(mask):
            return (mask & -mask).bit_length() - 1

        def lows(masks):
            return [(m & -m).bit_length() - 1 for m in masks]

        def countdown(n, mask):
            while n:
                low = mask & -mask
                n -= 1
            return low
        """,
        "RP012",
    )
    assert result.findings == []


def test_rp012_exempts_the_decode_module():
    source = """
        def bit_positions(mask):
            while mask:
                lsb = mask & -mask
                mask ^= lsb
        """
    config = CheckConfig(mask_decode_modules=("snippet.py",))
    assert run_rule(source, "RP012", config).findings == []


def test_rp012_suppressed_by_allow_comment():
    result = run_rule(
        """
        def walk(mask):
            while mask:
                # repro: allow[RP012] masks here have at most two bits
                lsb = mask & -mask
                mask ^= lsb
        """,
        "RP012",
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# Suppression machinery
# ---------------------------------------------------------------------------


def test_unused_allow_comment_is_reported():
    result = run_rule(
        "x = 1  # repro: allow[RP006] nothing here\n", "RP006"
    )
    assert result.findings == []
    assert result.unused_allows == [("snippet.py", 1)]


def test_docstring_mention_of_allow_syntax_is_inert():
    result = run_rule(
        '''
        """Suppress findings with ``# repro: allow[RP006] why``."""

        def f(x):
            assert x
        ''',
        "RP006",
    )
    # The docstring neither suppresses the assert nor registers as an
    # unused allow comment.
    assert rule_ids(result) == ["RP006"]
    assert result.unused_allows == []


def test_wildcard_allow_suppresses_any_rule():
    result = run_rule(
        """
        def f(x):
            assert x  # repro: allow[*] fixture escape hatch
        """,
        "RP006",
    )
    assert result.findings == []
    assert result.suppressed == 1


def test_syntax_error_becomes_parse_finding():
    result = run_rule("def broken(:\n", "RP006")
    assert result.findings == []
    assert [finding.rule for finding in result.errors] == ["PARSE"]


# ---------------------------------------------------------------------------
# Baseline machinery
# ---------------------------------------------------------------------------


def test_baseline_roundtrip_ignores_line_drift(tmp_path):
    finding = Finding("RP006", "pkg/mod.py", 10, "bare assert ...")
    path = tmp_path / "baseline.json"
    path.write_text(baseline_payload([finding]), encoding="utf-8")
    baseline = load_baseline(path)
    moved = Finding("RP006", "pkg/mod.py", 99, "bare assert ...")
    changed = Finding("RP006", "pkg/mod.py", 10, "different message")
    fresh, grandfathered = apply_baseline([moved, changed], baseline)
    assert fresh == [changed]
    assert grandfathered == 1


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def make_results():
    strict = run_rule("def f(x):\n    assert x\n", "RP006")
    advisory = run_rule(
        "def g(node, via):\n    node.via_action = via\n", "RP003"
    )
    for finding in advisory.findings:
        object.__setattr__(finding, "advisory", True)
    return strict, advisory


def test_render_text_layout():
    strict, advisory = make_results()
    text = render_text(strict, advisory, active_rules(["RP003", "RP006"]))
    assert "snippet.py:2: RP006" in text
    assert "advisory (non-blocking):" in text
    assert "1 finding(s)" in text and "1 advisory" in text


def test_render_json_is_machine_readable():
    strict, advisory = make_results()
    payload = json.loads(
        render_json(strict, advisory, active_rules(["RP003", "RP006"]))
    )
    assert payload["findings"][0]["rule"] == "RP006"
    assert payload["advisory"][0]["rule"] == "RP003"
    assert {entry["id"] for entry in payload["rules"]} == {"RP003", "RP006"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def make_repo(tmp_path, source, *, bench=None):
    tree = tmp_path / "src" / "repro"
    tree.mkdir(parents=True)
    (tree / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    if bench is not None:
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench.py").write_text(
            textwrap.dedent(bench), encoding="utf-8"
        )
    return tmp_path


def test_cli_strict_exit_codes(tmp_path, capsys):
    root = make_repo(tmp_path, "def f(x):\n    assert x\n")
    assert check_cli.main(["--root", str(root)]) == 0
    assert check_cli.main(["--root", str(root), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:2: RP006" in out


def test_cli_clean_tree_exits_zero(tmp_path):
    root = make_repo(tmp_path, "def f(x):\n    return x\n")
    assert check_cli.main(["--root", str(root), "--strict"]) == 0


def test_cli_advisory_findings_do_not_block(tmp_path, capsys):
    root = make_repo(
        tmp_path,
        "def f(x):\n    return x\n",
        bench="def g(node, via):\n    node.via_action = via\n",
    )
    assert check_cli.main(["--root", str(root), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "advisory (non-blocking):" in out
    assert "benchmarks/bench.py:2: RP003" in out


def test_cli_write_baseline_grandfathers_findings(tmp_path, capsys):
    root = make_repo(tmp_path, "def f(x):\n    assert x\n")
    assert check_cli.main(["--root", str(root), "--write-baseline"]) == 0
    baseline = root / check_cli.BASELINE_NAME
    assert baseline.exists()
    capsys.readouterr()
    assert check_cli.main(["--root", str(root), "--strict"]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    root = make_repo(tmp_path, "def f(x):\n    assert x\n")
    assert check_cli.main(["--root", str(root), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "RP006"


def test_cli_rule_selection_and_listing(tmp_path, capsys):
    root = make_repo(tmp_path, "def f(x):\n    assert x\n")
    assert (
        check_cli.main(["--root", str(root), "--strict", "--rules", "RP001"])
        == 0
    )
    assert check_cli.main(["--rules", "RP999"]) == 2
    capsys.readouterr()
    assert check_cli.main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in ("RP001", "RP008"):
        assert rule_id in listed


def test_cli_parse_error_exits_two(tmp_path):
    root = make_repo(tmp_path, "def broken(:\n")
    assert check_cli.main(["--root", str(root)]) == 2


# ---------------------------------------------------------------------------
# Meta: the live tree passes its own gate
# ---------------------------------------------------------------------------


def test_live_tree_passes_strict_analyzer(capsys):
    exit_code = check_cli.main(["--root", str(ROOT), "--strict"])
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "0 finding(s)" in output
    assert "12 rule(s) active" in output


def test_committed_baseline_ships_empty():
    baseline = ROOT / check_cli.BASELINE_NAME
    assert baseline.exists()
    assert json.loads(baseline.read_text(encoding="utf-8")) == {"findings": []}
