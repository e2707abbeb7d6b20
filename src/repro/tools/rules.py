"""The invariant rules of ``repro.tools.check`` (RP001–RP012).

Each rule enforces one hand-maintained invariant the layered engine
depends on; the catalogue with rationale lives in
``docs/static-analysis.md``, the invariants themselves are recorded in
``docs/engine.md``, ``docs/transforms.md`` and ``docs/numerics.md``.
Rules are heuristic AST checks, not type inference: they are tuned so
that every firing is worth a human look, and intentional exceptions
are annotated in place with ``# repro: allow[RPnnn] <why>``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import FileContext, Finding, Rule, register

__all__ = [
    "FloatInExactCore",
    "FactStructuralPair",
    "ImmutableMutation",
    "EngineCacheDiscipline",
    "NondeterminismSource",
    "BareAssert",
    "NumericKnobDropped",
    "ShardCombineOrder",
    "WeightSplitDiscipline",
    "SilentDegradation",
    "KeylessClosureFact",
    "PerBitMaskWalk",
]


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare callee name of a call (``f(...)`` or ``obj.f(...)``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


_CTOR_METHODS = ("__init__", "__post_init__", "__new__")


def _in_constructor(ctx: FileContext, node: ast.AST) -> bool:
    enclosing = ctx.enclosing_function(node)
    return enclosing is not None and enclosing.name in _CTOR_METHODS


# ---------------------------------------------------------------------------
# RP001
# ---------------------------------------------------------------------------


@register
class FloatInExactCore(Rule):
    """Float arithmetic inside exact-core modules.

    The engine's guarantee (``docs/numerics.md``) is that every verdict
    is exact-rational; floats are confined to the sanctioned numeric
    tiers (``lazyprob``/``arraykernel``/``numeric``), which carry
    certified error bounds.  A stray float literal, ``float()`` call,
    or inexact ``math.*`` use anywhere else silently degrades verdicts
    instead of crashing.  ``float()`` applied directly inside an
    f-string substitution is exempt: conversion at the formatting
    boundary is display-only and cannot reach a comparison.
    """

    id = "RP001"
    title = "float arithmetic in exact-core module"
    interests = (ast.Constant, ast.Call, ast.Attribute, ast.ImportFrom)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.config.is_exact_core(ctx.rel_path)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                yield self.finding(
                    ctx,
                    node,
                    f"float literal {node.value!r} in an exact-core module; "
                    "exact verdicts must stay in Fraction/int arithmetic "
                    "(floats belong to the lazyprob/arraykernel tiers)",
                )
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                if isinstance(ctx.parent(node), ast.FormattedValue):
                    return  # display-only conversion inside an f-string
                yield self.finding(
                    ctx,
                    node,
                    "float() conversion in an exact-core module; only the "
                    "sanctioned numeric tiers may leave exact arithmetic",
                )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in ctx.config.exact_math
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"math.{node.attr} in an exact-core module is inexact "
                    "on rationals; use exact integer/Fraction arithmetic",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "math":
                for alias in node.names:
                    if alias.name not in ctx.config.exact_math:
                        yield self.finding(
                            ctx,
                            node,
                            f"from math import {alias.name} in an exact-core "
                            "module; only integer-exact math functions "
                            f"({', '.join(ctx.config.exact_math)}) are "
                            "sanctioned",
                        )


# ---------------------------------------------------------------------------
# RP002
# ---------------------------------------------------------------------------


@register
class FactStructuralPair(Rule):
    """Fact subclasses must keep ``_structure``/``_action_dependence`` paired.

    The engine keys its memo caches on ``Fact.structural_key()`` and
    decides derived-index cache inheritance by
    ``Fact.mentions_actions()`` (``docs/engine.md``,
    ``docs/transforms.md``).  Both derive from overridable hooks; a
    subclass that declares one hook and silently inherits the other has
    usually not *decided* the other — which is how a structurally
    shared cache entry ends up inherited by a derived system whose
    labels changed its truth value.  Classes where the inherited
    default is genuinely correct say so with an inline allow.
    """

    id = "RP002"
    title = "Fact subclass with unpaired _structure/_action_dependence"
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.ClassDef):
            return
        model = ctx.model
        if node.name in ctx.config.fact_bases:
            return
        if not model.is_fact_subclass(node.name):
            return
        has_structure = model.defines_method(node.name, "_structure")
        has_dependence = model.defines_method(node.name, "_action_dependence")
        if has_structure and not has_dependence:
            yield self.finding(
                ctx,
                node,
                f"Fact subclass {node.name} defines _structure() (structural "
                "cache sharing) but not _action_dependence(); derived-index "
                "inheritance falls back to the conservative default — "
                "define it, or allow[] with why the default is correct",
            )
        elif has_dependence and not has_structure:
            yield self.finding(
                ctx,
                node,
                f"Fact subclass {node.name} defines _action_dependence() but "
                "not _structure(); its cache entries stay identity-keyed "
                "while claiming a sharing property — define _structure(), "
                "or allow[] with why identity keying is intended",
            )


# ---------------------------------------------------------------------------
# RP003
# ---------------------------------------------------------------------------


@register
class ImmutableMutation(Rule):
    """Attribute assignment on interned/immutable objects after construction.

    Engine indices and intern tables are "never invalidated"
    (``docs/engine.md``): that is sound only while ``Node``/``Config``/
    ``GlobalState``/``Fact`` instances stay frozen after ``__init__``.
    A post-construction assignment silently stales every cache keyed on
    the object.  Declared memo slots (cached hashes, cached structural
    keys) are the sanctioned exception; construction-phase mutation of
    freshly copied private trees gets an inline allow.
    """

    id = "RP003"
    title = "mutation of interned/immutable object outside construction"
    interests = (ast.ClassDef, ast.Assign, ast.AugAssign, ast.Call)

    def _is_immutable_class(self, name: str, ctx: FileContext) -> bool:
        return name in ctx.config.immutable_classes or ctx.model.is_fact_subclass(
            name
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(node, ctx)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            yield from self._check_assign(node, ctx)
        elif isinstance(node, ast.Call):
            yield from self._check_setattr(node, ctx)

    # -- self.x = ... inside methods of immutable classes --------------

    def _check_class(self, node: ast.ClassDef, ctx: FileContext) -> Iterator[Finding]:
        if not self._is_immutable_class(node.name, ctx):
            return
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CTOR_METHODS:
                continue
            for sub in ast.walk(item):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    for target in self._targets(sub):
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr not in ctx.config.memo_slots
                        ):
                            yield self.finding(
                                ctx,
                                sub,
                                f"{node.name}.{item.name} assigns "
                                f"self.{target.attr} outside __init__/"
                                "__post_init__ on an interned/immutable "
                                "class; memo caches keyed on the instance "
                                "go silently stale",
                            )

    @staticmethod
    def _targets(node) -> Sequence[ast.AST]:
        return node.targets if isinstance(node, ast.Assign) else [node.target]

    # -- <expr>.via_action = ... anywhere -------------------------------

    def _check_assign(self, node, ctx: FileContext) -> Iterator[Finding]:
        if _in_constructor(ctx, node):
            return
        for target in self._targets(node):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in ctx.config.immutable_attrs
            ):
                # self.x inside immutable-class methods is reported by
                # _check_class with the class context; everything else
                # (node.via_action = ..., state.env = ...) lands here.
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"assignment to .{target.attr} mutates an interned/"
                    "immutable tree object after construction; build a new "
                    "node or record an overlay instead (docs/transforms.md)",
                )

    # -- object.__setattr__ escapes -------------------------------------

    def _check_setattr(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            return
        if _in_constructor(ctx, node):
            return
        enclosing = ctx.enclosing_function(node)
        if enclosing is not None and enclosing.name in ("__setstate__", "__getstate__"):
            return
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            attr = node.args[1].value
            if isinstance(attr, str) and attr in ctx.config.memo_slots:
                return
            label = f"object.__setattr__(..., {attr!r}, ...)"
        else:
            label = "object.__setattr__ with a dynamic attribute"
        yield self.finding(
            ctx,
            node,
            f"{label} outside construction bypasses immutability on a "
            "frozen instance; only declared memo slots "
            f"({', '.join(ctx.config.memo_slots)}) may backfill",
        )


# ---------------------------------------------------------------------------
# RP004
# ---------------------------------------------------------------------------


@register
class EngineCacheDiscipline(Rule):
    """Engine fact-cache writes must stay structurally keyed and recorded.

    Every fact-keyed memo cache of ``SystemIndex`` keys on
    ``Fact.structural_key()`` (via ``_fact_key``/``_cache_key``), and
    the *inheritable* caches additionally record ``_action_free`` at
    every write — that record is exactly what a derived index copies
    (``docs/transforms.md``).  A write that skips either step poisons
    structural sharing or derived-system inheritance without failing a
    single direct test.  The check is function-scoped: a function that
    writes such a cache must derive a key (or receive pre-keyed entries
    through a parameter) and, for inheritable caches, must call the
    recorder.
    """

    id = "RP004"
    title = "engine fact-cache write without key/action-free discipline"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.engine_modules)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        config = ctx.config
        inheritable = set(config.inheritable_fact_caches)
        fact_keyed = inheritable | set(config.fact_keyed_caches)

        params = {arg.arg for arg in node.args.args}
        params |= {arg.arg for arg in node.args.kwonlyargs}
        params |= {arg.arg for arg in node.args.posonlyargs}

        aliases: Set[str] = set()  # locals holding a fact-cache mapping
        keying_called = False
        recorder_called = False
        param_derived: Set[str] = set(params)
        writes: List[Tuple[ast.Assign, str, bool]] = []

        def cache_reference(expr: ast.AST) -> Optional[Tuple[str, bool]]:
            """(cache name, inheritable?) when expr denotes a fact cache."""
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Attribute):
                    if sub.attr in fact_keyed:
                        return sub.attr, sub.attr in inheritable
                    if sub.attr in config.cache_accessors:
                        return sub.attr, True
            return None

        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = _call_name(sub)
                if name in config.key_derivers:
                    keying_called = True
                if name in config.action_free_recorders:
                    recorder_called = True
            elif isinstance(sub, ast.For):
                # Loop targets fed from a parameter carry pre-keyed
                # entries (the caller derived the keys).
                if _names_in(sub.iter) & param_derived:
                    param_derived |= _names_in(sub.target)
            elif isinstance(sub, ast.Assign):
                targets = sub.targets
                if (
                    len(targets) == 1
                    and isinstance(targets[0], ast.Name)
                    and cache_reference(sub.value) is not None
                ):
                    aliases.add(targets[0].id)
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        container = target.value
                        ref = cache_reference(container)
                        if ref is None and (
                            isinstance(container, ast.Name)
                            and container.id in aliases
                        ):
                            ref = (container.id, True)
                        if ref is not None:
                            writes.append((sub, ref[0], ref[1]))

        for write, cache_name, is_inheritable in writes:
            target = write.targets[0]
            key_expr = target.slice if isinstance(target, ast.Subscript) else target
            key_names = _names_in(key_expr)
            if not keying_called and not (key_names and key_names <= param_derived):
                yield self.finding(
                    ctx,
                    write,
                    f"write to fact-keyed cache {cache_name} without a "
                    "structural key: derive the key via _fact_key()/"
                    "_cache_key()/structural_key() (or receive pre-keyed "
                    "entries through a parameter)",
                )
            if is_inheritable and not recorder_called:
                yield self.finding(
                    ctx,
                    write,
                    f"write to inheritable fact cache {cache_name} without "
                    "recording _action_free (_note_action_free); derived "
                    "indices inherit exactly the recorded entries "
                    "(docs/transforms.md)",
                )


# ---------------------------------------------------------------------------
# RP005
# ---------------------------------------------------------------------------


@register
class NondeterminismSource(Rule):
    """Nondeterminism in compiler/engine paths.

    Compiled trees pin their uid sequences, leaf orders, and cache keys
    across processes (``docs/compiler.md`` determinism tests).  Sorting
    by ``id()``, iterating a set into ordered output, or drawing from
    the process-global unseeded RNG makes those artifacts
    allocation-/hash-seed-dependent — bugs that only reproduce on some
    runs.
    """

    id = "RP005"
    title = "nondeterminism source in deterministic compiler/engine path"
    interests = (ast.Call, ast.For, ast.Attribute)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.deterministic_modules)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_call(node, ctx)
        elif isinstance(node, ast.For):
            if isinstance(node.iter, ast.Set) or (
                isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id in ("set", "frozenset")
            ):
                yield self.finding(
                    ctx,
                    node,
                    "iterating a set in a deterministic path: iteration "
                    "order is hash-dependent; sort it (or iterate a list/"
                    "dict, which preserve insertion order)",
                )
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "random":
                yield self.finding(
                    ctx,
                    node,
                    f"random.{node.attr} uses the process-global unseeded "
                    "RNG in a deterministic path; take an explicit seeded "
                    "random.Random parameter instead",
                )

    def _check_call(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_name(node)
        if name in ("sorted", "sort"):
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (isinstance(value, ast.Name) and value.id == "id") or any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value)
                )
                if uses_id:
                    yield self.finding(
                        ctx,
                        node,
                        "sort keyed on id() orders by allocation address — "
                        "nondeterministic across processes; key on a stable "
                        "attribute (uid, depth, name) instead",
                    )
        elif name == "Random" and not node.args and not node.keywords:
            yield self.finding(
                ctx,
                node,
                "Random() without a seed in a deterministic path; pass an "
                "explicit seed (or accept a seeded Random parameter)",
            )


# ---------------------------------------------------------------------------
# RP006
# ---------------------------------------------------------------------------


@register
class BareAssert(Rule):
    """Bare ``assert`` statements in library code.

    Asserts vanish under ``python -O``, so a precondition they guard
    becomes silently unchecked in optimized deployments — and their
    failure raises a bare ``AssertionError`` no caller can usefully
    catch.  User-facing preconditions belong in typed exceptions from
    ``repro.core.errors`` naming the offending object; genuinely
    internal invariants (unreachable via the public API) keep the
    assert with an inline allow stating why.
    """

    id = "RP006"
    title = "bare assert in library code"
    interests = (ast.Assert,)

    def applies_to(self, ctx: FileContext) -> bool:
        # Benchmarks/examples use asserts as their enforcement gates;
        # the rule is about the importable library tree.
        return not ctx.advisory

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        yield self.finding(
            ctx,
            node,
            "bare assert vanishes under python -O; raise a typed error "
            "from repro.core.errors naming the offending object, or "
            "allow[] with why this is an internal invariant",
        )


# ---------------------------------------------------------------------------
# RP007
# ---------------------------------------------------------------------------


@register
class NumericKnobDropped(Rule):
    """``numeric=``-accepting functions must thread the knob to callees.

    The two-tier kernel's contract (``docs/numerics.md``) is that one
    ``numeric="auto"`` knob flips a whole computation onto the float
    fast path; a consumer that accepts the knob but calls a
    numeric-aware callee without forwarding it silently pins that
    subtree to exact mode (a performance bug) — or, worse, mixes modes
    across a comparison.  Calls inside a branch whose condition tests
    ``numeric`` are exempt: the author demonstrably dispatched on the
    mode, so pinning the callee is the point of the branch.  Other
    intentional drops (mode-independent verdicts, guard overrides) say
    so with an inline allow.
    """

    id = "RP007"
    title = "numeric= knob accepted but not threaded to callee"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def _mode_decided(call: ast.Call, scope: ast.AST, ctx: FileContext) -> bool:
        """True when the call sits under an if/ternary that tests numeric."""
        current: Optional[ast.AST] = call
        while current is not None and current is not scope:
            current = ctx.parent(current)
            if isinstance(current, (ast.If, ast.IfExp)):
                if "numeric" in _names_in(current.test):
                    return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        arg_names = {arg.arg for arg in node.args.args}
        arg_names |= {arg.arg for arg in node.args.kwonlyargs}
        arg_names |= {arg.arg for arg in node.args.posonlyargs}
        if "numeric" not in arg_names:
            return
        # Nested functions with their own numeric parameter are visited
        # separately; skip their bodies here so calls are not charged to
        # the wrong scope.
        nested_with_numeric = [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not node
            and any(
                arg.arg == "numeric"
                for arg in (
                    *sub.args.args,
                    *sub.args.kwonlyargs,
                    *sub.args.posonlyargs,
                )
            )
        ]
        skip: Set[int] = set()
        for nested in nested_with_numeric:
            for sub in ast.walk(nested):
                skip.add(id(sub))
        for sub in ast.walk(node):
            if id(sub) in skip or not isinstance(sub, ast.Call):
                continue
            callee = _call_name(sub)
            if callee is None:
                continue
            # Self-recursion is checked like any other call: a recursive
            # step that drops the knob pins the rest of the computation.
            if self._mode_decided(sub, node, ctx):
                continue
            if ctx.model.numeric_threaded(sub, callee) is False:
                yield self.finding(
                    ctx,
                    sub,
                    f"call to numeric-aware {callee}() drops the numeric= "
                    "knob accepted by "
                    f"{node.name}(); forward numeric=numeric, or allow[] "
                    "with why this callee is intentionally mode-pinned",
                )


# ---------------------------------------------------------------------------
# RP008
# ---------------------------------------------------------------------------

# Function names that mark a shard-combine implementation: the folds
# whose iteration order the bit-identity guarantee depends on.
_COMBINE_MARKERS = ("combine", "merge", "absorb", "fold", "gather")


@register
class ShardCombineOrder(Rule):
    """Shard-combine folds must iterate partial results in fixed order.

    The sharded executor's bit-identity guarantee (``docs/sharding.md``)
    rests on folding per-shard partial results in ascending shard
    order: disjoint masks and integer totals are order-insensitive,
    but float error envelopes, first-error short-circuits, and
    ``NumericStats`` absorption are not.  A combine/merge/absorb
    implementation that iterates a set (hash order) or sorts by
    ``id()`` (allocation address) produces answers that differ across
    processes, hash seeds, and reruns — exactly the class of bug the
    differential harness exists to catch.
    """

    id = "RP008"
    title = "shard-combine fold iterates in nondeterministic order"
    interests = (ast.For, ast.Call, ast.comprehension)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.shard_modules)

    @staticmethod
    def _combine_scope(node: ast.AST, ctx: FileContext) -> Optional[str]:
        """Name of an enclosing combine-marked function, if any.

        Helpers nested inside a combine function still shape its fold
        order, so every enclosing function is checked, not just the
        nearest one.
        """
        current: Optional[ast.AST] = node
        while current is not None:
            current = ctx.parent(current)
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = current.name.lower()
                if any(marker in name for marker in _COMBINE_MARKERS):
                    return current.name
        return None

    @staticmethod
    def _unordered_iterable(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            scope = self._combine_scope(node, ctx)
            if scope is not None and self._unordered_iterable(node.iter):
                yield self.finding(
                    ctx,
                    node,
                    f"{scope}() folds shard results by iterating a set: "
                    "hash order varies across processes and seeds, "
                    "breaking bit-identical combination; fold shards in "
                    "ascending shard-index order (list/tuple)",
                )
        elif isinstance(node, ast.comprehension):
            # ``ast.comprehension`` carries no position; anchor the
            # finding on its iterable expression instead.
            scope = self._combine_scope(node.iter, ctx)
            if scope is not None and self._unordered_iterable(node.iter):
                yield self.finding(
                    ctx,
                    node.iter,
                    f"{scope}() folds shard results by iterating a set: "
                    "hash order varies across processes and seeds, "
                    "breaking bit-identical combination; fold shards in "
                    "ascending shard-index order (list/tuple)",
                )
        elif isinstance(node, ast.Call):
            if _call_name(node) not in ("sorted", "sort"):
                return
            scope = self._combine_scope(node, ctx)
            if scope is None:
                return
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value)
                )
                if uses_id:
                    yield self.finding(
                        ctx,
                        node,
                        f"{scope}() orders shard results by id() — "
                        "allocation addresses differ across processes, "
                        "so the fold order is nondeterministic; key on "
                        "the shard index instead",
                    )


# ---------------------------------------------------------------------------
# RP009
# ---------------------------------------------------------------------------


@register
class WeightSplitDiscipline(Rule):
    """Engine state must carry a dependency class; reweight paths fold fixed.

    The weight-split layer (``docs/transforms.md``) derives a
    reweighted index by consulting ``DEPENDENCY_CLASS``: every
    shape-dependent structure is inherited by reference, every
    weight-dependent one rebuilt or dropped.  That is sound only while
    the classification is *exhaustive* — an instance attribute the
    table does not mention is invisible to ``derived()`` and silently
    inherited with stale weights.  So (a) every attribute assigned on
    the index inside the class that declares the tables must appear in
    a dependency table or the bookkeeping set, and (b) the
    derived-inheritance / reweight-invalidation functions (matched by
    name marker) must never iterate a set or sort by ``id()`` — which
    caches are dropped, and in what order entries are copied, must not
    depend on hash seeds or allocation addresses.
    """

    id = "RP009"
    title = "engine state without dependency class / unordered reweight path"
    interests = (ast.Assign, ast.AnnAssign, ast.For, ast.comprehension, ast.Call)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.weight_split_modules)

    # -- table discovery (per file) -------------------------------------

    def begin_file(self, ctx: FileContext) -> None:
        table_names = set(ctx.config.dependency_tables) | set(
            ctx.config.bookkeeping_tables
        )
        self._classified: Set[str] = set()
        self._table_classes: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in table_names:
                    self._classified |= self._declared_attrs(node.value)
                    owner = self._enclosing_class(node, ctx)
                    if owner is not None:
                        self._table_classes.add(id(owner))

    @staticmethod
    def _declared_attrs(expr: ast.AST) -> Set[str]:
        """The attribute names a table literal classifies.

        Dict tables classify their *keys* (values are the class
        labels); set/frozenset/tuple tables classify every string
        element.
        """
        if isinstance(expr, ast.Dict):
            return {
                key.value
                for key in expr.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
        return {
            sub.value
            for sub in ast.walk(expr)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }

    @staticmethod
    def _enclosing_class(node: ast.AST, ctx: FileContext) -> Optional[ast.ClassDef]:
        current: Optional[ast.AST] = node
        while current is not None:
            current = ctx.parent(current)
            if isinstance(current, ast.ClassDef):
                return current
        return None

    # -- half (b): fixed-order inheritance/invalidation folds -----------

    @staticmethod
    def _invalidation_scope(node: ast.AST, ctx: FileContext) -> Optional[str]:
        """Name of an enclosing invalidation-marked function, if any."""
        markers = ctx.config.invalidation_markers
        current: Optional[ast.AST] = node
        while current is not None:
            current = ctx.parent(current)
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = current.name.lower()
                if any(marker in name for marker in markers):
                    return current.name
        return None

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from self._check_attr_assign(node, ctx)
        if isinstance(node, ast.For):
            scope = self._invalidation_scope(node, ctx)
            if scope is not None and ShardCombineOrder._unordered_iterable(
                node.iter
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{scope}() iterates a set on a derived-inheritance/"
                    "reweight-invalidation path: which caches are touched, "
                    "and in what order, becomes hash-seed dependent; "
                    "iterate the dependency table or a dict/list instead",
                )
        elif isinstance(node, ast.comprehension):
            scope = self._invalidation_scope(node.iter, ctx)
            if scope is not None and ShardCombineOrder._unordered_iterable(
                node.iter
            ):
                yield self.finding(
                    ctx,
                    node.iter,
                    f"{scope}() iterates a set on a derived-inheritance/"
                    "reweight-invalidation path: which caches are touched, "
                    "and in what order, becomes hash-seed dependent; "
                    "iterate the dependency table or a dict/list instead",
                )
        elif isinstance(node, ast.Call):
            if _call_name(node) not in ("sorted", "sort"):
                return
            scope = self._invalidation_scope(node, ctx)
            if scope is None:
                return
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value)
                )
                if uses_id:
                    yield self.finding(
                        ctx,
                        node,
                        f"{scope}() orders cache entries by id() on a "
                        "derived-inheritance/reweight-invalidation path — "
                        "allocation addresses differ across processes; key "
                        "on the attribute name or a stable uid instead",
                    )

    def _check_attr_assign(self, node, ctx: FileContext) -> Iterator[Finding]:
        owner = self._enclosing_class(node, ctx)
        if owner is None or id(owner) not in self._table_classes:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
            ):
                continue
            receiver = target.value.id
            if receiver not in ("self", "index"):
                continue
            if target.attr not in self._classified:
                yield self.finding(
                    ctx,
                    node,
                    f"attribute {receiver}.{target.attr} assigned in "
                    f"{owner.name} without a dependency class: add it to "
                    "DEPENDENCY_CLASS (shape/weight) or BOOKKEEPING_ATTRS "
                    "so derived()/reweight invalidation can see it "
                    "(docs/transforms.md)",
                )


# ---------------------------------------------------------------------------
# RP010
# ---------------------------------------------------------------------------


@register
class SilentDegradation(Rule):
    """A broad ``except`` on the execution stack that degrades silently.

    The robustness contract (``docs/robustness.md``) is that every
    fallback along the degradation ladder — parallel→serial, shm→pickle,
    numpy→python — is *recorded* on the resilience report, never
    swallowed.  A handler in an execution module that catches
    ``Exception``/``BaseException`` (or is bare) and neither calls a
    degradation recorder (``record_degradation``/``record_retry``/
    ``absorb_events``) nor re-raises is exactly the silent-fallback
    shape PR 10 removed; new ones need an ``allow[RP010]`` justification
    explaining why nothing observable changed.
    """

    id = "RP010"
    title = "broad except without a recorded degradation"
    interests = (ast.Try,)

    _BROAD = ("Exception", "BaseException")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.execution_modules)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Try):
            return
        for handler in node.handlers:
            if not self._is_broad(handler.type):
                continue
            if self._records_or_raises(handler, ctx):
                continue
            caught = (
                "bare except"
                if handler.type is None
                else f"except {ast.unparse(handler.type)}"
            )
            yield self.finding(
                ctx,
                handler,
                f"{caught} on the execution stack neither records a "
                "degradation event nor re-raises — fallbacks must be "
                "observable (docs/robustness.md): call "
                f"{'/'.join(ctx.config.degradation_recorders)} or "
                "annotate why nothing degrades",
            )

    def _is_broad(self, expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return True  # bare except
        names = []
        if isinstance(expr, ast.Tuple):
            names = list(expr.elts)
        else:
            names = [expr]
        for name in names:
            if isinstance(name, ast.Name) and name.id in self._BROAD:
                return True
            if isinstance(name, ast.Attribute) and name.attr in self._BROAD:
                return True
        return False

    def _records_or_raises(
        self, handler: ast.ExceptHandler, ctx: FileContext
    ) -> bool:
        recorders = set(ctx.config.degradation_recorders)
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Call) and _call_name(sub) in recorders:
                return True
        return False


# ---------------------------------------------------------------------------
# RP011
# ---------------------------------------------------------------------------


@register
class KeylessClosureFact(Rule):
    """A closure fact built in library code without a declared ``key=``.

    A closure fact (``LambdaFact``, ``LambdaRunFact``, ``state_fact``,
    ``local_fact``, ``env_fact``) is keyed on its callable unless it
    declares a key, and a factory builds a fresh closure per call: every
    rebuilt copy misses every engine cache and is rescanned point by
    point (``docs/engine.md``, "Facts the engine can see").  Library
    code writes its conditions with atoms and connectives, or declares a
    key that determines the predicate.  ``key=None`` counts as no key.
    """

    id = "RP011"
    title = "closure fact without a declared key"
    interests = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.keyed_fact_scope) and not ctx.matches(
            ctx.config.keyed_fact_exempt
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name not in ctx.config.closure_fact_builders:
            return
        for keyword in node.keywords:
            if keyword.arg is None:
                return  # a **kwargs splat may carry the key
            if keyword.arg == "key" and not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            ):
                return
        yield self.finding(
            ctx,
            node,
            f"{name}(...) builds a closure fact without key=; a rebuilt "
            "copy misses every engine cache — write the condition with "
            "atoms and connectives, or declare a key that determines "
            "the predicate (env_fact takes none: use state_fact)",
        )


# ---------------------------------------------------------------------------
# RP012
# ---------------------------------------------------------------------------


@register
class PerBitMaskWalk(Rule):
    """A per-bit mask walk (``while m: ... m & -m ...``) outside the
    decode primitive.

    Popping one set bit per step costs a full-width big-int operation
    per bit — O(popcount x width), about 50x slower than the byte-table
    decode of :func:`repro.core.bitset.bit_positions` on a half-dense
    65,536-run mask.  Every mask walk goes through that primitive.
    """

    id = "RP012"
    title = "per-bit mask walk outside repro.core.bitset"
    interests = (ast.BinOp,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.matches(ctx.config.mask_decode_modules)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.BitAnd):
            return
        walked = self._lowest_bit_operand(node)
        if walked is None:
            return
        current = ctx.parent(node)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            if isinstance(current, ast.While) and walked in _names_in(current.test):
                yield self.finding(
                    ctx,
                    node,
                    f"per-bit walk over {walked!r} ({walked} & -{walked} in a "
                    f"while-{walked} loop); decode masks with "
                    "repro.core.bitset.bit_positions",
                )
                return
            current = ctx.parent(current)

    @staticmethod
    def _lowest_bit_operand(node: ast.BinOp) -> Optional[str]:
        """``m`` when ``node`` is ``m & -m`` (either order), else ``None``."""
        for plain, negated in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(plain, ast.Name)
                and isinstance(negated, ast.UnaryOp)
                and isinstance(negated.op, ast.USub)
                and isinstance(negated.operand, ast.Name)
                and negated.operand.id == plain.id
            ):
                return plain.id
        return None
