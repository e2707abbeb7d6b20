"""The rule framework of the invariant analyzer (``repro.tools.check``).

The analyzer is a small, dependency-free static checker shaped like the
sanitizer layers of a build pipeline:

* a **rule registry** (:func:`register` / :data:`REGISTRY`) of
  :class:`Rule` subclasses, each owning one invariant (``RP001`` ...);
* a **per-file AST dispatch**: every file is parsed once, parent links
  are annotated, and each node is offered to the rules that declared
  interest in its type (:attr:`Rule.interests`) — one tree walk per
  file regardless of how many rules are active;
* a **project model** (:class:`ProjectModel`), built in a first pass
  over every scanned file, giving rules cross-file knowledge: the class
  hierarchy (so ``Fact`` subclasses defined far from ``core/facts.py``
  are recognized) and the set of ``numeric=``-accepting functions;
* **inline suppressions**: a finding is silenced by a
  ``# repro: allow[RP001] <one-line justification>`` comment on the
  finding's line or anywhere in the contiguous comment block directly
  above it (markers must be real comments — a docstring describing the
  syntax never suppresses anything);
* a **committed baseline** (:func:`load_baseline`) for grandfathered
  findings, matched on ``(rule, path, message)`` so line drift does not
  churn it.  Policy: the baseline ships empty — new findings are fixed
  or explicitly allowed, not baselined (see ``docs/static-analysis.md``);
* **text and JSON reporters** with ``file:line`` output.

Everything here is runtime-free with respect to the library: the
analyzer only ever *reads* the tree it is pointed at.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "Finding",
    "CheckConfig",
    "Rule",
    "register",
    "REGISTRY",
    "active_rules",
    "ClassInfo",
    "FuncInfo",
    "ProjectModel",
    "FileContext",
    "build_model",
    "check_source",
    "check_files",
    "collect_files",
    "load_baseline",
    "apply_baseline",
    "render_text",
    "render_json",
]


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the scan root
    line: int
    message: str
    advisory: bool = False

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity used for baseline matching.

        Deliberately excludes the line number: a baselined finding that
        merely moves (code added above it) stays baselined; one whose
        message changes (different object, different cache) resurfaces.
        """
        return (self.rule, self.path, self.message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _matches(rel_path: str, patterns: Sequence[str]) -> bool:
    """Whether a posix relative path matches any configured pattern.

    A pattern ending in ``/`` matches any file under that directory
    (anchored at the root or at any path component); any other pattern
    matches the path exactly or as a trailing path suffix, so tests can
    scope rules to bare fixture file names.
    """
    slashed = "/" + rel_path
    for pattern in patterns:
        if pattern.endswith("/"):
            if rel_path.startswith(pattern) or ("/" + pattern) in slashed:
                return True
        elif rel_path == pattern or slashed.endswith("/" + pattern):
            return True
    return False


@dataclass
class CheckConfig:
    """Repo-specific knowledge the rules consult.

    The defaults describe this repository's layout and recorded
    invariants (``docs/engine.md`` / ``docs/transforms.md`` /
    ``docs/numerics.md``); tests override individual fields to point
    rules at fixture snippets.
    """

    # RP001: modules whose arithmetic decides exact verdicts, and the
    # sanctioned numeric tiers inside them that are allowed to hold
    # floats (the LEDA-style filter lives there by design).
    exact_core: Tuple[str, ...] = ("src/repro/core/",)
    numeric_tiers: Tuple[str, ...] = (
        "src/repro/core/numeric.py",
        "src/repro/core/lazyprob.py",
        "src/repro/core/arraykernel.py",
        "src/repro/core/shard.py",
        "src/repro/core/faults.py",
    )
    # math functions that are exact on integer arguments and therefore
    # fine inside exact-core modules.
    exact_math: Tuple[str, ...] = (
        "gcd",
        "lcm",
        "isqrt",
        "comb",
        "perm",
        "factorial",
        "floor",
        "ceil",
        "trunc",
    )

    # RP002: the Fact roots whose default implementations do not count
    # as "defining" the structural pair.
    fact_bases: Tuple[str, ...] = ("Fact", "RunFact")

    # RP003: interned/immutable classes (by name) plus every Fact
    # subclass, attributes that identify an immutable instance when
    # assigned through an arbitrary expression, and the declared memo
    # slots that legitimately backfill after construction.
    immutable_classes: Tuple[str, ...] = ("Node", "Config", "GlobalState")
    immutable_attrs: Tuple[str, ...] = (
        "uid",
        "depth",
        "state",
        "prob_from_parent",
        "via_action",
        "children",
        "env",
        "locals",
    )
    memo_slots: Tuple[str, ...] = (
        "_hash",
        "_structural_key",
        "_mentions_actions",
        "_system_index",
        "_runs",
    )

    # RP004: the engine module and its fact-keyed memo caches.  The
    # inheritable caches must also record _action_free at every write
    # (docs/transforms.md); the non-inherited ones only need the
    # structural-key discipline.
    engine_modules: Tuple[str, ...] = ("src/repro/core/engine.py",)
    inheritable_fact_caches: Tuple[str, ...] = (
        "_fact_masks",
        "_slice_masks",
        "_belief_cache",
        "_lazy_beliefs",
    )
    fact_keyed_caches: Tuple[str, ...] = (
        "_at_action_cache",
        "_independence_cache",
        "_threshold_kernels",
    )
    cache_accessors: Tuple[str, ...] = ("_mask_cache",)
    key_derivers: Tuple[str, ...] = ("_fact_key", "_cache_key", "structural_key")
    action_free_recorders: Tuple[str, ...] = ("_note_action_free",)

    # RP005: modules whose outputs are pinned deterministic (uid
    # sequences, leaf orders, cache keys).
    deterministic_modules: Tuple[str, ...] = (
        "src/repro/protocols/compiler.py",
        "src/repro/protocols/strategies.py",
        "src/repro/messaging/system.py",
        "src/repro/core/engine.py",
        "src/repro/core/pps.py",
        "src/repro/core/shard.py",
    )

    # RP008: modules holding shard-combine implementations, whose
    # result folds must iterate in a fixed (list/tuple) order — never
    # over a set or an identity-keyed sort (docs/sharding.md).
    shard_modules: Tuple[str, ...] = ("src/repro/core/shard.py",)

    # RP009: the weight-split layer (docs/transforms.md).  In these
    # modules, every instance attribute assigned inside the class that
    # declares the dependency tables must be classified in one of them
    # (shape-/weight-dependent or bookkeeping), and functions on the
    # derived-inheritance / reweight-invalidation paths (matched by
    # name marker) must not iterate sets or sort by id() — cache
    # drop/copy order must be deterministic.
    weight_split_modules: Tuple[str, ...] = (
        "src/repro/core/engine.py",
        "src/repro/core/reweight.py",
    )
    dependency_tables: Tuple[str, ...] = ("DEPENDENCY_CLASS",)
    bookkeeping_tables: Tuple[str, ...] = ("BOOKKEEPING_ATTRS",)
    invalidation_markers: Tuple[str, ...] = (
        "derived",
        "inherit",
        "invalidat",
        "reweight",
        "materialize",
    )

    # RP010: execution-stack modules whose resilience/fallback paths
    # must never degrade silently — a broad ``except`` there has to
    # record a degradation/retry event (docs/robustness.md), re-raise,
    # or carry an ``allow[RP010]`` justification.
    execution_modules: Tuple[str, ...] = (
        "src/repro/core/shard.py",
        "src/repro/core/arraykernel.py",
        "src/repro/core/faults.py",
        "src/repro/analysis/sweep.py",
    )
    degradation_recorders: Tuple[str, ...] = (
        "record_degradation",
        "record_retry",
        "absorb_events",
    )

    # RP011: library code that must give every closure fact it builds a
    # declared ``key=`` (docs/engine.md, "Facts the engine can see"),
    # minus the modules that define the closure-fact builders.
    keyed_fact_scope: Tuple[str, ...] = ("src/repro/",)
    keyed_fact_exempt: Tuple[str, ...] = (
        "src/repro/core/facts.py",
        "src/repro/core/atoms.py",
    )
    closure_fact_builders: Tuple[str, ...] = (
        "LambdaFact",
        "LambdaRunFact",
        "StateFact",
        "state_fact",
        "local_fact",
        "env_fact",
    )

    # RP012: the one module allowed to walk a mask bit by bit.
    mask_decode_modules: Tuple[str, ...] = ("src/repro/core/bitset.py",)

    def is_exact_core(self, rel_path: str) -> bool:
        return _matches(rel_path, self.exact_core) and not _matches(
            rel_path, self.numeric_tiers
        )


# ---------------------------------------------------------------------------
# Project model (first pass)
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """One class definition found anywhere in the scanned tree."""

    name: str
    path: str
    line: int
    bases: Tuple[str, ...]
    methods: frozenset  # names of functions defined in the class body


@dataclass
class FuncInfo:
    """One ``numeric=``-accepting function definition."""

    name: str
    path: str
    line: int
    # 0-based position of the ``numeric`` parameter among positional
    # parameters with a leading self/cls stripped; None when keyword-only.
    numeric_position: Optional[int]


class ProjectModel:
    """Cross-file knowledge shared by all rules.

    Classes are keyed by bare name; when a name is defined more than
    once the candidates are merged conservatively (a method counts as
    defined if *any* candidate defines it, a class counts as a Fact
    subclass if *any* candidate's base chain reaches a Fact root).
    """

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.numeric_functions: Dict[str, List[FuncInfo]] = {}

    # -- construction --------------------------------------------------

    def add_file(self, rel_path: str, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    base_name
                    for base in node.bases
                    if (base_name := _dotted_tail(base)) is not None
                )
                methods = frozenset(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                self.classes.setdefault(node.name, []).append(
                    ClassInfo(node.name, rel_path, node.lineno, bases, methods)
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                position = _numeric_position(node)
                if position is not _NO_NUMERIC:
                    self.numeric_functions.setdefault(node.name, []).append(
                        FuncInfo(node.name, rel_path, node.lineno, position)
                    )

    # -- queries -------------------------------------------------------

    def is_fact_subclass(self, name: str) -> bool:
        """Whether ``name``'s base chain reaches a Fact root class."""
        return self._reaches_fact(name, set())

    def _reaches_fact(self, name: str, seen: Set[str]) -> bool:
        if name in self.config.fact_bases:
            return True
        if name in seen:
            return False
        seen.add(name)
        for info in self.classes.get(name, ()):
            for base in info.bases:
                if self._reaches_fact(base, seen):
                    return True
        return False

    def defines_method(self, name: str, method: str) -> bool:
        """Whether ``name`` or a project ancestor *below* the Fact roots
        defines ``method`` in its own body."""
        return self._defines(name, method, set())

    def _defines(self, name: str, method: str, seen: Set[str]) -> bool:
        if name in self.config.fact_bases or name in seen:
            return False
        seen.add(name)
        for info in self.classes.get(name, ()):
            if method in info.methods:
                return True
            for base in info.bases:
                if self._defines(base, method, seen):
                    return True
        return False

    def numeric_threaded(self, call: ast.Call, callee: str) -> Optional[bool]:
        """Whether ``call`` forwards the knob to numeric-aware ``callee``.

        ``None`` when the callee is not numeric-aware.  A call is
        considered threaded when it passes ``numeric=`` by keyword,
        forwards ``**kwargs``, or supplies enough positional arguments
        to cover the callee's ``numeric`` slot.
        """
        infos = self.numeric_functions.get(callee)
        if not infos:
            return None
        for keyword in call.keywords:
            if keyword.arg == "numeric" or keyword.arg is None:
                return True
        positions = [
            info.numeric_position
            for info in infos
            if info.numeric_position is not None
        ]
        if positions and len(call.args) > min(positions):
            return True
        return False


_NO_NUMERIC = object()


def _numeric_position(node):
    """The self/cls-stripped positional index of a ``numeric`` parameter.

    Returns ``None`` when the parameter is keyword-only, or the
    :data:`_NO_NUMERIC` sentinel when the function takes no ``numeric``
    parameter at all.
    """
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    names = [arg.arg for arg in positional]
    offset = 1 if names and names[0] in ("self", "cls") else 0
    for index, name in enumerate(names):
        if name == "numeric":
            return index - offset
    if any(arg.arg == "numeric" for arg in args.kwonlyargs):
        return None
    return _NO_NUMERIC


def _dotted_tail(node) -> Optional[str]:
    """The last identifier of a Name/Attribute base expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# Per-file context
# ---------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    rel_path: str
    tree: ast.Module
    lines: List[str]
    config: CheckConfig
    model: ProjectModel
    advisory: bool = False

    def matches(self, patterns: Sequence[str]) -> bool:
        return _matches(self.rel_path, patterns)

    def enclosing_function(self, node):
        """The nearest enclosing function definition, or ``None``."""
        current = getattr(node, "_repro_parent", None)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = getattr(current, "_repro_parent", None)
        return None

    def parent(self, node):
        return getattr(node, "_repro_parent", None)


def _annotate_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every comment token; allow[] markers must live in
    real comments, so a docstring *describing* the syntax never
    suppresses anything."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # a file that does not tokenize is reported as a parse error
    return comments


class _Suppressions:
    """The ``# repro: allow[...]`` map of one file."""

    def __init__(self, source: str, lines: List[str]) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.comment_only: Set[int] = set()
        self.used: Set[int] = set()
        self._comment_lines: Set[int] = {
            number
            for number, text in enumerate(lines, start=1)
            if text.strip().startswith("#")
        }
        for number, comment in _comment_tokens(source):
            match = _ALLOW_RE.search(comment)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            self.by_line[number] = {part for part in rules if part}
            if number in self._comment_lines:
                self.comment_only.add(number)

    def _covers(self, line: int, rule: str) -> bool:
        allowed = self.by_line.get(line)
        return allowed is not None and (rule in allowed or "*" in allowed)

    def suppresses(self, finding: Finding) -> bool:
        # Same line, or a comment-only allow marker anywhere in the
        # contiguous comment block directly above the finding (the
        # natural home of a multi-line justification).
        if self._covers(finding.line, finding.rule):
            self.used.add(finding.line)
            return True
        above = finding.line - 1
        while above in self._comment_lines:
            if above in self.comment_only and self._covers(above, finding.rule):
                self.used.add(above)
                return True
            above -= 1
        return False

    def unused(self) -> List[int]:
        return sorted(set(self.by_line) - self.used)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Rule:
    """Base class of one invariant check.

    Subclasses set :attr:`id`/:attr:`title`, declare the AST node types
    they want via :attr:`interests`, and yield :class:`Finding`s from
    :meth:`visit` (called once per matching node of each applicable
    file).  :meth:`begin_file`/:meth:`end_file` bracket the single
    shared tree walk.
    """

    id: str = ""
    title: str = ""
    interests: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def begin_file(self, ctx: FileContext) -> None:
        pass

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            message=message,
            advisory=ctx.advisory,
        )


REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    REGISTRY[rule_class.id] = rule_class
    return rule_class


def active_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a subset by id)."""
    selected = sorted(REGISTRY) if only is None else list(only)
    unknown = [rule_id for rule_id in selected if rule_id not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown rule ids: {', '.join(unknown)}")
    return [REGISTRY[rule_id]() for rule_id in selected]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def collect_files(root: Path, relative: Sequence[str]) -> List[Path]:
    """All ``.py`` files under the given root-relative paths, sorted."""
    files: List[Path] = []
    for entry in relative:
        path = root / entry
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return files


def build_model(
    root: Path, files: Iterable[Path], config: CheckConfig
) -> ProjectModel:
    """First pass: parse every file into the cross-file project model."""
    model = ProjectModel(config)
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue  # reported by the check pass
        model.add_file(path.relative_to(root).as_posix(), tree)
    return model


@dataclass
class CheckResult:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    unused_allows: List[Tuple[str, int]] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)

    def extend(self, other: "CheckResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.unused_allows.extend(other.unused_allows)
        self.errors.extend(other.errors)


def check_source(
    source: str,
    rel_path: str,
    config: CheckConfig,
    model: ProjectModel,
    rules: Sequence[Rule],
    *,
    advisory: bool = False,
) -> CheckResult:
    """Run the rules over one file's source text (the core primitive)."""
    result = CheckResult()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.errors.append(
            Finding(
                rule="PARSE",
                path=rel_path,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                advisory=advisory,
            )
        )
        return result
    _annotate_parents(tree)
    lines = source.splitlines()
    ctx = FileContext(rel_path, tree, lines, config, model, advisory)
    active = [rule for rule in rules if rule.applies_to(ctx)]
    if not active:
        return result
    suppressions = _Suppressions(source, lines)
    raw: List[Finding] = []
    for rule in active:
        rule.begin_file(ctx)
    for node in ast.walk(tree):
        for rule in active:
            if rule.interests and isinstance(node, rule.interests):
                raw.extend(rule.visit(node, ctx))
    for rule in active:
        raw.extend(rule.end_file(ctx))
    seen: Set[Tuple[str, str, int, str]] = set()
    for finding in sorted(raw, key=lambda f: (f.line, f.rule, f.message)):
        identity = (finding.rule, finding.path, finding.line, finding.message)
        if identity in seen:
            continue
        seen.add(identity)
        if suppressions.suppresses(finding):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    result.unused_allows.extend(
        (rel_path, line) for line in suppressions.unused()
    )
    return result


def check_files(
    root: Path,
    files: Sequence[Path],
    config: CheckConfig,
    model: ProjectModel,
    rules: Sequence[Rule],
    *,
    advisory: bool = False,
) -> CheckResult:
    result = CheckResult()
    for path in files:
        result.extend(
            check_source(
                path.read_text(encoding="utf-8"),
                path.relative_to(root).as_posix(),
                config,
                model,
                rules,
                advisory=advisory,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def load_baseline(path: Path) -> Set[Tuple[str, str, str]]:
    """The grandfathered-finding keys of a committed baseline file."""
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        (entry["rule"], entry["path"], entry["message"])
        for entry in data.get("findings", ())
    }


def apply_baseline(
    findings: Sequence[Finding], baseline: Set[Tuple[str, str, str]]
) -> Tuple[List[Finding], int]:
    """Split findings into (fresh, number grandfathered)."""
    fresh = [f for f in findings if f.baseline_key() not in baseline]
    return fresh, len(findings) - len(fresh)


def baseline_payload(findings: Sequence[Finding]) -> str:
    entries = sorted(
        {f.baseline_key() for f in findings}
    )
    return json.dumps(
        {
            "findings": [
                {"rule": rule, "path": path, "message": message}
                for rule, path, message in entries
            ]
        },
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def render_text(
    strict: CheckResult,
    advisory: CheckResult,
    rules: Sequence[Rule],
    *,
    grandfathered: int = 0,
) -> str:
    out: List[str] = []
    titles = {rule.id: rule.title for rule in rules}
    for finding in strict.errors + advisory.errors:
        out.append(f"{finding.location()}: error: {finding.message}")
    for finding in strict.findings:
        out.append(f"{finding.location()}: {finding.rule} {finding.message}")
    if advisory.findings:
        out.append("")
        out.append("advisory (non-blocking):")
        for finding in advisory.findings:
            out.append(
                f"  {finding.location()}: {finding.rule} {finding.message}"
            )
    unused = strict.unused_allows + advisory.unused_allows
    if unused:
        out.append("")
        out.append("unused suppressions (informational):")
        for path, line in unused:
            out.append(f"  {path}:{line}: allow[] comment matched no finding")
    out.append("")
    by_rule: Dict[str, int] = {}
    for finding in strict.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    summary = (
        f"{len(strict.findings)} finding(s), "
        f"{strict.suppressed + advisory.suppressed} suppressed, "
        f"{grandfathered} baselined, "
        f"{len(advisory.findings)} advisory, "
        f"{len(rules)} rule(s) active"
    )
    if by_rule:
        details = ", ".join(
            f"{rule_id}={count} [{titles.get(rule_id, '?')}]"
            for rule_id, count in sorted(by_rule.items())
        )
        summary += f" ({details})"
    out.append(summary)
    return "\n".join(out)


def render_json(
    strict: CheckResult,
    advisory: CheckResult,
    rules: Sequence[Rule],
    *,
    grandfathered: int = 0,
) -> str:
    def encode(finding: Finding) -> Dict[str, object]:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "message": finding.message,
            "advisory": finding.advisory,
        }

    return json.dumps(
        {
            "findings": [encode(f) for f in strict.findings],
            "advisory": [encode(f) for f in advisory.findings],
            "errors": [encode(f) for f in strict.errors + advisory.errors],
            "suppressed": strict.suppressed + advisory.suppressed,
            "baselined": grandfathered,
            "unused_allows": [
                {"path": path, "line": line}
                for path, line in strict.unused_allows + advisory.unused_allows
            ],
            "rules": [
                {"id": rule.id, "title": rule.title} for rule in rules
            ],
        },
        indent=2,
    )
