"""The repo-specific lint rules and their registry.

Each rule encodes one invariant the reproduction's correctness story leans
on (see the rule docstrings for the rationale).  Rules are plain classes
walking a parsed module's AST and yielding :class:`Finding`\\ s; they
register themselves with :func:`register_rule`, mirroring the optimizer and
topology registries, so third-party checks plug in the same way::

    from repro.analysis.rules import LintRule, register_rule

    @register_rule
    class MyRule(LintRule):
        id = "my-rule"
        summary = "one-line rationale"
        def check(self, module): ...

Findings are suppressed per line with a pragma comment —
``# analysis: allow(rule-id)`` on the offending line (or the line above) —
so intentional exceptions stay visible and greppable in the source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleSource


@dataclass(frozen=True)
class Finding:
    """One lint violation: rule id, location, human-readable message."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class LintRule:
    """Base class: subclasses set ``id``/``summary`` and implement ``check``."""

    #: Stable rule identifier used in CLI output, ``--select`` and pragmas.
    id: str = ""
    #: One-line rationale shown by ``python -m repro.analysis rules``.
    summary: str = ""

    def check(self, module: "ModuleSource") -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, module: "ModuleSource", node: ast.AST, message: str) -> Finding:
        return Finding(self.id, module.path, getattr(node, "lineno", 0), message)


# ----------------------------------------------------------------------
# Rule registry (mirrors the optimizer/topology registries).

_RULES: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the registry."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} must set a non-empty 'id'")
    if cls.id in _RULES and _RULES[cls.id] is not cls:
        raise ValueError(f"lint rule {cls.id!r} already registered")
    _RULES[cls.id] = cls
    return cls


def available_rules() -> Tuple[str, ...]:
    """Ids of all registered rules, sorted."""
    return tuple(sorted(_RULES))


def get_rule(rule_id: str) -> Type[LintRule]:
    """Look up a rule class by id; the error lists the available ids."""
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; available: {', '.join(available_rules())}"
        ) from None


# ----------------------------------------------------------------------
# AST helpers shared by the rules.


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _walk_within(node: ast.AST, stop: Tuple[type, ...]) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested ``stop`` scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, stop):
            stack.extend(ast.iter_child_nodes(child))


def _function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# The rules.


@register_rule
class UnseededRngRule(LintRule):
    """No RNG may draw from hidden or OS-seeded state outside tests.

    ``np.random.default_rng()`` without arguments seeds itself from OS
    entropy, and the legacy ``np.random.*`` functions draw from the hidden
    process-global generator — either one anywhere in a search/training
    code path silently breaks the bit-exact trajectory locks every backend
    and engine knob is verified against.
    """

    id = "unseeded-rng"
    summary = "unseeded default_rng() or legacy global np.random.* outside tests"

    LEGACY = frozenset(
        {
            "rand",
            "randn",
            "random",
            "random_sample",
            "standard_normal",
            "normal",
            "uniform",
            "randint",
            "integers",
            "choice",
            "permutation",
            "shuffle",
            "seed",
        }
    )

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "default_rng() without an explicit seed/Generator is "
                    "nondeterministic (seeds from OS entropy); pass a seed or "
                    "thread an rng through",
                )
            elif (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[-2] == "random"
                and parts[-1] in self.LEGACY
            ):
                yield self.finding(
                    module,
                    node,
                    f"legacy np.random.{parts[-1]} draws from hidden process-global "
                    "state; use an explicit np.random.Generator",
                )


@register_rule
class FloatEqualityRule(LintRule):
    """No ``==`` / ``!=`` against float values in library code.

    The engine-parity and cache stories are *bit*-exact: identity is keyed
    on byte patterns (``tobytes`` / void views / ``np.array_equal``), never
    on float comparison semantics, where a NaN-bearing row or a negative
    zero makes ``==`` lie about identity.
    """

    id = "float-equality"
    summary = "== / != on float-typed expressions (use np.array_equal/tobytes keys)"

    FLOAT_CALLS = frozenset({"float", "np.float64", "numpy.float64"})

    def _is_floaty(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand)
        if isinstance(node, ast.BinOp):
            return self._is_floaty(node.left) or self._is_floaty(node.right)
        if isinstance(node, ast.Call):
            return (dotted_name(node.func) or "") in self.FLOAT_CALLS
        return False

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            if any(self._is_floaty(operand) for operand in [node.left] + node.comparators):
                yield self.finding(
                    module,
                    node,
                    "float equality comparison; bit-exact identity uses "
                    "np.array_equal or tobytes keys, tolerances use margins",
                )


@register_rule
class HotLoopAllocRule(LintRule):
    """No array allocation inside ``for``/``while`` bodies on hot paths.

    The fused backend, the evaluation cache and the Campaign round loop are
    deliberately allocation-free in their inner loops (scratch buffers,
    ``out=`` rewrites, single stacked passes); a stray ``np.zeros`` or
    ``astype`` inside one of those loops reintroduces per-iteration heap
    traffic that the PR-3/PR-4 overhauls measured and removed.  Applies to
    functions marked ``@hot_path``, to every function in the hot modules
    (``HOT_MODULES`` of :mod:`repro.analysis.engine`), and to the
    stacked-engine hook names (``HOT_FUNCTIONS``) wherever they are
    defined.  Calls passing ``out=`` are exempt (they write into reused
    buffers); intentional one-time allocations take a pragma.
    """

    id = "hot-loop-alloc"
    summary = "array-allocating call inside a loop body of a hot-path function"

    ALLOC_FUNCS = frozenset(
        {
            "array",
            "asarray",
            "ascontiguousarray",
            "asfortranarray",
            "atleast_1d",
            "atleast_2d",
            "column_stack",
            "concatenate",
            "copy",
            "empty",
            "empty_like",
            "full",
            "full_like",
            "hstack",
            "linspace",
            "ones",
            "ones_like",
            "repeat",
            "stack",
            "tile",
            "vstack",
            "zeros",
            "zeros_like",
        }
    )
    ALLOC_METHODS = frozenset({"astype", "copy"})

    def _is_hot_function(self, module: "ModuleSource", node: ast.FunctionDef) -> bool:
        if module.is_hot_module or node.name in module.hot_functions:
            return True
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name is not None and name.split(".")[-1] == "hot_path":
                return True
        return False

    def _alloc_calls(self, loop: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in _walk_within(loop, scopes):
            if not isinstance(node, ast.Call):
                continue
            if any(keyword.arg == "out" for keyword in node.keywords):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] in ("np", "numpy") and parts[-1] in self.ALLOC_FUNCS:
                yield node, name
            elif len(parts) > 1 and parts[0] not in ("np", "numpy") and parts[-1] in self.ALLOC_METHODS:
                yield node, name

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test:
            return
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for function in _function_defs(module.tree):
            if not self._is_hot_function(module, function):
                continue
            # A call nested in several loops is still one finding.
            seen: Set[int] = set()
            for node in _walk_within(function, scopes):
                if not isinstance(node, (ast.For, ast.While)):
                    continue
                for call, name in self._alloc_calls(node):
                    if id(call) in seen:
                        continue
                    seen.add(id(call))
                    yield self.finding(
                        module,
                        call,
                        f"{name}(...) allocates inside a loop of hot-path "
                        f"function {function.name!r}; hoist into a reused "
                        "buffer or pass out=",
                    )


@register_rule
class CornerPythonLoopRule(LintRule):
    """No Python-level iteration over the corner axis in a topology.

    A topology — a class that defines a concrete ``_small_signal_parts``
    hook — is evaluated over the PVT grid as a single NumPy broadcast; a
    ``for corner in corners`` anywhere in such a class silently
    reintroduces the per-corner Python loop the stacked engine exists to
    remove, and its cost scales with the corner count (45x on the full
    grid).  An abstract hook does not select its class, so the base class
    that stacks the corner grid may still read its corners one by one.
    """

    id = "corner-python-loop"
    summary = "Python loop over a corners axis inside a topology class"

    HOOK = "_small_signal_parts"
    CORNER_NAMES = ("corners", "corner_grid")

    def _is_corner_iterable(self, node: ast.expr) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        tail = name.split(".")[-1]
        return tail in self.CORNER_NAMES or tail.endswith("_corners")

    @classmethod
    def selects(cls, node: ast.ClassDef) -> bool:
        """Whether the class defines a concrete (non-abstract) corner hook."""
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == cls.HOOK:
                return not any(
                    (dotted_name(decorator) or "").split(".")[-1] == "abstractmethod"
                    for decorator in stmt.decorator_list
                )
        return False

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test:
            return
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef) or not self.selects(cls):
                continue
            for function in cls.body:
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in _walk_within(function, (ast.ClassDef,)):
                    iterables: List[ast.expr] = []
                    if isinstance(node, ast.For):
                        iterables.append(node.iter)
                    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                        iterables.extend(gen.iter for gen in node.generators)
                    for iterable in iterables:
                        if self._is_corner_iterable(iterable):
                            yield self.finding(
                                module,
                                node,
                                f"Python iteration over corners in {function.name!r} "
                                f"of topology class {cls.name!r}; the corner grid "
                                "must ride the stacked tensor axis",
                            )


@register_rule
class NakedExceptRule(LintRule):
    """No bare ``except:`` — it swallows everything, including exit signals.

    A bare handler catches ``KeyboardInterrupt``/``SystemExit`` and masks
    contract violations and shape errors as ordinary control flow, which is
    exactly how a broken invariant survives to corrupt a cache.
    """

    id = "naked-except"
    summary = "bare except: handler (catches SystemExit/KeyboardInterrupt too)"

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node, "bare except:; catch a concrete exception type"
                )


@register_rule
class MutableDefaultRule(LintRule):
    """No mutable default arguments.

    A list/dict/set default is created once at definition time and shared
    across calls — hidden cross-call state, the exact opposite of the
    reproducibility story every config dataclass here is built around
    (note ``dataclasses.field(default_factory=...)``).
    """

    id = "mutable-default"
    summary = "mutable default argument (shared across calls)"

    BUILDER_CALLS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return (dotted_name(node.func) or "") in self.BUILDER_CALLS
        return False

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for function in _function_defs(module.tree):
            defaults = list(function.args.defaults) + [
                default for default in function.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {function.name!r}; "
                        "default to None (or use a dataclass default_factory)",
                    )


@register_rule
class AdHocTimingRule(LintRule):
    """All wall-clock reads go through :mod:`repro.obs`, not raw ``time``.

    Scattered ``time.perf_counter()`` pairs are exactly how the pre-obs
    codebase accumulated unlabelled, un-aggregatable timings: each one is
    invisible to the trace report, double-counts nothing consistently, and
    bit-rots when the code around it moves.  The ``profiled(...)`` context
    manager and ``@span`` decorator record the same duration *and* feed the
    structured trace/metrics registry, so library code must use those.  The
    observability layer itself (``repro/obs/``) is the sanctioned home of
    the raw clock reads; tests are exempt too.
    """

    id = "ad-hoc-timing"
    summary = "direct time.perf_counter()/time.time() outside repro.obs"

    CLOCKS = frozenset(
        {
            "perf_counter",
            "perf_counter_ns",
            "time",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )

    def _clock_imports(self, module: "ModuleSource") -> Set[str]:
        """Local names bound to clock functions via ``from time import ...``."""
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self.CLOCKS:
                        names.add(alias.asname or alias.name)
        return names

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test or module.is_timing_module:
            return
        bare_clocks = self._clock_imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            is_dotted_clock = (
                len(parts) == 2 and parts[0] == "time" and parts[1] in self.CLOCKS
            )
            is_bare_clock = len(parts) == 1 and parts[0] in bare_clocks
            if is_dotted_clock or is_bare_clock:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock directly; time through "
                    "repro.obs (profiled(...) context manager or @span) so "
                    "the duration lands in the trace and metrics registry",
                )


@register_rule
class NonAtomicArtifactWriteRule(LintRule):
    """Artifact writes go through :mod:`repro.resilience.atomic`.

    A raw ``open(path, "w")`` truncates the destination before the new
    content exists — a crash mid-dump leaves a half-written (or empty)
    BENCH JSON, trace, or snapshot where a complete previous version used
    to be.  The atomic helpers (write-temp + fsync + ``os.replace``) make
    every committed artifact all-or-nothing, so library code outside
    ``repro/resilience/`` must not open files in a write/append mode
    directly.  Deliberate streaming sinks (e.g. the tracer's ``.partial``
    sidecar, finalized by rename on close) take a pragma.
    """

    id = "non-atomic-artifact-write"
    summary = "raw open(..., 'w'/'a') outside repro/resilience (use atomic_write_*)"

    #: Mode characters that truncate or mutate the destination in place.
    WRITE_CHARS = frozenset("wax+")

    def _write_mode(self, node: ast.Call) -> Optional[str]:
        """The call's constant mode string when it writes, else ``None``."""
        mode: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
            return None
        if self.WRITE_CHARS & set(mode.value):
            return mode.value
        return None

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test or module.is_durable_write_module:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in ("open", "fdopen"):
                continue
            mode = self._write_mode(node)
            if mode is not None:
                yield self.finding(
                    module,
                    node,
                    f"open(..., {mode!r}) writes an artifact non-atomically; "
                    "a crash mid-write leaves a torn file — route through "
                    "repro.resilience.atomic (atomic_write_bytes/text/json)",
                )


@register_rule
class SpawnUnsafeRule(LintRule):
    """All :mod:`multiprocessing` use goes through ``get_context("spawn")``.

    The engine process holds NumPy thread pools, open store file handles
    and a module-level tracer; ``fork`` duplicates all of that into the
    child in undefined states (the classic deadlocked-after-fork lock, or
    two processes appending to one store handle).  A bare ``Pool()`` /
    ``Process()`` inherits the platform default start method — ``fork`` on
    Linux — so the only sanctioned construction is an explicit
    ``multiprocessing.get_context("spawn")`` and factories called on that
    context (how ``ShardedExecutor`` spawns workers).
    ``set_start_method`` is flagged unless it pins ``"spawn"``: mutating
    the *global* default still leaves every bare factory ambiguous to
    readers, and it collides with libraries doing the same.
    """

    id = "spawn-unsafe"
    summary = 'multiprocessing use without an explicit get_context("spawn")'

    #: Module-level factories whose bare use inherits the platform start
    #: method (fork on Linux) instead of an explicit spawn context.
    FACTORIES = frozenset(
        {
            "Pool",
            "Process",
            "Queue",
            "SimpleQueue",
            "JoinableQueue",
            "Manager",
            "Pipe",
            "Value",
            "Array",
        }
    )

    def _aliases(self, module: "ModuleSource") -> Tuple[Set[str], Set[str], Set[str]]:
        """(module aliases, bare factory names, bare get_context names)."""
        modules: Set[str] = set()
        factories: Set[str] = set()
        contexts: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        modules.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "multiprocessing"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in self.FACTORIES:
                        factories.add(bound)
                    elif alias.name == "get_context":
                        contexts.add(bound)
        return modules, factories, contexts

    def _spawn_argument(self, node: ast.Call) -> bool:
        """Whether the call pins the ``"spawn"`` start method as a constant."""
        candidates: List[ast.expr] = list(node.args[:1])
        candidates.extend(
            keyword.value for keyword in node.keywords if keyword.arg == "method"
        )
        return any(
            isinstance(arg, ast.Constant) and arg.value == "spawn"
            for arg in candidates
        )

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.is_test:
            return
        modules, factories, contexts = self._aliases(module)
        if not (modules or factories or contexts):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            dotted = len(parts) == 2 and parts[0] in modules
            bare = len(parts) == 1
            if (dotted and parts[1] in self.FACTORIES) or (
                bare and parts[0] in factories
            ):
                yield self.finding(
                    module,
                    node,
                    f"{name}() inherits the platform start method (fork on "
                    "Linux); build workers from an explicit "
                    'multiprocessing.get_context("spawn") context',
                )
            elif (
                (dotted and parts[1] == "get_context")
                or (bare and parts[0] in contexts)
            ) and not self._spawn_argument(node):
                yield self.finding(
                    module,
                    node,
                    f'{name}() without "spawn" resolves to the platform '
                    "default start method (fork on Linux); pin "
                    'get_context("spawn") explicitly',
                )
            elif dotted and parts[1] == "set_start_method" and not self._spawn_argument(
                node
            ):
                yield self.finding(
                    module,
                    node,
                    f"{name}() mutates the global start method; use a local "
                    'get_context("spawn") context instead',
                )


def iter_rules(select: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Instantiate the selected rules (all registered rules by default)."""
    ids = available_rules() if select is None else list(select)
    return [get_rule(rule_id)() for rule_id in ids]
