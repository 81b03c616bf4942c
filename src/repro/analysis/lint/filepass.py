"""Per-file pass: AST rules plus fact extraction for the project pass.

One parse per file feeds two consumers:

* the rule visitor (:class:`FileLinter`) — NOC10x/30x/405,
* :class:`FileFacts` — the import edges the whole-program pass
  (:mod:`repro.analysis.lint.project`) builds its graph from.

Facts are plain data: the whole-program pass never sees an AST.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint.rules import (
    CYCLE_DOMAIN_PACKAGES,
    RULES,
    SIM_PACKAGES,
    Directives,
    Violation,
    apply_noqa,
    in_packages,
    module_name,
    scan_noqa,
    source_line,
)

#: Generator *constructors* are how deterministic streams are injected;
#: everything else on random/np.random is hidden process-global state.
_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "BitGenerator",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

#: Constructors that fall back to OS entropy when given no seed material
#: (NOC111); ``Generator``/``BitGenerator`` wrap an existing bit source.
_ENTROPY_IF_UNSEEDED = frozenset(
    f"numpy.random.{name}"
    for name in _RNG_CONSTRUCTORS - {"Generator", "BitGenerator"}
)

#: Calls that read the wall clock or the OS entropy pool.  Monotonic
#: timers (time.monotonic, time.perf_counter) stay legal: they may only
#: feed diagnostics like runtime_seconds, never simulated state.
_CLOCK_ENTROPY = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Wall-clock stalls and timer reads banned *inside the simulator*
#: (NOC105): simulated time is cycle-driven, so sleeping can only hide an
#: orchestration concern, and even monotonic reads belong to the
#: campaign harness (diagnostic uses carry a reasoned noqa).
_SIM_TIMER_CALLS = frozenset(
    {
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

#: Every clock-reading function banned as a *reference* in the cycle
#: domain (NOC405).  NOC102/NOC105 catch direct calls; NOC405 closes the
#: loophole of storing or passing the function itself (``self.clock =
#: time.monotonic``, ``def f(clock=perf_counter)``) so the only clock
#: that runs inside ``Network.step`` is the sanctioned simprof probe
#: (which lives in repro.telemetry, outside this rule's scope).
_CLOCK_READS = _SIM_TIMER_CALLS | frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
    }
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict",
     "Counter", "OrderedDict"}
)


# --- facts -------------------------------------------------------------------


@dataclass
class ImportFact:
    """One import edge out of a module."""

    module: str
    lineno: int
    col: int
    toplevel: bool
    type_checking: bool
    context: str = ""


@dataclass
class FileFacts:
    """Everything the whole-program pass needs to know about one file."""

    path: str
    module: str
    imports: list[ImportFact] = field(default_factory=list)
    noqa: Directives = field(default_factory=dict)


@dataclass
class FileAnalysis:
    """Result of analyzing one file: kept violations, counts, and facts."""

    facts: FileFacts
    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0


# --- AST helpers -------------------------------------------------------------


def dotted(node: ast.expr) -> str | None:
    """`a.b.c` attribute chain as a dotted string, or None."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return ".".join(reversed(chain))
    return None


def _is_float_const(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_unseeded(node: ast.Call) -> bool:
    """Whether a generator constructor call passes no seed, or a literal None."""
    if node.keywords or len(node.args) > 1:
        return False
    if not node.args:
        return True
    seed = node.args[0]
    return isinstance(seed, ast.Constant) and seed.value is None


def _is_set_expr(node: ast.expr) -> bool:
    """Whether *node* is statically, structurally a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.expr) -> bool:
    target = node.value if isinstance(node, ast.Subscript) else node
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _is_type_checking_test(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "TYPE_CHECKING"
    if isinstance(node, ast.Attribute):
        return node.attr == "TYPE_CHECKING"
    return False


class _SetAttributeCollector(ast.NodeVisitor):
    """First pass over one class: which `self.<name>` attributes are sets?"""

    def __init__(self) -> None:
        self.set_attrs: list[str] = []

    def _maybe_add(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr not in self.set_attrs
        ):
            self.set_attrs.append(target.attr)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation):
            self._maybe_add(node.target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if node.value is not None and _is_set_expr(node.value):
            for target in node.targets:
                self._maybe_add(target)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes collect their own attributes


# --- the per-file rule visitor ----------------------------------------------


class FileLinter(ast.NodeVisitor):
    """All per-file rules over one parsed file, collecting facts as it goes."""

    def __init__(self, path: str, module: str, lines: list[str]) -> None:
        self.path = path
        self.module = module
        self.lines = lines
        self.violations: list[Violation] = []
        self.facts = FileFacts(path=path, module=module)
        # alias -> canonical dotted module ("np" -> "numpy"); from-imports
        # map the bound name to its fully qualified origin.
        self.aliases: dict[str, str] = {}
        self.in_repro = in_packages(module, ("repro",))
        self.in_sim_package = in_packages(module, SIM_PACKAGES)
        self.in_cycle_domain = in_packages(module, CYCLE_DOMAIN_PACKAGES)
        # Call func nodes already reported as NOC102/NOC105: the NOC405
        # reference check skips them so one call is one violation.
        self._reported_call_funcs: set[int] = set()
        self.class_set_attrs: list[dict[str, bool]] = []
        # Module scope is a real scope: module-level set bindings must be
        # visible to comprehensions and class bodies (NOC103 blind spot).
        self.local_sets: list[dict[str, bool]] = [{}]
        self._func_depth = 0
        self._type_checking_depth = 0

    # --- bookkeeping ----------------------------------------------------------

    def report(self, rule: str, node: ast.AST, detail: str = "") -> None:
        message = RULES[rule] + (f" ({detail})" if detail else "")
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.violations.append(Violation(
            rule, self.path, lineno, col, message,
            source_line(self.lines, lineno),
        ))

    def _resolve(self, name: str) -> str:
        head, _, rest = name.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin

    def _context(self, node: ast.AST) -> str:
        return source_line(self.lines, getattr(node, "lineno", 1))

    # --- imports (alias tracking + import facts) -------------------------------

    def _record_import(self, imported: str, node: ast.AST) -> None:
        self.facts.imports.append(ImportFact(
            module=imported,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            toplevel=self._func_depth == 0,
            type_checking=self._type_checking_depth > 0,
            context=self._context(node),
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )
            self._record_import(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
                self._record_import(f"{node.module}.{alias.name}", node)
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    # --- calls (NOC101/111 + NOC102 + NOC105 + set.pop half of NOC103) --------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        if name is not None:
            resolved = self._resolve(name)
            if self._is_ambient_rng(resolved):
                self.report("NOC101", node, resolved)
            elif resolved in _ENTROPY_IF_UNSEEDED and _is_unseeded(node):
                self.report("NOC111", node, f"{resolved}() with no seed")
            elif resolved in _CLOCK_ENTROPY or resolved.startswith("secrets."):
                self.report("NOC102", node, resolved)
                self._reported_call_funcs.add(id(node.func))
            elif self.in_sim_package and resolved in _SIM_TIMER_CALLS:
                self.report("NOC105", node, resolved)
                self._reported_call_funcs.add(id(node.func))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and not node.keywords
            and self._known_set(node.func.value)
        ):
            self.report(
                "NOC103", node,
                "set.pop() removes an arbitrary element; pop from sorted() order",
            )
        self.generic_visit(node)

    # --- clock references in the cycle domain (NOC405) -------------------------

    def _check_clock_reference(self, node: ast.expr, name: str | None) -> None:
        if name is None or not self.in_cycle_domain:
            return
        if id(node) in self._reported_call_funcs:
            return  # the call itself was already NOC102/NOC105
        if self._resolve(name) in _CLOCK_READS:
            self.report("NOC405", node, self._resolve(name))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_clock_reference(node, dotted(node))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_clock_reference(node, node.id)
        self.generic_visit(node)

    @staticmethod
    def _is_ambient_rng(resolved: str) -> bool:
        for prefix in ("random.", "numpy.random."):
            if resolved.startswith(prefix):
                return resolved.rsplit(".", 1)[-1] not in _RNG_CONSTRUCTORS
        return False

    # --- set iteration (NOC103) ------------------------------------------------

    def _known_set(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in reversed(self.local_sets))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_set_attrs
        ):
            return node.attr in self.class_set_attrs[-1]
        return False

    def _check_iteration(self, iter_node: ast.expr, where: ast.AST) -> None:
        if self._known_set(iter_node):
            self.report("NOC103", where, "wrap in sorted() for a stable order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_sets[-1][target.id] = True
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            isinstance(node.target, ast.Name)
            and (_is_set_annotation(node.annotation)
                 or (node.value is not None and _is_set_expr(node.value)))
        ):
            self.local_sets[-1][node.target.id] = True
        self.generic_visit(node)

    # --- scopes ----------------------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.local_sets.append({})
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1
        self.local_sets.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        collector = _SetAttributeCollector()
        for stmt in node.body:
            collector.visit(stmt)
        self.class_set_attrs.append(dict.fromkeys(collector.set_attrs, True))
        self.generic_visit(node)
        self.class_set_attrs.pop()

    # --- mutable defaults (NOC104) ---------------------------------------------

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report("NOC104", default)
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            ):
                self.report("NOC104", default)

    # --- safety (NOC301 + NOC302) ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report("NOC301", node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if self.in_repro and has_eq and any(
            _is_float_const(operand) for operand in [node.left] + node.comparators
        ):
            self.report("NOC302", node, "compare against a tolerance instead")
        self.generic_visit(node)


# --- entry points -------------------------------------------------------------


def parse_failure(source_path: str, exc: SyntaxError) -> Violation:
    return Violation(
        "NOC100", source_path, exc.lineno or 1, (exc.offset or 1) - 1,
        RULES["NOC100"] + f" ({exc.msg})",
    )


def analyze_source(source: str, path: str) -> FileAnalysis:
    """Analyze one file's text: per-file rules and facts."""
    module = module_name(Path(path))
    lines = source.splitlines()
    directives = scan_noqa(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileAnalysis(
            facts=FileFacts(path=path, module=module, noqa=directives),
            violations=[parse_failure(path, exc)],
        )

    linter = FileLinter(path, module, lines)
    linter.visit(tree)
    facts = linter.facts
    facts.noqa = directives
    kept, suppressed = apply_noqa(linter.violations, directives, path)
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return FileAnalysis(facts=facts, violations=kept, suppressed=suppressed)
