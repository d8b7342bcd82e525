"""Whole-program rules: invariants followed across calls and modules.

Each rule here follows an invariant *across* function and module
boundaries using the call graph, so one rule covers a violation at any
depth — inline in the function, or any number of calls away:

* **RPR201** — fsync before every rename. A rename (``os.replace``
  anywhere; in ``repro.durable``/``repro.service`` also ``os.rename``,
  ``shutil.move`` and the one-argument ``.rename``/``.replace`` method
  forms) with no ``os.fsync`` before it in the function's flattened call
  stream can commit an empty or truncated file after a crash.
* **RPR501** — no blocking in the event loop. A ``repro.service``
  coroutine that calls a blocking primitive
  (:data:`~repro.flow.callgraph.BLOCKING_CALLS`),
  directly or through a chain of synchronous helpers it calls inline,
  stalls every connection. Executor and task dispatches are exempt.
* **RPR601** — interprocedural determinism taint. A sim-core function
  that calls a helper *outside* the core packages which (transitively)
  reads a clock, OS entropy, or an unseeded RNG has the same
  reproducibility bug RPR101–103 ban, laundered through one call hop.
  Also flags iteration over ``set`` literals/constructors in sim-core
  functions that produce output — unordered iteration order escaping
  into results is PYTHONHASHSEED-dependent.
* **RPR604** — await-interleaving race. Async methods of service
  classes that mutate shared instance state on *both sides* of an
  ``await`` can interleave with a concurrent handler between the
  mutations; all mutation is supposed to flow through the single-writer
  ``_handle`` seam.

Every pass is deterministic: functions are visited in sorted-qname
order, worklists are seeded sorted, and each finding is deduplicated on
a stable key — two runs over the same tree emit byte-identical reports.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.flow.callgraph import KIND_CALL, PrimitiveCall, Resolution
from repro.flow.symbols import FunctionInfo
from repro.lint.context import ModuleContext
from repro.lint.registry import (
    SCOPE_ALL,
    SCOPE_DURABLE,
    SCOPE_SERVICE,
    SCOPE_SIM_CORE,
    in_scope,
    register_flow,
)
from repro.lint.violation import Violation

__all__ = ["SINGLE_WRITER_SEAMS"]

#: Method names that are the sanctioned single-writer mutation seam:
#: calls to them are not counted as shared-state mutations by RPR604,
#: because the seam runs on exactly one consumer task by construction.
SINGLE_WRITER_SEAMS: Tuple[str, ...] = ("_handle",)

#: Inline depth cap for the RPR201 event splice (cycles are skipped
#: outright; this bounds pathological deep chains).
_INLINE_DEPTH = 12

#: Per-file code waiving a flow source site, by primitive category: a
#: ``noqa`` that already waives the lexical rule at the source line also
#: waives the interprocedural findings seeded by that line.
_SOURCE_WAIVERS = {
    "clock": ("RPR101", "RPR601"),
    "rng": ("RPR102", "RPR601"),
    "entropy": ("RPR103", "RPR601"),
    "blocking": ("RPR501",),
}


def _violation(
    analysis: Any, fn: FunctionInfo, line: int, code: str, message: str
) -> Violation:
    context = analysis.symtab.contexts[fn.module]
    return Violation(
        path=context.path,
        line=line,
        col=1,
        code=code,
        message=message,
        source=context.source_line(line),
    )


def _source_waived(
    analysis: Any, primitive: PrimitiveCall
) -> bool:
    """Whether the primitive's own site carries a waiving ``noqa``."""
    fn = analysis.symtab.functions[primitive.caller]
    path = analysis.symtab.contexts[fn.module].path
    return any(
        analysis.covers(path, code, primitive.lineno)
        for code in _SOURCE_WAIVERS.get(primitive.category, ())
    )


def _site(analysis: Any, primitive: PrimitiveCall) -> str:
    fn = analysis.symtab.functions[primitive.caller]
    path = analysis.symtab.contexts[fn.module].path
    return f"{path}:{primitive.lineno}"


def _reverse_reach(
    analysis: Any,
    direct: Dict[str, PrimitiveCall],
    kinds: Optional[Tuple[str, ...]] = None,
    sync_only: bool = False,
) -> Tuple[Dict[str, PrimitiveCall], Dict[str, str]]:
    """Reverse-BFS from primitive-holding functions.

    Returns ``(root_primitive, next_hop)``: for every function that can
    reach a primitive, the primitive it reaches and the first callee on
    one shortest path there (for rendering). Seeded and traversed in
    sorted order, so ties always break the same way.
    """
    graph = analysis.graph
    functions = analysis.symtab.functions
    reach: Dict[str, PrimitiveCall] = dict(direct)
    hop: Dict[str, str] = {}
    queue = deque(sorted(direct))
    while queue:
        current = queue.popleft()
        for edge in graph.callers(current):
            if kinds is not None and edge.kind not in kinds:
                continue
            caller = edge.caller
            if caller in reach:
                continue
            if sync_only and caller in functions and (
                functions[caller].is_async
            ):
                # Async callers are their own analysis roots; the chain
                # below them is what this reach set is for.
                continue
            reach[caller] = reach[current]
            hop[caller] = current
            queue.append(caller)
    return reach, hop


def _render_path(
    analysis: Any,
    start: str,
    hop: Dict[str, str],
    primitive: PrimitiveCall,
) -> str:
    parts = [start]
    current = start
    seen = {start}
    while current in hop:
        current = hop[current]
        if current in seen:
            break
        seen.add(current)
        parts.append(current)
    parts.append(f"{primitive.target} ({_site(analysis, primitive)})")
    return " -> ".join(parts)


# ---------------------------------------------------------------------
# RPR201 — fsync before every rename, at any call depth
# ---------------------------------------------------------------------

#: Rename spellings that publish a file. ``os.replace`` is audited
#: everywhere; the others only when the root function is in the durable
#: scope, because the method-form match is heuristic (any one-argument
#: ``.rename(...)``/``.replace(...)`` call; ``str.replace`` takes two).
_RENAME_TARGETS = ("os.replace", "os.rename", "shutil.move")
_RENAME_METHODS = frozenset({"rename", "replace"})


@dataclass(frozen=True)
class _PublishEvent:
    """One fsync or rename in a (possibly inlined) event stream."""

    kind: str  # "fsync" | "rename"
    label: str
    site: str  # "module:line", for messages


def _rename_label(context: ModuleContext, call: ast.Call) -> Optional[str]:
    """Display label if *call* is a rename-family publish, else ``None``."""
    resolved = context.resolve(call.func)
    if resolved in _RENAME_TARGETS:
        return resolved
    if resolved is not None:
        return None
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _RENAME_METHODS
        and len(call.args) == 1
        and not call.keywords
    ):
        return f".{func.attr}"
    return None


def _call_events(
    analysis: Any,
    context: ModuleContext,
    call: ast.Call,
    resolution: Resolution,
    memo: Dict[str, List[_PublishEvent]],
    stack: Set[str],
) -> List[_PublishEvent]:
    """The fsync/rename events one call contributes, callees inlined.

    A rename whose own line carries ``noqa[RPR201]`` is dropped here, so
    the waiver also covers every caller that reaches it.
    """
    if resolution.spawn != KIND_CALL:
        return []  # task/executor work is not ordered with this body
    if context.resolve(call.func) == "os.fsync":
        return [_PublishEvent("fsync", "os.fsync", "")]
    label = _rename_label(context, call)
    if label is not None:
        if analysis.covers(context.path, "RPR201", call.lineno):
            return []
        site = f"{context.module}:{call.lineno}"
        return [_PublishEvent("rename", label, site)]
    if resolution.kind != "project":
        return []
    qname = resolution.target
    cached = memo.get(qname)
    if cached is not None:
        return cached
    if qname in stack or len(stack) > _INLINE_DEPTH:
        return []
    fn = analysis.symtab.functions[qname]
    callee = analysis.symtab.contexts[fn.module]
    stack.add(qname)
    events: List[_PublishEvent] = []
    for inner, inner_resolution in analysis.builder.resolve_calls(fn):
        events.extend(
            _call_events(analysis, callee, inner, inner_resolution, memo,
                         stack)
        )
    stack.discard(qname)
    memo[qname] = events
    return events


@register_flow(
    "RPR201",
    "rename-without-fsync",
    "rename with no os.fsync before it in the function or its callees",
    scope=SCOPE_ALL,
    rationale=(
        "A rename publishes a file atomically, but only fsync-then-rename "
        "makes the publish durable: without the fsync a power loss can "
        "expose a committed-but-empty file that recovery then trusts. "
        "Each function's calls are flattened into one ordered fsync/"
        "rename stream, so a publish delegated to a helper needs an "
        "os.fsync ordered before it just as an inline one does. "
        "os.replace is audited everywhere; os.rename, shutil.move and "
        "the pathlib rename/replace methods where scheduler state is "
        "persisted (repro.durable, repro.service)."
    ),
)
def check_rename_without_fsync(analysis: Any) -> Iterator[Violation]:
    """Flag calls that rename, or reach a rename, before any fsync."""
    by_node = {id(fn.node): fn for fn in analysis.symtab.functions.values()}
    memo: Dict[str, List[_PublishEvent]] = {}
    for module in analysis.program.modules:
        context = module.context
        if context is None:
            continue
        durable = in_scope(SCOPE_DURABLE, context)
        for scope in context.nodes:
            if not isinstance(
                scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            fn = by_node.get(id(scope))
            fsynced = False
            for call, resolution in analysis.builder.resolve_body(
                context, scope, fn
            ):
                reported = False
                for event in _call_events(
                    analysis, context, call, resolution, memo, set()
                ):
                    if event.kind == "fsync":
                        fsynced = True
                    elif not (fsynced or reported) and (
                        durable or event.label == "os.replace"
                    ):
                        reported = True
                        yield _rename_finding(
                            context, fn, call, resolution, event
                        )


def _rename_finding(
    context: ModuleContext,
    fn: Optional[FunctionInfo],
    call: ast.Call,
    resolution: Resolution,
    event: _PublishEvent,
) -> Violation:
    if _rename_label(context, call) is not None:
        message = (
            f"{event.label}() publishes without a preceding os.fsync in "
            "this function; a crash can expose a torn or empty committed "
            "file (write-tmp, flush, fsync, then rename)"
        )
    else:
        where = fn.qname if fn is not None else "this code"
        message = (
            f"{where} calls {resolution.target}, which publishes via "
            f"{event.label}() ({event.site}) with no os.fsync ordered "
            "before it anywhere on the path; a crash can commit an empty "
            "or truncated file"
        )
    return Violation(
        path=context.path,
        line=call.lineno,
        col=1,
        code="RPR201",
        message=message,
        source=context.source_line(call.lineno),
    )


# ---------------------------------------------------------------------
# RPR501 — no blocking call in a service coroutine, at any call depth
# ---------------------------------------------------------------------


@register_flow(
    "RPR501",
    "blocking-call-in-async",
    "service coroutine calls a blocking primitive, directly or through "
    "sync helpers",
    scope=SCOPE_SERVICE,
    rationale=(
        "The daemon is one event loop: a time.sleep or synchronous file/"
        "process/network call inside a coroutine stalls every connection "
        "and suppresses heartbeat ticks, making a loaded daemon "
        "indistinguishable from a wedged one. Wrapping the call in a "
        "synchronous helper stalls the loop just as thoroughly, so plain "
        "call chains are followed into every sync helper. Use "
        "asyncio.sleep, or dispatch the blocking work through "
        "loop.run_in_executor / asyncio.to_thread — executor and task "
        "edges are the sanctioned escape."
    ),
)
def check_blocking_in_async(analysis: Any) -> Iterator[Violation]:
    """Flag coroutine calls that block, inline or via sync helpers."""
    symtab = analysis.symtab
    graph = analysis.graph

    def blocking(qname: str) -> List[PrimitiveCall]:
        return [
            primitive
            for primitive in graph.primitives_by_caller.get(qname, [])
            if primitive.category == "blocking"
            and primitive.kind == KIND_CALL
            and not _source_waived(analysis, primitive)
        ]

    direct: Dict[str, PrimitiveCall] = {}
    for qname in sorted(graph.primitives_by_caller):
        found = blocking(qname)
        if found and not symtab.functions[qname].is_async:
            direct[qname] = found[0]
    reach, hop = _reverse_reach(
        analysis, direct, kinds=(KIND_CALL,), sync_only=True
    )
    flagged: Set[Tuple[str, str]] = set()
    for qname in sorted(symtab.functions):
        fn = symtab.functions[qname]
        if not fn.is_async or not in_scope(
            SCOPE_SERVICE, symtab.contexts[fn.module]
        ):
            continue
        for primitive in blocking(qname):
            yield _violation(
                analysis, fn, primitive.lineno, "RPR501",
                f"blocking call {primitive.target}() inside 'async def "
                f"{fn.name}' stalls the daemon's event loop; use the "
                "asyncio equivalent or run it in an executor",
            )
        for edge in graph.callees(qname):
            callee = symtab.functions.get(edge.callee)
            if (
                edge.kind != KIND_CALL
                or callee is None
                or callee.is_async
                or edge.callee not in reach
                or (qname, edge.callee) in flagged
            ):
                continue
            flagged.add((qname, edge.callee))
            primitive = reach[edge.callee]
            path = _render_path(analysis, edge.callee, hop, primitive)
            yield _violation(
                analysis, fn, edge.lineno, "RPR501",
                f"'async def {fn.name}' reaches blocking "
                f"{primitive.target}() through synchronous helpers: "
                f"{qname} -> {path}; the chain stalls the event loop — "
                "await an async equivalent or dispatch the helper via "
                "run_in_executor / asyncio.to_thread",
            )


# ---------------------------------------------------------------------
# RPR601 — interprocedural determinism taint
# ---------------------------------------------------------------------


def _body_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """All nodes executed by *node*'s own body (nested scopes skipped)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Lambda),
        ):
            continue
        yield child
        yield from _body_nodes(child)


def _has_output(fn: FunctionInfo) -> bool:
    """Whether *fn* returns or yields a value (results can escape)."""
    for node in _body_nodes(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _set_iteration_lines(analysis: Any, fn: FunctionInfo) -> List[int]:
    """Lines in *fn* that iterate a set literal/constructor directly."""
    context = analysis.symtab.contexts[fn.module]

    def is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Set):
            return True
        if isinstance(expr, ast.Call):
            return context.resolve(expr.func) in ("set", "frozenset")
        return False

    lines: List[int] = []
    for node in _body_nodes(fn.node):
        if isinstance(node, ast.For) and is_set_expr(node.iter):
            lines.append(node.iter.lineno)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        ):
            for comp in node.generators:
                if is_set_expr(comp.iter):
                    lines.append(comp.iter.lineno)
    return sorted(set(lines))


@register_flow(
    "RPR601",
    "interprocedural-determinism-taint",
    "sim-core call path reaches a nondeterminism source outside the core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "RPR101-103 see one file at a time, so a wall-clock read or "
        "unseeded RNG draw moved into a helper module outside the core "
        "packages silently re-enters the simulation through an innocent-"
        "looking call. The taint pass follows every call chain from "
        "sim-core functions and flags the boundary edge where core code "
        "first calls into a tainted non-core helper. Unordered set "
        "iteration feeding a function's output is flagged for the same "
        "reason: iteration order depends on PYTHONHASHSEED. Like RPR1xx, "
        "findings can never be baselined — fix or noqa with justification."
    ),
)
def check_determinism_taint(analysis: Any) -> Iterator[Violation]:
    """Flag sim-core → tainted-non-core boundary edges (+ set iteration)."""
    symtab = analysis.symtab
    direct: Dict[str, PrimitiveCall] = {}
    for qname in sorted(analysis.graph.primitives_by_caller):
        for primitive in analysis.graph.primitives_by_caller[qname]:
            if primitive.category not in ("clock", "entropy", "rng"):
                continue
            if _source_waived(analysis, primitive):
                continue
            direct.setdefault(qname, primitive)
            break
    reach, hop = _reverse_reach(analysis, direct)

    def is_core(qname: str) -> bool:
        fn = symtab.functions.get(qname)
        if fn is None:
            return False
        return in_scope(SCOPE_SIM_CORE, symtab.contexts[fn.module])

    flagged: Set[Tuple[str, str]] = set()
    for qname in sorted(symtab.functions):
        if not is_core(qname):
            continue
        fn = symtab.functions[qname]
        for edge in analysis.graph.callees(qname):
            callee = edge.callee
            if callee not in reach or is_core(callee):
                continue
            key = (qname, callee)
            if key in flagged:
                continue
            flagged.add(key)
            primitive = reach[callee]
            path = _render_path(analysis, callee, hop, primitive)
            yield _violation(
                analysis, fn, edge.lineno, "RPR601",
                f"sim-core function {qname} calls {callee}, which "
                f"reaches nondeterministic {primitive.target}() "
                f"[{primitive.category}] outside the simulation core: "
                f"{path}; results must be a pure function of the seed",
            )
        if _has_output(fn):
            for line in _set_iteration_lines(analysis, fn):
                yield _violation(
                    analysis, fn, line, "RPR601",
                    f"sim-core function {qname} iterates a set while "
                    "producing output; set iteration order depends on "
                    "PYTHONHASHSEED and leaks into results — sort the "
                    "elements first",
                )


# ---------------------------------------------------------------------
# RPR604 — await-interleaving race
# ---------------------------------------------------------------------

_RaceEvent = Tuple[str, int, str]  # ("await"|"mut", lineno, attr name)


def _self_store_attr(target: ast.expr) -> Optional[str]:
    """Attr name if *target* stores into ``self`` state, else ``None``.

    Covers plain attribute stores (``self.x = …``), container-slot
    stores (``self.x[k] = …``), and either buried in tuple/list
    unpacking targets.
    """
    if isinstance(target, ast.Attribute) and isinstance(
        target.value, ast.Name
    ) and target.value.id == "self":
        return target.attr
    if isinstance(target, ast.Subscript):
        value = target.value
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ) and value.value.id == "self":
            return value.attr
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            found = _self_store_attr(element)
            if found is not None:
                return found
    return None


def _direct_self_mutation(fn: FunctionInfo) -> bool:
    """Whether *fn*'s own body stores into ``self`` state."""
    for node in _body_nodes(fn.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if _self_store_attr(target) is not None:
                return True
    return False


def _mutates_self(
    analysis: Any, qname: str, stack: Optional[Set[str]] = None
) -> bool:
    """Whether method *qname* mutates instance state, transitively.

    Follows plain calls into same-class methods (the hierarchy already
    resolved them); seam methods (:data:`SINGLE_WRITER_SEAMS`) are
    excluded — mutation through the seam is the sanctioned pattern.
    Memoised per analysis; cycles conservatively report ``False`` for
    the back edge (the cycle entry still reports its own stores).
    """
    memo: Dict[str, bool] = analysis.mutation_memo
    cached = memo.get(qname)
    if cached is not None:
        return cached
    if stack is None:
        stack = set()
    if qname in stack:
        return False
    fn = analysis.symtab.functions.get(qname)
    if fn is None or fn.class_qname is None:
        memo[qname] = False
        return False
    if _direct_self_mutation(fn):
        memo[qname] = True
        return True
    stack.add(qname)
    result = False
    for _call, resolution in analysis.builder.resolve_calls(fn):
        if resolution.kind != "project" or resolution.spawn != KIND_CALL:
            continue
        target = analysis.symtab.functions.get(resolution.target)
        if target is None or target.class_qname != fn.class_qname:
            continue
        if target.name in SINGLE_WRITER_SEAMS:
            continue
        if _mutates_self(analysis, resolution.target, stack):
            result = True
            break
    stack.discard(qname)
    memo[qname] = result
    return result


class _RaceWalker:
    """CFG-lite evaluator for mutation/await interleaving.

    State is ``(mutated, awaited_after_mutation)`` booleans, ``None``
    for a dead branch. Branches merge by union (either path may run);
    loops iterate their body to a small fixpoint so a mutation late in
    iteration *n* followed by an await early in iteration *n+1* is
    seen. The walk stops at the first finding — one violation per
    function is enough signal.
    """

    def __init__(self, analysis: Any, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.context = analysis.symtab.contexts[fn.module]
        self.finding: Optional[Tuple[int, str]] = None

    # -- mutation classification --------------------------------------

    def _is_self_store(self, target: ast.expr) -> Optional[str]:
        """Attr name if *target* stores into ``self`` state."""
        return _self_store_attr(target)

    def _call_mutates(self, call: ast.Call) -> bool:
        """Whether *call* invokes a same-class method that mutates self."""
        fn = self.fn
        if fn.class_qname is None:
            return False
        resolution = self.analysis.builder.resolve_call(fn, call)
        if resolution.kind != "project" or resolution.spawn != KIND_CALL:
            return False
        target = self.analysis.symtab.functions.get(resolution.target)
        if target is None or target.class_qname != fn.class_qname:
            return False
        if target.name in SINGLE_WRITER_SEAMS:
            return False
        return _mutates_self(self.analysis, resolution.target)

    # -- expression event streams -------------------------------------

    def _expr_events(self, expr: ast.expr) -> List[_RaceEvent]:
        events: List[_RaceEvent] = []
        if isinstance(expr, ast.Lambda):
            return events
        if isinstance(expr, ast.Await):
            events.extend(self._expr_events(expr.value))
            if isinstance(expr.value, ast.Call) and self._call_mutates(
                expr.value
            ):
                events.append(("mut", expr.lineno, "<method>"))
            events.append(("await", expr.lineno, ""))
            return events
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                events.extend(self._expr_events(child))
        if isinstance(expr, ast.Call) and self._call_mutates(expr):
            events.append(("mut", expr.lineno, "<method>"))
        return events

    # -- state machine -------------------------------------------------

    def _apply(
        self,
        state: Optional[Tuple[bool, bool]],
        events: List[_RaceEvent],
    ) -> Optional[Tuple[bool, bool]]:
        if state is None:
            return None
        mutated, awaited = state
        for kind, lineno, name in events:
            if kind == "await":
                awaited = awaited or mutated
            else:
                if awaited and self.finding is None:
                    self.finding = (lineno, name)
                mutated = True
        return (mutated, awaited)

    @staticmethod
    def _merge(
        first: Optional[Tuple[bool, bool]],
        second: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        if first is None:
            return second
        if second is None:
            return first
        return (first[0] or second[0], first[1] or second[1])

    def _stmt_events(self, stmt: ast.stmt) -> List[_RaceEvent]:
        """Linear events of a non-branching statement."""
        events: List[_RaceEvent] = []
        if isinstance(stmt, ast.Assign):
            events.extend(self._expr_events(stmt.value))
            for target in stmt.targets:
                name = self._is_self_store(target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, ast.AugAssign):
            events.extend(self._expr_events(stmt.value))
            name = self._is_self_store(stmt.target)
            if name is not None:
                events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                events.extend(self._expr_events(stmt.value))
                name = self._is_self_store(stmt.target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                events.extend(self._expr_events(stmt.value))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                name = self._is_self_store(target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    events.extend(self._expr_events(child))
        return events

    def _run_body(
        self,
        body: List[ast.stmt],
        state: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        for stmt in body:
            if state is None:
                return None
            state = self._run_stmt(stmt, state)
        return state

    def _run_stmt(
        self,
        stmt: ast.stmt,
        state: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        if state is None:
            return None
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return state
        if isinstance(stmt, ast.Return):
            self._apply(state, self._stmt_events(stmt))
            return None
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.If):
            state = self._apply(state, self._expr_events(stmt.test))
            taken = self._run_body(stmt.body, state)
            skipped = self._run_body(stmt.orelse, state)
            return self._merge(taken, skipped)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head: List[_RaceEvent] = []
            if isinstance(stmt, ast.While):
                head = self._expr_events(stmt.test)
            else:
                head = self._expr_events(stmt.iter)
                if isinstance(stmt, ast.AsyncFor):
                    head.append(("await", stmt.lineno, ""))
            # Bounded fixpoint: run the body a few times so a mutation
            # at the bottom of one iteration meets an await at the top
            # of the next.
            merged = state
            for _ in range(4):
                loop_state = self._apply(merged, head)
                loop_state = self._run_body(stmt.body, loop_state)
                combined = self._merge(merged, loop_state)
                if combined == merged:
                    break
                merged = combined
            merged = self._apply(merged, head)  # final test/iter eval
            return self._run_body(stmt.orelse, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            events: List[_RaceEvent] = []
            for item in stmt.items:
                events.extend(self._expr_events(item.context_expr))
            if isinstance(stmt, ast.AsyncWith):
                events.append(("await", stmt.lineno, ""))
            state = self._apply(state, events)
            state = self._run_body(stmt.body, state)
            if isinstance(stmt, ast.AsyncWith):
                state = self._apply(
                    state, [("await", stmt.lineno, "")]
                )
            return state
        if isinstance(stmt, ast.Try):
            after_body = self._run_body(stmt.body, state)
            merged = after_body
            for handler in stmt.handlers:
                # An exception can fire anywhere in the body, so the
                # handler starts from the body-entry state too.
                handled = self._run_body(handler.body, state)
                merged = self._merge(merged, handled)
            merged = self._merge(
                merged, self._run_body(stmt.orelse, after_body)
            )
            return self._run_body(stmt.finalbody, merged)
        return self._apply(state, self._stmt_events(stmt))

    def run(self) -> Optional[Tuple[int, str]]:
        self._run_body(list(self.fn.node.body), (False, False))
        return self.finding


@register_flow(
    "RPR604",
    "await-interleaving-race",
    "service state mutated on both sides of an await outside the seam",
    scope=SCOPE_SERVICE,
    rationale=(
        "Every await is a point where another handler coroutine can run "
        "on the same event loop. An async service method that mutates "
        "shared instance state, awaits, then mutates again has published "
        "a half-updated view to whatever interleaves — the class of race "
        "the single-writer _handle seam exists to prevent. Calls through "
        "the seam are exempt; everything else should either mutate only "
        "before its first await or route the mutation through the seam."
    ),
)
def check_await_interleaving(analysis: Any) -> Iterator[Violation]:
    """Flag async service methods mutating self across an await."""
    symtab = analysis.symtab
    for qname in sorted(symtab.functions):
        fn = symtab.functions[qname]
        if not fn.is_async or fn.class_qname is None:
            continue
        if not in_scope(SCOPE_SERVICE, symtab.contexts[fn.module]):
            continue
        finding = _RaceWalker(analysis, fn).run()
        if finding is None:
            continue
        lineno, name = finding
        what = (
            "instance state (via a mutating method call)"
            if name == "<method>"
            else f"attribute 'self.{name}'"
        )
        yield _violation(
            analysis, fn, lineno, "RPR604",
            f"'async def {fn.name}' mutates {what} after an await that "
            "followed an earlier mutation; a concurrent handler can "
            "observe or clobber the half-updated state between the two "
            "writes — mutate only before the first await, or route the "
            "write through the single-writer _handle seam",
        )
