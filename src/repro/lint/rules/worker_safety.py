"""RPR3xx — worker-safety (spawn-pool picklability) rules.

The orchestrator's worker pool uses the ``spawn`` start method, so
everything that crosses the process boundary — run specs, the function
a pool maps, their payloads — must pickle. Lambdas, closures and
locally defined classes do not: they fail at submission time at best,
or (worse) only when a crashed worker is replaced mid-sweep and the
respawn re-pickles the batch. These rules catch the pattern at review
time instead.

The check is call-site-shaped: an argument to a known worker-crossing
API (``Orchestrator.run_spec``/``run_specs``, ``WorkerPool.map``,
``RunSpec``/``make_run_spec`` construction, executor ``submit``) that
is a ``lambda`` (RPR301) or a name bound to a function/class defined
inside the enclosing function (RPR302). Parent-side observer callbacks
(``on_event=``) never cross the boundary and are exempt.

RPR303 guards the *retry* side of worker safety: a computed
``time.sleep`` inside a loop is hand-rolled backoff — unbounded,
unjittered, and invisible to the backoff metrics — and must go through
:class:`repro.supervise.retry.RetryPolicy` instead. Fixed-interval
polling (``time.sleep(0.05)`` with a literal argument) stays legal, and
the rule is silent inside ``repro.supervise`` itself, where the policy's
own sleep lives.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_ALL, register
from repro.lint.violation import Violation

__all__ = ["WORKER_API_METHODS", "WORKER_API_CALLABLES", "OBSERVER_KEYWORDS"]

#: Attribute-call names that hand their arguments to worker processes.
WORKER_API_METHODS: Tuple[str, ...] = ("run_spec", "run_specs", "submit")

#: ``.map(...)`` crosses the boundary only on pool-like receivers; the
#: receiver's name must contain one of these fragments.
_POOL_RECEIVER_FRAGMENTS: Tuple[str, ...] = ("pool", "executor")

#: Plain-call names whose arguments must be picklable spec data.
WORKER_API_CALLABLES: Tuple[str, ...] = (
    "RunSpec",
    "make_run_spec",
    "repro.jobs.spec.RunSpec",
    "repro.jobs.spec.make_run_spec",
    "repro.jobs.RunSpec",
    "repro.jobs.make_run_spec",
)

#: Keyword arguments consumed on the parent side (never pickled).
OBSERVER_KEYWORDS: Tuple[str, ...] = ("on_event",)


def _violation(
    module: ModuleContext, node: ast.AST, code: str, message: str
) -> Violation:
    lineno = getattr(node, "lineno", 1)
    return Violation(
        path=module.path,
        line=lineno,
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
        source=module.source_line(lineno),
    )


def _is_worker_api(node: ast.Call, module: ModuleContext) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in WORKER_API_METHODS:
            return True
        if func.attr == "map":
            receiver = func.value
            name = ""
            if isinstance(receiver, ast.Name):
                name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                name = receiver.attr
            return any(
                fragment in name.lower()
                for fragment in _POOL_RECEIVER_FRAGMENTS
            )
        return False
    resolved = module.resolve_call(node)
    return resolved in WORKER_API_CALLABLES


def _crossing_args(node: ast.Call) -> List[ast.expr]:
    """The argument expressions that will be pickled."""
    args: List[ast.expr] = list(node.args)
    for keyword in node.keywords:
        if keyword.arg in OBSERVER_KEYWORDS:
            continue
        args.append(keyword.value)
    return args


def _pickled_values(expr: ast.expr) -> Iterator[ast.expr]:
    """The sub-expressions of *expr* whose **values** cross the boundary.

    Containers and comprehensions are transparent (their elements are
    pickled); everything else is opaque — in ``measure(m)`` the parent
    process calls ``measure`` and only its *result* is pickled, so the
    local name ``measure`` is fine there. This keeps the rules precise:
    a lambda/local name is flagged only where the object itself would
    be handed to a worker.
    """
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        for element in expr.elts:
            yield from _pickled_values(element)
    elif isinstance(expr, ast.Dict):
        for value in expr.values:
            if value is not None:
                yield from _pickled_values(value)
    elif isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        yield from _pickled_values(expr.elt)
    elif isinstance(expr, ast.DictComp):
        yield from _pickled_values(expr.value)
    elif isinstance(expr, ast.Starred):
        yield from _pickled_values(expr.value)
    elif isinstance(expr, ast.IfExp):
        yield from _pickled_values(expr.body)
        yield from _pickled_values(expr.orelse)
    elif isinstance(expr, ast.BinOp):
        # list concatenation: [a] + [b]
        yield from _pickled_values(expr.left)
        yield from _pickled_values(expr.right)
    else:
        yield expr


def _local_definitions(function: ast.AST) -> Set[str]:
    """Names of functions/classes defined inside *function*."""
    names: Set[str] = set()
    for child in ast.walk(function):
        if child is function:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            names.add(child.name)
    return names


@register(
    "RPR301",
    "lambda-into-worker-api",
    "lambda passed into a worker-crossing API",
    scope=SCOPE_ALL,
    rationale=(
        "Lambdas are unpicklable under the spawn start method; the pool "
        "raises at submission — or during a mid-sweep worker respawn. "
        "Use a module-level function."
    ),
)
def check_lambda_into_worker(module: ModuleContext) -> Iterator[Violation]:
    """Flag lambdas whose value would be pickled to a worker."""
    for node in module.nodes:
        if not isinstance(node, ast.Call) or not _is_worker_api(node, module):
            continue
        for arg in _crossing_args(node):
            for sub in _pickled_values(arg):
                if isinstance(sub, ast.Lambda):
                    yield _violation(
                        module, sub, "RPR301",
                        "lambda passed into a worker-crossing API is "
                        "unpicklable under the spawn pool; use a "
                        "module-level function",
                    )


@register(
    "RPR302",
    "local-callable-into-worker-api",
    "locally defined function/class passed into a worker-crossing API",
    scope=SCOPE_ALL,
    rationale=(
        "Functions and classes defined inside another function pickle by "
        "qualified name and fail to resolve in a spawned worker; define "
        "them at module level."
    ),
)
def check_local_callable_into_worker(
    module: ModuleContext,
) -> Iterator[Violation]:
    """Flag enclosing-scope callables handed to worker APIs."""
    functions = [
        node
        for node in module.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Nested scopes are walked by their enclosing function too; dedupe
    # so one offending argument yields one violation.
    reported: Set[Tuple[int, int]] = set()
    for function in functions:
        local_names = _local_definitions(function)
        if not local_names:
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or not _is_worker_api(
                node, module
            ):
                continue
            for arg in _crossing_args(node):
                for sub in _pickled_values(arg):
                    if (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in local_names
                    ):
                        spot = (sub.lineno, sub.col_offset)
                        if spot in reported:
                            continue
                        reported.add(spot)
                        yield _violation(
                            module, sub, "RPR302",
                            f"locally defined callable {sub.id!r} passed "
                            "into a worker-crossing API cannot be "
                            "unpickled in a spawned worker; define it at "
                            "module level",
                        )


@register(
    "RPR303",
    "bare-sleep-retry-loop",
    "computed time.sleep backoff inside a retry loop",
    scope=SCOPE_ALL,
    rationale=(
        "A computed time.sleep inside a loop is hand-rolled retry "
        "backoff: unbounded, unjittered, and invisible to the "
        "pool_backoff_seconds metrics. Route the delay through "
        "repro.supervise.retry.RetryPolicy (RetrySession.sleep), which "
        "caps it and draws deterministic jitter from the seeded RNG."
    ),
)
def check_bare_sleep_retry_loop(module: ModuleContext) -> Iterator[Violation]:
    """Flag computed ``time.sleep`` calls inside ``while``/``for`` loops.

    A *literal* sleep in a loop is fixed-interval polling and stays
    legal; a computed one is almost always a grown-by-hand backoff
    schedule. ``repro.supervise`` is exempt — ``RetrySession.sleep`` is
    where the one sanctioned computed sleep lives.
    """
    if module.in_package("repro.supervise"):
        return
    reported: Set[Tuple[int, int]] = set()
    for loop in module.nodes:
        if not isinstance(loop, (ast.While, ast.For, ast.AsyncFor)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve_call(node) != "time.sleep":
                continue
            if not node.args or isinstance(node.args[0], ast.Constant):
                continue
            # Nested loops are walked by their enclosing loop too;
            # dedupe so one call yields one violation.
            spot = (node.lineno, node.col_offset)
            if spot in reported:
                continue
            reported.add(spot)
            yield _violation(
                module, node, "RPR303",
                "computed time.sleep inside a loop is hand-rolled retry "
                "backoff; use repro.supervise.retry.RetryPolicy "
                "(RetrySession.sleep) for capped, seeded delays",
            )