"""RPR4xx — telemetry hygiene rules.

The telemetry contract (docs/observability.md): disabled runs are
byte-identical to an uninstrumented build, and the disabled fast path
is one ``current()`` read plus one ``is None`` branch. Two patterns
break that contract syntactically:

* **Guard bypass** (RPR401) — chaining straight off the context,
  ``current().tracer.begin(...)``, crashes with ``AttributeError`` the
  moment telemetry is disabled, i.e. in every default run. Correct
  sites bind ``tel = current()`` once and branch on ``tel is None``.
* **Context installation from the core** (RPR402) — ``configure()`` /
  ``deactivate()`` mutate process-wide state; only entry points (the
  CLI, the worker bootstrap, tests) may install contexts. A simulation
  component that self-configures would silently enable telemetry for
  every other component in the process.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_NON_TELEMETRY, SCOPE_SIM_CORE, register
from repro.lint.violation import Violation

__all__ = ["TELEMETRY_CURRENT", "TELEMETRY_INSTALLERS"]

#: Dotted origins of the telemetry guard accessor.
TELEMETRY_CURRENT: Tuple[str, ...] = (
    "repro.telemetry.current",
    "repro.telemetry.context.current",
)

#: Dotted origins of the process-wide context installers.
TELEMETRY_INSTALLERS: Tuple[str, ...] = (
    "repro.telemetry.configure",
    "repro.telemetry.context.configure",
    "repro.telemetry.deactivate",
    "repro.telemetry.context.deactivate",
    "repro.telemetry.init_from_env",
    "repro.telemetry.context.init_from_env",
)


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


@register(
    "RPR401",
    "telemetry-guard-bypass",
    "attribute access chained directly off current()",
    scope=SCOPE_NON_TELEMETRY,
    rationale=(
        "current() returns None whenever telemetry is disabled — the "
        "default — so current().tracer... is an AttributeError waiting in "
        "every production run. Bind tel = current() and branch on "
        "'tel is None' (the single-guard fast path)."
    ),
)
def check_guard_bypass(module: ModuleContext) -> Iterator[Violation]:
    """Flag ``current().attr`` chains that skip the None guard."""
    for node in module.nodes:
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if not isinstance(base, ast.Call):
            continue
        resolved = module.resolve_call(base)
        if resolved in TELEMETRY_CURRENT:
            yield _violation(
                module, node, "RPR401",
                "attribute chained directly off telemetry current() "
                "crashes when telemetry is disabled (it returns None); "
                "bind 'tel = current()' and guard on 'tel is None'",
            )


@register(
    "RPR402",
    "telemetry-install-in-sim-core",
    "telemetry context installed from inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "configure()/deactivate()/init_from_env() mutate process-wide "
        "state; only entry points (CLI, worker bootstrap, tests) may "
        "install contexts, or a core component would flip telemetry on "
        "for the whole process mid-run."
    ),
)
def check_install_in_sim_core(module: ModuleContext) -> Iterator[Violation]:
    """Flag configure()/deactivate()/init_from_env() in the core."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve_call(node)
        if resolved in TELEMETRY_INSTALLERS:
            tail = resolved.rsplit(".", 1)[1]
            yield _violation(
                module, node, "RPR402",
                f"telemetry {tail}() inside the simulation core installs "
                "process-wide state; only entry points (CLI, worker "
                "bootstrap, tests) may manage contexts",
            )
