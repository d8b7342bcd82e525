"""RPR503 — exact-simulator construction stays behind the dispatch seam.

The estimation backends exist to be cheaper than exact simulation but
interchangeable with it, and that interchangeability hangs on a single
seam: :func:`repro.estimate.dispatch.make_exact_simulator` is the one
place inside :mod:`repro.estimate` that may construct the exact
:class:`~repro.perf.simulator.MulticoreSimulator`. Every other estimate
module that needs exact simulation obtains the engine through that
seam, so swapping the exact implementation — a compiled kernel, an
instrumented variant, a fake in tests — is a one-line change the whole
package inherits. A direct
construction elsewhere silently forks the seam: that call site keeps
the old engine, its telemetry, and its defaults while the rest of the
package moves on.

The rule is scoped to :mod:`repro.estimate`; the rest of the codebase
constructs the simulator directly by design (the runner, the service,
the experiment drivers own their engines).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_ESTIMATE, register
from repro.lint.violation import Violation

__all__ = ["DISPATCH_MODULE", "SIMULATOR_CLASS"]

#: The one estimate module allowed to construct the exact simulator.
DISPATCH_MODULE = "repro.estimate.dispatch"

#: The exact engine's class name (matched on any resolved import path).
SIMULATOR_CLASS = "MulticoreSimulator"


def _constructs_simulator(call: ast.Call, module: ModuleContext) -> bool:
    """Whether *call* constructs the exact simulator under any spelling."""
    resolved = module.resolve_call(call)
    if resolved is None:
        return False
    return resolved == SIMULATOR_CLASS or resolved.endswith(
        "." + SIMULATOR_CLASS
    )


@register(
    "RPR503",
    "estimate-direct-simulator-construction",
    "MulticoreSimulator constructed inside repro.estimate outside the "
    "dispatch seam",
    scope=SCOPE_ESTIMATE,
    rationale=(
        "repro.estimate.dispatch.make_exact_simulator is the single "
        "sanctioned construction point of the exact engine inside the "
        "estimation package; it is what lets a different exact "
        "implementation (compiled, instrumented, faked in tests) drop "
        "in behind every backend at once. A direct MulticoreSimulator "
        "call elsewhere forks that seam: the call site silently keeps "
        "the old engine and its defaults. Import make_exact_simulator "
        "from repro.estimate.dispatch instead."
    ),
)
def check_estimate_direct_simulator(
    module: ModuleContext,
) -> Iterator[Violation]:
    """Flag exact-simulator constructions outside the dispatch module."""
    if module.module == DISPATCH_MODULE:
        return
    for node in module.nodes:
        if isinstance(node, ast.Call) and _constructs_simulator(node, module):
            yield Violation(
                path=module.path,
                line=node.lineno,
                col=node.col_offset + 1,
                code="RPR503",
                message=(
                    "MulticoreSimulator constructed directly inside "
                    "repro.estimate; go through repro.estimate.dispatch."
                    "make_exact_simulator so the exact engine stays "
                    "swappable behind one seam"
                ),
                source=module.source_line(node.lineno),
            )
