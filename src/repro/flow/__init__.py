"""repro.flow — whole-program call-graph and dataflow analysis.

The per-file linter (:mod:`repro.lint`) checks one module at a time;
this package parses the tree once (sharing the same
:class:`~repro.lint.engine.LoadedModule` objects), resolves imports
into a project symbol table, builds a call graph — method calls
resolved through the class hierarchy, ``asyncio`` task and executor
dispatches tracked as their own edge kinds — and runs the
whole-program rules over it:

* RPR201 — renames with no fsync ordered before them, at any call depth
* RPR501 — service coroutines reaching blocking calls, inline or through
  sync helpers
* RPR601 — sim-core call paths reaching nondeterminism sources
* RPR604 — service state mutated on both sides of an ``await``

Entry points: every ``repro-cli lint`` run (:mod:`repro.lint.engine`
runs these rules after the per-file ones, over the same parse),
:func:`~repro.flow.engine.run_flow` programmatically, and the exporters
in :mod:`repro.flow.export` for the call-graph JSON/DOT artifacts CI
uploads.
"""

from repro.flow.engine import FlowAnalysis, FlowResult, analyze, run_flow
from repro.flow.export import callgraph_dot, callgraph_json
from repro.flow.program import Program, load_program

__all__ = [
    "FlowAnalysis",
    "FlowResult",
    "Program",
    "analyze",
    "callgraph_dot",
    "callgraph_json",
    "load_program",
    "run_flow",
]
