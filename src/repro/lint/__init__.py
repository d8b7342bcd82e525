"""repro.lint — AST-based invariant linter for this repository.

The reproduction's credibility rests on invariants that used to be
enforced only by convention; this package encodes them as a static-
analysis pass (the contract catalogue lives in
``docs/static-analysis.md``):

* **RPR1xx determinism** — no wall-clock, unseeded RNG, OS entropy or
  randomised ``hash()`` inside the simulation core packages.
* **RPR2xx durability/robustness** — fsync before every rename, also
  through helper calls; no bare or silently swallowed broad excepts.
* **RPR3xx worker-safety** — nothing unpicklable handed to the spawn
  pool (lambdas, closures, local classes).
* **RPR4xx telemetry hygiene** — the single-guard ``current() is None``
  fast path is never bypassed; only entry points install contexts.
* **RPR5xx service and estimate discipline** — no blocking call reached
  from a daemon coroutine; estimate backends build the exact engine
  only through the dispatch seam.
* **RPR6xx whole-program dataflow** — determinism taint across calls,
  await-interleaving races.

Rules that follow an invariant across calls run on the call graph of
:mod:`repro.flow`; every lint run builds it from the same parse.

Run it as ``repro-cli lint`` or ``python scripts/run_lint.py``.
Suppress a waived finding with ``# repro: noqa[CODE]`` (line) or
``# repro: noqa-file[CODE]`` (file); grandfathered violations live in
``lint-baseline.json`` — except determinism findings, which can never
be baselined.
"""

from __future__ import annotations

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.context import SIM_CORE_PACKAGES, ModuleContext
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    LintResult,
    lint_paths,
    lint_source,
)
from repro.lint.registry import Rule, all_rules, get_rule, rule_codes
from repro.lint.violation import Violation

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "PARSE_ERROR_CODE",
    "SIM_CORE_PACKAGES",
    "Baseline",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "rule_codes",
]
