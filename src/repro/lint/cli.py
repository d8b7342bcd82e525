"""Command-line front end: ``repro-cli lint`` and ``scripts/run_lint.py``.

Both entries share :func:`add_arguments` / :func:`run` so the flag
surface cannot drift; ``scripts/run_lint.py`` only pins the committed
baseline and the repository root. Every run is the one pipeline of
:mod:`repro.lint.engine`: per-file and whole-program rules over the
same parse. Exit codes follow the repo convention: ``0`` clean, ``1``
violations found, ``2`` configuration/usage error.

Baseline semantics:

* ``--baseline`` filters known violations through the committed
  baseline file (``lint-baseline.json`` by default) — CI mode.
* ``--update-baseline`` rewrites that file to grandfather everything
  currently found. Determinism (RPR1xx, RPR601) violations refuse to
  baseline: the simulation core must be fixed or ``noqa``-ed with
  justification, never grandfathered.

Output paths: ``--callgraph-out``/``--callgraph-dot`` write the call
graph (versioned JSON / Graphviz DOT), ``--flow-report`` the
whole-program rules' statistics and findings as JSON.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import FlowRule, Rule, all_flow_rules, all_rules
from repro.lint.report import render_json, render_text
from repro.lint.violation import Violation

__all__ = ["DEFAULT_TREES", "add_arguments", "run", "main"]

#: Directories linted when no paths are given.
DEFAULT_TREES = ("src", "tests", "scripts", "benchmarks", "examples")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flag surface to *parser* (shared by entries)."""
    # No prefix matching: a retired flag such as --flow must be an
    # error, not silently read as --flow-report.
    parser.allow_abbrev = False
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_TREES)})",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="filter known violations through the committed baseline file",
    )
    parser.add_argument(
        "--baseline-file", metavar="FILE", default=DEFAULT_BASELINE_NAME,
        help=f"baseline file path (default: {DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file to grandfather current violations "
        "(refuses RPR1xx: determinism must be fixed, not grandfathered)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--callgraph-out", metavar="FILE", default=None,
        help="write the call graph as versioned JSON",
    )
    parser.add_argument(
        "--callgraph-dot", metavar="FILE", default=None,
        help="write the call graph as Graphviz DOT",
    )
    parser.add_argument(
        "--flow-report", metavar="FILE", default=None,
        help="write the whole-program rules' stats and findings as JSON",
    )


def _list_rules() -> str:
    rules: List[Tuple[Union[Rule, FlowRule], str]] = [
        (rule, "") for rule in all_rules()
    ]
    rules += [(rule, ", flow") for rule in all_flow_rules()]
    lines = []
    for rule, kind in sorted(rules, key=lambda pair: pair[0].code):
        lines.append(f"{rule.code}  {rule.name} [{rule.scope}{kind}]")
        lines.append(f"    {rule.summary}")
    return "\n".join(lines)


def _write_exports(args: argparse.Namespace, result: LintResult) -> None:
    """Write the requested call-graph and flow-report files."""
    from repro.flow.export import callgraph_dot, callgraph_json

    flow = result.flow
    if args.callgraph_out:
        Path(args.callgraph_out).write_text(
            callgraph_json(flow.analysis), encoding="utf-8"
        )
    if args.callgraph_dot:
        Path(args.callgraph_dot).write_text(
            callgraph_dot(flow.analysis), encoding="utf-8"
        )
    if args.flow_report:
        report = {
            "stats": flow.stats,
            "findings": [
                {"path": v.path, "line": v.line, "code": v.code,
                 "message": v.message}
                for v in flow.violations
            ],
        }
        Path(args.flow_report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def run(
    args: argparse.Namespace, root: Optional[Union[str, Path]] = None
) -> int:
    """Execute one lint invocation from parsed *args*.

    *root* anchors the default trees and the reported paths (default:
    the current directory).
    """
    if args.list_rules:
        print(_list_rules())
        return 0
    base = Path(root) if root is not None else Path.cwd()
    paths: Sequence[Union[str, Path]] = args.paths or [
        base / tree for tree in DEFAULT_TREES if (base / tree).exists()
    ]
    if not paths:
        print(f"error: no paths given and none of {DEFAULT_TREES} here")
        return 2
    select: Optional[List[str]] = None
    if args.select is not None:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    try:
        result = lint_paths(paths, select=select, root=base)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    _write_exports(args, result)

    if args.update_baseline:
        try:
            baseline = Baseline.from_violations(result.violations)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
        baseline.dump(args.baseline_file)
        print(
            f"baseline: {len(baseline)} violation(s) grandfathered -> "
            f"{args.baseline_file}"
        )
        return 0

    baselined: List[Violation] = []
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline_file)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
        fresh, baselined = baseline.split(result.violations)
        result = LintResult(fresh, result.files_scanned, result.flow)

    if args.format == "json":
        print(render_json(result, baselined))
    else:
        print(render_text(result, baselined))
    return 0 if result.ok else 1


def main(
    argv: Optional[Sequence[str]] = None,
    root: Optional[Union[str, Path]] = None,
) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter: determinism, durability, "
        "worker-safety, telemetry hygiene (docs/static-analysis.md)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv), root=root)


if __name__ == "__main__":
    import sys

    sys.exit(main())
