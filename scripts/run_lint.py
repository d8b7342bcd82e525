#!/usr/bin/env python
"""CI gate and pre-commit hook for the invariant linter.

Runs ``repro-cli lint`` with the committed baseline applied, anchored
at the repository root: with no file arguments it lints the whole tree
(``src``, ``tests``, ``scripts``, ``benchmarks``, ``examples``); with
file arguments (pre-commit passes the staged files) it lints only
those. Either way every rule runs, the whole-program ones over the
files loaded. All ``repro-cli lint`` flags pass through, for example
``--callgraph-out FILE`` and ``--flow-report FILE`` for the CI
artefacts. The report ends with one ``OK:``/``FAIL:`` verdict line;
see docs/static-analysis.md.

Run: ``python scripts/run_lint.py [files...] [flags...]``.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from _ci_util import ensure_repo_on_path, gate_main, repo_root

ensure_repo_on_path()

from repro.lint.baseline import DEFAULT_BASELINE_NAME  # noqa: E402
from repro.lint.cli import main as lint_main  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint the tree (or the given files) against the baseline."""
    args = list(sys.argv[1:] if argv is None else argv)
    baseline = str(repo_root() / DEFAULT_BASELINE_NAME)
    return lint_main(
        ["--baseline", "--baseline-file", baseline] + args, root=repo_root()
    )


if __name__ == "__main__":
    gate_main(main)
