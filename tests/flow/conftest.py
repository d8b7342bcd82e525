"""Shared helpers for the whole-program flow tests.

Tests build pretend package trees inline from ``(module, source)``
pairs — :func:`make_program` derives a plausible ``src/``-layout path
for each so suppressions and display paths behave like the real tree —
and run selected flow passes over them with :func:`flow_violations`.
The on-disk fixture package under ``tests/flow/fixtures/graphpkg`` is
loaded by :func:`load_graph_fixture` for the pinned call-graph snapshot
tests.
"""

from pathlib import Path

from repro.flow import Program, run_flow
from repro.lint.registry import all_flow_rules

FIXTURES = Path(__file__).parent / "fixtures"

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_program(*files):
    """Build a :class:`Program` from ``(module, source)`` pairs."""
    sources = []
    for module, source in files:
        path = "src/" + module.replace(".", "/") + ".py"
        sources.append((path, source, module))
    return Program.from_sources(sources)


def flow_violations(*files, select=None):
    """Run flow passes over inline sources; return the violations.

    *select* restricts to the given codes (e.g. ``("RPR501",)``).
    """
    rules = [
        rule
        for rule in all_flow_rules()
        if select is None or rule.code in select
    ]
    return run_flow(make_program(*files), rules=rules).violations


def codes_of(violations):
    """The sorted multiset of codes in *violations*."""
    return sorted(v.code for v in violations)


def load_graph_fixture():
    """Load the on-disk ``graphpkg`` fixture package as a program."""
    package = FIXTURES / "graphpkg"
    sources = []
    for path in sorted(package.glob("*.py")):
        module = (
            "graphpkg"
            if path.stem == "__init__"
            else f"graphpkg.{path.stem}"
        )
        sources.append(
            (path.as_posix(), path.read_text(encoding="utf-8"), module)
        )
    return Program.from_sources(sources)
