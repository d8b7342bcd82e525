"""Shared helpers for the lint-rule tests.

``lint_fixture`` lints one snippet from ``tests/lint/fixtures/`` under a
chosen pretend module name (so sim-core-scoped rules fire on fixture
files that physically live outside ``src/``) and returns the violation
list; ``codes_of`` compresses it for assertions.
"""

from pathlib import Path

import pytest

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Pretend module placing a fixture inside the simulation core.
SIM_CORE_MODULE = "repro.perf._lint_fixture"


@pytest.fixture
def repo_root():
    """The repository root (parent of ``src`` and ``tests``)."""
    return REPO_ROOT


@pytest.fixture
def lint_fixture():
    """Lint a fixture file as *module* and return its violations."""

    def _lint(name, module=SIM_CORE_MODULE, select=None):
        path = FIXTURES / name
        return lint_source(
            path, path.read_text(encoding="utf-8"), module=module,
            select=select,
        )

    return _lint


def codes_of(violations):
    """The sorted multiset of codes in *violations*."""
    return sorted(v.code for v in violations)
