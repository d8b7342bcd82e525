"""The whole-program view: every loaded module of one analysis run.

A :class:`Program` wraps the :class:`~repro.lint.engine.LoadedModule`
list produced by :func:`~repro.lint.engine.load_modules` (parse-once:
the same parsed ASTs feed the per-file rules and the flow passes) and
indexes the subset that belongs to the project package tree — modules
with a dotted name derived from their ``src/`` layout path, or assigned
explicitly by tests via :meth:`Program.from_sources`.

Files without a dotted module name (tests, scripts, benchmarks) still
ride along but contribute no symbols: the call graph is about the
shipped package tree, whose functions are the only ones reachable from
more than one place. Rules that check every body (RPR201) still read
them, resolving their calls into the package tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from pathlib import Path

from repro.lint.context import ModuleContext
from repro.lint.engine import (
    DEFAULT_EXCLUDED_PARTS,
    LoadedModule,
    load_modules,
)
from repro.lint.suppress import SuppressionIndex

__all__ = ["Program", "load_program"]


class Program:
    """All loaded modules of one run, with the project subset indexed."""

    def __init__(self, modules: Sequence[LoadedModule]) -> None:
        self.modules: List[LoadedModule] = sorted(
            modules, key=lambda m: m.display
        )
        #: Dotted module name -> loaded module, for files that parse and
        #: carry a package identity. Later duplicates (the same dotted
        #: name loaded twice) are rejected deterministically: first
        #: display path wins, which keeps re-runs byte-identical.
        self.by_module: Dict[str, LoadedModule] = {}
        #: Display path -> loaded module, for suppression lookup.
        self.by_path: Dict[str, LoadedModule] = {}
        for module in self.modules:
            self.by_path.setdefault(module.display, module)
            context = module.context
            if context is not None and context.module is not None:
                self.by_module.setdefault(context.module, module)

    @property
    def contexts(self) -> Dict[str, ModuleContext]:
        """Dotted module name -> parsed context (project modules only)."""
        result: Dict[str, ModuleContext] = {}
        for name, module in self.by_module.items():
            assert module.context is not None
            result[name] = module.context
        return result

    def suppressions_for(self, path: str) -> Optional[SuppressionIndex]:
        """The suppression index of *path*, or ``None`` if unknown."""
        module = self.by_path.get(path)
        return None if module is None else module.suppressions

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[Tuple[str, str, Optional[str]]],
    ) -> "Program":
        """Build a program from ``(path, source, module)`` triples.

        The test entry point: fixture files live outside ``src/`` but
        are analysed *as if* they formed a package tree by passing
        explicit dotted names.
        """
        return cls(
            [
                LoadedModule.parse(path, source, module=module)
                for path, source, module in sources
            ]
        )


def load_program(
    paths: Sequence[Union[str, Path]],
    excluded_parts: Sequence[str] = DEFAULT_EXCLUDED_PARTS,
    root: Optional[Union[str, Path]] = None,
) -> Program:
    """Discover and parse *paths* into a :class:`Program` (parse-once)."""
    return Program(load_modules(paths, excluded_parts, root=root))
