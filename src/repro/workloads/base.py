"""Trace-generator protocol and workload profile description.

A :class:`TraceGenerator` produces the L2-level reference stream of one
running entity as batches of **block (cache-line) addresses**. Generators
are stateful (the stream continues across batches), deterministic (seeded),
and restartable (:meth:`TraceGenerator.reset` replays the stream from the
beginning — used when a benchmark completes and is restarted, Section 4.2).

A :class:`WorkloadProfile` is the static description of a benchmark-like
workload: its working-set size, access pattern, memory intensity (L2
accesses per kilo-instruction) and a qualitative category. Profiles are the
substitution for SPEC/PARSEC binaries (see DESIGN.md): the scheduling
algorithms only ever observe the L2 reference stream, so a profile matching
a benchmark's footprint and locality class exercises the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import require_positive

__all__ = ["TraceGenerator", "WorkloadProfile", "BLOCK_BYTES"]

#: Cache-line size assumed when converting working-set bytes to blocks.
BLOCK_BYTES = 64


class TraceGenerator:
    """Stateful, deterministic block-address stream.

    Subclasses implement :meth:`_generate`; the base class handles the
    address-space base offset (so co-scheduled processes never share lines
    unless sharing is modelled explicitly) and restart bookkeeping.

    Parameters
    ----------
    base_block:
        Offset added to every produced block address — each process gets a
        disjoint slice of the block-address space, while cache-set conflicts
        still arise naturally from the low address bits.
    seed:
        Seed of the generator's private random stream.
    """

    def __init__(self, base_block: int = 0, seed: int = 0):
        if base_block < 0:
            raise WorkloadError(f"base_block must be >= 0, got {base_block}")
        self.base_block = int(base_block)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.blocks_generated = 0

    # -- subclass hook --------------------------------------------------
    def _generate(self, n: int) -> np.ndarray:
        """Produce *n* relative block addresses (before base offset)."""
        raise NotImplementedError

    def _restart(self) -> None:
        """Reset subclass position state (rng is handled by the base)."""

    # -- public API ------------------------------------------------------
    def next_batch(self, n: int) -> np.ndarray:
        """Return the next *n* absolute block addresses of the stream."""
        require_positive(n, "n")
        rel = self._generate(n)
        if len(rel) != n:
            raise WorkloadError(
                f"{type(self).__name__}._generate returned {len(rel)} "
                f"addresses, expected {n}"
            )
        self.blocks_generated += n
        if self.base_block:
            return rel + self.base_block
        return rel

    def reset(self) -> None:
        """Restart the stream from the beginning (deterministic replay)."""
        self._rng = np.random.default_rng(self.seed)
        self.blocks_generated = 0
        self._restart()


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of a benchmark-like workload.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``'mcf'``).
    category:
        Qualitative class used in analysis: ``'cache_sensitive'``,
        ``'compute_bound'``, ``'bandwidth_bound'``, ``'streaming'``,
        ``'moderate'``.
    working_set_kb:
        Total region the workload touches.
    hot_set_kb:
        Size of the frequently-reused portion (equals ``working_set_kb``
        for patterns without reuse skew).
    accesses_per_kinstr:
        L2 references per 1000 instructions — the memory intensity that
        converts between instruction counts and trace length.
    pattern:
        Generator family: ``'pointer_chase'``, ``'random'``, ``'zipf'``,
        ``'strided'``, ``'stream'``, ``'mixed'``.
    locality:
        Pattern-specific knob (zipf exponent / hot-fraction weighting).
    mlp:
        Memory-level parallelism: how many misses the workload keeps in
        flight. Dependent pointer chases serialise misses (mlp ≈ 1);
        streaming code with effective prefetching overlaps many (mlp ≈ 4-8).
        The timing model divides the miss penalty by this factor, which is
        what lets streaming workloads flood a shared cache faster than
        chase-bound ones — the asymmetry behind the paper's worst pair
        (mcf + libquantum, Section 2.3.2).
    description:
        One-line provenance note (what behaviour of the real benchmark this
        profile mimics).
    """

    name: str
    category: str
    working_set_kb: int
    hot_set_kb: int
    accesses_per_kinstr: float
    pattern: str
    locality: float = 1.0
    mlp: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        require_positive(self.working_set_kb, "working_set_kb")
        require_positive(self.hot_set_kb, "hot_set_kb")
        if self.hot_set_kb > self.working_set_kb:
            raise WorkloadError(
                f"{self.name}: hot_set_kb {self.hot_set_kb} exceeds "
                f"working_set_kb {self.working_set_kb}"
            )
        if self.accesses_per_kinstr <= 0:
            raise WorkloadError(
                f"{self.name}: accesses_per_kinstr must be positive"
            )
        if self.mlp < 1.0:
            raise WorkloadError(f"{self.name}: mlp must be >= 1.0")

    @property
    def working_set_blocks(self) -> int:
        """Working-set size in cache lines."""
        return max(1, self.working_set_kb * 1024 // BLOCK_BYTES)

    @property
    def hot_set_blocks(self) -> int:
        """Hot-set size in cache lines."""
        return max(1, self.hot_set_kb * 1024 // BLOCK_BYTES)

    def accesses_for_instructions(self, instructions: int) -> int:
        """Trace length corresponding to *instructions* executed."""
        return max(1, int(instructions * self.accesses_per_kinstr / 1000.0))

    def make_generator(self, base_block: int = 0, seed: int = 0) -> TraceGenerator:
        """Instantiate this profile's trace generator.

        Implemented in :mod:`repro.workloads.patterns` (imported lazily to
        avoid a cycle).
        """
        from repro.workloads.patterns import generator_for_profile

        return generator_for_profile(self, base_block=base_block, seed=seed)
