"""Phase-level profiling of the simulator's hot loop.

The simulator's main loop is too hot for a span per batch (hundreds of
thousands of batches per run), so profiling is aggregated: a
:class:`PhaseProfile` accumulates wall seconds and operation counts per
*phase* — interleave (core selection), trace generation, L2 access,
signature sampling, timing-model accounting, monitor invocation — with
one ``perf_counter`` read per phase boundary per batch when telemetry
is enabled and nothing at all when it is not.

At run end the profile is emitted once: one synthetic child span per
phase (laid back-to-back under the ``simulator.run`` span so trace
viewers show the run's time breakdown) and one
``sim_phase_<phase>_seconds_total`` / ``..._ops_total`` counter pair per
phase in the metrics registry.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer

__all__ = ["SIMULATOR_PHASES", "PhaseProfile"]

#: The simulator's instrumented phases, in loop order. ``generate``
#: counts references produced by the tasks' trace generators.
SIMULATOR_PHASES: Tuple[str, ...] = (
    "interleave", "generate", "l2_access", "signature", "timing", "monitor",
)


class PhaseProfile:
    """Accumulated wall seconds and op counts for a fixed phase set.

    Parameters
    ----------
    phases:
        Phase names (defaults to :data:`SIMULATOR_PHASES`). Adding
        seconds to an unknown phase is an error — a typo would silently
        vanish otherwise.
    """

    __slots__ = ("phases", "_seconds", "_ops")

    def __init__(self, phases: Sequence[str] = SIMULATOR_PHASES):
        self.phases = tuple(phases)
        self._seconds: Dict[str, float] = {p: 0.0 for p in self.phases}
        self._ops: Dict[str, int] = {p: 0 for p in self.phases}

    def add(self, phase: str, seconds: float, ops: int = 1) -> None:
        """Accumulate *seconds* of wall time (and *ops* operations)."""
        self._seconds[phase] += seconds
        self._ops[phase] += ops

    def seconds(self, phase: str) -> float:
        """Accumulated wall seconds of one phase."""
        return self._seconds[phase]

    def ops(self, phase: str) -> int:
        """Accumulated operation count of one phase."""
        return self._ops[phase]

    def emit_spans(self, tracer: Tracer, start: float) -> None:
        """Record one aggregate child span per non-empty phase.

        Phases are laid back-to-back from *start* (the enclosing span's
        start). The layout is a breakdown, not a timeline: each phase's
        duration is its true accumulated total, but its position inside
        the parent is synthetic. Must be called while the enclosing span
        is still open so the phases parent correctly.
        """
        cursor = start
        for phase in self.phases:
            duration = self._seconds[phase]
            if self._ops[phase] == 0:
                continue
            tracer.add_complete(
                f"phase.{phase}", cursor, duration, ops=self._ops[phase]
            )
            cursor += duration

    def emit_metrics(
        self, metrics: MetricsRegistry, prefix: str = "sim_phase_"
    ) -> None:
        """Fold the accumulated totals into per-phase counters."""
        for phase in self.phases:
            if self._ops[phase] == 0:
                continue
            metrics.counter(
                f"{prefix}{phase}_seconds_total",
                help=f"wall seconds spent in the {phase} phase",
            ).inc(self._seconds[phase])
            metrics.counter(
                f"{prefix}{phase}_ops_total",
                help=f"operations executed in the {phase} phase",
            ).inc(self._ops[phase])
