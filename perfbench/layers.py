"""Which public calls of the program are timed, and under which names.

Each table lists ``(owner, attribute, wrapper)`` triples for
:func:`perfbench.spans.patched`. The span names are the layer names the
per-layer metrics use (see ``perfbench/README.md``).

Simulator requests: every ``MulticoreSimulator.run`` call (one
``run_mix``) is a request, tagged ``phase1`` when the signature unit is
attached and ``phase2`` otherwise. Daemon requests: every event is a
request; its id is the order of its WAL append, which equals its
submission index because the daemon consumes its queue in order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.alloc.monitor import UserLevelMonitor
from repro.alloc.weight_sort import WeightSortPolicy
from repro.cache.cache import SetAssociativeCache
from repro.core.signature import SignatureUnit
from repro.durable.manager import DurabilityManager
from repro.durable.wal import EventWAL
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.os_model import OSScheduler
from repro.service.mapper import IncrementalMapper
from repro.service.registry import ProcessRegistry
from repro.workloads.base import TraceGenerator

from perfbench.spans import SpanRecorder

__all__ = [
    "DAEMON_LAYERS",
    "SIM_LAYERS",
    "service_targets",
    "simulator_targets",
]

Target = Tuple[Any, str, Callable]

#: Span names of the simulator layers (self times sum to the sweep).
SIM_LAYERS = (
    "perf.experiment",
    "perf.simulator.run",
    "workloads.next_batch",
    "cache.phase1.access_batch",
    "cache.phase2.access_batch",
    "core.record_events",
    "sched.context_switch",
    "alloc.monitor_invoke",
    "perf.timing.batch_cycles",
)

#: Span names of the daemon layers; the rest of the wall is the daemon's
#: own event loop, futures and dispatch.
DAEMON_LAYERS = (
    "durable.wal_append",
    "durable.note_applied",
    "service.registry.views",
    "service.registry.update",
    "service.mapper.step",
    "alloc.allocate",
)


def _method(owner: Any, attr: str) -> Callable:
    return vars(owner)[attr]


def simulator_targets(rec: SpanRecorder) -> List[Target]:
    """Wrappers for the figure-10 sweep's simulator layers."""
    run_span = rec.wrap(_method(MulticoreSimulator, "run"), "perf.simulator.run")

    def run(sim, *args, **kwargs):
        rec.request += 1
        rec.tag = "phase1" if sim.signature_unit is not None else "phase2"
        return run_span(sim, *args, **kwargs)

    def after_access(r: SpanRecorder, args: tuple, result) -> None:
        r.count("cache.refs", len(args[2]))
        r.count("cache.misses", result.misses)

    def after_record(r: SpanRecorder, args: tuple, result) -> None:
        # record_events(core, fills, fill_slots, evictions, ...)
        r.count("core.events", len(args[2]) + len(args[4]))

    def after_invoke(r: SpanRecorder, args: tuple, result) -> None:
        if result is not None:
            r.count("alloc.decisions")

    def after_next_batch(r: SpanRecorder, args: tuple, result) -> None:
        # Composite generators call their parts' next_batch: count the
        # references once, at the outermost call.
        if r.parent_name() != "workloads.next_batch":
            r.count("workloads.refs", len(result))

    return [
        (MulticoreSimulator, "run", run),
        (
            SetAssociativeCache,
            "access_batch",
            rec.wrap(
                _method(SetAssociativeCache, "access_batch"),
                lambda: f"cache.{rec.tag}.access_batch",
                after_access,
            ),
        ),
        (
            SignatureUnit,
            "record_events",
            rec.wrap(
                _method(SignatureUnit, "record_events"),
                "core.record_events",
                after_record,
            ),
        ),
        (
            OSScheduler,
            "context_switch",
            rec.wrap(_method(OSScheduler, "context_switch"), "sched.context_switch"),
        ),
        (
            UserLevelMonitor,
            "invoke",
            rec.wrap(
                _method(UserLevelMonitor, "invoke"),
                "alloc.monitor_invoke",
                after_invoke,
            ),
        ),
        (
            TimingModel,
            "batch_cycles",
            rec.wrap(_method(TimingModel, "batch_cycles"), "perf.timing.batch_cycles"),
        ),
        (
            TraceGenerator,
            "next_batch",
            rec.wrap(
                _method(TraceGenerator, "next_batch"),
                "workloads.next_batch",
                after_next_batch,
            ),
        ),
    ]


def service_targets(rec: SpanRecorder) -> List[Target]:
    """Wrappers for the daemon layers an event passes through.

    The WAL append is each event's first layer call: it opens the
    request and stamps ``rec.request_starts``, which ends the event's
    queue wait.
    """
    append_span = rec.wrap(_method(EventWAL, "append"), "durable.wal_append")

    def append(wal, *args, **kwargs):
        rec.request = len(rec.request_starts)
        rec.request_starts.append(rec.clock())
        return append_span(wal, *args, **kwargs)

    targets: List[Target] = [
        (EventWAL, "append", append),
        (
            DurabilityManager,
            "note_applied",
            rec.wrap(_method(DurabilityManager, "note_applied"), "durable.note_applied"),
        ),
        (
            ProcessRegistry,
            "views",
            rec.wrap(_method(ProcessRegistry, "views"), "service.registry.views"),
        ),
        (
            WeightSortPolicy,
            "allocate",
            rec.wrap(_method(WeightSortPolicy, "allocate"), "alloc.allocate"),
        ),
    ]
    for attr in ("admit", "retire", "phase_change", "apply_mapping"):
        targets.append(
            (
                ProcessRegistry,
                attr,
                rec.wrap(_method(ProcessRegistry, attr), "service.registry.update"),
            )
        )
    for attr in ("admit", "retire", "phase_change", "settle", "oracle"):
        targets.append(
            (
                IncrementalMapper,
                attr,
                rec.wrap(_method(IncrementalMapper, attr), "service.mapper.step"),
            )
        )
    return targets
