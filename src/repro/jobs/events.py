"""Structured progress/telemetry events for the job orchestrator.

The orchestrator and the worker pool narrate a batch's life cycle as
:class:`JobEvent` records — submitted, deduplicated, cache hit, started,
completed, retried, timed out, failed — collected by an :class:`EventLog`
that keeps rolling counters (:class:`EventCounters`) plus a bounded tail
of recent events. Callers (the CLI, benches, tests) can attach ``sink``
callables to observe events as they happen; the counters are what the
acceptance criteria assert against (e.g. "a warm-cache re-run performs
zero new simulations" is ``counters.executed == 0``).

Sinks are **isolated**: a raising sink cannot abort an orchestration
batch. The first exception from each sink is logged (with traceback);
later exceptions from the same sink are swallowed silently, and the sink
keeps receiving events in case it recovers. The telemetry exporters
(:class:`~repro.telemetry.metrics.EventCounterSink`) attach through the
same contract.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

__all__ = ["EVENT_KINDS", "JobEvent", "EventCounters", "EventLog"]

logger = logging.getLogger(__name__)

#: Every event kind the orchestrator/pool may emit.
EVENT_KINDS = (
    "batch_start",   # a run_specs() batch was accepted
    "submitted",     # one spec entered the batch
    "deduped",       # spec was identical to an earlier one in the batch
    "cache_hit",     # result served from the on-disk cache
    "journal_hit",   # result replayed from the write-ahead run journal
    "quarantined",   # corrupt cache entry moved aside (.corrupt) on read
    "started",       # simulation began executing (in-process or worker)
    "completed",     # simulation finished; wall_time carries the duration
    "retried",       # job resubmitted after a worker crash / timeout
    "timeout",       # job exceeded its per-job wall-clock budget
    "hung",          # heartbeat silence: worker killed by the watchdog
    "over_budget",   # worker RSS budget exceeded: killed by the watchdog
    "short_circuited",  # submission refused by an open circuit breaker
    "poisoned",      # spec found on the persisted poison quarantine
    "failed",        # job gave up (deterministic error or retries spent)
    "batch_end",     # the batch resolved; wall_time carries batch duration
)


@dataclass(frozen=True)
class JobEvent:
    """One orchestration event.

    Parameters
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    key:
        Content-addressed spec key the event refers to ('' for batch-level
        events).
    label:
        Human-readable tag (e.g. ``'mix:mcf+povray/mapping 2'``).
    attempt:
        1-based execution attempt (0 when not applicable).
    wall_time:
        Seconds attributable to the event (job duration on ``completed``,
        batch duration on ``batch_end``).
    detail:
        Free-form context (error text, counts).
    """

    kind: str
    key: str = ""
    label: str = ""
    attempt: int = 0
    wall_time: float = 0.0
    detail: str = ""


@dataclass
class EventCounters:
    """Rolling tallies over every event seen by one :class:`EventLog`."""

    submitted: int = 0
    deduped: int = 0
    cache_hits: int = 0
    journal_hits: int = 0
    quarantined: int = 0
    executed: int = 0
    retried: int = 0
    timeouts: int = 0
    hung: int = 0
    over_budget: int = 0
    short_circuited: int = 0
    poisoned: int = 0
    failed: int = 0
    completed: int = 0
    batches: int = 0

    def summary(self) -> str:
        """One-line human summary of the tallies."""
        return (
            f"jobs: {self.submitted} submitted, {self.deduped} deduped, "
            f"{self.cache_hits} cached, {self.executed} executed, "
            f"{self.retried} retried, {self.failed} failed"
        )


class EventLog:
    """Collects :class:`JobEvent` records and maintains counters.

    Parameters
    ----------
    sink:
        Optional callable invoked with every event as it is emitted
        (CLI progress printing, test instrumentation).
    keep:
        Number of most-recent events retained in :attr:`events`.
    """

    def __init__(
        self,
        sink: Optional[Callable[[JobEvent], None]] = None,
        keep: int = 1024,
    ):
        self.sink = sink
        self.counters = EventCounters()
        self.events: Deque[JobEvent] = deque(maxlen=keep)
        self._extra_sinks: List[Callable[[JobEvent], None]] = []
        self._sinks_warned: set = set()

    def add_sink(self, sink: Callable[[JobEvent], None]) -> None:
        """Attach an additional sink (same isolation contract as `sink`)."""
        self._extra_sinks.append(sink)

    def _dispatch(self, sink: Callable[[JobEvent], None], event: JobEvent) -> None:
        """Deliver one event to one sink, isolating sink failures.

        A sink raising must not abort the orchestration batch that
        emitted the event: the first failure per sink is logged with its
        traceback, subsequent ones are dropped quietly, and delivery to
        the sink continues (it may be stateful and recover).
        """
        try:
            sink(event)
        except Exception:
            key = id(sink)
            if key not in self._sinks_warned:
                self._sinks_warned.add(key)
                logger.warning(
                    "event sink %r raised on %r; continuing without it "
                    "(further failures of this sink are silenced)",
                    sink, event.kind, exc_info=True,
                )

    _COUNTER_OF = {
        "submitted": "submitted",
        "deduped": "deduped",
        "cache_hit": "cache_hits",
        "journal_hit": "journal_hits",
        "quarantined": "quarantined",
        "completed": "executed",
        "retried": "retried",
        "timeout": "timeouts",
        "hung": "hung",
        "over_budget": "over_budget",
        "short_circuited": "short_circuited",
        "poisoned": "poisoned",
        "failed": "failed",
        "batch_start": "batches",
    }

    def emit(self, kind: str, **fields) -> JobEvent:
        """Record one event (and forward it to the sink, if any)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = JobEvent(kind=kind, **fields)
        self.events.append(event)
        counter = self._COUNTER_OF.get(kind)
        if counter is not None:
            setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        if self.sink is not None:
            self._dispatch(self.sink, event)
        for sink in self._extra_sinks:
            self._dispatch(sink, event)
        return event
