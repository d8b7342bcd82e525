"""Workloads ``svc_saturate`` and ``svc_paced``: load on the daemon.

Both drive :meth:`SchedulerService.submit_event` directly from one
asyncio loop in one thread (no transport), with the write-ahead log on
at :class:`DurabilityManager` defaults (fsync every event, snapshot
every 256) in a state directory inside the checkout, four cores and
:class:`WeightSortPolicy`.

A run is a sequence of *episodes*. Each episode starts a fresh daemon
on a fresh state directory, plays one seeded ``poisson_trace``, ends
with a settle event and stops the daemon, so every episode can be
checked against the full-remap oracle.

* ``svc_saturate`` is a closed loop: 32 submitter coroutines each send
  the next event of the trace as soon as their previous one is
  answered, so up to 32 events are queued. The daemon drains every
  queued event before the submitters run again, so the depth seen at
  submission cycles from 0 to 31 (mean 15.5). Latency runs from
  submission to answer.
* ``svc_paced`` is an open loop: events are sent at the trace's own
  exponential gaps scaled to a mean of 400 events/s, whether or not
  earlier ones were answered. Latency runs from the time each event was
  due, so a stall also counts against the events queued behind it.
"""

from __future__ import annotations

import asyncio
import shutil
from time import perf_counter as clock
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.manager import DurabilityManager
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import SettleEvent, event_from_arrival
from repro.workloads.arrivals import ArrivalTrace, poisson_trace

from perfbench.env import peak_rss_mb
from perfbench.layers import DAEMON_LAYERS, service_targets
from perfbench.spans import SpanRecorder, patched, step_sides
from perfbench.stats import median, percentile

__all__ = [
    "ServiceBench",
    "check_episodes",
    "drive_closed",
    "drive_open",
    "end_to_end",
    "per_layer",
]

NUM_CORES = 4
IN_FLIGHT = 32
PACED_RATE = 400.0
EPISODE_EVENTS = {"svc_saturate": 4000, "svc_paced": 2000}


def _zeros(n: int) -> array:
    return array("d", bytes(8 * n))


@dataclass
class EventLog:
    """Per-event clock readings and outcomes of one episode's trace events.

    Compact arrays, not the answers themselves, so that a run's memory
    does not grow with the number of episodes it fits.
    """

    sent: array
    done: array
    #: 1 where the event was answered ok.
    ok: bytearray
    #: Open loop only: when each event was due, and how late it was sent.
    due: Optional[array] = None
    late: Optional[array] = None

    @classmethod
    def empty(cls, n: int) -> "EventLog":
        return cls(sent=_zeros(n), done=_zeros(n), ok=bytearray(n))

    def latencies(self) -> List[float]:
        """Seconds from due time (open loop) or send time to answer."""
        start = self.due if self.due is not None else self.sent
        return [d - s for d, s in zip(self.done, start)]


async def _submit(service, event, i: int, log: EventLog, depth) -> None:
    if depth is not None:
        depth.append(service.queue_depth())
    log.sent[i] = clock()
    result = await service.submit_event(event)
    log.ok[i] = bool(result.get("ok"))
    log.done[i] = clock()


async def drive_closed(
    service,
    events: Sequence[Any],
    depth: Optional[List[int]] = None,
) -> EventLog:
    """Closed loop: :data:`IN_FLIGHT` submitters share one cursor over *events*.

    A submitter takes the next index and enqueues it without awaiting
    in between (the admission queue is never full at this depth), so
    events enter the queue in trace order.
    """
    log = EventLog.empty(len(events))
    cursor = iter(range(len(events)))

    async def submitter() -> None:
        for i in cursor:
            await _submit(service, events[i], i, log, depth)

    await asyncio.gather(*(submitter() for _ in range(IN_FLIGHT)))
    return log


async def drive_open(
    service,
    events: Sequence[Any],
    offsets: Sequence[float],
    depth: Optional[List[int]] = None,
) -> EventLog:
    """Open loop: send event *i* at ``start + offsets[i]`` regardless.

    Each event gets its own task, created in trace order, so events
    enter the queue in trace order even when the sender runs late.
    """
    log = EventLog.empty(len(events))
    log.due = _zeros(len(events))
    log.late = _zeros(len(events))
    tasks = []
    start = clock()
    for i, event in enumerate(events):
        due = start + offsets[i]
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        log.due[i] = due
        log.late[i] = clock() - due
        tasks.append(asyncio.create_task(_submit(service, event, i, log, depth)))
    await asyncio.gather(*tasks)
    return log


@dataclass
class Episode:
    """One daemon lifetime: a trace, a settle, and what came of it."""

    index: int
    events: int
    wall: float
    log: EventLog
    outcome: Dict[str, Any]
    fsyncs: int
    snapshots: int
    problems: List[str]
    depth: Optional[List[int]] = None
    #: Traced only: self seconds per daemon layer (and loop idle time)
    #: spent inside this episode's timed window.
    layer_s: Optional[Dict[str, float]] = None

    @property
    def failed_events(self) -> int:
        return len(self.log.ok) - sum(self.log.ok)


def episode_seed(seed: int, episode: int) -> int:
    """Trace seed of one episode of a run with *seed*."""
    return seed * 1_000_003 + episode


#: Span name of the event loop's waits for ready work.
IDLE = "loop.idle"


def idle_targets(rec: SpanRecorder) -> list:
    """Wrap the event loop's selector wait as the span ``loop.idle``.

    The time the loop spends blocked waiting for the next ready task is
    neither daemon work nor a layer; measuring it keeps the open loop's
    gaps between events out of ``service.daemon.self_s``.
    """
    selector = type(asyncio.get_running_loop()._selector)  # noqa: SLF001
    owner = next(c for c in selector.__mro__ if "select" in vars(c))
    return [(owner, "select", rec.wrap(vars(owner)["select"], IDLE))]


class ServiceBench:
    """Set-up, measurement and checks of one ``svc_*`` workload."""

    def __init__(
        self,
        workload: str,
        seed: int,
        state_root: Path,
    ) -> None:
        if workload not in EPISODE_EVENTS:
            raise ValueError(f"unknown service workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.state_root = Path(state_root)
        self.episode_events = EPISODE_EVENTS[workload]
        self._opened = 0
        #: Peak resident memory (MiB) when the first step of
        #: :meth:`measure` ended: set-up plus one episode (or one pair).
        self.first_step_rss_mb: Optional[float] = None

    def trace(self, episode: int) -> ArrivalTrace:
        return poisson_trace(self.episode_events, episode_seed(self.seed, episode))

    async def open_episode(self, episode: int) -> Tuple[SchedulerService, ArrivalTrace, Path]:
        """Trace, fresh state directory and a started daemon."""
        trace = self.trace(episode)
        state_dir = self.state_root / f"daemon-{self._opened}"
        self._opened += 1
        state_dir.mkdir(parents=True)
        service = SchedulerService(
            WeightSortPolicy(),
            ServiceConfig(num_cores=NUM_CORES),
            durability=DurabilityManager(state_dir),
        )
        await service.start()
        return service, trace, state_dir

    async def close_unused(self, opened: Tuple[SchedulerService, ArrivalTrace, Path]) -> None:
        """Stop a daemon that set-up started and remove its state."""
        service, _, state_dir = opened
        await service.stop(drain=True)
        shutil.rmtree(state_dir)

    async def run_episode(
        self,
        episode: int,
        opened: Tuple[SchedulerService, ArrivalTrace, Path],
        rec: Optional[SpanRecorder] = None,
    ) -> Episode:
        service, trace, state_dir = opened
        events = [event_from_arrival(a) for a in trace]
        depth: Optional[List[int]] = [] if rec is not None else None
        layers = DAEMON_LAYERS + (IDLE,)
        try:
            before = [rec.self_seconds(n) for n in layers] if rec is not None else None
            start = clock()
            if self.workload == "svc_saturate":
                log = await drive_closed(service, events, depth=depth)
            else:
                t0 = trace.events[0].time
                offsets = [(a.time - t0) / PACED_RATE for a in trace]
                log = await drive_open(service, events, offsets, depth=depth)
            settle = await service.submit_event(SettleEvent())
            wall = clock() - start
            layer_s = None
            if rec is not None:
                layer_s = {
                    n: rec.self_seconds(n) - b for n, b in zip(layers, before)
                }
        finally:
            await service.stop(drain=True)
        durability = service.durability
        shutil.rmtree(state_dir)
        outcome = {
            "final_mapping": settle.get("mapping"),
            "full_remaps": service.mapper.full_remaps,
            "incremental_updates": service.mapper.incremental_updates,
        }
        problems = []
        label = f"episode {episode}"
        if service.events_dropped:
            problems.append(f"{label}: {service.events_dropped} events dropped")
        if service.events_processed != len(events) + 1:
            problems.append(
                f"{label}: processed {service.events_processed}, "
                f"submitted {len(events)} + settle"
            )
        if not settle.get("ok") or settle.get("mapping") != settle.get("oracle"):
            problems.append(f"{label}: settled mapping differs from the oracle")
        episode_result = Episode(
            index=episode,
            events=len(events),
            wall=wall,
            log=log,
            outcome=outcome,
            fsyncs=durability.wal.fsyncs,
            snapshots=durability.checkpoints,
            problems=problems,
            depth=depth,
            layer_s=layer_s,
        )
        if episode_result.failed_events:
            problems.append(f"{label}: {episode_result.failed_events} events not ok")
        return episode_result

    async def measure(
        self,
        seconds: float,
        count: Optional[int] = None,
        first: Optional[Tuple[SchedulerService, ArrivalTrace, Path]] = None,
        rec: Optional[SpanRecorder] = None,
    ) -> Tuple[List[Episode], List[Episode]]:
        """Run episodes: *count* of them, or while *seconds* allow.

        Returns ``(untraced, traced)``. *first* is an already opened
        episode 0 (the one set-up started). With *rec*, each step plays
        one trace twice, untraced and traced, each on a fresh daemon (see
        :func:`step_sides`), so both sides of the overhead ratio see the
        same events; without it, traced is empty. A time-bounded
        loop starts another step only if one more of the last step's
        length still fits.
        """
        untraced: List[Episode] = []
        traced: List[Episode] = []
        start = clock()
        while True:
            began = clock()
            index = len(untraced)
            for side in step_sides(self.seed + index, rec):
                if first is not None:
                    opened, first = first, None
                else:
                    opened = await self.open_episode(index)
                if side is None:
                    untraced.append(await self.run_episode(index, opened))
                else:
                    with patched(service_targets(side) + idle_targets(side)):
                        traced.append(await self.run_episode(index, opened, side))
            if self.first_step_rss_mb is None:
                self.first_step_rss_mb = peak_rss_mb()
            if count is not None:
                if len(untraced) == count:
                    break
            elif clock() - start + (clock() - began) > seconds:
                break
        return untraced, traced


def check_episodes(
    untraced: List[Episode],
    traced: List[Episode],
    pinned: Optional[List[Dict[str, Any]]],
) -> Tuple[List[str], int]:
    """``(problems, failed events)`` over the episodes of one run.

    An event fails when its answer is not ok. An episode whose checks
    fail also counts its settle event as failed: a traced episode
    replays its untraced twin's trace, so its outcome must be
    identical, and with *pinned* (the default seed's outcomes by
    episode index, from a sequential replay) every pinned episode must
    match it.
    """
    problems: List[str] = []
    failed = 0
    checked = [(e, None) for e in untraced] + list(zip(traced, untraced))
    for e, twin in checked:
        found = list(e.problems)
        label = f"{'traced ' if twin else ''}episode {e.index}"
        if twin is not None and e.outcome != twin.outcome:
            found.append(f"{label}: outcome differs from the untraced episode")
        if pinned is not None and e.index < len(pinned) and e.outcome != pinned[e.index]:
            found.append(f"{label}: outcome differs from the pin")
        problems += found
        failed += max(e.failed_events, 1 if found else 0)
    return problems, failed


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1e3


def _episode_median(episodes: List[Episode], q: float) -> Optional[float]:
    """Median over episodes of each episode's *q*-th latency percentile.

    A burst of slow fsyncs lands in one episode and moves only that
    episode's tail, so the median over episodes is steadier than one
    percentile of the pooled samples. None if an episode is too short
    to support the percentile.
    """
    values = [percentile(e.log.latencies(), q) for e in episodes]
    if any(v is None for v in values):
        return None
    return _ms(median(values))


def end_to_end(episodes: List[Episode]) -> Dict[str, Optional[float]]:
    """The metrics every workload reports, over all of the run's episodes.

    A request is one event; the settle event counts in the rate. On
    ``svc_paced`` the rate stays at the offered one while the daemon
    keeps up. The median latency pools every event of the run, so host
    drift between episodes averages out. The p99 latency is reported by
    the traced run instead (see per_layer).
    """
    latencies = [x for e in episodes for x in e.log.latencies()]
    return {
        "requests_per_s": sum(e.events + 1 for e in episodes) / sum(e.wall for e in episodes),
        "latency_p50_ms": _ms(percentile(latencies, 50)),
    }


def per_layer(
    workload: str,
    rec: SpanRecorder,
    traced: List[Episode],
    untraced: List[Episode],
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of the traced episodes, per episode."""
    n = len(traced)
    appends = rec.calls("durable.wal_append")
    fsyncs = sum(e.fsyncs for e in traced)
    full = sum(e.outcome["full_remaps"] for e in traced)
    incremental = sum(e.outcome["incremental_updates"] for e in traced)
    daemon_self = sum(e.wall - sum(e.layer_s.values()) for e in traced)
    waits = []
    base = 0
    for e in traced:
        starts = rec.request_starts[base:base + e.events]
        waits += [s - sent for s, sent in zip(starts, e.log.sent)]
        base += e.events + 1  # the settle event is appended too
    total = {
        "durable.wal_append_s": rec.self_seconds("durable.wal_append"),
        "durable.wal_appends": appends,
        "durable.fsyncs": fsyncs,
        "durable.snapshot_s": rec.self_seconds("durable.note_applied"),
        "durable.snapshots": sum(e.snapshots for e in traced),
        "service.registry.views_s": rec.self_seconds("service.registry.views"),
        "service.registry.views_calls": rec.calls("service.registry.views"),
        "service.registry.update_s": rec.self_seconds("service.registry.update"),
        "service.mapper.step_s": rec.self_seconds("service.mapper.step"),
        "service.mapper.full_remaps": full,
        "service.mapper.incremental_updates": incremental,
        "alloc.allocate_s": rec.self_seconds("alloc.allocate"),
        "alloc.allocate_calls": rec.calls("alloc.allocate"),
        "service.daemon.self_s": daemon_self,
        # Every call the daemon makes outside the wrapped layers is its
        # own loop, futures and dispatch: nothing else is unattributed.
        "trace.unattributed_s": daemon_self,
    }
    metrics: Dict[str, Optional[float]] = {k: v / n for k, v in total.items()}
    depth = [d for e in traced for d in (e.depth or [])]
    metrics.update(
        {
            # The p99 decision latency of the untraced episodes. It is
            # reported here, not end to end: it follows the disk's fsync
            # tail and swings between runs by more than any bound allows.
            "service.latency_p99_ms": _episode_median(untraced, 99),
            "durable.fsyncs_per_event": fsyncs / appends,
            "service.mapper.full_ratio": full / (full + incremental),
            "service.queue_wait_p50_ms": _ms(percentile(waits, 50)),
            "service.queue_wait_p99_ms": _ms(percentile(waits, 99)),
            "service.queue_depth_mean": sum(depth) / len(depth),
        }
    )
    if workload == "svc_paced":
        late = [x for e in untraced for x in (e.log.late or [])]
        metrics["driver.send_late_p50_ms"] = _ms(percentile(late, 50))
        metrics["driver.send_late_p99_ms"] = _ms(percentile(late, 99))
        primary = [end_to_end(s)["latency_p50_ms"] for s in (traced, untraced)]
    else:
        primary = [sum(e.wall for e in s) / sum(e.events for e in s) for s in (traced, untraced)]
    metrics["trace.overhead_ratio"] = primary[0] / primary[1] - 1.0
    return metrics
