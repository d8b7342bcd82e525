"""The event-driven scheduling daemon: :class:`SchedulerService`.

One asyncio task consumes a bounded admission queue of scheduling
events, updates the :class:`~repro.service.registry.ProcessRegistry`,
asks the :class:`~repro.service.mapper.IncrementalMapper` for a
decision, and resolves the submitter's future with a JSON-native
result. Bounded queue + awaiting producers = backpressure: under
overload, submitters *wait* — nothing is silently discarded. The only
path that drops is the explicitly non-blocking :meth:`try_submit`,
and every drop is counted.

Health reuses the supervision layer rather than reinventing it:

* a :class:`~repro.supervise.breaker.CircuitBreaker` keyed by workload
  profile short-circuits admissions of profiles that keep failing
  (poison specs in service clothing); its cooldown advances in waves
  of processed events, keeping it deterministic under replay;
* an optional heartbeat board (:mod:`repro.supervise.heartbeat`) gets
  a tick per processed event and an idle tick while the queue is
  empty, so an external watchdog can distinguish loaded from wedged.

Crash consistency is optional and composed in from
:mod:`repro.durable`: with a
:class:`~repro.durable.manager.DurabilityManager` attached, every
event is WAL-appended before it is applied, state is snapshotted every
N events, duplicate ``(client, seq)`` submissions are answered from
the idempotency table instead of re-applied, and
:meth:`SchedulerService.recover` rebuilds an exact replica of the
pre-crash daemon. Without it (the default) nothing is logged and
behaviour is byte-identical to the pre-durability daemon.

Telemetry follows the house contract — one guarded ``current()`` read,
byte-identical behaviour when disabled: ``service_events_<kind>_total``
counters, the ``service_registry_size`` gauge and the
``service_remap_seconds`` histogram (full remaps only), plus a
``service.event`` span per processed event.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.alloc.base import AllocationPolicy
from repro.durable.dedup import DedupTable
from repro.durable.manager import DurabilityManager
from repro.durable.state import capture_state, restore_state
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.service.events import (
    AdmitEvent,
    PhaseChangeEvent,
    RetireEvent,
    ServiceEvent,
    SettleEvent,
    event_from_payload,
    event_to_payload,
)
from repro.service.mapper import IncrementalMapper, MapDecision
from repro.service.registry import DEFAULT_CAPACITY_LINES, ProcessRegistry
from repro.service.tuning import DEFAULT_TUNING, ServiceTuning
from repro.supervise import heartbeat
from repro.supervise.breaker import CircuitBreaker
from repro.telemetry.context import current as telemetry_current
from repro.telemetry.metrics import DURATION_BUCKETS

__all__ = ["ServiceConfig", "SchedulerService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one scheduling daemon instance.

    ``queue_capacity`` bounds the admission queue (backpressure depth);
    ``drift_threshold`` is forwarded to the incremental mapper;
    ``wave_events`` sets how many processed events advance one circuit
    breaker cooldown wave; ``heartbeat_interval`` paces idle liveness
    ticks when a heartbeat board is attached; ``stale_after_seconds``
    (``None`` = never) arms the degraded mode — once the footprint
    stream has been silent that long the daemon keeps serving its
    last-good mapping but flags ``degraded=true`` in ``status``. The
    default keeps every clock read out of the event path, so
    undegraded runs stay byte-identical to a build without the feature.

    ``ewma_alpha``, ``drift_threshold``, ``flap_window`` and
    ``flap_threshold`` mirror :class:`~repro.service.tuning.ServiceTuning`
    (one source of truth for the defaults); the :attr:`tuning` property
    rebuilds the dataclass the mapper consumes. ``flap_threshold=None``
    (the default) disarms the mapper's flap guard, keeping benign
    behaviour byte-identical to the pre-guard daemon.
    """

    num_cores: int = 2
    queue_capacity: int = 1024
    drift_threshold: int = DEFAULT_TUNING.drift_threshold
    capacity_lines: int = DEFAULT_CAPACITY_LINES
    ewma_alpha: float = DEFAULT_TUNING.ewma_alpha
    breaker_threshold: int = 3
    breaker_cooldown_waves: int = 2
    wave_events: int = 64
    heartbeat_interval: float = 1.0
    stale_after_seconds: Optional[float] = None
    flap_window: int = DEFAULT_TUNING.flap_window
    flap_threshold: Optional[int] = None

    @property
    def tuning(self) -> ServiceTuning:
        """The shared tuning view of this config's adaptation knobs."""
        return ServiceTuning(
            ewma_alpha=self.ewma_alpha,
            drift_threshold=self.drift_threshold,
            flap_window=self.flap_window,
            flap_threshold=self.flap_threshold,
        )

    def __post_init__(self) -> None:
        self.tuning  # validates ewma/drift/flap fields in one place
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.wave_events < 1:
            raise ConfigurationError(
                f"wave_events must be >= 1, got {self.wave_events}"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.stale_after_seconds is not None and self.stale_after_seconds <= 0:
            raise ConfigurationError(
                "stale_after_seconds must be > 0 or None, got "
                f"{self.stale_after_seconds}"
            )


class SchedulerService:
    """The online symbiotic scheduler (see module docstring).

    Parameters
    ----------
    policy:
        Batch allocation policy consulted on full remaps (wrapped in
        :class:`~repro.service.mapper.StablePolicy` by the mapper).
    config:
        Daemon tunables; defaults are sensible for tests and replays.
    heartbeat_board:
        Optional shared mapping for liveness ticks (any mutable
        mapping; in production a ``multiprocessing.Manager().dict()``).
    heartbeat_slot:
        Board slot this daemon ticks under.
    durability:
        Optional :class:`~repro.durable.manager.DurabilityManager`.
        When attached, every event is WAL-logged *before* it is
        applied and the full service state is snapshotted every
        ``snapshot_interval`` events; :meth:`recover` rebuilds the
        daemon from that directory after a crash. ``None`` (the
        default) keeps the daemon purely in-memory, byte-identical to
        a build without the durability layer.
    """

    def __init__(
        self,
        policy: AllocationPolicy,
        config: Optional[ServiceConfig] = None,
        *,
        heartbeat_board: Optional[Any] = None,
        heartbeat_slot: Tuple[int, int] = (0, 0),
        durability: Optional[DurabilityManager] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = ProcessRegistry(
            self.config.num_cores,
            capacity_lines=self.config.capacity_lines,
            ewma_alpha=self.config.ewma_alpha,
        )
        self.mapper = IncrementalMapper(
            policy,
            self.config.num_cores,
            tuning=self.config.tuning,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_waves=self.config.breaker_cooldown_waves,
        )
        self._heartbeat_board = heartbeat_board
        self._heartbeat_slot = heartbeat_slot
        self.durability = durability
        self.dedup = DedupTable()
        self.events_processed = 0
        self.events_ok = 0
        self.events_rejected = 0
        self.events_dropped = 0
        self.events_deduped = 0
        self.recovered_events = 0
        self.recovered_from_snapshot = False
        self._events_since_wave = 0
        #: Monotonic stamp of the last applied event; read/written only
        #: when ``stale_after_seconds`` arms the degraded mode.
        self._last_event_monotonic: Optional[float] = None
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        self._accepting = False

    # -- recovery ------------------------------------------------------

    @classmethod
    def recover(
        cls,
        policy: AllocationPolicy,
        config: Optional[ServiceConfig] = None,
        *,
        state_dir,
        snapshot_interval: int = 256,
        heartbeat_board: Optional[Any] = None,
        heartbeat_slot: Tuple[int, int] = (0, 0),
    ) -> "SchedulerService":
        """Rebuild a daemon from a durability directory after a crash.

        Loads the newest intact snapshot (corrupt ones are quarantined
        and ignored), replays the WAL tail through the daemon's own
        event handler, and returns a service whose registry, mapper,
        breaker, dedup table and counters are byte-identical to an
        uninterrupted run over the same event sequence — the
        equivalence the kill-at-every-index test pins. The recovered
        service is not started; call :meth:`start` as usual.
        """
        durability = DurabilityManager(
            state_dir, snapshot_interval=snapshot_interval
        )
        service = cls(
            policy,
            config,
            heartbeat_board=heartbeat_board,
            heartbeat_slot=heartbeat_slot,
            durability=durability,
        )
        service._recover_from(durability)
        return service

    def checkpoint(self) -> bool:
        """Force a snapshot + WAL compaction now; False when not durable.

        The daemon never snapshots on :meth:`stop` — clean shutdown
        leaves the snapshot + WAL tail exactly as the last event left
        them, and recovery replays the tail. Call this to bound the
        tail explicitly (e.g. before planned maintenance).
        """
        if self.durability is None:
            return False
        self.durability.checkpoint(capture_state(self))
        return True

    def _recover_from(self, durability: DurabilityManager) -> None:
        """Load snapshot + WAL tail into this (fresh, stopped) service."""
        tel = telemetry_current()
        span = (
            tel.tracer.begin("durable.recover")
            if tel is not None and tel.tracer is not None
            else None
        )
        started = (
            time.perf_counter()
            if tel is not None and tel.metrics is not None
            else None
        )
        tail: list = []
        try:
            state, _, tail = durability.load()
            if state is not None:
                restore_state(self, state)
                self.recovered_from_snapshot = True
            for _, payload in tail:
                self._handle(event_from_payload(payload), record=False)
            self.recovered_events = len(tail)
        finally:
            if tel is not None and tel.metrics is not None:
                if tail:
                    tel.metrics.counter(
                        "durable_recovery_replayed_total"
                    ).inc(len(tail))
                tel.metrics.histogram(
                    "durable_recovery_seconds", DURATION_BUCKETS
                ).observe(time.perf_counter() - started)
            if span is not None:
                tel.tracer.end(span)

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the consumer task is alive."""
        return self._task is not None and not self._task.done()

    async def start(self) -> None:
        """Create the admission queue and launch the consumer task."""
        if self._task is not None:
            raise ServiceError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.queue_capacity)
        self._accepting = True
        if self._heartbeat_board is not None:
            heartbeat.bind(self._heartbeat_board, self._heartbeat_slot)
            heartbeat.tick("service:start")
        self._task = asyncio.create_task(self._run(), name="repro-service")

    async def stop(self, drain: bool = True) -> None:
        """Stop the daemon.

        With ``drain=True`` (graceful) the queue is closed to new
        submissions, every already-queued event is processed and its
        future resolved, and only then does the consumer exit. With
        ``drain=False`` the consumer is cancelled immediately and every
        still-queued future resolves with a shutdown error (counted as
        dropped).
        """
        if self._task is None:
            return
        self._accepting = False
        assert self._queue is not None
        if drain:
            await self._queue.put(None)  # sentinel lands after queued work
            await self._task
        else:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is None:
                    continue
                _, future = item
                # stop() is externally serialised (one caller, once) and
                # admission was closed via _accepting=False before any
                # await above, so no handler can interleave with this
                # monotonic drain counter.
                self.events_dropped += 1  # repro: noqa[RPR604]
                if future is not None and not future.done():
                    future.set_result(
                        {
                            "ok": False,
                            "error": "service stopped before processing",
                        }
                    )
        if self._heartbeat_board is not None:
            heartbeat.unbind()
        self._task = None
        self._queue = None

    # -- submission ----------------------------------------------------

    def _require_accepting(self) -> asyncio.Queue:
        if not self._accepting or self._queue is None:
            raise ServiceError("service is not accepting events")
        return self._queue

    async def submit_event(self, event: ServiceEvent) -> Dict[str, Any]:
        """Enqueue one event and await its decision (backpressure path).

        When the queue is full this *waits* for a slot — the bounded
        queue pushes back on producers instead of dropping events.
        """
        queue = self._require_accepting()
        future = asyncio.get_running_loop().create_future()
        await queue.put((event, future))
        return await future

    def try_submit(self, event: ServiceEvent) -> Optional["asyncio.Future"]:
        """Enqueue without blocking; ``None`` (and a counted drop) if full.

        The future resolves with the decision once the event is
        processed. This is the only path that can ever drop an event.
        """
        queue = self._require_accepting()
        future = asyncio.get_running_loop().create_future()
        try:
            queue.put_nowait((event, future))
        except asyncio.QueueFull:
            self.events_dropped += 1
            tel = telemetry_current()
            if tel is not None and tel.metrics is not None:
                tel.metrics.counter("service_dropped_events_total").inc()
            return None
        return future

    # -- consumer ------------------------------------------------------

    async def _run(self) -> None:
        """Consume the admission queue until the shutdown sentinel."""
        assert self._queue is not None
        while True:
            if self._heartbeat_board is not None:
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), self.config.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    heartbeat.tick("service:idle")
                    continue
            else:
                item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            event, future = item
            # Write-ahead ordering requires the WAL append (one small
            # write, fsynced) to complete
            # synchronously before the event is applied; _run is the
            # single consumer task, so the bounded stall is the
            # documented durability/latency trade, not a hazard.
            result = self._handle(event)  # repro: noqa[RPR501]
            if self._heartbeat_board is not None:
                heartbeat.tick(
                    f"service:{getattr(event, 'kind', 'unknown')}"
                )
            if future is not None and not future.done():
                future.set_result(result)
            self._queue.task_done()

    def _handle(
        self, event: ServiceEvent, record: bool = True
    ) -> Dict[str, Any]:
        """Process one event; never raises (the daemon must keep serving).

        With durability attached (and ``record=True``) the event is
        WAL-appended *before* it is applied — write-ahead order. The
        recovery replay path calls with ``record=False``: re-applying
        an already-logged event must not log it again. A duplicate
        ``(client, seq)`` request short-circuits here, answered from
        the dedup table without touching the WAL or the scheduler.
        """
        # Even a foreign object in the queue must produce an answer, so
        # the kind tag cannot assume the event honours the protocol.
        kind = getattr(event, "kind", type(event).__name__)
        tel = telemetry_current()
        client = getattr(event, "client", None)
        seq = getattr(event, "seq", None)
        if client is not None and seq is not None:
            cached = self.dedup.check(client, seq)
            if cached is not None:
                self.events_deduped += 1
                if tel is not None and tel.metrics is not None:
                    tel.metrics.counter("service_deduped_total").inc()
                result = dict(cached)
                result["duplicate"] = True
                return result
        span = (
            tel.tracer.begin("service.event", kind=kind)
            if tel is not None and tel.tracer is not None
            else None
        )
        try:
            if record and self.durability is not None:
                self.durability.record_event(event_to_payload(event))
            try:
                result = self._dispatch(event, tel)
            except ReproError as exc:
                result = {"ok": False, "kind": kind, "error": str(exc)}
            except Exception as exc:  # unexpected: report, keep serving
                result = {
                    "ok": False,
                    "kind": kind,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self.events_processed += 1
            if result.get("ok"):
                self.events_ok += 1
            else:
                self.events_rejected += 1
            self._events_since_wave += 1
            if self._events_since_wave >= self.config.wave_events:
                self._events_since_wave = 0
                self.breaker.advance_wave()
            if client is not None and seq is not None:
                self.dedup.remember(client, seq, result)
            if record and self.durability is not None:
                self.durability.note_applied(lambda: capture_state(self))
            if self.config.stale_after_seconds is not None:
                self._last_event_monotonic = time.monotonic()
            if tel is not None and tel.metrics is not None:
                tel.metrics.counter(
                    f"service_events_{kind}_total"
                ).inc()
                if not result.get("ok"):
                    tel.metrics.counter("service_rejected_total").inc()
                tel.metrics.gauge("service_registry_size").set(
                    len(self.registry)
                )
            return result
        finally:
            if span is not None:
                tel.tracer.end(span)

    def _dispatch(self, event: ServiceEvent, tel) -> Dict[str, Any]:
        """Route one event to registry + mapper; returns the result."""
        if isinstance(event, AdmitEvent):
            if not self.breaker.allow(event.name):
                return {
                    "ok": False,
                    "kind": "admit",
                    "pid": event.pid,
                    "error": (
                        f"admission short-circuited: profile {event.name!r} "
                        "tripped the circuit breaker"
                    ),
                    "short_circuited": True,
                }
            try:
                self.registry.admit(event.pid, event.name)
            except ReproError as exc:
                self.breaker.record_failure(event.name, str(exc))
                raise
            self.breaker.record_success(event.name)
            decision = self._map(
                lambda views: self.mapper.admit(views, event.pid), tel
            )
            return self._result("admit", event.pid, decision)
        if isinstance(event, RetireEvent):
            self.registry.retire(event.pid)
            decision = self._map(
                lambda views: self.mapper.retire(views, event.pid), tel
            )
            return self._result("retire", event.pid, decision)
        if isinstance(event, PhaseChangeEvent):
            self.registry.phase_change(event.pid, event.name)
            decision = self._map(
                lambda views: self.mapper.phase_change(views, event.pid), tel
            )
            return self._result("phase_change", event.pid, decision)
        if isinstance(event, SettleEvent):
            views = self.registry.views()
            decision = self._timed_step(
                lambda: self.mapper.settle(views), full=True, tel=tel
            )
            oracle = self.mapper.oracle(views)
            self.registry.apply_mapping(decision.mapping)
            result = self._result("settle", None, decision)
            result["oracle"] = str(oracle)
            return result
        raise ServiceError(f"unknown service event {event!r}")

    def _map(self, step, tel) -> MapDecision:
        """Snapshot views, run one mapper step, apply the decision."""
        views = self.registry.views()
        decision = self._timed_step(
            lambda: step(views), full=None, tel=tel
        )
        self.registry.apply_mapping(decision.mapping)
        return decision

    @staticmethod
    def _timed_step(step, full, tel) -> MapDecision:
        """Run a mapper step, observing remap latency when telemetry is on.

        ``full=None`` means "observe only if the step chose the full
        path"; ``full=True`` forces observation (settle). The clock is
        read only when telemetry is active — disabled runs stay
        byte-identical to an uninstrumented build.
        """
        if tel is None or tel.metrics is None:
            return step()
        started = time.perf_counter()
        decision = step()
        if full or decision.action == "full":
            tel.metrics.histogram(
                "service_remap_seconds", DURATION_BUCKETS
            ).observe(time.perf_counter() - started)
        return decision

    def _result(
        self, kind: str, pid: Optional[int], decision: MapDecision
    ) -> Dict[str, Any]:
        """JSON-native success payload shared by every event kind."""
        return {
            "ok": True,
            "kind": kind,
            "pid": pid,
            "action": decision.action,
            "mapping": str(decision.mapping),
            "moved": list(decision.moved),
            "drift": decision.drift,
            "population": len(self.registry),
        }

    # -- introspection -------------------------------------------------

    def queue_depth(self) -> int:
        """Events currently waiting in the admission queue."""
        return 0 if self._queue is None else self._queue.qsize()

    @property
    def degraded(self) -> bool:
        """Whether the footprint stream has been stale past threshold.

        Always ``False`` while ``stale_after_seconds`` is unset (no
        clock is ever read) and until the first event arrives; once
        degraded, the daemon keeps answering ``mapping`` with the
        last-good mapping rather than refusing service.
        """
        threshold = self.config.stale_after_seconds
        if threshold is None or self._last_event_monotonic is None:
            return False
        return time.monotonic() - self._last_event_monotonic > threshold

    def status(self) -> Dict[str, Any]:
        """JSON-native daemon status (the ``status`` endpoint)."""
        return {
            "running": self.running,
            "accepting": self._accepting,
            "degraded": self.degraded,
            "queue_depth": self.queue_depth(),
            "events": {
                "processed": self.events_processed,
                "ok": self.events_ok,
                "rejected": self.events_rejected,
                "dropped": self.events_dropped,
                "deduped": self.events_deduped,
            },
            "mapper": {
                "full_remaps": self.mapper.full_remaps,
                "incremental_updates": self.mapper.incremental_updates,
                "drift": self.mapper.drift,
                "drift_threshold": self.mapper.drift_threshold,
                **(
                    {
                        "damped_updates": self.mapper.damped_updates,
                        "flapping": list(self.mapper.flapping_pids),
                    }
                    if self.mapper.flap_armed
                    else {}
                ),
            },
            "breaker_open": self.breaker.open_keys(),
            "registry": self.registry.status(),
            "durability": (
                None if self.durability is None else self.durability.status()
            ),
        }

    def mapping_payload(self) -> Dict[str, Any]:
        """JSON-native current mapping (the ``mapping`` endpoint)."""
        mapping = self.mapper.mapping
        return {
            "mapping": str(mapping),
            "groups": [sorted(group) for group in mapping.groups],
            "population": len(self.registry),
            "drift": self.mapper.drift,
        }
