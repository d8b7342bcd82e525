"""Replayed-arrival load driver for the scheduling daemon.

Feeds a seeded :class:`~repro.workloads.arrivals.ArrivalTrace` into a
:class:`~repro.service.daemon.SchedulerService` as fast as the daemon
accepts it (the trace's simulated inter-arrival times order events but
are not slept out — this is a load test, not a simulation), measures
per-event decision latency, and finishes with a settle so the final
mapping can be compared byte-for-byte against the full-remap oracle.

Two transports:

* ``direct`` — events enter the admission queue in-process; measures
  the daemon itself. ``in_flight`` submitters share the trace, each
  sending its next event as soon as its previous one is answered, so
  up to that many events queue (1, the default, replays sequentially).
* ``socket`` — events travel through the newline-JSON TCP protocol;
  measures the full client/server round trip.

:func:`write_bench_json` persists the report as the
``BENCH_service_replay.json`` artifact the CI smoke job uploads.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.alloc.base import AllocationPolicy
from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.manager import DurabilityManager
from repro.durable.state import capture_state, state_fingerprint
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import SettleEvent, event_from_arrival
from repro.service.server import ServiceServer
from repro.workloads.arrivals import ArrivalTrace

__all__ = [
    "RecoveryReport",
    "ReplayReport",
    "measure_recovery",
    "percentile",
    "run_replay",
    "write_bench_json",
]

#: Transports a replay can drive the daemon through.
TRANSPORTS: Tuple[str, ...] = ("direct", "socket")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for empty input."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ServiceError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class ReplayReport:
    """Everything a replay measured, JSON-native via :meth:`to_payload`.

    Latencies are seconds per event (submission to resolved decision);
    ``oracle_match`` asserts the trace-end contract: the settled
    mapping equals the full-remap oracle on the same final snapshot.
    """

    trace_kind: str
    trace_seed: int
    trace_events: int
    policy: str
    transport: str
    num_cores: int
    drift_threshold: int
    processed: int
    ok: int
    rejected: int
    dropped: int
    wall_seconds: float
    events_per_second: float
    latency_p50_seconds: float
    latency_p99_seconds: float
    full_remaps: int
    incremental_updates: int
    final_population: int
    final_mapping: str
    oracle_mapping: str
    oracle_match: bool
    #: Durability-layer summary when the replay ran with a state dir
    #: attached; ``None`` (and absent from the payload) otherwise, so
    #: durability-off artifacts keep their pre-durability shape.
    durability: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        """Plain-dict form for the bench JSON artifact."""
        return {
            "trace": {
                "kind": self.trace_kind,
                "seed": self.trace_seed,
                "events": self.trace_events,
            },
            "policy": self.policy,
            "transport": self.transport,
            "num_cores": self.num_cores,
            "drift_threshold": self.drift_threshold,
            "events": {
                "processed": self.processed,
                "ok": self.ok,
                "rejected": self.rejected,
                "dropped": self.dropped,
            },
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "decision_latency_seconds": {
                "p50": round(self.latency_p50_seconds, 9),
                "p99": round(self.latency_p99_seconds, 9),
            },
            "remaps": {
                "full": self.full_remaps,
                "incremental": self.incremental_updates,
            },
            "final": {
                "population": self.final_population,
                "mapping": self.final_mapping,
                "oracle": self.oracle_mapping,
                "oracle_match": self.oracle_match,
            },
            **(
                {}
                if self.durability is None
                else {"durability": self.durability}
            ),
        }


async def _drive_direct(
    service: SchedulerService, trace: ArrivalTrace, in_flight: int
) -> List[float]:
    """Submit every trace event in-process; returns per-event latencies.

    *in_flight* submitters share one cursor over the trace. Each takes
    the next event and enqueues it without awaiting in between, so
    events enter the queue in trace order.
    """
    arrivals = list(trace)
    latencies = [0.0] * len(arrivals)
    cursor = iter(range(len(arrivals)))

    async def submitter() -> None:
        for index in cursor:
            started = time.perf_counter()
            await service.submit_event(event_from_arrival(arrivals[index]))
            latencies[index] = time.perf_counter() - started

    await asyncio.gather(*(submitter() for _ in range(in_flight)))
    return latencies


async def _drive_socket(
    service: SchedulerService, trace: ArrivalTrace, host: str
) -> List[float]:
    """Submit every trace event over the TCP protocol round trip."""
    server = ServiceServer(service, host=host, port=0)
    await server.start()
    bound_host, bound_port = server.address
    client = await ServiceClient.connect(bound_host, bound_port)
    latencies: List[float] = []
    try:
        for arrival in trace:
            started = time.perf_counter()
            if arrival.kind == "admit":
                response = await client.submit(arrival.pid, arrival.name)
            elif arrival.kind == "retire":
                response = await client.retire(arrival.pid)
            else:
                response = await client.phase_change(
                    arrival.pid, arrival.name
                )
            latencies.append(time.perf_counter() - started)
            if not response.get("ok"):
                raise ServiceError(
                    f"transport error replaying event {arrival.seq}: "
                    f"{response.get('error')}"
                )
    finally:
        await client.close()
        await server.close_listener()  # keep the daemon: replay settles it
    return latencies


def run_replay(
    trace: ArrivalTrace,
    policy: Optional[AllocationPolicy] = None,
    *,
    config: Optional[ServiceConfig] = None,
    transport: str = "direct",
    host: str = "127.0.0.1",
    state_dir: Optional[Union[str, Path]] = None,
    snapshot_interval: int = 256,
    in_flight: int = 1,
) -> ReplayReport:
    """Replay *trace* against a fresh daemon and report what happened.

    The default policy is :class:`~repro.alloc.weight_sort.WeightSortPolicy`
    — the paper's cheapest allocator, whose decisions depend only on
    occupancy weights, keeping full-remap cost flat under load. Any
    other policy can be passed in; the interference policies are
    stabilised by the mapper either way.

    ``state_dir`` attaches the durability layer: every event is
    WAL-logged (fsynced before it is applied) and state snapshots
    every ``snapshot_interval`` events. The dirty directory is left
    behind on purpose — it is what :func:`measure_recovery` and the
    recovery bench feed on.

    ``in_flight`` (direct transport only) is the number of events kept
    in flight by a closed loop of submitters; with more than one, the
    daemon finds several events queued and commits them together.
    """
    if transport not in TRANSPORTS:
        raise ServiceError(
            f"unknown transport {transport!r}; valid: {', '.join(TRANSPORTS)}"
        )
    if in_flight < 1 or (in_flight > 1 and transport != "direct"):
        raise ServiceError(
            f"in_flight must be 1, or > 1 on the direct transport; got "
            f"{in_flight} on {transport!r}"
        )
    chosen = policy if policy is not None else WeightSortPolicy()
    cfg = config if config is not None else ServiceConfig(num_cores=4)
    durability = (
        None
        if state_dir is None
        else DurabilityManager(state_dir, snapshot_interval=snapshot_interval)
    )

    async def _run() -> Tuple[SchedulerService, List[float], dict, float]:
        service = SchedulerService(chosen, cfg, durability=durability)
        await service.start()
        started = time.perf_counter()
        try:
            if transport == "direct":
                latencies = await _drive_direct(service, trace, in_flight)
            else:
                latencies = await _drive_socket(service, trace, host)
            settle = await service.submit_event(SettleEvent())
            wall = time.perf_counter() - started
        finally:
            if service.running:
                await service.stop(drain=True)
        return service, latencies, settle, wall

    service, latencies, settle, wall = asyncio.run(_run())
    processed = service.events_processed
    return ReplayReport(
        trace_kind=trace.kind,
        trace_seed=trace.seed,
        trace_events=len(trace),
        policy=chosen.name,
        transport=transport,
        num_cores=cfg.num_cores,
        drift_threshold=cfg.drift_threshold,
        processed=processed,
        ok=service.events_ok,
        rejected=service.events_rejected,
        dropped=service.events_dropped,
        wall_seconds=wall,
        events_per_second=processed / wall if wall > 0 else 0.0,
        latency_p50_seconds=percentile(latencies, 50.0),
        latency_p99_seconds=percentile(latencies, 99.0),
        full_remaps=service.mapper.full_remaps,
        incremental_updates=service.mapper.incremental_updates,
        final_population=len(service.registry),
        final_mapping=settle["mapping"],
        oracle_mapping=settle["oracle"],
        oracle_match=settle["mapping"] == settle["oracle"],
        durability=(
            None
            if durability is None
            # The state dir is a tmp path — dropping it keeps the bench
            # artifact stable run-to-run.
            else {
                k: v
                for k, v in durability.status().items()
                if k != "state_dir"
            }
        ),
    )


@dataclass(frozen=True)
class RecoveryReport:
    """What one crash-recovery measured (the ``BENCH_service_recovery``
    payload): how much history was replayed, from where, and how long
    snapshot load + WAL tail replay took."""

    policy: str
    num_cores: int
    events_processed: int
    recovered_events: int
    from_snapshot: bool
    recovery_seconds: float
    final_mapping: str
    fingerprint: str

    def to_payload(self) -> Dict[str, Any]:
        """Plain-dict form for the bench JSON artifact."""
        return {
            "policy": self.policy,
            "num_cores": self.num_cores,
            "events_processed": self.events_processed,
            "recovered_events": self.recovered_events,
            "from_snapshot": self.from_snapshot,
            "recovery_seconds": round(self.recovery_seconds, 6),
            "final_mapping": self.final_mapping,
            "fingerprint": self.fingerprint,
        }


def measure_recovery(
    state_dir: Union[str, Path],
    policy: Optional[AllocationPolicy] = None,
    *,
    config: Optional[ServiceConfig] = None,
) -> RecoveryReport:
    """Recover a daemon from *state_dir* and time the whole path.

    Policy and config must match the run that produced the directory
    (the snapshot's embedded config is checked on restore). The wall
    clock covers everything a restarted daemon pays before it can
    serve: snapshot read + checksum, state restore, and WAL tail
    replay through the event handler.
    """
    chosen = policy if policy is not None else WeightSortPolicy()
    cfg = config if config is not None else ServiceConfig(num_cores=4)
    started = time.perf_counter()
    service = SchedulerService.recover(chosen, cfg, state_dir=state_dir)
    elapsed = time.perf_counter() - started
    return RecoveryReport(
        policy=chosen.name,
        num_cores=cfg.num_cores,
        events_processed=service.events_processed,
        recovered_events=service.recovered_events,
        from_snapshot=service.recovered_from_snapshot,
        recovery_seconds=elapsed,
        final_mapping=str(service.mapper.mapping),
        fingerprint=state_fingerprint(capture_state(service)),
    )


def write_bench_json(
    report: Union[ReplayReport, RecoveryReport],
    path: Union[str, Path],
    **sections: Any,
) -> Path:
    """Write the report's JSON payload to *path* (parents created).

    Keyword *sections* are added to the payload as extra top-level keys.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(
            {**report.to_payload(), **sections}, indent=2, sort_keys=True
        )
        + "\n",
        encoding="utf-8",
    )
    return target
