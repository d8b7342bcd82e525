"""Service extension — replayed-arrival load bench for the daemon.

No paper figure corresponds to this: the paper schedules a fixed
process mix offline, while :mod:`repro.service` admits and retires
processes online. This bench replays a seeded 5,000-event Poisson
arrival trace (20,000 under ``REPRO_FULL=1``) through the daemon's
admission queue and reports throughput, decision-latency percentiles,
and the incremental/full remap split.

The replay runs with the durability layer **enabled** — every event is
WAL-logged and fsynced before it is applied, and state snapshots
every 256 events — so the throughput floor prices in the full
crash-consistency tax, not a best-case in-memory run.

Two passes over the same trace, each on a fresh daemon:

* **sequential** — one event in flight, so every event is its own
  WAL commit (one fsync each);
* **closed loop** — :data:`IN_FLIGHT` submitters keep 32 events in
  flight, so the daemon finds events queued and group-commits them.

Hard assertions (the subsystem's acceptance contract), on both passes
unless noted:

* zero dropped events — awaited submission backpressures, never drops;
* the settled final mapping is byte-identical to the full-remap oracle;
* sequential throughput meets the ``REPRO_SERVICE_MIN_EPS`` floor
  (default 1,000 events/second) *with the WAL enabled*;
* the closed loop needs at most :data:`MAX_FSYNCS_PER_EVENT` fsyncs per
  event — a structural bound on group commit that host speed cannot
  move.

Writes ``results/BENCH_service_replay.json`` with the full sequential
replay report (including the durability summary) plus a
``closed_loop`` section: its WAL-on events/s and fsyncs per event.
"""

import os

from conftest import RESULTS_DIR, run_once

from repro.service.daemon import ServiceConfig
from repro.service.replay import run_replay, write_bench_json
from repro.utils.tables import format_table
from repro.workloads.arrivals import poisson_trace

#: Throughput floor in events/second (env-overridable for slow CI hosts).
MIN_EVENTS_PER_SECOND = float(os.environ.get("REPRO_SERVICE_MIN_EPS", "1000"))

#: Events the closed-loop pass keeps in flight.
IN_FLIGHT = 32

#: Most WAL fsyncs per event the closed-loop pass may need.
MAX_FSYNCS_PER_EVENT = 0.25


def bench_service_replay(benchmark, report, full_scale, tmp_path):
    num_events = 20_000 if full_scale else 5_000
    trace = poisson_trace(num_events, seed=11)

    result = run_once(
        benchmark,
        lambda: run_replay(
            trace,
            config=ServiceConfig(num_cores=4),
            state_dir=tmp_path / "state",
        ),
    )
    closed = run_replay(
        trace,
        config=ServiceConfig(num_cores=4),
        state_dir=tmp_path / "closed-loop-state",
        in_flight=IN_FLIGHT,
    )

    for replay in (result, closed):
        assert replay.dropped == 0, "the awaited submission path never drops"
        assert replay.durability is not None
        assert replay.durability["wal_records_written"] == replay.processed
        assert replay.oracle_match, (
            "settled mapping must equal the full-remap oracle: "
            f"{replay.final_mapping} != {replay.oracle_mapping}"
        )
    assert result.events_per_second >= MIN_EVENTS_PER_SECOND, (
        f"{result.events_per_second:.0f} events/s is under the "
        f"{MIN_EVENTS_PER_SECOND:.0f}/s floor"
    )
    fsyncs_per_event = closed.durability["wal_fsyncs"] / closed.processed
    assert fsyncs_per_event <= MAX_FSYNCS_PER_EVENT, (
        f"{fsyncs_per_event:.3f} fsyncs per event with {IN_FLIGHT} in "
        f"flight; group commit allows at most {MAX_FSYNCS_PER_EVENT}"
    )

    write_bench_json(
        result,
        RESULTS_DIR / "BENCH_service_replay.json",
        closed_loop={
            "in_flight": IN_FLIGHT,
            "events_per_second": round(closed.events_per_second, 1),
            "fsyncs_per_event": round(fsyncs_per_event, 4),
            "decision_latency_seconds": {
                "p50": round(closed.latency_p50_seconds, 9),
                "p99": round(closed.latency_p99_seconds, 9),
            },
        },
    )
    report(
        "service_replay",
        format_table(
            ["quantity", "value"],
            [
                ["trace", f"{result.trace_kind} seed {result.trace_seed}"],
                ["events replayed", result.processed],
                ["dropped", result.dropped],
                ["throughput (events/s)", f"{result.events_per_second:.0f}"],
                ["p50 latency (us)",
                 f"{result.latency_p50_seconds * 1e6:.0f}"],
                ["p99 latency (us)",
                 f"{result.latency_p99_seconds * 1e6:.0f}"],
                ["full remaps", result.full_remaps],
                ["incremental updates", result.incremental_updates],
                ["final population", result.final_population],
                ["oracle match", result.oracle_match],
                ["WAL records", result.durability["wal_records_written"]],
                ["WAL fsyncs", result.durability["wal_fsyncs"]],
                ["snapshots", result.durability["snapshot_writes"]],
                [f"closed loop ({IN_FLIGHT} in flight) events/s",
                 f"{closed.events_per_second:.0f}"],
                ["closed loop fsyncs/event", f"{fsyncs_per_event:.3f}"],
            ],
            title="Service extension: 5k-event replayed-arrival load (WAL on)",
        ),
    )
