"""Replay driver: load reports, transports, and the pinned
incremental-vs-full equivalence contract."""

import json

import pytest

from repro.alloc.weight_sort import WeightSortPolicy
from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.errors import ServiceError
from repro.service.daemon import ServiceConfig
from repro.service.replay import (
    ReplayReport,
    percentile,
    run_replay,
    write_bench_json,
)
from repro.workloads.arrivals import bursty_trace, poisson_trace


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 99.0) == 4.0
        assert percentile(values, 0.0) == 1.0

    def test_rejects_bad_q(self):
        with pytest.raises(ServiceError):
            percentile([1.0], 101.0)


def test_unknown_transport_is_rejected():
    with pytest.raises(ServiceError):
        run_replay(poisson_trace(5, seed=0), transport="carrier-pigeon")


def test_direct_replay_report_shape():
    trace = poisson_trace(120, seed=11)
    report = run_replay(trace)
    assert report.trace_kind == "poisson"
    assert report.trace_seed == 11
    assert report.trace_events == 120
    assert report.transport == "direct"
    assert report.processed == 121  # every event + the trailing settle
    assert report.processed == report.ok + report.rejected
    assert report.rejected == 0
    assert report.dropped == 0
    assert report.events_per_second > 0.0
    assert report.latency_p99_seconds >= report.latency_p50_seconds >= 0.0
    assert report.full_remaps >= 1  # at least the settle
    assert report.final_population == len(trace.final_population())
    assert report.oracle_match


def test_socket_replay_round_trips_every_event():
    trace = poisson_trace(60, seed=4)
    report = run_replay(trace, transport="socket")
    assert report.transport == "socket"
    assert report.processed == 61
    assert report.rejected == 0
    assert report.dropped == 0
    assert report.oracle_match


@pytest.mark.parametrize(
    "make_trace", [poisson_trace, bursty_trace], ids=["poisson", "bursty"]
)
def test_500_event_incremental_matches_full_remap(make_trace):
    """The PR's pinned equivalence contract.

    Replaying the same 500-event trace with drift_threshold=16 (real
    incremental operation) and drift_threshold=1 (a full remap on every
    event) must end in byte-identical final mappings, and both must
    equal the from-scratch oracle on the final snapshot.
    """
    trace = make_trace(500, seed=11)
    incremental = run_replay(
        trace,
        WeightSortPolicy(),
        config=ServiceConfig(num_cores=4, drift_threshold=16),
    )
    full = run_replay(
        trace,
        WeightSortPolicy(),
        config=ServiceConfig(num_cores=4, drift_threshold=1),
    )
    assert incremental.dropped == full.dropped == 0
    assert incremental.oracle_match
    assert full.oracle_match
    assert incremental.final_mapping == full.final_mapping
    assert incremental.oracle_mapping == full.oracle_mapping
    # And the runs really took different paths to the same answer.
    assert incremental.incremental_updates > 0
    assert full.incremental_updates == 0
    assert full.full_remaps > incremental.full_remaps


def test_weighted_policy_also_settles_to_its_oracle():
    trace = poisson_trace(80, seed=7)
    report = run_replay(
        trace,
        WeightedInterferenceGraphPolicy(seed=3),
        config=ServiceConfig(num_cores=2, drift_threshold=8),
    )
    assert report.dropped == 0
    assert report.oracle_match
    assert report.policy == "weighted_interference_graph"


def test_replay_is_deterministic_in_everything_but_time():
    trace = bursty_trace(150, seed=9)
    a = run_replay(trace)
    b = run_replay(trace)
    for field in (
        "processed", "ok", "rejected", "dropped", "full_remaps",
        "incremental_updates", "final_population", "final_mapping",
        "oracle_mapping", "oracle_match",
    ):
        assert getattr(a, field) == getattr(b, field)


def test_write_bench_json(tmp_path):
    report = run_replay(poisson_trace(30, seed=2))
    target = write_bench_json(report, tmp_path / "nested" / "bench.json")
    payload = json.loads(target.read_text())
    assert payload["events"]["dropped"] == 0
    assert payload["final"]["oracle_match"] is True
    assert payload["trace"] == {"kind": "poisson", "seed": 2, "events": 30}
    assert isinstance(report, ReplayReport)


def test_closed_loop_replay_group_commits_and_matches_sequential(tmp_path):
    trace = poisson_trace(300, seed=6)
    sequential = run_replay(trace, state_dir=tmp_path / "sequential")
    closed = run_replay(trace, state_dir=tmp_path / "closed", in_flight=16)
    # Events enter the queue in trace order, so the outcome is the same.
    for field in (
        "processed", "ok", "rejected", "dropped", "full_remaps",
        "incremental_updates", "final_mapping", "oracle_match",
    ):
        assert getattr(closed, field) == getattr(sequential, field)
    assert sequential.durability["wal_fsyncs"] == sequential.processed
    assert closed.durability["wal_records_written"] == closed.processed
    assert closed.durability["wal_fsyncs"] < closed.processed / 4


def test_in_flight_is_validated():
    trace = poisson_trace(5, seed=0)
    with pytest.raises(ServiceError, match="in_flight"):
        run_replay(trace, in_flight=0)
    with pytest.raises(ServiceError, match="in_flight"):
        run_replay(trace, transport="socket", in_flight=4)


def test_write_bench_json_adds_sections(tmp_path):
    report = run_replay(poisson_trace(10, seed=2))
    target = write_bench_json(
        report, tmp_path / "bench.json", closed_loop={"in_flight": 32}
    )
    payload = json.loads(target.read_text())
    assert payload["closed_loop"] == {"in_flight": 32}
    assert payload["events"] == report.to_payload()["events"]
