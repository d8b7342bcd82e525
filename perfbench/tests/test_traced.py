"""Tracing observes the program without changing what it computes."""

import asyncio
from pathlib import Path

import pytest

from perfbench import fig10, service_load
from perfbench.service_load import ServiceBench, check_episodes, per_layer
from perfbench.spans import SpanRecorder


@pytest.fixture
def short_sweep(monkeypatch):
    monkeypatch.setattr(fig10, "SHOWCASE_MIXES", (("mcf", "povray"),))
    monkeypatch.setattr(fig10, "INSTRUCTIONS", 60_000)
    monkeypatch.setattr(fig10, "PHASE1_MIN_WALL", 2_000_000.0)
    monkeypatch.setattr(fig10, "MONITOR_INTERVAL", 400_000.0)


def test_sweep_statistics_are_identical_traced_and_untraced(short_sweep):
    rec = SpanRecorder()
    untraced, traced = fig10.SweepBench(seed=3).measure(0.0, count=2, rec=rec)
    assert len(untraced) == len(traced) == 2
    problems, failed = fig10.check_sweeps(3, untraced, traced, pinned=None)
    assert (problems, failed) == ([], 0)
    assert traced[0].stats == untraced[0].stats
    metrics = fig10.per_layer(rec, traced, untraced)
    assert metrics["cache.refs"] == metrics["workloads.refs"] > 0
    assert metrics["alloc.invocations"] > 0
    # The layers account for the sweep: what is left is the loop glue.
    assert metrics["trace.unattributed_s"] < 0.05 * traced[0].wall


def test_a_differing_pin_is_a_failure(short_sweep):
    untraced, traced = fig10.SweepBench(seed=3).measure(0.0, count=1)
    pin = [dict(untraced[0].stats[0], chosen="not-a-mapping")]
    problems, failed = fig10.check_sweeps(3, untraced, traced, pinned=pin)
    assert failed == 1 and "pin" in problems[0]


def test_setup_stops_before_the_first_simulated_batch(short_sweep):
    bench = fig10.SweepBench(seed=3)
    assert bench.setup_only() > 0
    assert bench.tap.runs == []


def test_daemon_outcomes_are_identical_traced_and_untraced(tmp_path: Path, monkeypatch):
    monkeypatch.setitem(service_load.EPISODE_EVENTS, "svc_saturate", 400)
    bench = ServiceBench("svc_saturate", seed=5, state_root=tmp_path)
    rec = SpanRecorder()
    untraced, traced = asyncio.run(bench.measure(0.0, count=2, rec=rec))
    problems, failed = check_episodes(untraced, traced, pinned=None)
    assert (problems, failed) == ([], 0)
    assert [e.outcome for e in traced] == [e.outcome for e in untraced]
    metrics = per_layer("svc_saturate", rec, traced, untraced)
    assert metrics["durable.wal_appends"] == 401
    assert metrics["durable.fsyncs_per_event"] == 1.0
    assert metrics["service.queue_wait_p50_ms"] > 0
    assert metrics["service.daemon.self_s"] > 0
