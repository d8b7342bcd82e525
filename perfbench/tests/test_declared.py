"""The workloads that run are the ones ``BENCHMARK.json`` declares."""

import json
from array import array
from pathlib import Path

import pytest

from perfbench import fig10, service_load
from perfbench.run import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)
    assert "setup_s" in [m["name"] for m in DECLARED["end_to_end"]]


def test_every_workload_reports_every_declared_end_to_end_metric():
    # setup_s and peak_rss_mb are measured by run.py for every workload.
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    sweep = fig10.Sweep(
        wall=1.0, phase1_s=0.5, phase2_s=0.3, refs=10, requests=[0.5, 0.1, 0.2], stats=[]
    )
    log = service_load.EventLog.empty(20)
    log.done = array("d", [0.001 * (i + 1) for i in range(20)])
    episode = service_load.Episode(
        index=0, events=20, wall=0.5, log=log, outcome={}, fsyncs=21, snapshots=0, problems=[]
    )
    for reported in (fig10.end_to_end([sweep]), service_load.end_to_end([episode])):
        assert set(reported) | {"setup_s", "peak_rss_mb"} == declared
        assert all(v is not None and v > 0 for v in reported.values())


def test_fig10_latency_takes_each_run_median_across_sweeps_first():
    # The same three simulator runs in two sweeps, the second 30% slower:
    # per-run medians are 0.115, 0.23, 1.15, so the median request is
    # the middle run, whichever sweep drifted.
    fast = fig10.Sweep(wall=1.0, phase1_s=1.0, phase2_s=0.3, refs=1, requests=[0.1, 0.2, 1.0], stats=[])
    slow = fig10.Sweep(wall=1.3, phase1_s=1.3, phase2_s=0.39, refs=1, requests=[0.13, 0.26, 1.3], stats=[])
    metrics = fig10.end_to_end([fast, slow])
    assert metrics["latency_p50_ms"] == pytest.approx(230.0)
    assert metrics["requests_per_s"] == pytest.approx(6 / 2.3)
