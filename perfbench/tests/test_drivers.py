"""The load drivers keep trace order and time the open loop from due."""

import asyncio
import time
from pathlib import Path

import pytest

from perfbench import service_load
from perfbench.pins import replay_outcome
from perfbench.service_load import ServiceBench, drive_open


def test_closed_loop_matches_sequential_replay(tmp_path: Path, monkeypatch):
    # 32 submitters in flight must still enqueue events in trace order:
    # the final mapping and the full/incremental split depend on it.
    monkeypatch.setitem(service_load.EPISODE_EVENTS, "svc_saturate", 600)
    bench = ServiceBench("svc_saturate", seed=7, state_root=tmp_path)

    async def play():
        untraced, _ = await bench.measure(0.0, count=2)
        return untraced

    episodes = asyncio.run(play())
    for episode in episodes:
        assert episode.problems == []
        assert episode.outcome == replay_outcome(bench.trace(episode.index))
    assert list(tmp_path.iterdir()) == []


class StallingService:
    """Answers at once, except that one event blocks the loop for a while."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.seen = []

    def queue_depth(self) -> int:
        return 0

    async def submit_event(self, event):
        self.seen.append(event)
        if event == self.stall_at:
            time.sleep(self.stall_s)  # blocks the sender too, as a stuck daemon would
        return {"ok": True}


def test_open_loop_latency_counts_from_the_due_time():
    gap, stall, n, stall_at = 0.01, 0.25, 40, 5
    service = StallingService(stall_at, stall)
    offsets = [i * gap for i in range(n)]
    log = asyncio.run(drive_open(service, list(range(n)), offsets))
    assert service.seen == list(range(n))
    latencies = log.latencies()
    # Everything due during the stall waits for its end: its latency
    # is the rest of the stall, although it was answered at once when
    # finally sent.
    for i in range(stall_at + 1, stall_at + 20):
        remaining = stall - (i - stall_at) * gap
        assert latencies[i] >= remaining - 0.02
        assert log.late[i] == pytest.approx(latencies[i], abs=0.02)
        assert log.done[i] - log.sent[i] < 0.02
    # Well before the stall nothing waits.
    assert max(latencies[:stall_at]) < 0.05
