"""Group commit: a batch of events costs one WAL fsync and stays crash-safe.

The batched twin of ``test_recovery.py``: seeded batches of 1–40 events
go through ``_handle`` (log stage, one commit, then apply stage) with
``snapshot_interval=64``, so some snapshots fall inside a batch — after
its records are durable but before all of them are applied. Killing
the daemon after any batch, or at any byte of a batch's commit write,
must recover the uninterrupted oracle's state at the last committed
batch plus the whole records of the torn write, with no event applied
twice. The file also pins in-batch duplicates, real-fsync counting,
the consumer's queue draining and the fail-stop answer to a failed
commit.
"""

import asyncio
import errno
import os
import random
import shutil

from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.manager import DurabilityManager
from repro.durable.state import capture_state, state_fingerprint
from repro.durable.wal import EventWAL
from repro.service.daemon import SchedulerService
from repro.service.events import AdmitEvent, RetireEvent
from repro.telemetry import MetricsRegistry, TelemetryContext, use

from tests.durable.test_recovery import make_config, run_oracle, trace_events

SNAPSHOT_INTERVAL = 64
BATCH_SEED = 29
MAX_BATCH = 40


def split_batches(events, seed=BATCH_SEED):
    """Cut *events* into consecutive batches of seeded sizes 1..40."""
    rng = random.Random(seed)
    batches, start = [], 0
    while start < len(events):
        size = rng.randint(1, MAX_BATCH)
        batches.append(events[start:start + size])
        start += size
    return batches


def run_batched(batches, config, state_dir, copies_dir):
    """Durable batched run.

    Copies the state directory after every batch (``after-N``; ``after-0``
    is the empty start) and returns, per batch, the WAL bytes its commit
    wrote.
    """
    durability = DurabilityManager(
        state_dir, snapshot_interval=SNAPSHOT_INTERVAL
    )
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    wal_path = state_dir / "events.wal"
    writes = []
    commit = durability.record_events

    def spying_commit(payloads):
        before = wal_path.read_bytes() if wal_path.exists() else b""
        lsns = commit(payloads)
        after = wal_path.read_bytes()
        assert after.startswith(before)
        writes.append(after[len(before):])
        return lsns

    durability.record_events = spying_commit
    state_dir.mkdir(parents=True)
    shutil.copytree(state_dir, copies_dir / "after-0")
    for number, batch in enumerate(batches, start=1):
        service._handle(*batch)
        shutil.copytree(state_dir, copies_dir / f"after-{number}")
    return service, writes


def recover(state_dir, config):
    return SchedulerService.recover(
        WeightSortPolicy(),
        config,
        state_dir=state_dir,
        snapshot_interval=SNAPSHOT_INTERVAL,
    )


def batch_ends(batches):
    """Events applied once each batch is done (cumulative batch sizes)."""
    ends, total = [], 0
    for batch in batches:
        total += len(batch)
        ends.append(total)
    return ends


def snapshots_inside_a_batch(batches):
    """Snapshot points (every 64th event) that are not a batch's last event."""
    ends = batch_ends(batches)
    starts = [0] + ends[:-1]
    return [
        point
        for point in range(SNAPSHOT_INTERVAL, ends[-1] + 1, SNAPSHOT_INTERVAL)
        if any(start < point < end for start, end in zip(starts, ends))
    ]


def test_kill_after_every_batch_recovers_the_exact_state(tmp_path):
    events = trace_events()
    config = make_config()
    batches = split_batches(events)
    assert snapshots_inside_a_batch(batches)  # the case under test occurs
    _, fingerprints = run_oracle(events, config)
    durable, writes = run_batched(
        batches, config, tmp_path / "live", tmp_path / "copies"
    )
    assert state_fingerprint(capture_state(durable)) == fingerprints[-1]
    # One commit, hence one fsync, per batch.
    assert durable.durability.wal.fsyncs == len(batches) == len(writes)
    mismatches = []
    for number, end in enumerate(batch_ends(batches), start=1):
        recovered = recover(tmp_path / "copies" / f"after-{number}", config)
        if state_fingerprint(capture_state(recovered)) != fingerprints[end - 1]:
            mismatches.append(number)
        assert recovered.events_processed == end
    assert mismatches == []


def test_kill_at_every_byte_of_a_commit_recovers_a_whole_record_prefix(
    tmp_path,
):
    """Each torn commit recovers its last batch plus its whole records.

    At every byte of every commit write, the WAL tail recovery reads is
    checked to be exactly the committed history plus the whole records
    of the torn write; the recovery that tail feeds is then run in full
    for every distinct outcome (record count, torn or clean end) and
    compared with the oracle.
    """
    events = trace_events(count=200, seed=7)
    config = make_config()
    batches = split_batches(events)
    assert snapshots_inside_a_batch(batches)
    _, fingerprints = run_oracle(events, config)
    empty = state_fingerprint(
        capture_state(SchedulerService(WeightSortPolicy(), config))
    )
    _, writes = run_batched(
        batches, config, tmp_path / "live", tmp_path / "copies"
    )
    ends = batch_ends(batches)
    work = tmp_path / "work"
    recoveries = 0
    for number, write in enumerate(writes, start=1):
        committed = ends[number - 2] if number > 1 else 0
        base = tmp_path / "copies" / f"after-{number - 1}"
        wal_file = base / "events.wal"
        before = wal_file.read_bytes() if wal_file.exists() else b""
        snapshot_lsn = DurabilityManager(base).load()[1]
        seen = set()
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(base, work)  # recovery only reads the directory
        for cut in range(len(write) + 1):
            whole = write[:cut + 1].count(b"\n")
            torn = cut not in (0, len(write)) and write[cut - 1] != ord("\n")
            (work / "events.wal").write_bytes(before + write[:cut])
            tail = EventWAL(work / "events.wal").replay(snapshot_lsn)
            assert [lsn for lsn, _ in tail] == list(
                range(snapshot_lsn + 1, committed + whole + 1)
            ), (number, cut)
            if (whole, torn) in seen:
                continue
            seen.add((whole, torn))
            recovered = recover(work, config)
            recoveries += 1
            applied = committed + whole
            assert recovered.events_processed == applied, (number, cut)
            expected = fingerprints[applied - 1] if applied else empty
            assert (
                state_fingerprint(capture_state(recovered)) == expected
            ), (number, cut)
    assert recoveries > len(events)


def test_a_duplicate_inside_one_batch_is_logged_once(tmp_path):
    events = [
        AdmitEvent(pid=1, name="mcf", client="a", seq=1),
        AdmitEvent(pid=1, name="mcf", client="a", seq=1),
        AdmitEvent(pid=2, name="povray", client="b", seq=5),
        # Below b's high-water mark once seq 5 is applied: a duplicate.
        RetireEvent(pid=2, client="b", seq=3),
        RetireEvent(pid=1, client="a", seq=2),
    ]
    config = make_config()
    sequential = SchedulerService(WeightSortPolicy(), config)
    expected = [sequential._handle(event)[0] for event in events]
    durability = DurabilityManager(tmp_path)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    results = service._handle(*events)
    assert results == expected
    assert results[0]["ok"] and "duplicate" not in results[0]
    assert results[1] == dict(results[0], duplicate=True)
    assert results[3]["duplicate"] is True
    assert [event["seq"] for _, event in durability.wal.replay(0)] == [1, 5, 2]
    assert durability.wal.fsyncs == 1
    assert state_fingerprint(capture_state(service)) == state_fingerprint(
        capture_state(sequential)
    )


def test_fsyncs_and_metrics_count_commits_not_records(tmp_path):
    events = trace_events(count=30, seed=3)
    metrics = MetricsRegistry()
    service = SchedulerService(
        WeightSortPolicy(),
        make_config(),
        durability=DurabilityManager(tmp_path),
    )
    with use(TelemetryContext(metrics=metrics)):
        service._handle(*events[:10])
        service._handle(*events[10:])
    status = service.status()["durability"]
    assert status["wal_fsyncs"] == 2
    assert status["wal_records_written"] == 30
    snapshot = metrics.snapshot()
    assert snapshot["durable_wal_fsyncs_total"]["value"] == 2
    assert snapshot["durable_wal_records_total"]["value"] == 30
    assert snapshot["durable_commit_batch_events"]["count"] == 2
    assert snapshot["durable_commit_batch_events"]["sum"] == 30
    assert snapshot["durable_fsync_seconds"]["count"] == 2


def test_the_consumer_commits_everything_queued_at_once(tmp_path):
    async def run():
        durability = DurabilityManager(tmp_path)
        service = SchedulerService(
            WeightSortPolicy(), make_config(), durability=durability
        )
        await service.start()
        try:
            futures = [
                service.try_submit(AdmitEvent(pid=pid, name="mcf"))
                for pid in range(1, 11)
            ]
            results = await asyncio.wait_for(asyncio.gather(*futures), 10)
        finally:
            await asyncio.wait_for(service.stop(), 10)
        assert all(result["ok"] for result in results)
        assert [r["population"] for r in results] == list(range(1, 11))
        assert durability.wal.fsyncs == 1
        assert durability.wal.records_written == 10

    asyncio.run(run())


def test_a_failed_wal_commit_fails_stop_instead_of_hanging(
    tmp_path, monkeypatch
):
    def disk_full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    async def submit_all(service, events):
        return await asyncio.wait_for(
            asyncio.gather(*(service.submit_event(e) for e in events)), 10
        )

    async def run():
        service = SchedulerService(
            WeightSortPolicy(),
            make_config(),
            durability=DurabilityManager(tmp_path),
        )
        await service.start()
        try:
            [first] = await submit_all(service, [AdmitEvent(pid=1, name="mcf")])
            assert first["ok"]
            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", disk_full)
                failed = await submit_all(
                    service,
                    [AdmitEvent(pid=p, name="mcf") for p in (2, 3, 4)],
                )
            # The disk has recovered, but the log stays failed.
            [later] = await submit_all(service, [RetireEvent(pid=1)])
            for result in failed + [later]:
                assert result["ok"] is False
                assert "durability failure" in result["error"]
            # Nothing whose commit failed was applied; reads still answer.
            assert service.events_processed == 1
            assert service.mapping_payload()["population"] == 1
            status = service.status()
            assert status["running"] is True
            assert os.strerror(errno.ENOSPC) in status["durability"]["failure"]
            assert status["events"]["dropped"] == 4
        finally:
            await asyncio.wait_for(service.stop(), 10)

    asyncio.run(run())
    # The acknowledged event survives a restart.
    recovered = SchedulerService.recover(
        WeightSortPolicy(), make_config(), state_dir=tmp_path
    )
    assert recovered.events_processed >= 1
    assert 1 in {pid for group in recovered.mapper.mapping.groups for pid in group}


def test_a_failed_snapshot_keeps_its_durable_batch_then_fails_stop(
    tmp_path, monkeypatch
):
    real_fsync = os.fsync
    calls = []

    def snapshot_fsync_fails(fd):
        calls.append(fd)
        if len(calls) == 2:  # 1: the batch's WAL commit, 2: the snapshot
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real_fsync(fd)

    config = make_config()
    service = SchedulerService(
        WeightSortPolicy(),
        config,
        durability=DurabilityManager(tmp_path, snapshot_interval=2),
    )
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", snapshot_fsync_fails)
        results = service._handle(
            *(AdmitEvent(pid=pid, name="mcf") for pid in range(1, 5))
        )
    # Every record was durable before the snapshot failed: all applied.
    assert [r["ok"] for r in results] == [True] * 4
    assert service.durability.checkpoints == 0
    applied = state_fingerprint(capture_state(service))
    [later] = service._handle(AdmitEvent(pid=9, name="mcf"))
    assert later["ok"] is False and "durability failure" in later["error"]
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=tmp_path, snapshot_interval=2
    )
    assert not recovered.recovered_from_snapshot
    assert state_fingerprint(capture_state(recovered)) == applied


def test_an_object_of_no_event_type_is_refused_unlogged(tmp_path):
    durability = DurabilityManager(tmp_path)
    service = SchedulerService(
        WeightSortPolicy(), make_config(), durability=durability
    )
    refused, admitted = service._handle(object(), AdmitEvent(pid=1, name="mcf"))
    assert refused["ok"] is False and "not a service event" in refused["error"]
    assert admitted["ok"] is True
    assert service.events_processed == 1
    assert [e["kind"] for _, e in durability.wal.replay(0)] == ["admit"]
