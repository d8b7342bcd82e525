"""The scheduler daemon: lifecycle, backpressure, draining, health."""

import asyncio

import pytest

from repro.alloc.weight_sort import WeightSortPolicy
from repro.errors import ConfigurationError, ServiceError
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import (
    AdmitEvent,
    PhaseChangeEvent,
    RetireEvent,
    SettleEvent,
    event_from_arrival,
)
from repro.workloads.arrivals import ArrivalEvent


def make_service(**overrides):
    defaults = dict(num_cores=2, queue_capacity=8)
    defaults.update(overrides)
    return SchedulerService(WeightSortPolicy(), ServiceConfig(**defaults))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(queue_capacity=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(wave_events=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(heartbeat_interval=0.0)


def test_submit_before_start_is_rejected():
    service = make_service()

    async def run():
        await service.submit_event(AdmitEvent(pid=1, name="mcf"))

    with pytest.raises(ServiceError):
        asyncio.run(run())


def test_double_start_is_rejected():
    async def run():
        service = make_service()
        await service.start()
        try:
            with pytest.raises(ServiceError):
                await service.start()
        finally:
            await service.stop()

    asyncio.run(run())


def test_stop_without_start_is_a_noop():
    async def run():
        await make_service().stop()

    asyncio.run(run())


def test_event_lifecycle_end_to_end():
    async def run():
        service = make_service()
        await service.start()
        try:
            admit = await service.submit_event(AdmitEvent(pid=1, name="mcf"))
            assert admit["ok"] and admit["kind"] == "admit"
            assert admit["population"] == 1
            await service.submit_event(AdmitEvent(pid=2, name="povray"))
            phase = await service.submit_event(
                PhaseChangeEvent(pid=1, name="astar")
            )
            assert phase["ok"] and phase["action"] == "full"
            retire = await service.submit_event(RetireEvent(pid=2))
            assert retire["ok"] and retire["population"] == 1
            settle = await service.submit_event(SettleEvent())
            assert settle["ok"] and settle["action"] == "full"
            assert settle["mapping"] == settle["oracle"]
        finally:
            await service.stop()
        assert service.events_processed == 5
        assert service.events_ok == 5
        assert service.events_rejected == 0
        assert service.events_dropped == 0

    asyncio.run(run())


def test_rejections_answer_instead_of_crashing():
    async def run():
        service = make_service()
        await service.start()
        try:
            dup = await service.submit_event(AdmitEvent(pid=1, name="mcf"))
            assert dup["ok"]
            dup = await service.submit_event(AdmitEvent(pid=1, name="mcf"))
            assert not dup["ok"] and "already registered" in dup["error"]
            gone = await service.submit_event(RetireEvent(pid=42))
            assert not gone["ok"]
            bogus = await service.submit_event(
                AdmitEvent(pid=2, name="no-such-benchmark")
            )
            assert not bogus["ok"] and "unknown workload" in bogus["error"]
            # The daemon is still healthy after every rejection.
            fine = await service.submit_event(AdmitEvent(pid=3, name="astar"))
            assert fine["ok"]
        finally:
            await service.stop()
        assert service.events_rejected == 3
        assert service.events_ok == 2

    asyncio.run(run())


def test_unknown_event_type_is_rejected():
    async def run():
        service = make_service()
        await service.start()
        try:
            result = await service.submit_event(object())
            assert not result["ok"]
        finally:
            await service.stop()

    asyncio.run(run())


def test_breaker_short_circuits_poison_profiles():
    async def run():
        service = make_service(breaker_threshold=2)
        await service.start()
        try:
            for pid in (1, 2):
                result = await service.submit_event(
                    AdmitEvent(pid=pid, name="no-such-benchmark")
                )
                assert not result["ok"]
                assert "short_circuited" not in result
            tripped = await service.submit_event(
                AdmitEvent(pid=3, name="no-such-benchmark")
            )
            assert tripped["short_circuited"] is True
            # Healthy profiles are unaffected by the open circuit.
            fine = await service.submit_event(AdmitEvent(pid=4, name="mcf"))
            assert fine["ok"]
            assert "no-such-benchmark" in service.status()["breaker_open"]
        finally:
            await service.stop()

    asyncio.run(run())


def test_try_submit_drops_only_when_full():
    async def run():
        service = make_service(queue_capacity=2)
        await service.start()
        try:
            # No await between the three calls: the consumer cannot run,
            # so the third submission meets a full queue.
            futures = [
                service.try_submit(AdmitEvent(pid=pid, name="mcf"))
                for pid in (1, 2, 3)
            ]
            assert futures[0] is not None and futures[1] is not None
            assert futures[2] is None
            assert service.events_dropped == 1
            results = await asyncio.gather(futures[0], futures[1])
            assert all(r["ok"] for r in results)
        finally:
            await service.stop()
        assert service.events_processed == 2

    asyncio.run(run())


def test_graceful_stop_drains_queued_events():
    async def run():
        service = make_service(queue_capacity=8)
        await service.start()
        futures = [
            service.try_submit(AdmitEvent(pid=pid, name="mcf"))
            for pid in (1, 2, 3, 4, 5)
        ]
        assert all(f is not None for f in futures)
        # Stop immediately: the consumer has not processed anything yet,
        # yet a graceful stop must resolve every queued decision.
        await service.stop(drain=True)
        assert all(f.done() for f in futures)
        results = [f.result() for f in futures]
        assert all(r["ok"] for r in results)
        assert [r["population"] for r in results] == [1, 2, 3, 4, 5]
        assert service.events_processed == 5
        assert service.events_dropped == 0
        assert not service.running
        with pytest.raises(ServiceError):
            await service.submit_event(AdmitEvent(pid=9, name="mcf"))

    asyncio.run(run())


@pytest.mark.parametrize("yields", range(1, 9))
def test_graceful_stop_answers_submitters_parked_on_a_full_queue(yields):
    """A producer blocked in ``submit_event`` when stop() begins must
    still get an answer, even if its event lands behind the sentinel.

    The first yield lets all four producers reach the queue (one event
    queued, three parked); each further yield lets the consumer free a
    slot or a woken producer fill it. By the last count all four events
    are processed before stop() begins.
    """

    async def run():
        service = make_service(queue_capacity=1)
        await service.start()
        submitters = [
            asyncio.create_task(
                service.submit_event(AdmitEvent(pid=pid, name="mcf"))
            )
            for pid in (1, 2, 3, 4)
        ]
        for _ in range(yields):
            await asyncio.sleep(0)
        await service.stop()
        return service, await asyncio.gather(*submitters)

    service, results = asyncio.run(asyncio.wait_for(run(), timeout=5.0))
    refused = [r for r in results if not r["ok"]]
    assert all(
        r == {"ok": False, "error": "service stopped before processing"}
        for r in refused
    )
    assert results[0]["ok"]
    assert service.events_processed == len(results) - len(refused)
    assert service.events_dropped == len(refused)
    assert not service.running


def test_abort_stop_fails_queued_events_as_dropped():
    async def run():
        service = make_service(queue_capacity=8)
        await service.start()
        futures = [
            service.try_submit(AdmitEvent(pid=pid, name="mcf"))
            for pid in (1, 2, 3)
        ]
        await service.stop(drain=False)
        assert service.events_dropped == 3
        assert service.events_processed == 0
        for future in futures:
            assert future.done()
            assert future.result()["ok"] is False

    asyncio.run(run())


def test_heartbeat_board_sees_event_and_idle_ticks():
    async def run():
        board = {}
        service = SchedulerService(
            WeightSortPolicy(),
            ServiceConfig(num_cores=2, heartbeat_interval=0.01),
            heartbeat_board=board,
            heartbeat_slot=(0, 7),
        )
        await service.start()
        try:
            await service.submit_event(AdmitEvent(pid=1, name="mcf"))
            phase, _, _ = board[(0, 7)]
            assert phase == "service:admit"
            await asyncio.sleep(0.05)  # idle: the watchdog still sees beats
            phase, _, _ = board[(0, 7)]
            assert phase == "service:idle"
        finally:
            await service.stop()

    asyncio.run(run())


def test_status_and_mapping_payloads():
    import json

    async def run():
        service = make_service()
        await service.start()
        try:
            await service.submit_event(AdmitEvent(pid=1, name="mcf"))
            await service.submit_event(AdmitEvent(pid=2, name="povray"))
            status = service.status()
            assert status["running"] and status["accepting"]
            assert status["events"]["processed"] == 2
            assert status["registry"]["population"] == 2
            mapping = service.mapping_payload()
            assert mapping["population"] == 2
            assert sorted(p for g in mapping["groups"] for p in g) == [1, 2]
            json.dumps(status), json.dumps(mapping)  # JSON-native
        finally:
            await service.stop()

    asyncio.run(run())


def test_event_from_arrival_rejects_unknown_kinds():
    bad = ArrivalEvent(seq=0, time=0.0, kind="explode", pid=1, name="mcf")
    with pytest.raises(ServiceError):
        event_from_arrival(bad)
