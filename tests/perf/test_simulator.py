"""Tests for the closed-loop multicore simulator."""

import pytest

from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig
from repro.errors import ConfigurationError, SimulationError
from repro.perf.machine import MachineConfig, core2duo
from repro.perf.runner import build_tasks, run_mix
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.affinity import canonical_mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.workloads.patterns import RandomRegionGenerator, StreamGenerator


def tiny_machine(shared=True, cores=2):
    return MachineConfig(
        name="tiny",
        num_cores=cores,
        l2=tiny_cache(sets=64, ways=4),
        shared_l2=shared,
        timing=TimingModel(),
    )


def make_task(name="t", total=2000, region=100, base=0, seed=0, apki=20.0, mlp=1.0):
    return SimTask(
        name=name,
        generator=RandomRegionGenerator(region, base_block=base, seed=seed),
        total_accesses=total,
        accesses_per_kinstr=apki,
        mlp=mlp,
    )


def small_sched(cores=2, timeslice=50_000.0):
    return SchedulerConfig(num_cores=cores, timeslice_cycles=timeslice)


class TestBasicRuns:
    def test_single_task_completes(self):
        sim = MulticoreSimulator(tiny_machine(), [make_task()])
        result = sim.run()
        t = result.tasks[0]
        assert t.completions >= 1
        assert t.first_completion_cycles > 0
        assert result.wall_cycles >= t.first_completion_cycles

    def test_all_tasks_complete_once(self):
        tasks = [make_task(f"t{i}", base=1000 * i, seed=i) for i in range(4)]
        result = MulticoreSimulator(
            tiny_machine(), tasks, scheduler_config=small_sched()
        ).run()
        assert all(t.completions >= 1 for t in result.tasks)

    def test_restart_semantics(self):
        # A short task restarts until the long one completes.
        short = make_task("short", total=500)
        long_ = make_task("long", total=20_000, base=5000, seed=9)
        result = MulticoreSimulator(
            tiny_machine(), [short, long_], scheduler_config=small_sched()
        ).run()
        assert result.task("short").completions > 1
        assert result.task("long").completions == 1

    def test_user_time_accessor(self):
        sim = MulticoreSimulator(tiny_machine(), [make_task("a")])
        result = sim.run()
        assert result.user_time("a") == result.task("a").first_completion_cycles
        with pytest.raises(KeyError):
            result.task("nope")

    def test_incomplete_user_time_raises(self):
        sim = MulticoreSimulator(tiny_machine(), [make_task(total=10**7)])
        result = sim.run(max_wall_cycles=1000.0)
        with pytest.raises(SimulationError):
            result.user_time("t")

    def test_deterministic(self):
        def run():
            tasks = [make_task(f"t{i}", base=1000 * i, seed=i) for i in range(3)]
            return MulticoreSimulator(
                tiny_machine(), tasks, scheduler_config=small_sched()
            ).run()

        a, b = run(), run()
        assert [t.first_completion_cycles for t in a.tasks] == [
            t.first_completion_cycles for t in b.tasks
        ]
        assert a.l2_miss_rate == b.l2_miss_rate

    def test_no_tasks_rejected(self):
        with pytest.raises(ConfigurationError):
            MulticoreSimulator(tiny_machine(), [])


class TestPlacementAndMapping:
    def test_explicit_mapping_pins_tasks(self):
        a, b = make_task("a"), make_task("b", base=500, seed=1)
        mapping = canonical_mapping([[a.tid, b.tid], []])
        sim = MulticoreSimulator(
            tiny_machine(), [a, b], mapping=mapping, scheduler_config=small_sched()
        )
        assert sim.scheduler.core_of(a.tid) == sim.scheduler.core_of(b.tid)
        sim.run()
        assert sim.scheduler.core_of(a.tid) == sim.scheduler.core_of(b.tid)

    def test_unknown_tid_in_mapping_rejected(self):
        a = make_task("a")
        with pytest.raises(ConfigurationError):
            MulticoreSimulator(
                tiny_machine(), [a], mapping=canonical_mapping([[a.tid, 9999], []])
            )

    def test_results_do_not_depend_on_the_tid_counter(self):
        # Task ids come from a process-wide counter; a frozenset of tids
        # iterates in tid-mod-table-size order, so run-queue order must
        # not follow it. Build the same mix at eight counter offsets.
        times = set()
        for offset in range(8):
            for _ in range(offset):
                make_task("pad")  # draws one task id
            tasks = build_tasks(
                ["mcf", "povray", "libquantum", "hmmer"], instructions=200_000
            )
            mapping = canonical_mapping(
                [[tasks[0].tid, tasks[2].tid], [tasks[1].tid, tasks[3].tid]]
            )
            result = run_mix(core2duo(), tasks, mapping=mapping)
            times.add(tuple(t.user_cycles for t in result.tasks))
        assert len(times) == 1

    def test_default_round_robin(self):
        tasks = [make_task(f"t{i}", seed=i) for i in range(4)]
        sim = MulticoreSimulator(tiny_machine(), tasks)
        assert sim.scheduler.core_of(tasks[0].tid) == 0
        assert sim.scheduler.core_of(tasks[1].tid) == 1
        assert sim.scheduler.core_of(tasks[2].tid) == 0


class TestContention:
    def test_streaming_partner_slows_victim(self):
        """The paper's core phenomenon at miniature scale."""

        def victim():
            return SimTask(
                name="victim",
                generator=RandomRegionGenerator(200, seed=1),  # fits the cache
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
            )

        def run_with(partner_region):
            v = victim()
            p = SimTask(
                name="partner",
                generator=StreamGenerator(partner_region, base_block=10_000, seed=2),
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
                mlp=4.0,
            )
            mapping = canonical_mapping([[v.tid], [p.tid]])
            result = MulticoreSimulator(
                tiny_machine(), [v, p], mapping=mapping,
                scheduler_config=small_sched(),
            ).run()
            return result.user_time("victim")

        gentle = run_with(partner_region=8)        # partner fits in 2 sets
        brutal = run_with(partner_region=4096)     # partner floods the cache
        assert brutal > 1.2 * gentle

    def test_same_core_timeshare_mitigates(self):
        def run(mapping_groups):
            v = SimTask(
                name="victim",
                generator=RandomRegionGenerator(200, seed=1),
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
            )
            p = SimTask(
                name="partner",
                generator=StreamGenerator(4096, base_block=10_000, seed=2),
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
                mlp=4.0,
            )
            tid = {"v": v.tid, "p": p.tid}
            groups = [[tid[x] for x in g] for g in mapping_groups]
            result = MulticoreSimulator(
                tiny_machine(), [v, p],
                mapping=canonical_mapping(groups),
                scheduler_config=SchedulerConfig(
                    num_cores=2, timeslice_cycles=10_000_000.0
                ),
            ).run()
            return result.user_time("victim")

        concurrent = run([["v"], ["p"]])
        timeshared = run([["v", "p"], []])
        assert timeshared < concurrent

    def test_intensity_feedback_exists(self):
        sim = MulticoreSimulator(
            tiny_machine(),
            [make_task("a"), make_task("b", base=500, seed=1)],
            scheduler_config=small_sched(),
        )
        sim.run()
        assert (sim._intensity >= 0).all()


class TestSignaturePhase:
    def test_signature_requires_shared_l2(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=4)
        with pytest.raises(ConfigurationError):
            MulticoreSimulator(
                tiny_machine(shared=False), [make_task()], signature_config=cfg
            )

    def test_signature_core_mismatch_rejected(self):
        cfg = SignatureConfig(num_cores=4, num_sets=64, ways=4)
        with pytest.raises(ConfigurationError):
            MulticoreSimulator(tiny_machine(), [make_task()], signature_config=cfg)

    def test_signature_stats_collected(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=4)
        tasks = [make_task(f"t{i}", base=500 * i, seed=i) for i in range(2)]
        result = MulticoreSimulator(
            tiny_machine(), tasks, signature_config=cfg,
            scheduler_config=small_sched(),
        ).run()
        assert result.signature_stats is not None
        assert result.signature_stats.fills_tracked > 0
        assert result.signature_stats.context_switches > 0

    def test_monitor_invoked_and_decisions_recorded(self):
        from repro.alloc.monitor import UserLevelMonitor
        from repro.alloc.weight_sort import WeightSortPolicy

        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=4)
        tasks = [make_task(f"t{i}", total=20_000, base=500 * i, seed=i) for i in range(4)]
        monitor = UserLevelMonitor(WeightSortPolicy(), interval_cycles=100_000.0)
        result = MulticoreSimulator(
            tiny_machine(), tasks, signature_config=cfg, monitor=monitor,
            scheduler_config=small_sched(),
        ).run()
        assert len(result.decisions) > 0
        assert result.majority_mapping is not None
        assert result.majority_mapping in result.decisions


class TestWallLimits:
    def test_max_wall_stops(self):
        result = MulticoreSimulator(
            tiny_machine(), [make_task(total=10**7)]
        ).run(max_wall_cycles=50_000.0)
        assert result.tasks[0].completions == 0

    def test_min_wall_extends(self):
        short = MulticoreSimulator(tiny_machine(), [make_task(total=500)]).run()
        extended = MulticoreSimulator(tiny_machine(), [make_task(total=500)]).run(
            min_wall_cycles=short.wall_cycles * 5
        )
        assert extended.wall_cycles >= short.wall_cycles * 5
        assert extended.tasks[0].completions > short.tasks[0].completions


class TestPrivateL2Machines:
    def test_private_caches_isolate(self):
        # On a private-L2 machine, a streaming partner on the other core
        # cannot evict the victim's lines.
        def run(shared):
            v = SimTask(
                name="victim",
                generator=RandomRegionGenerator(200, seed=1),
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
            )
            p = SimTask(
                name="partner",
                generator=StreamGenerator(4096, base_block=10_000, seed=2),
                total_accesses=20_000,
                accesses_per_kinstr=30.0,
                mlp=4.0,
            )
            mapping = canonical_mapping([[v.tid], [p.tid]])
            return MulticoreSimulator(
                tiny_machine(shared=shared), [v, p], mapping=mapping,
                scheduler_config=small_sched(),
            ).run().user_time("victim")

        assert run(shared=False) < run(shared=True)

    def test_process_user_time(self):
        a = make_task("a")
        b = make_task("b", base=500, seed=1)
        b.process_id = a.process_id
        result = MulticoreSimulator(
            tiny_machine(), [a, b], scheduler_config=small_sched()
        ).run()
        assert result.process_user_time(a.process_id) == max(
            result.user_time("a"), result.user_time("b")
        )
