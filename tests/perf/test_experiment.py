"""Tests for the experiment drivers (scaled-down budgets for speed)."""

import pytest

from repro.alloc import WeightedInterferenceGraphPolicy, WeightSortPolicy
from repro.errors import ConfigurationError
from repro.perf.experiment import (
    MixResult,
    default_mapping_for,
    mix_sweep,
    pairwise_private_timeshare,
    pairwise_shared,
    run_all_mappings,
    stratified_mixes,
    two_phase,
)
from repro.perf.machine import core2duo, p4xeon
from repro.perf.runner import build_tasks
from repro.sched.affinity import canonical_mapping

INSTR = 150_000  # tiny budgets: these tests exercise plumbing, not physics


class TestPairwise:
    def test_shared_pairwise_structure(self):
        result = pairwise_shared(
            core2duo(), ["povray", "gobmk", "sjeng"], instructions=INSTR
        )
        assert set(result.solo_times) == {"povray", "gobmk", "sjeng"}
        assert len(result.pair_times) == 3
        partner, worst = result.worst_degradation("gobmk")
        assert partner in ("povray", "sjeng")
        table = result.worst_case_table()
        assert set(table) == {"povray", "gobmk", "sjeng"}

    def test_degradation_symmetric_lookup(self):
        result = pairwise_shared(core2duo(), ["povray", "sjeng"], instructions=INSTR)
        d1 = result.degradation("povray", "sjeng")
        d2 = result.degradation("sjeng", "povray")
        assert isinstance(d1, float) and isinstance(d2, float)

    def test_private_timeshare_runs(self):
        result = pairwise_private_timeshare(
            p4xeon(), ["povray", "sjeng"], instructions=INSTR
        )
        assert result.degradation("povray", "sjeng") > -0.5

    def test_shared_requires_shared_l2(self):
        with pytest.raises(ConfigurationError):
            pairwise_shared(p4xeon(), ["povray", "sjeng"], instructions=INSTR)


class TestMappingsAndMixes:
    def test_run_all_mappings_three_for_four_tasks(self):
        tasks = build_tasks(["povray", "gobmk", "sjeng", "perlbench"], instructions=INSTR)
        times = run_all_mappings(core2duo(), tasks)
        assert len(times) == 3
        for mapping_times in times.values():
            assert set(mapping_times) == {"povray", "gobmk", "sjeng", "perlbench"}
            assert all(v > 0 for v in mapping_times.values())

    def test_default_mapping_round_robin(self):
        tasks = build_tasks(["povray", "gobmk", "sjeng", "perlbench"], instructions=INSTR)
        mapping = default_mapping_for(tasks, 2)
        assert mapping.core_of(tasks[0].tid) == mapping.core_of(tasks[2].tid)
        assert mapping.core_of(tasks[1].tid) == mapping.core_of(tasks[3].tid)

    def test_mix_result_metrics(self):
        mapping_a = canonical_mapping([[0, 1], [2, 3]])
        mapping_b = canonical_mapping([[0, 2], [1, 3]])
        result = MixResult(
            names=("x", "y"),
            mapping_times={
                mapping_a: {"x": 100.0, "y": 50.0},
                mapping_b: {"x": 80.0, "y": 60.0},
            },
            chosen_mapping=mapping_b,
            default_mapping=mapping_a,
        )
        assert result.worst_time("x") == 100.0
        assert result.best_time("x") == 80.0
        assert result.chosen_time("x") == 80.0
        assert result.improvement("x") == pytest.approx(0.2)
        assert result.oracle_improvement("x") == pytest.approx(0.2)
        # y is hurt by the chosen mapping relative to its own worst=60.
        assert result.improvement("y") == pytest.approx(0.0)

    def test_two_phase_end_to_end(self):
        result = two_phase(
            core2duo(),
            ["povray", "gobmk", "sjeng", "perlbench"],
            WeightedInterferenceGraphPolicy(),
            instructions=INSTR,
            phase1_min_wall=30_000_000.0,
            monitor_interval=2_000_000.0,
        )
        assert len(result.mapping_times) >= 3
        assert result.chosen_mapping in result.mapping_times
        assert len(result.decisions) >= 1
        for name in result.names:
            assert 0.0 <= result.improvement(name) <= 1.0


class TestStratifiedMixes:
    def test_coverage(self):
        pool = ["a", "b", "c", "d", "e", "f"]
        mixes = stratified_mixes(pool, mixes_per_benchmark=3, mix_size=4, seed=0)
        counts = {name: 0 for name in pool}
        for mix in mixes:
            assert len(mix) == 4
            assert len(set(mix)) == 4
            for name in mix:
                counts[name] += 1
        assert min(counts.values()) >= 3

    def test_no_duplicate_mixes(self):
        mixes = stratified_mixes(["a", "b", "c", "d", "e"], 4, 4, seed=1)
        assert len(mixes) == len(set(mixes))

    def test_deterministic(self):
        pool = ["a", "b", "c", "d", "e", "f"]
        assert stratified_mixes(pool, 2, 4, seed=5) == stratified_mixes(pool, 2, 4, seed=5)

    def test_mix_size_validation(self):
        with pytest.raises(ConfigurationError):
            stratified_mixes(["a", "b"], 2, 4)


class TestMixSweep:
    def test_sweep_aggregates(self):
        mixes = [
            ("povray", "gobmk", "sjeng", "perlbench"),
            ("povray", "gobmk", "sjeng", "bzip2"),
        ]
        sweep = mix_sweep(
            core2duo(),
            mixes,
            WeightSortPolicy(),
            instructions=INSTR,
            phase1_min_wall=20_000_000.0,
            monitor_interval=2_000_000.0,
        )
        assert len(sweep.mix_results) == 2
        assert len(sweep.improvements["povray"]) == 2
        assert sweep.max_improvement("povray") >= sweep.avg_improvement("povray") - 1e-12
        summary = sweep.summary()
        assert set(summary) == {"povray", "gobmk", "sjeng", "perlbench", "bzip2"}
