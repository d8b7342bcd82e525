"""Tests for reuse-distance profiling and the footprint identity."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.estimate.reuse import profile_task, profile_trace
from repro.perf.runner import build_tasks


def brute_force_footprint(blocks, w):
    """Average distinct-block count over every length-w window."""
    n = len(blocks)
    return float(
        np.mean([len(set(blocks[i : i + w])) for i in range(n - w + 1)])
    )


class TestFootprintIdentity:
    def test_matches_brute_force_on_random_trace(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 12, size=200)
        prof = profile_trace("t", blocks)
        for w in (1, 2, 5, 17, 64, 199, 200):
            got = prof.footprint(np.array([w]))[0]
            assert got == pytest.approx(brute_force_footprint(blocks, w))

    def test_matches_brute_force_on_structured_traces(self):
        cyclic = np.tile(np.arange(7), 30)
        streaming = np.arange(150)
        clustered = np.repeat(np.arange(10), 15)
        for blocks in (cyclic, streaming, clustered):
            prof = profile_trace("t", blocks)
            for w in (1, 3, 10, 50, len(blocks)):
                got = prof.footprint(np.array([w]))[0]
                assert got == pytest.approx(
                    brute_force_footprint(blocks, w)
                ), f"w={w}"

    def test_endpoints(self):
        blocks = np.array([0, 1, 0, 2, 1, 0])
        prof = profile_trace("t", blocks)
        # A window of one reference always holds exactly one block.
        assert prof.footprint(np.array([1]))[0] == pytest.approx(1.0)
        # The full-trace window holds the whole working set.
        assert prof.footprint(np.array([6]))[0] == pytest.approx(3.0)

    def test_clips_out_of_range_windows(self):
        prof = profile_trace("t", np.array([0, 1, 0, 1]))
        full = prof.footprint(np.array([4]))[0]
        assert prof.footprint(np.array([1000]))[0] == pytest.approx(full)

    def test_monotone_in_window_length(self):
        rng = np.random.default_rng(11)
        prof = profile_trace("t", rng.integers(0, 30, size=400))
        curve = prof.footprint(np.arange(1, 401))
        assert (np.diff(curve) >= -1e-9).all()


class TestFootprintExtended:
    def test_whole_multiples_add_working_sets(self):
        blocks = np.tile(np.arange(5), 10)  # n=50, m=5
        prof = profile_trace("t", blocks)
        base = prof.footprint(np.array([20]))[0]
        ext = prof.footprint_extended(np.array([50 + 20]))[0]
        assert ext == pytest.approx(5 + base)
        assert prof.footprint_extended(np.array([120]))[0] == pytest.approx(
            2 * 5 + base
        )


class TestProfileTrace:
    def test_counts(self):
        prof = profile_trace("t", np.array([3, 3, 7, 3, 9]))
        assert prof.refs == 5
        assert prof.distinct_blocks == 3
        assert prof.reuse_times.tolist() == [1, 2]

    def test_hits_within(self):
        prof = profile_trace("t", np.array([0, 0, 1, 0, 1]))
        # Reuse times: 1 (0->0), 2 (0->0 over idx 1..3), 2 (1->1).
        assert prof.hits_within(1) == 1
        assert prof.hits_within(2) == 3
        assert prof.hits_within(0.5) == 0

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            profile_trace("t", np.array([], dtype=np.int64))


class TestBinnedReuses:
    def test_short_profiles_pass_through(self):
        prof = profile_trace("t", np.array([0, 0, 1, 1, 2, 0]))
        values, weights = prof.binned_reuses(1000)
        assert values.tolist() == prof.reuse_times.tolist()
        assert (weights == 1.0).all()

    def test_compression_preserves_mass(self):
        rng = np.random.default_rng(5)
        prof = profile_trace("t", rng.integers(0, 40, size=3000))
        values, weights = prof.binned_reuses(16)
        assert len(values) <= 16
        assert weights.sum() == pytest.approx(len(prof.reuse_times))
        # Bin representatives stay inside the observed reuse-time range.
        assert values.min() >= prof.reuse_times.min()
        assert values.max() <= prof.reuse_times.max()
        assert (np.diff(values) > 0).all()

    def test_memoised_per_bin_count(self):
        rng = np.random.default_rng(6)
        prof = profile_trace("t", rng.integers(0, 40, size=2000))
        a = prof.binned_reuses(32)
        b = prof.binned_reuses(32)
        assert a[0] is b[0] and a[1] is b[1]
        c = prof.binned_reuses(64)
        assert len(c[0]) >= len(a[0])

    def test_degenerate_single_reuse_time(self):
        prof = profile_trace("t", np.tile(np.arange(500), 2))
        # Every reuse time is exactly 500; any bin count collapses to one.
        values, weights = prof.binned_reuses(8)
        assert values.tolist() == [500.0]
        assert weights.tolist() == [500.0]


class TestProfileTask:
    def test_profiles_without_perturbing_generator(self):
        task = build_tasks(["mcf"], instructions=50_000, seed=0)[0]
        before = np.array(task.generator.next_batch(256), copy=True)
        task.generator.reset()
        prof = profile_task(task)
        after = np.array(task.generator.next_batch(256), copy=True)
        task.generator.reset()
        assert (before == after).all()
        assert prof.refs == task.total_accesses
        assert not prof.truncated

    def test_truncation_is_recorded(self):
        task = build_tasks(["mcf"], instructions=50_000, seed=0)[0]
        prof = profile_task(task, profile_refs=100)
        assert prof.refs == 100
        assert prof.total_refs == task.total_accesses
        assert prof.truncated

    def test_rejects_nonpositive_cap(self):
        task = build_tasks(["mcf"], instructions=50_000, seed=0)[0]
        with pytest.raises(WorkloadError):
            profile_task(task, profile_refs=0)
