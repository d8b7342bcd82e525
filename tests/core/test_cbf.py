"""Tests for the classic Bloom filter / counting Bloom filter (Sec 2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cbf import BloomFilter, CountingBloomFilter
from repro.errors import CounterSaturationError


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(256, num_hashes=2)
        blocks = [3, 999, 123456, 1 << 30]
        for b in blocks:
            bf.insert(b)
        for b in blocks:
            assert bf.query(b), "inserted element reported as true miss"

    def test_true_miss_on_empty(self):
        bf = BloomFilter(256)
        assert not bf.query(42)

    def test_insert_many_matches_loop(self):
        blocks = np.random.default_rng(0).integers(0, 1 << 35, 300)
        a = BloomFilter(512, num_hashes=2)
        b = BloomFilter(512, num_hashes=2)
        a.insert_many(blocks)
        for blk in blocks:
            b.insert(int(blk))
        assert a.bits == b.bits

    def test_occupancy_weight(self):
        bf = BloomFilter(512)
        assert bf.occupancy_weight() == 0
        bf.insert(7)
        assert bf.occupancy_weight() == 1

    def test_saturation_metric(self):
        bf = BloomFilter(64)
        bf.insert_many(np.random.default_rng(1).integers(0, 1 << 35, 5000))
        assert bf.saturation() > 0.95

    def test_more_hashes_saturate_faster(self):
        # Section 5.3: multiple hash functions pollute small filters faster.
        blocks = np.random.default_rng(2).integers(0, 1 << 35, 200)
        k1 = BloomFilter(1024, num_hashes=1)
        k4 = BloomFilter(1024, num_hashes=4)
        k1.insert_many(blocks)
        k4.insert_many(blocks)
        assert k4.saturation() > k1.saturation()

    def test_clear(self):
        bf = BloomFilter(64)
        bf.insert(1)
        bf.clear()
        assert bf.occupancy_weight() == 0
        assert not bf.query(1)


class TestCountingBloomFilter:
    def test_insert_delete_roundtrip(self):
        cbf = CountingBloomFilter(256, num_hashes=2)
        blocks = [5, 1000, 424242]
        for b in blocks:
            cbf.insert(b)
        for b in blocks:
            cbf.delete(b)
        assert cbf.occupancy_weight() == 0
        assert cbf.saturation_events == 0
        assert cbf.underflow_events == 0

    def test_no_false_negative_while_present(self):
        cbf = CountingBloomFilter(256)
        cbf.insert(77)
        cbf.insert(78)
        cbf.delete(78)
        assert cbf.query(77)

    def test_true_miss_after_delete(self):
        cbf = CountingBloomFilter(4096, num_hashes=1)
        cbf.insert(77)
        cbf.delete(77)
        assert not cbf.query(77)

    def test_duplicate_hash_indices_counted_once(self):
        # With k=2 both hashes can collide for some address; the paper says
        # the counter moves only once. Force it with a tiny filter.
        cbf = CountingBloomFilter(2, num_hashes=2)
        cbf.insert(0)
        assert cbf.counters.sum() <= 2

    def test_saturation_clamps_and_counts(self):
        cbf = CountingBloomFilter(4, counter_bits=1, num_hashes=1)
        target = 0
        idx = cbf.hashes[0].hash_one(target)
        cbf.insert(target)
        cbf.insert(target)  # would exceed max=1
        assert cbf.counters[idx] == 1
        assert cbf.saturation_events == 1

    def test_strict_saturation_raises(self):
        cbf = CountingBloomFilter(4, counter_bits=1, strict=True)
        cbf.insert(0)
        with pytest.raises(CounterSaturationError):
            cbf.insert(0)

    def test_underflow_clamps_and_counts(self):
        cbf = CountingBloomFilter(16)
        cbf.delete(3)
        assert cbf.underflow_events == 1
        assert (cbf.counters >= 0).all()

    def test_strict_underflow_raises(self):
        cbf = CountingBloomFilter(16, strict=True)
        with pytest.raises(CounterSaturationError):
            cbf.delete(3)

    def test_insert_many_delete_many(self):
        blocks = np.random.default_rng(3).integers(0, 1 << 35, 100)
        cbf = CountingBloomFilter(1 << 12, counter_bits=8)
        cbf.insert_many(blocks)
        for blk in blocks:
            cbf.delete(int(blk))
        assert cbf.occupancy_weight() == 0

    def test_clear(self):
        cbf = CountingBloomFilter(64)
        cbf.insert(5)
        cbf.delete(6)
        cbf.clear()
        assert cbf.occupancy_weight() == 0
        assert cbf.underflow_events == 0


class TestCbfProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1), max_size=60),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiset_roundtrip_never_negative(self, blocks, k):
        cbf = CountingBloomFilter(128, num_hashes=k, counter_bits=16)
        for b in blocks:
            cbf.insert(b)
        for b in blocks:
            assert cbf.query(b), "present element must never be a true miss"
        for b in blocks:
            cbf.delete(b)
        assert cbf.occupancy_weight() == 0
        assert cbf.underflow_events == 0

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded_by_distinct_inserts(self, blocks):
        cbf = CountingBloomFilter(256, num_hashes=1, counter_bits=16)
        for b in blocks:
            cbf.insert(b)
        assert cbf.occupancy_weight() <= len(set(blocks))
