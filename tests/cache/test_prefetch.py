"""Tests for the next-N-line prefetching cache wrapper."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.cache.prefetch import PrefetchingCache
from repro.core.signature import SignatureConfig, SignatureUnit


def make(degree=1, sets=16, ways=4):
    inner = SetAssociativeCache(tiny_cache(sets=sets, ways=ways), num_cores=2)
    return PrefetchingCache(inner, degree=degree)


class TestPrefetchingCache:
    def test_next_line_brought_in(self):
        cache = make()
        cache.access_batch(0, np.array([10]))
        assert cache.contains(10)  # demand
        assert cache.contains(11)  # prefetched

    def test_degree_controls_depth(self):
        cache = make(degree=3)
        cache.access_batch(0, np.array([10]))
        for block in (11, 12, 13):
            assert cache.contains(block)
        assert not cache.contains(14)

    def test_demand_stats_exclude_prefetch_lookups(self):
        cache = make()
        result = cache.access_batch(0, np.array([10, 20]))
        assert result.hits == 0 and result.misses == 2
        assert cache.stats.total_accesses == 2

    def test_prefetch_hides_future_miss(self):
        cache = make()
        cache.access_batch(0, np.array([10]))
        result = cache.access_batch(0, np.array([11]))
        assert result.hits == 1  # covered by the prefetch

    def test_no_prefetch_on_all_hits(self):
        cache = make()
        cache.access_batch(0, np.array([10]))
        issued_before = cache.prefetch_stats.issued
        cache.access_batch(0, np.array([10, 11]))
        assert cache.prefetch_stats.issued == issued_before

    def test_useless_prefetch_counted(self):
        cache = make()
        cache.access_batch(0, np.array([11]))   # brings 11 (demand) and 12
        cache.access_batch(0, np.array([10]))   # prefetch of 11: already in
        assert cache.prefetch_stats.useless >= 1
        assert cache.prefetch_stats.useless <= cache.prefetch_stats.issued

    def test_event_stream_includes_prefetch_fills(self):
        cache = make()
        result = cache.access_batch(0, np.array([10]))
        assert sorted(result.fills.tolist()) == [10, 11]
        assert len(result.fill_slots) == 2

    def test_events_feed_signature_unit(self):
        cache = make()
        unit = SignatureUnit(
            SignatureConfig(num_cores=2, num_sets=16, ways=4, counter_bits=8)
        )
        result = cache.access_batch(0, np.array([10, 50]))
        unit.record_events(
            0, result.fills, result.fill_slots, result.evictions,
            result.evict_slots, result.evict_fill_pos,
        )
        # Demand + prefetch fills are all tracked.
        assert unit.stats.fills_tracked == len(result.fills) == 4

    def test_prefetcher_amplifies_stream_pollution(self):
        plain = SetAssociativeCache(tiny_cache(sets=16, ways=4), num_cores=2)
        pf = make(degree=2)
        victim_blocks = np.arange(16) * 16  # one block per set
        stream = np.arange(1000, 1032)
        for cache in (plain, pf):
            cache.access_batch(0, victim_blocks)
            cache.access_batch(1, stream)
        # The prefetching cache evicted at least as many victim lines.
        plain_left = sum(plain.contains(int(b)) for b in victim_blocks)
        pf_left = sum(pf.contains(int(b)) for b in victim_blocks)
        assert pf_left <= plain_left

    def test_reset(self):
        cache = make()
        cache.access_batch(0, np.array([10]))
        cache.reset()
        assert cache.footprint_lines() == 0
        assert cache.prefetch_stats.issued == 0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            make(degree=0)
