"""Differential tests: compiled kernel vs scalar oracle vs brute force.

The compiled kernel (:mod:`repro.cache.native`) must reproduce the
scalar Python paths bit for bit. Every LRU batch below runs through
three engines — the kernel, the scalar loop (built under
:func:`repro.cache.native.disabled`) and a textbook timestamp LRU
written independently here — and every ``AccessResult`` field, the
statistics and the resident-state queries are compared after each
batch. The CBF half drives a kernel-bound and a numpy-path
:class:`SignatureUnit` with the same events and compares counters,
every Core/Last Filter word and :class:`SignatureStats`, including
1-bit counters and counters corrupted by fault injectors.

Without a C compiler the kernel half skips and the scalar engine is
still checked against the brute-force reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.generators import (
    AliasingGenerator,
    PhaseFlapGenerator,
    SaturatingGenerator,
    ThrashingGenerator,
)
from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.analysis.figures import SHOWCASE_MIXES
from repro.cache import native
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig, SignatureUnit
from repro.faults.injectors import (
    SaturateCountersInjector,
    SignatureFaultInjector,
    ZeroWordsInjector,
)
from repro.perf.experiment import two_phase
from repro.perf.machine import core2duo
from repro.perf.simulator import MulticoreSimulator

FIELDS = ("fills", "fill_slots", "evictions", "evict_slots", "evict_fill_pos")

needs_kernel = pytest.mark.skipif(
    native.load() is None, reason="no C compiler: compiled kernel unavailable"
)


class BruteLRU:
    """Textbook LRU: each valid way carries its last-use time.

    Ways fill in index order; a full set evicts its least recently used
    way. Nothing is shared with the engines under test.
    """

    def __init__(self, sets, ways, cores):
        self.sets, self.ways, self.cores = sets, ways, cores
        self.lines = {}  # (set, way) -> [block, owner, last use]
        self.clock = 0
        self.hits = [0] * cores
        self.misses = [0] * cores
        self.evictions = 0

    def access(self, core, blocks):
        hits, out = 0, {f: [] for f in FIELDS}
        for block in blocks:
            self.clock += 1
            s = block % self.sets
            used = [w for w in range(self.ways) if (s, w) in self.lines]
            found = [w for w in used if self.lines[s, w][0] == block]
            if found:
                hits += 1
                self.lines[s, found[0]][2] = self.clock
                continue
            if len(used) < self.ways:
                way = len(used)
            else:
                way = min(used, key=lambda w: self.lines[s, w][2])
                out["evictions"].append(self.lines[s, way][0])
                out["evict_slots"].append(s * self.ways + way)
                out["evict_fill_pos"].append(len(out["fills"]))
            self.lines[s, way] = [block, core, self.clock]
            out["fills"].append(block)
            out["fill_slots"].append(s * self.ways + way)
        self.hits[core] += hits
        self.misses[core] += len(out["fills"])
        self.evictions += len(out["evictions"])
        return hits, out

    def resident(self):
        return sorted(line[0] for line in self.lines.values())

    def occupancy(self):
        counts = [0] * self.cores
        for line in self.lines.values():
            counts[line[1]] += 1
        return counts


def _stream(kind, n, sets, ways, rng, generator):
    if kind == "random":
        return rng.integers(-(2**40), 2**40, n)
    if kind == "hot_cold":
        hot = rng.integers(0, 2 * sets * ways, n)
        cold = rng.integers(2**20, 2**30, n)
        return np.where(rng.random(n) < 0.8, hot, cold)
    if kind == "sequential":
        return np.arange(n) + int(rng.integers(0, 2**16))
    return generator.next_batch(n) if n else np.empty(0, dtype=np.int64)


def _adversary(kind, sets, ways, seed):
    lines = sets * ways
    entries = max(2, 1 << (lines - 1).bit_length())
    return {
        "aliasing": AliasingGenerator(
            entries, region_blocks=min(64, entries), seed=seed
        ),
        "saturating": SaturatingGenerator(entries, seed=seed),
        "thrashing": ThrashingGenerator(lines, seed=seed),
        "flap": PhaseFlapGenerator(region_blocks=4 * lines, period=64, seed=seed),
    }.get(kind)


def _assert_result_equal(a, b):
    assert (a.hits, a.misses) == (b.hits, b.misses)
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64, name
        assert np.array_equal(x, y), name


def _assert_matches_brute(result, hits, out):
    assert result.hits == hits
    assert result.misses == len(out["fills"])
    for name in FIELDS:
        assert getattr(result, name).tolist() == out[name], name


def _assert_state_equal(cache, brute, probes):
    assert cache.stats.hits.tolist() == brute.hits
    assert cache.stats.misses.tolist() == brute.misses
    assert cache.stats.evictions == brute.evictions
    assert sorted(cache.resident_blocks().tolist()) == brute.resident()
    assert cache.occupancy_by_core().tolist() == brute.occupancy()
    assert cache.footprint_lines() == len(brute.lines)
    resident = set(brute.resident())
    for block in probes:
        assert cache.contains(block) == (block in resident)


def _engines(geometry, cores):
    """(kernel or None, scalar) caches of one geometry."""
    sets, ways = geometry
    config = tiny_cache(sets=sets, ways=ways)
    kernel = SetAssociativeCache(config, num_cores=cores)
    with native.disabled():
        scalar = SetAssociativeCache(config, num_cores=cores)
    assert scalar._kernel is None
    return (kernel if kernel._kernel is not None else None), scalar


geometries = st.tuples(
    st.integers(0, 6).map(lambda b: 1 << b), st.integers(1, 16)
)
batch_sizes = st.lists(
    st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)),
    min_size=1, max_size=8,
)
kinds = st.sampled_from(
    ["random", "hot_cold", "sequential", "aliasing", "saturating",
     "thrashing", "flap"]
)


class TestLruThreeWay:
    @given(geometries, st.integers(1, 4), kinds, batch_sizes, st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_single_level(self, geometry, cores, kind, sizes, seed):
        sets, ways = geometry
        kernel, scalar = _engines(geometry, cores)
        brute = BruteLRU(sets, ways, cores)
        rng = np.random.default_rng(seed)
        gen = _adversary(kind, sets, ways, seed)
        seen = []
        for i, n in enumerate(sizes):
            blocks = np.asarray(_stream(kind, n, sets, ways, rng, gen), dtype=np.int64)
            core = i % cores
            seen.extend(blocks.tolist()[:8])
            hits, out = brute.access(core, blocks.tolist())
            expected = scalar.access_batch(core, blocks)
            _assert_matches_brute(expected, hits, out)
            _assert_state_equal(scalar, brute, seen)
            if kernel is not None:
                _assert_result_equal(kernel.access_batch(core, blocks), expected)
                _assert_state_equal(kernel, brute, seen)

    @given(geometries, geometries, kinds, batch_sizes, st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_l1_filters_l2(self, l1_geometry, l2_geometry, kind, sizes, seed):
        # The simulator's private-L1 chain: only L1 fills reach the L2.
        l1_kernel, l1_scalar = _engines(l1_geometry, 1)
        l2_kernel, l2_scalar = _engines(l2_geometry, 2)
        l1_brute, l2_brute = BruteLRU(*l1_geometry, 1), BruteLRU(*l2_geometry, 2)
        rng = np.random.default_rng(seed)
        gen = _adversary(kind, *l2_geometry, seed)
        for i, n in enumerate(sizes):
            blocks = np.asarray(_stream(kind, n, *l2_geometry, rng, gen), dtype=np.int64)
            core = i % 2
            hits, out = l1_brute.access(0, blocks.tolist())
            l1 = l1_scalar.access_batch(0, blocks)
            _assert_matches_brute(l1, hits, out)
            hits, out = l2_brute.access(core, out["fills"])
            l2 = l2_scalar.access_batch(core, l1.fills)
            _assert_matches_brute(l2, hits, out)
            _assert_state_equal(l2_scalar, l2_brute, [])
            if l1_kernel is not None:
                l1_native = l1_kernel.access_batch(0, blocks)
                _assert_result_equal(l1_native, l1)
                _assert_result_equal(l2_kernel.access_batch(core, l1_native.fills), l2)
                _assert_state_equal(l2_kernel, l2_brute, [])

    @needs_kernel
    def test_reset_then_reuse(self):
        kernel, scalar = _engines((8, 4), 2)
        blocks = np.arange(100, dtype=np.int64) * 3
        for cache in (kernel, scalar):
            cache.access_batch(1, blocks)
            cache.reset()
            assert cache.footprint_lines() == 0
            assert cache.stats.total_accesses == 0
        _assert_result_equal(kernel.access_batch(0, blocks), scalar.access_batch(0, blocks))
        assert kernel.resident_blocks().tolist() == scalar.resident_blocks().tolist()

    @needs_kernel
    def test_batches_larger_than_the_kernel_buffers(self):
        kernel, scalar = _engines((16, 4), 1)
        blocks = np.random.default_rng(3).integers(0, 500, 5000)
        _assert_result_equal(kernel.access_batch(0, blocks), scalar.access_batch(0, blocks))


class OutOfRangeInjector(SignatureFaultInjector):
    """Writes counters outside ``[0, counter_max]`` after every batch."""

    kind = "out_of_range"

    def after_events(self, unit):
        count = min(3, unit.num_entries)
        idx = self._rng.choice(unit.num_entries, size=count, replace=False)
        unit.counters[idx] = self._rng.integers(-3, unit.counter_max + 4, count)


INJECTORS = {
    "none": lambda seed: None,
    "saturate": SaturateCountersInjector,
    "zero": lambda seed: ZeroWordsInjector(seed, fraction=0.25),
    "out_of_range": OutOfRangeInjector,
}


def _units(config):
    unit = SignatureUnit(config)
    with native.disabled():
        oracle = SignatureUnit(config)
    assert oracle._kernel is None
    return unit, oracle


def _assert_units_equal(a, b):
    assert np.array_equal(a.counters, b.counters)
    for x, y in zip(a.core_filters + a.last_filters, b.core_filters + b.last_filters):
        assert np.array_equal(x._words, y._words)
    assert a.stats == b.stats


def _event_batches(sets, ways, cores, sizes, rng):
    """Events of a real LRU cache, plus stray evictions that underflow."""
    cache = SetAssociativeCache(tiny_cache(sets=sets, ways=ways), num_cores=cores)
    for i, n in enumerate(sizes):
        core = i % cores
        result = cache.access_batch(core, rng.integers(0, 4 * sets * ways, n))
        evictions = result.evictions
        if i % 3 == 2:
            evictions = np.concatenate([evictions, rng.integers(0, 2**40, 5)])
        yield core, result, evictions


@needs_kernel
class TestCbfKernel:
    @given(
        st.integers(0, 6).map(lambda b: 1 << b),
        st.integers(1, 16),
        st.integers(1, 4),
        st.sampled_from([1, 2, 3]),
        st.sampled_from(sorted(INJECTORS)),
        st.booleans(),
        batch_sizes,
        st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_path(
        self, sets, ways, cores, bits, injector, precorrupt, sizes, seed
    ):
        config = SignatureConfig(
            num_cores=cores, num_sets=sets, ways=max(ways, 2), counter_bits=bits
        )
        unit, oracle = _units(config)
        assert unit._kernel is not None
        for u in (unit, oracle):
            u.attach_injector(INJECTORS[injector](seed))
        rng = np.random.default_rng(seed)
        if precorrupt:
            bad = rng.integers(-5, unit.counter_max + 6, unit.num_entries)
            unit.counters[:] = bad
            oracle.counters[:] = bad
        for core, result, evictions in _event_batches(sets, max(ways, 2), cores, sizes, rng):
            for u in (unit, oracle):
                u.record_events(
                    core, result.fills, result.fill_slots, evictions, None,
                    result.evict_fill_pos,
                )
            _assert_units_equal(unit, oracle)
            a, b = unit.on_context_switch(core), oracle.on_context_switch(core)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.occupancy == b.occupancy
                assert np.array_equal(a.symbiosis, b.symbiosis)
            _assert_units_equal(unit, oracle)

    def test_only_the_batched_xor_configuration_binds(self):
        base = dict(num_cores=2, num_sets=64, ways=4)
        assert SignatureUnit(SignatureConfig(**base))._kernel is not None
        for override in (
            {"exact": True},
            {"strict_saturation": True},
            {"sampling_denominator": 4},
            {"num_hashes": 2},
            {"hash_kind": "modulo"},
            {"hash_kind": "xor_inverse_reverse"},
            {"hash_kind": "presence"},
        ):
            unit = SignatureUnit(SignatureConfig(**base, **override))
            assert unit._kernel is None, override


def _normalise(result):
    """A SimulationResult with task ids replaced by task positions."""
    position = {t.tid: i for i, t in enumerate(result.tasks)}

    def groups(mapping):
        return tuple(tuple(sorted(position[t] for t in g)) for g in mapping.groups)

    return (
        result.wall_cycles,
        result.l2_miss_rate,
        [
            (t.name, t.first_completion_cycles, t.user_cycles, t.completions,
             t.context_switches)
            for t in result.tasks
        ],
        [groups(d) for d in result.decisions],
        None if result.majority_mapping is None else groups(result.majority_mapping),
        result.signature_stats,
        result.degradations,
    )


@needs_kernel
def test_whole_two_phase_run_matches(monkeypatch):
    """Phase-1 and every phase-2 SimulationResult of a showcase mix."""
    runs = []
    run = MulticoreSimulator.run

    def spy(sim, *args, **kwargs):
        result = run(sim, *args, **kwargs)
        runs.append((sim.signature_unit is not None, _normalise(result)))
        return result

    monkeypatch.setattr(MulticoreSimulator, "run", spy)

    def sweep():
        runs.clear()
        two_phase(
            core2duo(),
            list(SHOWCASE_MIXES[0]),
            WeightedInterferenceGraphPolicy(),
            instructions=150_000,
            phase1_min_wall=10_000_000.0,
            monitor_interval=1_000_000.0,
        )
        return list(runs)

    compiled = sweep()
    with native.disabled():
        scalar = sweep()
    assert [phase1 for phase1, _ in compiled] == [True] + [False] * (len(compiled) - 1)
    assert compiled == scalar
