"""Shared-cache multi-core substrate: set-associative caches, prefetching,
TLB/page-fault counters and the machine presets from the paper."""

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.config import (
    CacheConfig,
    CacheGeometry,
    core2duo_l2,
    p4xeon_l2,
    tiny_cache,
    typical_l1,
)
from repro.cache.prefetch import PrefetchingCache, PrefetchStats
from repro.cache.replacement import (
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_policy,
)
from repro.cache.stats import CacheStats
from repro.cache.tlb import TLB, PageFaultTracker

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "CacheConfig",
    "CacheGeometry",
    "core2duo_l2",
    "p4xeon_l2",
    "tiny_cache",
    "typical_l1",
    "PrefetchingCache",
    "PrefetchStats",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "TreePLRUPolicy",
    "make_policy",
    "CacheStats",
    "TLB",
    "PageFaultTracker",
]
