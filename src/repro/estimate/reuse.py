"""One-pass reuse-distance / footprint profiling of a task's trace.

The analytical backend never simulates an interleaved trace; everything
it predicts derives from a single vectorised profiling pass per task that
collects:

* the **reuse-time histogram** — for every reference that re-touches a
  block, the number of (own) references since the previous touch;
* the **gap lengths** — runs of references *not* touching each block,
  from which the average **footprint curve** ``fp(w)`` (expected number
  of distinct blocks in a window of ``w`` consecutive references)
  follows in closed form;
* cold-miss and working-set totals.

The footprint identity is exact, not fitted (window-count form of the
higher-order theory of locality): summing distinct-block counts over all
length-``w`` windows is the same as counting, per block, the windows that
*miss* it — and a window misses a block exactly when it fits inside one
of the block's access gaps, so

``fp(w) = m - (1 / (n - w + 1)) · Σ_gaps max(gap - w + 1, 0)``

with ``m`` distinct blocks, ``n`` references, and one gap per reuse
interval (length ``reuse_time - 1``) plus head/tail gaps before each
block's first and after its last access. All of it evaluates with sorted
arrays and cumulative sums — no per-reference Python loop.

Restart semantics (paper Section 4.2) are handled by
:meth:`ReuseProfile.footprint_extended`: a completed task restarts into a
fresh block-address slice, so a co-runner observed across ``k`` full
trace lengths contributes ``k`` *disjoint* working sets plus the
footprint of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sched.process import SimTask
from repro.utils.validation import require_positive

__all__ = ["ReuseProfile", "profile_trace", "profile_task"]


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse/footprint summary of one task's reference stream.

    Attributes
    ----------
    name:
        Task display name (benchmark name).
    refs:
        References profiled (``n``).
    distinct_blocks:
        Distinct blocks touched (``m``; the cold-miss count).
    total_refs:
        The task's full trace length — equals ``refs`` unless the
        profiling pass was truncated by ``profile_refs``.
    accesses_per_kinstr, mlp:
        Timing-model parameters copied from the task (memory intensity
        and memory-level parallelism).
    reuse_times:
        Sorted reuse times, one per non-cold reference.
    gap_lengths:
        Sorted gap lengths feeding the footprint identity.
    """

    name: str
    refs: int
    distinct_blocks: int
    total_refs: int
    accesses_per_kinstr: float
    mlp: float
    reuse_times: np.ndarray = field(repr=False)
    gap_lengths: np.ndarray = field(repr=False)
    _gap_cumsum: np.ndarray = field(repr=False)
    #: Memoised :meth:`binned_reuses` results, keyed by bin count — the
    #: same profile is re-binned by every per-mapping analytical model.
    _bin_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def truncated(self) -> bool:
        """True when the profile covers a prefix of the full trace."""
        return self.refs < self.total_refs

    def footprint(self, windows: np.ndarray) -> np.ndarray:
        """Expected distinct blocks in windows of the given lengths.

        Exact for ``1 <= w <= refs`` (matches a brute-force average over
        all length-``w`` windows); inputs are clipped into that range.
        """
        w = np.clip(np.asarray(windows, dtype=np.int64), 1, self.refs)
        gaps = self.gap_lengths
        idx = np.searchsorted(gaps, w, side="left")
        suffix_sum = self._gap_cumsum[-1] - self._gap_cumsum[idx]
        suffix_cnt = len(gaps) - idx
        tail = suffix_sum - (w - 1) * suffix_cnt
        return self.distinct_blocks - tail / np.maximum(self.refs - w + 1, 1)

    def footprint_extended(self, windows: np.ndarray) -> np.ndarray:
        """Footprint of a window that may span restarts of the task.

        A restarted task replays its reference pattern in a *shifted*
        block-address slice (fresh physical pages), so each completed
        trace length contributes its whole working set again:
        ``fp_ext(w) = floor(w / n) · m + fp(w mod n)``.
        """
        w = np.asarray(windows, dtype=np.float64)
        n = float(self.refs)
        full = np.floor(w / n)
        rem = np.maximum((w - full * n).astype(np.int64), 1)
        return full * self.distinct_blocks + self.footprint(rem)

    def hits_within(self, reuse_limit: float) -> int:
        """Number of reuses with reuse time at most *reuse_limit*."""
        return int(np.searchsorted(self.reuse_times, reuse_limit, side="right"))

    def binned_reuses(
        self, max_bins: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reuse times compressed to ``(values, counts)`` bin pairs.

        Short profiles pass through exactly (weight 1 per reuse); longer
        ones collapse into at most *max_bins* log-spaced bins, each
        represented by its members' mean reuse time and total count.
        The footprint curve is smooth, so downstream volume estimates
        evaluated at bin representatives carry a relative error bounded
        by the bin's log width (``max_rt ** (1/max_bins) - 1``). Results
        are memoised per bin count; callers must not mutate them.
        """
        max_bins = int(max_bins)
        require_positive(max_bins, "max_bins")
        cached = self._bin_cache.get(max_bins)
        if cached is not None:
            return cached
        rts = self.reuse_times.astype(np.float64)
        if len(rts) <= max_bins:
            result = rts, np.ones(len(rts))
        else:
            lo, hi = float(rts[0]), float(rts[-1])
            if hi <= lo:
                result = np.array([lo]), np.array([float(len(rts))])
            else:
                edges = np.geomspace(lo, hi, max_bins + 1)
                idx = np.clip(
                    np.searchsorted(edges, rts, side="right") - 1,
                    0,
                    max_bins - 1,
                )
                counts = np.bincount(idx, minlength=max_bins)
                sums = np.bincount(idx, weights=rts, minlength=max_bins)
                filled = counts > 0
                result = (
                    sums[filled] / counts[filled],
                    counts[filled].astype(np.float64),
                )
        self._bin_cache[max_bins] = result
        return result


def profile_trace(
    name: str,
    blocks: np.ndarray,
    *,
    total_refs: Optional[int] = None,
    accesses_per_kinstr: float = 1.0,
    mlp: float = 1.0,
) -> ReuseProfile:
    """Profile one reference stream into a :class:`ReuseProfile`.

    The pass is fully vectorised: previous-occurrence indices come from
    one stable argsort of the block ids, reuse times and gap lengths are
    then plain array arithmetic.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = len(blocks)
    require_positive(n, "trace length")
    _, inv = np.unique(blocks, return_inverse=True)
    m = int(inv.max()) + 1
    order = np.argsort(inv, kind="stable")
    sorted_ids = inv[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    has_prev = prev >= 0
    reuse_times = (np.arange(n, dtype=np.int64) - prev)[has_prev]
    firsts = order[np.concatenate(([True], ~same))]
    lasts = order[np.concatenate((~same, [True]))]
    gaps = np.concatenate([reuse_times - 1, firsts, n - 1 - lasts])
    gaps = np.sort(gaps[gaps > 0])
    return ReuseProfile(
        name=name,
        refs=n,
        distinct_blocks=m,
        total_refs=int(total_refs if total_refs is not None else n),
        accesses_per_kinstr=float(accesses_per_kinstr),
        mlp=float(mlp),
        reuse_times=np.sort(reuse_times),
        gap_lengths=gaps,
        _gap_cumsum=np.concatenate(([0], np.cumsum(gaps))),
    )


def profile_task(
    task: SimTask, profile_refs: Optional[int] = None
) -> ReuseProfile:
    """Profile a :class:`~repro.sched.process.SimTask`'s trace.

    Generates (and then rewinds) the task's reference stream — the task
    is left exactly as constructed, so profiling never perturbs a later
    exact simulation of the same object. *profile_refs* caps the pass
    for huge traces; the resulting profile is marked truncated.
    """
    n = task.total_accesses
    take = n if profile_refs is None else min(n, int(profile_refs))
    if take <= 0:
        raise WorkloadError(f"task {task.name!r} has an empty trace")
    generator = task.generator
    generator.reset()
    blocks = np.array(generator.next_batch(take), dtype=np.int64, copy=True)
    generator.reset()
    return profile_trace(
        task.name,
        blocks,
        total_refs=n,
        accesses_per_kinstr=task.accesses_per_kinstr,
        mlp=task.mlp,
    )
