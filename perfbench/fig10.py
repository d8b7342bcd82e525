"""Workload ``fig10_sweep``: the serial figure-10 two-phase sweep.

Serial :func:`~repro.perf.experiment.two_phase` with the exact backend
over :data:`~repro.analysis.figures.SHOWCASE_MIXES` on ``core2duo()``
with the weighted-interference-graph policy. One sweep runs the four
mixes with one fresh policy, as ``figure10_native_sweep`` does.

The sweep runs at a quarter of the library's default run length (task
instructions, phase-1 minimum wall and monitor interval all divided by
four, so the monitor is still invoked about twenty times per phase 1).
At full length one sweep takes about 43 s on a 2-vCPU host, which
leaves no room for repeated sweeps in one run; the quarter-length sweep
keeps the same layers, mixes and policy.
"""

from __future__ import annotations

from time import perf_counter as clock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.analysis.figures import SHOWCASE_MIXES
from repro.perf.experiment import MixResult, two_phase
from repro.perf.machine import MachineConfig, core2duo
from repro.perf.simulator import MulticoreSimulator
from repro.sched.affinity import Mapping

from perfbench.env import peak_rss_mb
from perfbench.layers import SIM_LAYERS, simulator_targets
from perfbench.spans import SpanRecorder, patched, step_sides
from perfbench.stats import median

__all__ = ["SweepBench", "check_sweeps", "end_to_end", "per_layer", "sweep_metrics"]

INSTRUCTIONS = 1_500_000
PHASE1_MIN_WALL = 40_000_000.0
MONITOR_INTERVAL = 2_000_000.0


@dataclass(frozen=True)
class SimRun:
    """One simulator run (one ``run_mix``) as the tap saw it."""

    phase: str
    seconds: float
    refs: int
    misses: int
    tids: tuple
    completed: bool


@dataclass
class Sweep:
    """One sweep over the four mixes."""

    wall: float
    phase1_s: float
    phase2_s: float
    refs: int
    #: Host seconds of each simulator run (each request), in run order.
    requests: List[float]
    stats: List[Dict[str, Any]]
    #: Invariant failures, one list per mix.
    problems: List[List[str]] = field(default_factory=list)


class RunTap:
    """Times each simulator run and reads its L2 totals when it returns.

    One wrapper per run, not per batch: it is installed in untraced runs
    too, where it supplies the phase split, the L2 reference count and
    the moment the first simulated batch was about to start.
    """

    def __init__(self) -> None:
        self.runs: List[SimRun] = []
        #: Clock reading when the first simulator run started.
        self.first_start: Optional[float] = None

    def targets(self):
        original = vars(MulticoreSimulator)["run"]

        def run(sim, *args, **kwargs):
            start = clock()
            if self.first_start is None:
                self.first_start = start
            result = original(sim, *args, **kwargs)
            seconds = clock() - start
            caches = {id(c): c for c in sim.caches}.values()
            self.runs.append(
                SimRun(
                    phase="phase1" if sim.signature_unit is not None else "phase2",
                    seconds=seconds,
                    refs=sum(c.stats.total_hits + c.stats.total_misses for c in caches),
                    misses=sum(c.stats.total_misses for c in caches),
                    tids=tuple(t.tid for t in sim.tasks),
                    completed=all(
                        t.first_completion_cycles is not None for t in result.tasks
                    ),
                )
            )
            return result

        return [(MulticoreSimulator, "run", run)]


def mapping_key(mapping: Mapping, index: Dict[int, int]) -> str:
    """A mapping in mix-order task indices, e.g. ``"0,1|2,3"``.

    Raw task ids come from a process-wide counter and shift with run
    order, so results are compared in index form.
    """
    groups = sorted(sorted(index[t] for t in g) for g in mapping.groups)
    return "|".join(",".join(str(i) for i in g) for g in groups)


def mix_stats(names: Sequence[str], result: MixResult, runs: List[SimRun]) -> Dict[str, Any]:
    """Every simulated statistic of one mix, in index form."""
    index = {tid: i for i, tid in enumerate(runs[0].tids)}
    return {
        "names": list(names),
        "chosen": mapping_key(result.chosen_mapping, index),
        "user_cycles": {
            mapping_key(m, index): [times[n] for n in names]
            for m, times in sorted(
                result.mapping_times.items(), key=lambda kv: mapping_key(kv[0], index)
            )
        },
        "l2": {
            phase: {
                "refs": sum(r.refs for r in runs if r.phase == phase),
                "misses": sum(r.misses for r in runs if r.phase == phase),
            }
            for phase in ("phase1", "phase2")
        },
    }


def check_mix(stats: Dict[str, Any], runs: List[SimRun]) -> List[str]:
    """Invariants every seed must meet."""
    label = "+".join(stats["names"])
    problems = []
    if not all(r.completed for r in runs):
        problems.append(f"{label}: a task never completed")
    if sum(r.phase == "phase1" for r in runs) != 1:
        problems.append(f"{label}: expected exactly one phase-1 run")
    if stats["chosen"] not in stats["user_cycles"]:
        problems.append(f"{label}: chosen mapping {stats['chosen']} was not measured")
    return problems


class SetupDone(Exception):
    """Raised in place of the first simulator run by :meth:`SweepBench.setup_only`."""


class SweepBench:
    """Set-up, measurement and checks of ``fig10_sweep``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.machine: MachineConfig = core2duo()
        self.tap = RunTap()
        #: Peak resident memory (MiB) when the first step of
        #: :meth:`measure` ended: set-up plus one sweep (or one pair).
        self.first_step_rss_mb: Optional[float] = None

    def sweep(self, rec: Optional[SpanRecorder] = None) -> Sweep:
        """Run the four mixes once; with *rec*, each mix is a span."""
        policy = WeightedInterferenceGraphPolicy()
        first_run = len(self.tap.runs)
        stats, problems = [], []
        start = clock()
        for names in SHOWCASE_MIXES:
            mark = len(self.tap.runs)
            if rec is None:
                result = self._two_phase(names, policy)
            else:
                with rec.span("perf.experiment"):
                    result = self._two_phase(names, policy)
            runs = self.tap.runs[mark:]
            stats.append(mix_stats(names, result, runs))
            problems.append(check_mix(stats[-1], runs))
        wall = clock() - start
        runs = self.tap.runs[first_run:]
        return Sweep(
            wall=wall,
            phase1_s=sum(r.seconds for r in runs if r.phase == "phase1"),
            phase2_s=sum(r.seconds for r in runs if r.phase == "phase2"),
            refs=sum(r.refs for r in runs),
            requests=[r.seconds for r in runs],
            stats=stats,
            problems=problems,
        )

    def _two_phase(self, names, policy) -> MixResult:
        return two_phase(
            self.machine,
            list(names),
            policy,
            instructions=INSTRUCTIONS,
            seed=self.seed,
            phase1_min_wall=PHASE1_MIN_WALL,
            monitor_interval=MONITOR_INTERVAL,
            backend="exact",
        )

    def setup_only(self) -> float:
        """Clock reading when the first simulated batch would start.

        Builds the first mix's inputs exactly as a sweep does and stops
        at the entry of its first simulator run.
        """

        def stop(sim, *args, **kwargs):
            raise SetupDone

        with patched([(MulticoreSimulator, "run", stop)]):
            try:
                self.sweep()
            except SetupDone:
                return clock()
        raise RuntimeError("the sweep never reached a simulator run")

    def measure(
        self,
        seconds: float,
        count: Optional[int] = None,
        rec: Optional[SpanRecorder] = None,
    ) -> Tuple[List[Sweep], List[Sweep]]:
        """Sweep repeatedly: *count* times, or while *seconds* allow.

        Returns ``(untraced, traced)``. With *rec*, each step is an
        untraced and a traced sweep (see :func:`step_sides`); without
        it, traced is empty.
        A time-bounded loop starts another step only if one more of the
        last step's length still fits.
        """
        untraced: List[Sweep] = []
        traced: List[Sweep] = []
        start = clock()
        with patched(self.tap.targets()):
            while True:
                began = clock()
                for side in step_sides(self.seed + len(untraced), rec):
                    if side is None:
                        untraced.append(self.sweep())
                    else:
                        with patched(simulator_targets(side)):
                            traced.append(self.sweep(side))
                if self.first_step_rss_mb is None:
                    self.first_step_rss_mb = peak_rss_mb()
                if count is not None:
                    if len(untraced) == count:
                        break
                elif clock() - start + (clock() - began) > seconds:
                    break
        return untraced, traced


def check_sweeps(
    seed: int,
    untraced: List[Sweep],
    traced: List[Sweep],
    pinned: Optional[List[Dict[str, Any]]],
) -> Tuple[List[str], int]:
    """``(problems, failed mix runs)`` over the sweeps of one run.

    All sweeps of a run use the same seed, so each mix must reproduce
    untraced sweep 0's statistics exactly, traced or not; with *pinned*
    (the default seed's recorded statistics) sweep 0 must match the pin.
    """
    reference = untraced[0].stats
    if pinned is not None and [s["names"] for s in pinned] != [s["names"] for s in reference]:
        return [f"seed {seed}: the pinned mixes are not the swept mixes"], len(reference)
    problems: List[str] = []
    failed = 0
    for kind, sweeps in (("untraced", untraced), ("traced", traced)):
        for i, sweep in enumerate(sweeps):
            for m, stats in enumerate(sweep.stats):
                found = list(sweep.problems[m])
                label = f"{kind} sweep {i}, {'+'.join(stats['names'])}"
                if stats != reference[m]:
                    found.append(f"{label}: differs from untraced sweep 0")
                if pinned is not None and stats != pinned[m]:
                    found.append(f"{label}: differs from the seed-{seed} pin")
                problems += found
                failed += bool(found)
    return problems, failed


def end_to_end(sweeps: List[Sweep]) -> Dict[str, float]:
    """The metrics every workload reports, over all of the run's sweeps.

    A request is one simulator run: a phase-1 run or the measurement of
    one mapping in phase 2. The request rate counts every request of
    the run over the run's sweep time; the long phase-1 runs dominate
    it. Phase-2 runs outnumber phase-1 runs three to one, so the median
    request is a phase-2 run. Every sweep repeats the same simulator
    runs, so the median is taken for each run across sweeps first and
    then across runs: pooled directly, drift between sweeps reorders
    runs of similar length and moves the median between them.
    """
    per_run = [median(times) for times in zip(*(s.requests for s in sweeps))]
    return {
        "requests_per_s": sum(len(s.requests) for s in sweeps) / sum(s.wall for s in sweeps),
        "latency_p50_ms": median(per_run) * 1e3,
    }


def sweep_metrics(sweeps: List[Sweep]) -> Dict[str, float]:
    """The sweep's own breakdown (medians over sweeps)."""
    return {
        "sweep_s": median([s.wall for s in sweeps]),
        "phase1_s": median([s.phase1_s for s in sweeps]),
        "phase2_s": median([s.phase2_s for s in sweeps]),
        "l2_refs_per_s": median([s.refs / s.wall for s in sweeps]),
    }


def per_layer(rec: SpanRecorder, traced: List[Sweep], untraced: List[Sweep]) -> Dict[str, float]:
    """Per-layer metrics of the traced sweeps, per sweep."""
    n = len(traced)
    wall = sum(s.wall for s in traced)
    cache_s = rec.self_seconds("cache.phase1.access_batch") + rec.self_seconds(
        "cache.phase2.access_batch"
    )
    refs = rec.counts.get("cache.refs", 0)
    events = rec.counts.get("core.events", 0)
    invocations = rec.calls("alloc.monitor_invoke")
    total = {
        "workloads.next_batch_s": rec.self_seconds("workloads.next_batch"),
        "workloads.refs": rec.counts.get("workloads.refs", 0),
        "cache.phase1.access_batch_s": rec.self_seconds("cache.phase1.access_batch"),
        "cache.phase2.access_batch_s": rec.self_seconds("cache.phase2.access_batch"),
        "cache.refs": refs,
        "cache.misses": rec.counts.get("cache.misses", 0),
        "core.record_events_s": rec.self_seconds("core.record_events"),
        "core.events": events,
        "sched.context_switch_s": rec.self_seconds("sched.context_switch"),
        "sched.context_switches": rec.calls("sched.context_switch"),
        "alloc.monitor_invoke_s": rec.self_seconds("alloc.monitor_invoke"),
        "alloc.invocations": invocations,
        "perf.timing.batch_cycles_s": rec.self_seconds("perf.timing.batch_cycles"),
        "perf.simulator.run_self_s": rec.self_seconds("perf.simulator.run"),
        "perf.experiment.self_s": rec.self_seconds("perf.experiment"),
        "trace.unattributed_s": wall - rec.total_self_seconds(SIM_LAYERS),
    }
    metrics = {name: value / n for name, value in total.items()}
    # The breakdown of the untraced sweeps of the same run.
    metrics.update(sweep_metrics(untraced))
    metrics["cache.ns_per_ref"] = cache_s / refs * 1e9
    metrics["core.ns_per_event"] = rec.self_seconds("core.record_events") / events * 1e9
    metrics["alloc.decision_ratio"] = rec.counts.get("alloc.decisions", 0) / invocations
    metrics["trace.overhead_ratio"] = (
        median([s.wall for s in traced]) / median([s.wall for s in untraced]) - 1.0
    )
    return metrics
