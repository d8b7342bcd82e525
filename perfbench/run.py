#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10_sweep --seed 0 --seconds 55 --trace 0

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced steps (a sweep,
or a daemon episode) and reports the per-layer metrics of the traced
ones. Either way the program's outputs are checked, a record with the
environment fingerprint and host-speed probes is written under
``perfbench/runs/`` (with the spans, when traced), and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric units are the ones ``BENCHMARK.json`` declares.

``--setup-only`` is the set-up measurement itself: it sets the workload
up once, up to its first simulated batch or submitted event, and prints
the seconds that took. A run makes :data:`SETUP_REPEATS` such
measurements, each in a fresh child interpreter so that every sample
includes the imports, and reports their median as ``setup_s``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[1]
DECLARED = ROOT / "BENCHMARK.json"
RUNS_DIR = ROOT / "perfbench" / "runs"
#: Runnable workloads. ``BENCHMARK.json`` gates the first two; ``svc_paced``
#: stays runnable for open-loop latency but is not gated (see README.md).
WORKLOADS = ("fig10_sweep", "svc_saturate", "svc_paced")
#: Set-ups measured per run, each in a child interpreter.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Unit of every metric ``BENCHMARK.json`` declares, by section and name."""
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    return {
        section: {m["name"]: m["unit"] for m in declared[section]}
        for section in ("end_to_end", "per_layer")
    }


# -- set-up ----------------------------------------------------------------


def setup_once(workload: str, seed: int) -> float:
    """Seconds from importing the workload to its first batch or event."""
    start = time.perf_counter()
    if workload == "fig10_sweep":
        from perfbench.fig10 import SweepBench

        return SweepBench(seed).setup_only() - start
    from perfbench.service_load import ServiceBench

    async def open_and_close() -> float:
        bench = ServiceBench(workload, seed, root)
        opened = await bench.open_episode(0)
        ready = time.perf_counter()
        await bench.close_unused(opened)
        return ready

    with state_root(seed, "setup") as root:
        return asyncio.run(open_and_close()) - start


def setup_in_child(workload: str, seed: int) -> float:
    """One set-up measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


@contextmanager
def state_root(seed: int, kind: str) -> Iterator[Path]:
    """A fresh daemon state root inside the checkout (not on tmpfs).

    Removed on exit, so runs leave no daemon state behind.
    """
    path = RUNS_DIR / "state" / f"{kind}-{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- workloads -------------------------------------------------------------


def run_fig10(args: argparse.Namespace) -> Dict[str, Any]:
    start = time.perf_counter()
    from perfbench import fig10
    from perfbench.pins import load
    from perfbench.spans import SpanRecorder

    bench = fig10.SweepBench(args.seed)
    rec = SpanRecorder() if args.trace else None
    untraced, traced = bench.measure(args.seconds, rec=rec)
    problems, failed = fig10.check_sweeps(
        args.seed, untraced, traced, load("fig10_sweep", args.seed)
    )
    return {
        "setup_s": bench.tap.first_start - start,
        "end_to_end": {**fig10.end_to_end(untraced), "peak_rss_mb": bench.first_step_rss_mb},
        "per_layer": fig10.per_layer(rec, traced, untraced) if rec else None,
        "recorder": rec,
        "samples": {"untraced_sweeps": len(untraced), "traced_sweeps": len(traced)},
        "per_unit": [fig10.end_to_end([s]) for s in untraced],
        "attempted": sum(len(s.stats) for s in untraced + traced),
        "failed": failed,
        "problems": problems,
    }


def run_service(args: argparse.Namespace) -> Dict[str, Any]:
    start = time.perf_counter()
    from perfbench import service_load
    from perfbench.pins import load
    from perfbench.spans import SpanRecorder

    async def measure(root: Path):
        bench = service_load.ServiceBench(args.workload, args.seed, root)
        first = await bench.open_episode(0)
        ready = time.perf_counter()
        rec = SpanRecorder() if args.trace else None
        untraced, traced = await bench.measure(args.seconds, first=first, rec=rec)
        return ready, rec, untraced, traced, bench.first_step_rss_mb

    with state_root(args.seed, "run") as root:
        ready, rec, untraced, traced, rss_mb = asyncio.run(measure(root))
    problems, failed = service_load.check_episodes(
        untraced, traced, load(args.workload, args.seed)
    )
    per_layer = None
    if rec is not None:
        per_layer = service_load.per_layer(args.workload, rec, traced, untraced)
    return {
        "setup_s": ready - start,
        "end_to_end": {
            **service_load.end_to_end(untraced),
            "peak_rss_mb": rss_mb,
        },
        "per_layer": per_layer,
        "recorder": rec,
        "samples": {
            "untraced_episodes": len(untraced),
            "traced_episodes": len(traced),
            "latencies": sum(e.events for e in untraced),
        },
        "per_unit": [service_load.end_to_end([e]) for e in untraced],
        "attempted": sum(e.events + 1 for e in untraced + traced),
        "failed": failed,
        "problems": problems,
    }


# -- entry point -----------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Telemetry stays off: the numbers must not depend on in-program spans.
    os.environ.pop("REPRO_TRACE", None)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed)}))
        return 0

    from perfbench import env
    from perfbench.stats import median

    probe_before = env.host_probe()
    setups = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    run = (run_fig10 if args.workload == "fig10_sweep" else run_service)(args)
    from repro.telemetry import current

    if current() is not None:
        raise RuntimeError("repro.telemetry was switched on during the run")
    probe_after = env.host_probe()

    end_to_end = {"setup_s": median(setups), **run["end_to_end"]}
    declared = declared_metrics()
    section = "per_layer" if args.trace else "end_to_end"
    reported = dict(run["per_layer"] if args.trace else end_to_end)
    # Every declared metric is printed. A layer this workload never calls
    # (the daemon's in fig10_sweep, the simulator's in svc_*) did no work
    # and reads 0.
    unexercised = [k for k in declared["per_layer"] if k not in reported] if args.trace else []
    reported.update({k: 0.0 for k in unexercised})
    missing = sorted(k for k in declared[section] if reported.get(k) is None)
    problems = run["problems"] + [f"{k}: too few samples to report" for k in missing]
    metrics = {
        k: {"value": reported[k], "unit": unit}
        for k, unit in declared[section].items()
        if reported.get(k) is not None
    }

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    stem = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = run["recorder"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": env.fingerprint(ROOT, RUNS_DIR / "state"),
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "setup_samples_s": setups,
        # This process's own set-up, measured the same way but after the
        # children and the host probe; kept for comparison, not reported.
        "run_setup_s": run["setup_s"],
        "samples": run["samples"],
        # The end-to-end metrics of each untraced sweep or episode on its
        # own: they show the host's drift within the run.
        "per_unit": run["per_unit"],
        "end_to_end": end_to_end,
        "per_layer": run["per_layer"],
        "unexercised_layer_metrics": unexercised,
        "layers": rec.layer_table() if rec is not None else None,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_ratio": run["failed"] / run["attempted"],
        "problems": problems,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if rec is not None:
        rec.dump(stem.with_suffix(".spans.npz"))

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:14.6g} ratio")
    print(f"host_probe_s before {probe_before:.4f} after {probe_after:.4f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
