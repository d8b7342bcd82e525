"""Recorded outputs of the default seed, which every run of it must match.

``perfbench/pins.json`` holds, for seed :data:`DEFAULT_SEED`:

* ``fig10_sweep``: every simulated statistic of each mix of one sweep
  (chosen mapping, per-mapping user cycles, L2 references and misses
  per phase), with mappings keyed by mix-order task index;
* ``svc_saturate`` and ``svc_paced``: each episode's final mapping and
  full/incremental remap split, by episode index, from
  :func:`~repro.service.replay.run_replay`'s sequential replay of the
  episode's trace (no queue, no write-ahead log).

Regenerate with ``PYTHONPATH=src:. python3 -m perfbench.pins`` from the
repository root, only when the program's simulated results change on
purpose.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["DEFAULT_SEED", "load", "replay_outcome"]

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).resolve().with_name("pins.json")

#: Episodes pinned per service workload: more than one run of the
#: benchmark plays on this host.
PINNED_EPISODES = {"svc_saturate": 64, "svc_paced": 24}


def load(workload: str, seed: int) -> Optional[List[Dict[str, Any]]]:
    """The pinned outputs of *workload* for *seed*, or None if unpinned."""
    if seed != DEFAULT_SEED:
        return None
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def replay_outcome(trace) -> Dict[str, Any]:
    """Outcome of a sequential replay of *trace*, in episode form."""
    from repro.service.replay import run_replay

    report = run_replay(trace)
    return {
        "final_mapping": report.final_mapping,
        "full_remaps": report.full_remaps,
        "incremental_updates": report.incremental_updates,
    }


def _record() -> Dict[str, Any]:
    from perfbench.fig10 import SweepBench
    from perfbench.service_load import ServiceBench

    untraced, _ = SweepBench(DEFAULT_SEED).measure(0.0, count=1)
    pins: Dict[str, Any] = {"fig10_sweep": untraced[0].stats}
    for workload, episodes in PINNED_EPISODES.items():
        bench = ServiceBench(workload, DEFAULT_SEED, state_root=Path("."))
        pins[workload] = [replay_outcome(bench.trace(i)) for i in range(episodes)]
    return pins


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
