#!/usr/bin/env python3
"""Compare two sets of benchmark records layer by layer.

Usage, from the repository root::

    python3 perfbench/layerdiff.py BEFORE AFTER

BEFORE and AFTER are each a record written by ``perfbench/run.py`` (a
``perfbench/runs/*.json`` file) or a directory of them, typically one
copied aside from each of two commits. For every workload found on
both sides the tool prints the end-to-end metrics and then every
per-layer metric of the traced records, each as before, after, and the
change in absolute and relative terms. Where a side holds several
records of one workload (several seeds) the median of each metric is
used. Self times (``*_s``) are followed by their sum, so a saving can
be set beside the end-to-end change it should explain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

Records = Dict[str, List[dict]]


def load(path: Path) -> Records:
    """Records under *path* (a file or a directory), by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records: Records = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if "workload" in record and "end_to_end" in record:
            records.setdefault(record["workload"], []).append(record)
    return records


def medians(records: Sequence[dict], section: str) -> Dict[str, float]:
    """Median of each metric of *section* over the records that have it."""
    values: Dict[str, List[float]] = {}
    for record in records:
        for name, value in (record.get(section) or {}).items():
            if value is not None:
                values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def _shown(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def _row(name: str, before: Optional[float], after: Optional[float]) -> str:
    if before is None or after is None:
        return f"  {name:40s} {_shown(before):>14s} {_shown(after):>14s}"
    delta = after - before
    relative = f"{delta / before:+8.1%}" if before else "       -"
    return f"  {name:40s} {before:14.6g} {after:14.6g} {delta:+14.6g} {relative}"


def diff(before: Records, after: Records) -> List[str]:
    """The comparison as printable lines."""
    lines: List[str] = []
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload], after[workload]
        lines.append(f"== {workload}: {len(old)} record(s) before, {len(new)} after")
        header = f"  {'':40s} {'before':>14s} {'after':>14s} {'delta':>14s} {'rel':>8s}"
        for section in ("end_to_end", "per_layer"):
            traced_old = [r for r in old if r.get(section)]
            traced_new = [r for r in new if r.get(section)]
            a, b = medians(traced_old, section), medians(traced_new, section)
            if not a and not b:
                continue
            lines.append(f"{section.replace('_', '-')}:")
            lines.append(header)
            names = sorted(set(a) | set(b))
            lines += [_row(n, a.get(n), b.get(n)) for n in names]
            if section == "per_layer":
                times = [n for n in names if n.endswith("_s") and n in a and n in b
                         and n != "trace.unattributed_s"]
                lines.append(_row("(sum of layer self times)",
                                  sum(a[n] for n in times), sum(b[n] for n in times)))
    missing = sorted(set(before) ^ set(after))
    if missing:
        lines.append(f"only on one side: {', '.join(missing)}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("layerdiff: no benchmark records on one side", file=sys.stderr)
        return 2
    print("\n".join(diff(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
