"""The command-line tools: the runner's refusal and the layer diff."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.layerdiff import diff, load

PERFBENCH = Path(__file__).resolve().parents[1]


def test_run_refuses_without_the_program(tmp_path: Path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc_paced", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def _record(path: Path, workload: str, wall: float, cache_s: float) -> None:
    path.write_text(json.dumps({
        "workload": workload,
        "trace": 1,
        "end_to_end": {"sweep_s": wall},
        "per_layer": {"cache.phase1.access_batch_s": cache_s, "cache.refs": 100.0,
                      "trace.unattributed_s": 0.01},
    }))


def test_layer_diff_sets_layer_deltas_beside_the_end_to_end_delta(tmp_path: Path):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    _record(before / "a.json", "fig10_sweep", 10.0, 6.0)
    _record(before / "b.json", "fig10_sweep", 12.0, 8.0)
    _record(after / "a.json", "fig10_sweep", 9.0, 5.0)
    lines = diff(load(before), load(after))
    text = "\n".join(lines)
    assert "fig10_sweep: 2 record(s) before, 1 after" in text
    row = next(line for line in lines if "sweep_s" in line).split()
    assert row[1:4] == ["11", "9", "-2"]  # median of the two befores
    row = next(line for line in lines if "cache.phase1.access_batch_s" in line).split()
    assert row[1:4] == ["7", "5", "-2"]
    row = next(line for line in lines if "sum of layer self times" in line).split()
    assert row[-2] == "-2"  # the unattributed remainder is not a layer
