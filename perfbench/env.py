"""Environment fingerprint, host-speed probe and memory high-water mark.

The probe times a fixed pure-Python loop. It runs before and after each
measurement so that host drift is visible beside every run; it is never
used to scale a metric.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["fingerprint", "host_probe", "peak_rss_mb"]

_PROBE_ITERATIONS = 1_000_000


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    del acc
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under *src* (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem(path: Path) -> str:
    """Type of the filesystem *path* lives on (longest mount prefix)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def fingerprint(root: Path, state_dir: Path) -> Dict[str, object]:
    """Where and on what a run was measured."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "state_dir_fs": _filesystem(state_dir),
    }
