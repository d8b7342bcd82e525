"""Fixture: blocking calls inside coroutines (RPR501).

Linted as a ``repro.service`` module; expects four violations.
"""

import subprocess
import time
from time import sleep


async def stall_the_loop(path):
    """Three RPR501 violations: sleep twice (module and from-import), open."""
    time.sleep(0.1)                    # RPR501
    sleep(0.1)                         # RPR501
    with open(path) as handle:         # RPR501
        return handle.read()


async def spawn_process(cmd):
    """One more RPR501: a synchronous subprocess inside a coroutine."""
    return subprocess.run(cmd)  # RPR501
