"""RPR501 through synchronous helpers in the service package.

In every flagged case the coroutine contains no blocking call itself:
the sleep sits one or more plain calls away, including behind the alias
spellings (the lexical cases are pinned in
``tests/lint/test_service_rules.py``). The finding is reported at the
coroutine's first hop into the chain.
"""

from tests.flow.conftest import codes_of, flow_violations

from repro.lint import lint_source

SYNC_SLEEPER = (
    "repro.service.helpers",
    '"""Sync helper that blocks."""\n'
    "import time\n"
    "def settle():\n"
    '    """Blocks by design."""\n'
    "    time.sleep(0.1)\n",
)

ASYNC_CALLER = (
    "repro.service.loop",
    '"""Coroutine with no lexical blocking call."""\n'
    "from repro.service.helpers import settle\n"
    "async def run():\n"
    '    """Blocks through the helper."""\n'
    "    settle()\n",
)


def test_one_hop_blocking_chain_flags():
    violations = flow_violations(
        SYNC_SLEEPER, ASYNC_CALLER, select=("RPR501",)
    )
    assert codes_of(violations) == ["RPR501"]
    v = violations[0]
    assert (v.path, v.line) == ("src/repro/service/loop.py", 5)
    assert "time.sleep" in v.message
    assert "settle" in v.message


def test_per_file_rpr501_provably_cannot_catch_it():
    # Linted alone, the caller's import does not resolve to a loaded
    # function: a cross-module chain needs both modules in one run.
    module, source = ASYNC_CALLER
    assert lint_source("loop.py", source, module=module) == []


def test_lint_source_follows_a_same_file_helper():
    # One file is a whole program too: the pre-commit path sees a chain
    # that stays inside the staged file.
    source = (
        '"""Coroutine and its blocking helper in one file."""\n'
        "import time\n"
        "def settle():\n"
        '    """Blocks."""\n'
        "    time.sleep(0.1)\n"
        "async def run():\n"
        '    """Blocks through the helper."""\n'
        "    settle()\n"
    )
    violations = lint_source("loop.py", source, module="repro.service.loop")
    assert [(v.code, v.line) for v in violations] == [("RPR501", 8)]


def test_alias_spelling_subsumed_through_one_hop():
    # Satellite check: the helper uses the aliased import spelling; the
    # chain still resolves and flags.
    helper = (
        "repro.service.helpers",
        '"""Aliased blocking helper."""\n'
        "from time import sleep as pause\n"
        "def settle():\n"
        '    """Blocks via an alias."""\n'
        "    pause(0.1)\n",
    )
    violations = flow_violations(helper, ASYNC_CALLER, select=("RPR501",))
    assert [(v.code, v.line) for v in violations] == [("RPR501", 5)]


def test_deep_chain_flags_at_the_first_hop():
    middle = (
        "repro.service.mid",
        '"""Relay."""\n'
        "from repro.service.helpers import settle\n"
        "def relay():\n"
        '    """One more sync hop."""\n'
        "    settle()\n",
    )
    caller = (
        "repro.service.loop",
        '"""Coroutine two hops from the sleep."""\n'
        "from repro.service.mid import relay\n"
        "async def run():\n"
        '    """Deep chain."""\n'
        "    relay()\n",
    )
    violations = flow_violations(
        SYNC_SLEEPER, middle, caller, select=("RPR501",)
    )
    assert [(v.code, v.line) for v in violations] == [("RPR501", 5)]
    assert "relay" in violations[0].message


def test_executor_dispatch_is_the_sanctioned_escape():
    caller = (
        "repro.service.loop",
        '"""Coroutine dispatching to a thread."""\n'
        "import asyncio\n"
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Off-loop, so legal."""\n'
        "    await asyncio.to_thread(settle)\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR501",)) == []


def test_executor_dispatch_of_the_primitive_itself_is_clean():
    caller = (
        "repro.service.loop",
        '"""Coroutine handing time.sleep to a thread directly."""\n'
        "import asyncio\n"
        "import time\n"
        "async def run():\n"
        '    """Off-loop, so legal."""\n'
        "    await asyncio.to_thread(time.sleep, 0.1)\n",
    )
    assert flow_violations(caller, select=("RPR501",)) == []


def test_run_in_executor_dispatch_is_clean_too():
    caller = (
        "repro.service.loop",
        '"""Coroutine using the loop executor."""\n'
        "import asyncio\n"
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Off-loop, so legal."""\n'
        "    loop = asyncio.get_running_loop()\n"
        "    await loop.run_in_executor(None, settle)\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR501",)) == []


def test_noqa_at_blocking_site_waives_the_chain():
    helper = (
        "repro.service.helpers",
        '"""Helper with a justified waiver."""\n'
        "import time\n"
        "def settle():\n"
        '    """Bounded, single-consumer stall by design."""\n'
        "    time.sleep(0.001)  # repro: noqa[RPR501]\n",
    )
    assert flow_violations(helper, ASYNC_CALLER, select=("RPR501",)) == []


def test_coroutines_outside_service_are_not_roots():
    caller = (
        "repro.jobs.runner",
        '"""Jobs-layer coroutine; blocking is its own business."""\n'
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Not a service coroutine."""\n'
        "    settle()\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR501",)) == []


def test_nested_sync_def_called_inline_still_flags():
    # A nested def is not an escape hatch by itself: only dispatching it
    # to an executor is. Called INLINE, its stall is real.
    caller = (
        "repro.service.loop",
        '"""Nested helper abused inline."""\n'
        "import time\n"
        "async def run():\n"
        '    """Calls the nested blocker synchronously."""\n'
        "    def helper():\n"
        '        """Blocking."""\n'
        "        time.sleep(0.1)\n"
        "    helper()\n",
    )
    violations = flow_violations(caller, select=("RPR501",))
    assert [(v.code, v.line) for v in violations] == [("RPR501", 8)]
    # The single-file lint run reports the same finding:
    module, source = caller
    flagged = lint_source("loop.py", source, module=module)
    assert [(v.code, v.line) for v in flagged] == [("RPR501", 8)]
