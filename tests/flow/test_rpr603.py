"""RPR201 across functions: fsync-before-rename in the flattened stream.

These cases split the fsync and the rename across functions and
modules, so only the spliced whole-program event stream can order
them. A finding in a caller is reported at its call into the chain.
"""

from tests.flow.conftest import codes_of, flow_violations

from repro.lint import lint_source

#: A publish helper OUTSIDE the durable packages. It uses ``os.rename``
#: deliberately: outside the durable scope RPR201 audits only the
#: ``os.replace`` spelling, so the helper itself is clean, and only a
#: durable caller's flattened stream is in scope for this rename.
NAKED_PUBLISHER = (
    "repro.io.atomic",
    '"""Publish helper outside the durable scope."""\n'
    "import os\n"
    "def publish(tmp, final):\n"
    '    """Renames without syncing."""\n'
    "    os.rename(tmp, final)\n",
)


def test_unsynced_helper_rename_flags_at_durable_root():
    caller = (
        "repro.durable.store",
        '"""Durable code delegating its publish."""\n'
        "from repro.io.atomic import publish\n"
        "def save(tmp, final):\n"
        '    """No fsync anywhere on the path."""\n'
        "    publish(tmp, final)\n",
    )
    violations = flow_violations(
        NAKED_PUBLISHER, caller, select=("RPR201",)
    )
    assert codes_of(violations) == ["RPR201"]
    v = violations[0]
    assert (v.path, v.line) == ("src/repro/durable/store.py", 5)
    assert "os.rename" in v.message
    assert "repro.io.atomic" in v.message


def test_per_file_rules_provably_cannot_catch_it():
    # Either file linted alone is clean: the durable module has no
    # rename, and the helper's os.rename is outside the durable scope.
    # The finding needs both modules in one run.
    caller_module = "repro.durable.store"
    caller_source = (
        '"""Durable code delegating its publish."""\n'
        "from repro.io.atomic import publish\n"
        "def save(tmp, final):\n"
        '    """No fsync anywhere on the path."""\n'
        "    publish(tmp, final)\n"
    )
    assert lint_source("store.py", caller_source, module=caller_module) == []
    helper_module, helper_source = NAKED_PUBLISHER
    assert (
        lint_source("atomic.py", helper_source, module=helper_module) == []
    )


def test_fsync_in_root_before_the_call_orders_the_publish():
    caller = (
        "repro.durable.store",
        '"""Durable code that syncs before delegating."""\n'
        "import os\n"
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """fsync first, then publish."""\n'
        "    os.fsync(fd)\n"
        "    publish(tmp, final)\n",
    )
    assert (
        flow_violations(NAKED_PUBLISHER, caller, select=("RPR201",)) == []
    )


def test_fsync_inside_helper_before_rename_is_clean():
    helper = (
        "repro.io.atomic",
        '"""Helper that syncs itself."""\n'
        "import os\n"
        "def publish(fd, tmp, final):\n"
        '    """Correct order inside the helper."""\n'
        "    os.fsync(fd)\n"
        "    os.replace(tmp, final)\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller."""\n'
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """Helper owns the ordering."""\n'
        "    publish(fd, tmp, final)\n",
    )
    assert flow_violations(helper, caller, select=("RPR201",)) == []


def test_fsync_after_the_call_does_not_excuse_it():
    caller = (
        "repro.durable.store",
        '"""Durable code syncing too late."""\n'
        "import os\n"
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """Wrong order."""\n'
        "    publish(tmp, final)\n"
        "    os.fsync(fd)\n",
    )
    violations = flow_violations(
        NAKED_PUBLISHER, caller, select=("RPR201",)
    )
    assert [(v.code, v.line) for v in violations] == [("RPR201", 6)]


def test_direct_rename_in_durable_root_flags_at_the_rename():
    caller = (
        "repro.durable.store",
        '"""Direct rename: zero hops, same rule."""\n'
        "import os\n"
        "def save(tmp, final):\n"
        '    """Direct and unsynced."""\n'
        "    os.rename(tmp, final)\n",
    )
    violations = flow_violations(caller, select=("RPR201",))
    assert [(v.code, v.line) for v in violations] == [("RPR201", 5)]
    assert "os.rename() publishes" in violations[0].message
    # ...and the single-file lint run reports exactly that one finding:
    module, source = caller
    flagged = lint_source("s.py", source, module=module)
    assert [(v.code, v.line) for v in flagged] == [("RPR201", 5)]


def test_waiver_at_the_rename_covers_every_caller():
    helper = (
        "repro.io.atomic",
        '"""Helper whose unsynced publish is waived at its site."""\n'
        "import os\n"
        "def publish(tmp, final):\n"
        '    """Best-effort move of data nobody trusts."""\n'
        "    os.replace(tmp, final)  # repro: noqa[RPR201]\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller of the waived helper."""\n'
        "from repro.io.atomic import publish\n"
        "def save(tmp, final):\n"
        '    """Reaches only a waived rename."""\n'
        "    publish(tmp, final)\n",
    )
    assert flow_violations(helper, caller, select=("RPR201",)) == []


def test_recursive_chain_terminates():
    helper = (
        "repro.io.atomic",
        '"""Mutually recursive helpers ending in a rename."""\n'
        "import os\n"
        "def a(tmp, final):\n"
        '    """Recurses."""\n'
        "    b(tmp, final)\n"
        "def b(tmp, final):\n"
        '    """Recurses back, then renames."""\n'
        "    a(tmp, final)\n"
        "    os.replace(tmp, final)\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller of the cycle."""\n'
        "from repro.io.atomic import a\n"
        "def save(tmp, final):\n"
        '    """Must terminate and still flag."""\n'
        "    a(tmp, final)\n",
    )
    violations = flow_violations(helper, caller, select=("RPR201",))
    # The durable root's call, each call around the cycle, and b's own
    # os.replace.
    assert [(v.path, v.line) for v in violations] == [
        ("src/repro/durable/store.py", 5),
        ("src/repro/io/atomic.py", 5),
        ("src/repro/io/atomic.py", 8),
        ("src/repro/io/atomic.py", 9),
    ]
