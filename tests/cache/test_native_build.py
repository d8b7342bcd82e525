"""Building, reusing and falling back from the compiled kernel.

Each test points the loader at an empty build directory and clears its
memo, so it sees a process that has never built the kernel.
"""

import logging
import os
import shutil

import pytest

from repro.cache import native
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import core2duo_l2
from repro.perf.machine import core2duo
from repro.perf.runner import build_tasks, default_signature_config, run_mix

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def build_dir(monkeypatch, tmp_path):
    directory = tmp_path / "kernels"
    monkeypatch.setattr(
        native, "_build_dirs", lambda: (directory, tmp_path / "fallback")
    )
    native._library.cache_clear()
    yield directory
    native._library.cache_clear()


@pytest.fixture
def planted(monkeypatch, tmp_path):
    """A working library, and a loader whose ``__pycache__`` is unusable.

    The fallback directory is ``tmp_path / "shared"``; each test plants
    the library there (or in ``__pycache__``) the way another local user
    could, and checks that it is not loaded.
    """
    monkeypatch.delenv("CC", raising=False)
    library = tmp_path / "built.so"
    native._compile(library)
    monkeypatch.setattr(
        native,
        "_build_dirs",
        lambda: (tmp_path / "absent" / "__pycache__", tmp_path / "shared"),
    )
    native._library.cache_clear()
    yield library
    native._library.cache_clear()


def _showcase_run():
    machine = core2duo()
    tasks = build_tasks(["mcf", "libquantum", "povray", "gobmk"], instructions=100_000)
    result = run_mix(
        machine, tasks, signature_config=default_signature_config(machine)
    )
    return (
        result.wall_cycles,
        result.l2_miss_rate,
        [(t.name, t.user_cycles, t.context_switches) for t in result.tasks],
        result.signature_stats,
    )


def _warnings(caplog):
    return [r for r in caplog.records if r.name == native.__name__]


@needs_cc
def test_failed_build_warns_once_and_matches_the_kernel(build_dir, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/bin/false")
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        fallback = _showcase_run()
        cache = SetAssociativeCache(core2duo_l2())
    assert cache._kernel is None
    assert len(_warnings(caplog)) == 1
    assert "scalar engine" in _warnings(caplog)[0].getMessage()
    assert not build_dir.exists() or not list(build_dir.glob("_kernel-*"))

    monkeypatch.delenv("CC")
    native._library.cache_clear()
    assert native.load() is not None
    assert SetAssociativeCache(core2duo_l2())._kernel is not None
    assert _showcase_run() == fallback
    assert [p.name for p in build_dir.iterdir()] == [native.library_name()]


@needs_cc
def test_second_load_reuses_the_library_without_compiling(build_dir, monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    assert native.load() is not None
    native._library.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    monkeypatch.setenv("CC", "/bin/false")
    assert native.load() is not None


def test_disabled_builds_scalar_objects_only_inside_the_block():
    with native.disabled():
        assert native.load() is None
        inside = SetAssociativeCache(core2duo_l2())
    assert inside._kernel is None
    if native.load() is not None:
        assert SetAssociativeCache(core2duo_l2())._kernel is not None


def test_library_name_is_keyed_by_source_and_flags(monkeypatch):
    name = native.library_name()
    assert name.startswith("_kernel-") and name.endswith(".so")
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
    assert native.library_name() != name


def _plant(library, directory, mode):
    directory.mkdir(exist_ok=True)
    directory.chmod(mode)
    target = directory / native.library_name()
    shutil.copy(library, target)
    return target


@needs_cc
def test_world_writable_fallback_directory_is_never_loaded(planted, tmp_path, caplog):
    _plant(planted, tmp_path / "shared", 0o777)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load() is None
    assert len(_warnings(caplog)) == 1
    assert "refusing" in _warnings(caplog)[0].getMessage()


@needs_cc
def test_library_others_can_write_is_never_loaded(planted, tmp_path, caplog):
    _plant(planted, tmp_path / "shared", 0o700).chmod(0o666)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load() is None
    assert "refusing" in _warnings(caplog)[0].getMessage()


@needs_cc
@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() != 0,
    reason="giving a file to another user needs root",
)
def test_library_owned_by_another_user_is_never_loaded(planted, tmp_path, caplog):
    os.chown(_plant(planted, tmp_path / "shared", 0o700), 65534, 65534)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load() is None
    assert "refusing" in _warnings(caplog)[0].getMessage()


@needs_cc
def test_untrusted_pycache_builds_in_a_private_fallback(monkeypatch, tmp_path):
    monkeypatch.delenv("CC", raising=False)
    pycache, fallback = tmp_path / "__pycache__", tmp_path / "fallback"
    pycache.mkdir()
    pycache.chmod(0o777)
    # Not a library: loading it would fail.
    (pycache / native.library_name()).write_bytes(b"planted")
    monkeypatch.setattr(native, "_build_dirs", lambda: (pycache, fallback))
    native._library.cache_clear()
    try:
        assert native.load() is not None
    finally:
        native._library.cache_clear()
    assert fallback.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in fallback.iterdir()] == [native.library_name()]
