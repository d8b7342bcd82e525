"""The compiled kernel of the exact engine, loaded lazily through ctypes.

``_kernel.c`` (beside this module) holds the two hot loops of a
simulation: LRU access of a set-associative cache and the split-CBF
counter/filter update of one cache batch. :class:`SetAssociativeCache`
and :class:`~repro.core.signature.SignatureUnit` bind their buffers to
it at construction (:class:`LruKernel`, :class:`CbfKernel`) and call it
once per batch. Their scalar Python paths stay in the tree as the
oracle; the differential tests pin the kernel to them.

Nothing happens at import. The first :func:`load` compiles the source
with the system C compiler (``$CC``, default ``cc``) into
``__pycache__`` beside the source, or into a private per-user temporary
directory when that is not writable. The file name carries the SHA-256
of the source and the compiler flags, so an edited kernel is rebuilt
and an unchanged one is reused by every later process. The library is
fsynced, then published with ``os.replace``, so concurrent builders
never load a torn file. A directory or library that another user owns
or can write is never loaded.

There is no switch: if the build or the load fails, one warning is
logged and every object falls back to the scalar path. Tests reach the
scalar path on purpose with :func:`disabled`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shlex
import stat
import subprocess
import tempfile
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CbfKernel", "LruKernel", "disabled", "library_name", "load"]

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
#: Compiler flags; part of the library's cache key.
FLAGS: Tuple[str, ...] = ("-O2", "-shared", "-fPIC")

_disabled_depth = 0

_P = ctypes.c_void_p
_I = ctypes.c_int64


class _LruCache(ctypes.Structure):
    _fields_ = [
        ("blocks", _P), ("owners", _P), ("order", _P), ("lens", _P),
        ("set_mask", _I), ("ways", _I), ("refs", _P),
        ("fills", _P), ("fill_slots", _P), ("evictions", _P),
        ("evict_slots", _P), ("evict_fill_pos", _P), ("counts", _P),
    ]


class _CbfUnit(ctypes.Structure):
    _fields_ = [
        ("counters", _P), ("entries", _I), ("counter_max", _I),
        ("filters", _P), ("num_filters", _I),
        ("index_mask", ctypes.c_uint64), ("index_bits", _I), ("fold_bits", _I),
        ("events", _P), ("counts", _P),
    ]


def library_name() -> str:
    """File name of the built library: keyed by source and flags."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS).encode("ascii"))
    return f"_kernel-{digest.hexdigest()[:16]}.so"


def _build_dirs() -> Tuple[Path, Path]:
    """``__pycache__`` beside the source, then the per-user fallback."""
    user = os.getuid() if hasattr(os, "getuid") else "user"
    return (
        SOURCE.parent / "__pycache__",
        Path(tempfile.gettempdir()) / f"repro-kernel-{user}",
    )


def _private(path: Path, kind: int) -> bool:
    """Whether *path* is a real *kind* (``S_IFDIR``/``S_IFREG``), not a
    symlink, that no one but this user or root owns or can write."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    owners = {os.getuid(), 0} if hasattr(os, "getuid") else {0}
    return (
        stat.S_IFMT(st.st_mode) == kind
        and st.st_uid in owners
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _compile(target: Path) -> None:
    """Build the library at *target*: compile to a temp file, fsync, rename."""
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}-", suffix=".tmp"
    )
    os.close(fd)
    try:
        command = [
            *shlex.split(os.environ.get("CC", "cc")), *FLAGS,
            "-o", tmp, str(SOURCE),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(
                f"{' '.join(command)} exited with {done.returncode}: "
                f"{done.stderr.strip()[-400:]}"
            )
        # Whatever the umask, only the owner may write the library.
        os.chmod(tmp, 0o755)
        with open(tmp, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # already renamed or never written; nothing to clean
        raise


def _locate() -> Path:
    """Path of the built library, compiling it on first use.

    The library lives in ``__pycache__`` when that directory is private
    (see :func:`_private`) and holds it or can be written; otherwise in
    the per-user temporary directory, created private. A directory or
    library that anyone else could have planted is refused, so a shared
    temporary path never loads someone else's code.
    """
    name = library_name()
    pycache, fallback = _build_dirs()
    try:
        pycache.mkdir(exist_ok=True)
    except OSError:
        pass  # read-only install: a library built there may still exist
    if _private(pycache, stat.S_IFDIR) and (
        os.path.lexists(pycache / name) or os.access(pycache, os.W_OK)
    ):
        directory = pycache
    else:
        directory = fallback
        directory.mkdir(mode=0o700, exist_ok=True)
        if not _private(directory, stat.S_IFDIR):
            raise OSError(
                f"refusing {directory}: not a directory only this user can write"
            )
    target = directory / name
    if not os.path.lexists(target):
        _compile(target)
    if not _private(target, stat.S_IFREG):
        raise OSError(f"refusing {target}: not a file only this user can write")
    return target


@functools.lru_cache(maxsize=None)
def _library() -> Optional[ctypes.CDLL]:
    """The loaded kernel, built on first use; ``None`` if that failed."""
    try:
        lib = ctypes.CDLL(str(_locate()))
    except OSError as exc:
        logger.warning(
            "compiled kernel unavailable, using the scalar engine: %s", exc
        )
        return None
    lib.lru_access.argtypes = [_P, _I, _I]
    lib.lru_access.restype = None
    lib.cbf_record.argtypes = [_P, _I, _I, _I, _I]
    lib.cbf_record.restype = None
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, or ``None`` (build failed, or :func:`disabled`)."""
    if _disabled_depth:
        return None
    return _library()


@contextmanager
def disabled() -> Iterator[None]:
    """Objects constructed inside this block use the scalar path.

    The test seam for the oracle: caches and signature units bind the
    kernel at construction, so the choice lasts for the object's life.
    """
    global _disabled_depth
    _disabled_depth += 1
    try:
        yield
    finally:
        _disabled_depth -= 1


def _address(buffer: "array[int]") -> int:
    return buffer.buffer_info()[0]


class LruKernel:
    """One LRU cache's state arrays bound to ``lru_access``.

    *state* is the cache's ``(blocks, owners, order, lens)`` int64
    arrays (see :class:`~repro.cache.cache.SetAssociativeCache`); the
    cache owns them and must never resize them.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        state: Sequence["array[int]"],
        set_mask: int,
        ways: int,
    ) -> None:
        blocks, owners, order, lens = state
        # Held exports keep the arrays alive and make resizing them fail.
        self._pinned = [memoryview(a) for a in state]
        self._call = lib.lru_access
        self._counts = array("q", bytes(24))
        self._struct = _LruCache(
            blocks=_address(blocks), owners=_address(owners),
            order=_address(order), lens=_address(lens),
            set_mask=set_mask, ways=ways, counts=_address(self._counts),
        )
        self._handle = ctypes.addressof(self._struct)
        self._capacity = 0
        self._grow(256)

    def _grow(self, capacity: int) -> None:
        self._refs = np.empty(capacity, dtype=np.int64)
        self._fills = np.empty((2, capacity), dtype=np.int64)
        self._evicts = np.empty((3, capacity), dtype=np.int64)
        s = self._struct
        s.refs = self._refs.ctypes.data
        s.fills, s.fill_slots = (row.ctypes.data for row in self._fills)
        s.evictions, s.evict_slots, s.evict_fill_pos = (
            row.ctypes.data for row in self._evicts
        )
        self._capacity = capacity

    def access(
        self, core: int, blocks: np.ndarray
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """Run one batch; returns ``(hits, fills, evictions)``.

        ``fills`` is a fresh ``(2, misses)`` array (blocks, slots) and
        ``evictions`` a fresh ``(3, n)`` one (blocks, slots, fill
        positions); each is ``None`` when empty.
        """
        n = len(blocks)
        if n > self._capacity:
            self._grow(n)
        self._refs[:n] = blocks
        self._call(self._handle, core, n)
        hits, nf, ne = self._counts
        fills = self._fills[:, :nf].copy() if nf else None
        evicts = self._evicts[:, :ne].copy() if ne else None
        return hits, fills, evicts


class CbfKernel:
    """One signature unit's counters and Core Filters bound to ``cbf_record``.

    *counters* is the unit's int64 counter array and *words* each Core
    Filter's uint64 word array (see
    :class:`~repro.core.signature.SignatureUnit`); the unit owns them and
    only ever updates them in place.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        counters: np.ndarray,
        words: Sequence[np.ndarray],
        counter_max: int,
        index_bits: int,
        fold_bits: int,
    ) -> None:
        # Held references keep the bound buffers alive.
        self._pinned = (counters, *words)
        self._filters = (_P * len(words))(*(w.ctypes.data for w in words))
        self._call = lib.cbf_record
        self._counts = array("q", bytes(16))
        self._struct = _CbfUnit(
            counters=counters.ctypes.data, entries=len(counters),
            counter_max=counter_max,
            filters=ctypes.addressof(self._filters), num_filters=len(words),
            index_mask=len(counters) - 1, index_bits=index_bits,
            fold_bits=fold_bits, counts=_address(self._counts),
        )
        self._handle = ctypes.addressof(self._struct)
        self._events = np.empty(0, dtype=np.int64)

    def record(
        self,
        core: int,
        fills: np.ndarray,
        evictions: np.ndarray,
        scan_all: bool,
    ) -> Tuple[int, int]:
        """Apply one batch; returns ``(saturation excess, underflow deficit)``.

        *scan_all* clamps every counter, not only the touched ones: the
        caller passes it whenever the counters may have left
        ``[0, counter_max]`` outside this kernel.
        """
        nf, ne = len(fills), len(evictions)
        if nf + ne > len(self._events):
            self._events = np.empty(max(nf + ne, 512), dtype=np.int64)
            self._struct.events = self._events.ctypes.data
        self._events[:nf] = fills
        self._events[nf:nf + ne] = evictions
        self._call(self._handle, core, nf, ne, scan_all)
        excess, deficit = self._counts
        return excess, deficit
