"""In-memory span recording around calls into the program's layers.

A :class:`SpanRecorder` hands out wrappers for functions and methods.
Each wrapped call becomes one span: name, start, end, the span that
was open when it started, and the request it belongs to. Self time
(duration minus the part covered by child spans) is summed per name
as spans close, so per-layer totals need no second pass. Spans stay in
compact arrays until :meth:`SpanRecorder.dump` writes them out.

:func:`patched` installs wrappers by replacing attributes on classes or
modules and restores the originals on exit, so traced and untraced runs
can share one process.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["SpanRecorder", "patched", "step_sides"]

#: Hook run after a wrapped call returns: ``after(recorder, args, result)``.
AfterHook = Callable[["SpanRecorder", tuple, Any], None]


class SpanRecorder:
    """Spans, per-name self times and named counters of one traced run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._self_s: List[float] = []
        self._calls: List[int] = []
        self.counts: Dict[str, float] = {}
        #: Request the next spans belong to (-1 = none yet).
        self.request = -1
        #: Free-form label a wrapper may fold into span names (e.g. phase).
        self.tag = ""
        #: Clock reading at each request's first layer call, by request id,
        #: for wrappers that open requests themselves.
        self.request_starts: List[float] = []
        # Open spans, innermost last: [span_id, name_id, child_seconds].
        self._stack: List[list] = []
        self._next_id = 0
        self._span = array("q")
        self._parent = array("q")
        self._name = array("H")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")

    # -- names and counters --------------------------------------------

    def name_id(self, name: str) -> int:
        """Dense id of *name*, registering it on first use."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, or None outside any span."""
        return self.names[self._stack[-1][1]] if self._stack else None

    # -- spans -----------------------------------------------------------

    def _open(self, nid: int) -> list:
        frame = [self._next_id, nid, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        nid = frame[1]
        self._self_s[nid] += duration - frame[2]
        self._calls[nid] += 1
        self._span.append(frame[0])
        self._parent.append(stack[-1][0] if stack else -1)
        self._name.append(nid)
        self._request.append(self.request)
        self._start.append(start)
        self._end.append(end)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named *name*."""
        frame = self._open(self.name_id(name))
        start = self.clock()
        try:
            yield
        finally:
            self._close(frame, start, self.clock())

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[[], str]],
        after: Optional[AfterHook] = None,
    ) -> Callable:
        """*fn* recording one span per call.

        *name* is a fixed span name or a zero-argument callable read at
        call time (for names that carry :attr:`tag`). *after*, when
        given, runs once the call has returned, outside the span.
        """
        clock = self.clock
        fixed = self.name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name())
            frame = self._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ---------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span named *name* (0 if none)."""
        nid = self._ids.get(name)
        return 0.0 if nid is None else self._self_s[nid]

    def calls(self, name: str) -> int:
        """Number of closed spans named *name*."""
        nid = self._ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s", "calls"}}`` for every recorded span name."""
        return {
            name: {"self_s": self._self_s[nid], "calls": self._calls[nid]}
            for nid, name in enumerate(self.names)
        }

    def total_self_seconds(self, names: Optional[Sequence[str]] = None) -> float:
        """Self time summed over *names* (default: every span name)."""
        chosen = self.names if names is None else names
        return sum(self.self_seconds(n) for n in chosen)

    def dump(self, path) -> None:
        """Write every closed span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            span=np.frombuffer(self._span, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.uint16),
            request=np.frombuffer(self._request, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )


@contextmanager
def patched(targets: Sequence[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` with each replacement; restore on exit.

    Every attribute must be defined on its owner itself (not inherited),
    so a wrapper can never silently land on the wrong class.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, replacement in targets:
            if attr not in vars(owner):
                raise AttributeError(f"{owner!r} defines no {attr!r} to wrap")
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def step_sides(step: int, rec: Optional[SpanRecorder]) -> Tuple[Optional[SpanRecorder], ...]:
    """The sides one measuring step runs, in order (None = untraced).

    Without a recorder a step is one untraced unit. With one, it is an
    untraced and a traced unit, the traced one first on odd *step*, so
    that host drift within a pair cancels over steps and runs instead
    of always counting against the same side.
    """
    if rec is None:
        return (None,)
    return (rec, None) if step % 2 else (None, rec)
