"""Wall-clock spans recorded around calls into the program's layers.

The benchmark never edits program code: :meth:`Tracer.patch` swaps a
public function (a class attribute, a module attribute or an instance's
bound method) for a wrapper that records one span per call and restores
the original on exit.  Spans are kept in memory per thread, nest by call
order on their own thread, and are written out once at the end.

A span's *self time* is its duration minus the time its direct children
cover; the self times of every span on one thread therefore add up to the
time that thread spent inside traced calls.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "block", "thread",
                 "phase", "child_time")

    def __init__(self, sid, name, start, parent, block, thread, phase):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.block = block
        self.thread = thread
        self.phase = phase
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "block": self.block,
            "thread": self.thread, "phase": self.phase,
            "self_s": self.self_time,
        }


class Tracer:
    """In-memory span recorder; inactive tracers record nothing."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.phase = ""
        self.block = 0          # height the stream lane is working on
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, block: Optional[int] = None) -> Optional[Span]:
        if not self.active:
            return None
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        stack[-1].sid if stack else None,
                        self.block if block is None else block,
                        threading.current_thread().name, self.phase)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_time += span.duration

    @contextmanager
    def span(self, name: str, block: Optional[int] = None):
        token = self.begin(name, block)
        try:
            yield token
        finally:
            self.end(token)

    def wrap(self, name: str, func: Callable,
             block_of: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``func`` recording a span per call.  ``block_of(*args)`` names
        the block a call belongs to; ``after(result, *args)`` runs inside
        the span once the call returned (to read per-call reports)."""
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin(
                name, block_of(*args) if block_of and tracer.active else None)
            try:
                result = func(*args, **kwargs)
                if after is not None and token is not None:
                    after(result, *args)
                return result
            finally:
                tracer.end(token)

        return traced

    @contextmanager
    def patch(self, owner, attribute: str, name: str, **wrap_kwargs):
        """Replace ``owner.attribute`` (``owner`` a class, module or
        instance) by a traced wrapper for the scope."""
        own = vars(owner)
        had = attribute in own
        original = own.get(attribute)
        setattr(owner, attribute,
                self.wrap(name, getattr(owner, attribute), **wrap_kwargs))
        try:
            yield
        finally:
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def self_times(self, phase: str,
                   thread: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per span name in ``phase`` (optionally one thread)."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.phase == phase and thread in (None, span.thread):
                totals[span.name] += span.self_time
        return dict(totals)

    def counts(self, phase: str) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.phase == phase:
                totals[span.name] += 1
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)
