"""In-memory span recorder and call wrappers for the traced run.

A span is ``(id, parent, name, figure, start, end, size)``.  ``parent``
is the span open on the same thread when this one started; a span
opened on a thread with nothing open (a suite figure thread) hangs off
the tracer's current root span, so every span of one operation shares
that root.  ``figure`` is the figure the span ran for: the suite names
its figure threads ``suite-figN``, and inline passes set it with
:meth:`Tracer.figure`.  ``size`` is an optional work count (matching
vertices, batched pairs).

Spans stay in memory; :meth:`Tracer.dump` writes them out once, when
the run ends.  Wrappers replace the attribute a caller looks up at call
time (a module global such as ``repro.scheduling.scheduler.
min_weight_perfect_matching``, or a method on a class) and
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

SizeFn = Callable[[tuple, dict], int]


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    figure: Optional[str]
    start: float
    end: float
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; wraps and unwraps call sites."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _figure(self) -> Optional[str]:
        label = getattr(self._local, "figure", None)
        if label is not None:
            return label
        name = threading.current_thread().name
        return name[len("suite-"):] if name.startswith("suite-") else None

    @contextmanager
    def span(self, name: str, size: int = 0, root: bool = False
             ) -> Iterator[int]:
        """Record the body as one span; ``root`` makes it the parent of
        spans opened on threads that have nothing open."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = next(self._ids)
        if root:
            self._root = span_id
        stack.append(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            stack.pop()
            if root:
                self._root = parent
            with self._lock:
                self.spans.append(Span(span_id, parent, name,
                                       self._figure(), start, end, size))

    @contextmanager
    def figure(self, label: str) -> Iterator[None]:
        """Attribute spans of this thread to ``label`` (inline passes)."""
        previous = getattr(self._local, "figure", None)
        self._local.figure = label
        try:
            yield
        finally:
            self._local.figure = previous

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             size: Optional[SizeFn] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, size(args, kwargs) if size else 0):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            rows = [span._asdict() for span in self.spans]
        path.write_text(json.dumps({"spans": rows}))


def layer_totals(spans: List[Span],
                 keep: Callable[[Span], bool] = lambda span: True
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``size``.

    Only spans ``keep`` accepts are counted.  Self time is a span's
    duration minus the durations of its direct children among all of
    ``spans``, so nested layers are not counted twice.
    """
    child_s: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) \
                + span.duration
    totals: Dict[str, Dict[str, float]] = {}
    for span in filter(keep, spans):
        entry = totals.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "size": 0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_s.get(span.id, 0.0)
        entry["size"] += span.size
    return totals
