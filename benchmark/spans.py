"""In-memory spans around calls into the compiler's layers.

A :class:`Tracer` records one span per timed call: name, start, end, the
enclosing span and the op (one program's compile and run) it belongs to.
The benchmark always records spans around its own layer calls; they are
the timers of the untraced run.  A traced run additionally wraps public
functions *inside* the layers (:func:`wrap`) at the module attribute each
caller resolves, so calls the compiler makes internally become child
spans.  Spans stay in memory and are written out once, in Chrome
trace-event format, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One timed call; ``parent`` is an index into the tracer's spans."""

    __slots__ = ("name", "start", "end", "parent", "op", "args")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.args: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Scope:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.index = self.tracer.begin(self.name)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class Tracer:
    """Spans of one thread, in start order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        #: what each op worked on (a program name), by op id.
        self.labels: Dict[int, str] = {}
        self._stack: List[int] = []

    def new_op(self, label: str) -> None:
        """Spans begun from now on belong to a new op."""
        self.op += 1
        self.labels[self.op] = label

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Scope:
        return _Scope(self, name)

    def self_times(self, first: int = 0) -> List[float]:
        """Each span's duration minus the time its children cover, for
        ``spans[first:]`` (children never start before their parent)."""
        spans = self.spans
        own = [s.duration for s in spans[first:]]
        for span in spans[first:]:
            if span.parent >= first:
                own[span.parent - first] -= span.duration
        return own


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0..1), linearly interpolated."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[high] == ordered[low]:
        return ordered[low]  # also keeps inf (a failed request) from nan
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


#: (owner, attribute, span name, annotate).  ``annotate(span, args,
#: result)`` may attach counters to the span after the call returns.
Target = Tuple[object, str, str, Optional[Callable]]


def wrap(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Replace each target with a span-recording wrapper; returns the
    function that puts every original back."""
    saved = []

    def make(original, name, annotate):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if annotate is not None:
                annotate(tracer.spans[index], args, result)
            return result

        return wrapper

    for owner, attribute, name, annotate in targets:
        original = getattr(owner, attribute)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original, name, annotate))

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return restore


def chrome_events(
    tracer: Tracer, pid: int, tid: int, origin: float
) -> List[Dict[str, object]]:
    """Complete ("X") events with self time in ``args.self_us``."""
    own = tracer.self_times()
    events: List[Dict[str, object]] = []
    for span, self_s in zip(tracer.spans, own):
        args: Dict[str, object] = {
            "op": span.op,
            "program": tracer.labels.get(span.op, ""),
            "parent": span.parent,
            "self_us": round(self_s * 1e6, 3),
        }
        if span.args:
            args.update(span.args)
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return events


def write_chrome_trace(
    path: Path, events: List[Dict[str, object]],
    process_names: Dict[int, str],
) -> None:
    meta = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for pid, name in sorted(process_names.items())
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"traceEvents": meta + events, "displayTimeUnit": "ms"}
    ))
