"""In-memory span tracer, installed around repro's public functions from outside.

The benchmark never edits ``src/``.  For a traced run it patches module and
class attributes with timing wrappers (``layers.installed``), runs the
workload, and puts the originals back.  Two kinds of record are kept:

* **spans** for layer boundaries crossed a few times per cell or request
  (``simulate``, ``compile``, ``uarch.engine``, ...): name, start, end,
  parent, thread, an attribute (cell or request id) and an optional count;
* **aggregates** for boundaries crossed every cycle (pipeline-stage ticks,
  cache-hierarchy accesses, branch prediction): one call count and total
  nanoseconds per name, never one record per call.

Self time is a span's duration minus the time its child spans and the
aggregated frames directly inside it cover.  Everything stays in memory
until :meth:`Tracer.dump` writes it out at the end of the run.
"""

import json
import threading
import time

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attr",
                 "agg_ns", "count")

    def __init__(self, span_id, name, start, parent, thread, attr=None):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attr = attr
        #: ns covered by aggregated frames directly inside this span.
        self.agg_ns = 0
        #: work the wrapped call reported (instructions, cycles, ...).
        self.count = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent,
                "thread": self.thread, "attr": self.attr,
                "agg_ns": self.agg_ns, "count": self.count}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []    # open spans, innermost last
        self.covered = 0   # ns of aggregated frames inside the innermost frame
        self.saved = []    # ``covered`` of the enclosing spans
        self.engine = 0    # open uarch.engine spans: aggregates count only here


class Tracer:
    """Spans and aggregates of one run, kept in memory."""

    def __init__(self):
        self.spans = []
        #: name -> [calls, total ns, ns covered by nested aggregated frames]
        self.aggregates = {}
        self._local = _ThreadState()
        self._lock = threading.Lock()

    # -- spans ------------------------------------------------------------------

    def inside(self, name):
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._local.stack)

    def open(self, name, attr=None):
        state = self._local
        parent = state.stack[-1].id if state.stack else None
        with self._lock:
            span = Span(len(self.spans), name, _clock(), parent,
                        threading.get_ident(), attr)
            self.spans.append(span)
        state.stack.append(span)
        state.saved.append(state.covered)
        state.covered = 0
        if name == "uarch.engine":
            state.engine += 1
        return span

    def close(self, span):
        span.end = _clock()
        state = self._local
        span.agg_ns = state.covered
        state.covered = state.saved.pop()
        state.stack.pop()
        if span.name == "uarch.engine":
            state.engine -= 1

    def span(self, name, attr=None):
        return _SpanContext(self, name, attr)

    def wrap(self, fn, name, attr=None, count=None):
        """``fn`` timed as a span.

        ``name`` is a string or ``name(args) -> str | None``; ``None`` opens
        no span, so the time stays in the caller's self time.  A call nested
        directly in a span of the same name opens no second span.
        ``attr(args)`` labels the span; ``count(args, result)`` records the
        work it did.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer._local.stack
            if label is None or (stack and stack[-1].name == label):
                return fn(*args, **kwargs)
            span = tracer.open(label, attr(args) if attr else None)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, result)
                return result
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregates --------------------------------------------------------------

    def aggregate(self, fn, name):
        """``fn`` counted and timed in aggregate, inside timing-engine runs only.

        Outside ``uarch.engine`` (cache warming, functional warming) a call
        is not counted: its time stays with the caller.  Counters shared by
        concurrent engine threads (the serve workload) may lose an update
        when the interpreter switches threads mid-increment.
        """
        totals = self.aggregates.setdefault(name, [0, 0, 0])
        local = self._local

        def wrapper(*args, **kwargs):
            if not local.engine:
                return fn(*args, **kwargs)
            outer = local.covered
            local.covered = 0
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += local.covered
                local.covered = outer + elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------------

    def finished(self):
        return [span for span in self.spans if span.end is not None]

    def dump(self, path, extra=None):
        data = {
            "spans": [span.as_dict() for span in self.finished()],
            "aggregates": {name: {"calls": calls, "ns": ns, "child_ns": child}
                           for name, (calls, ns, child)
                           in sorted(self.aggregates.items())},
        }
        data.update(extra or {})
        with open(path, "w") as handle:
            json.dump(data, handle)


class _SpanContext:
    def __init__(self, tracer, name, attr):
        self.tracer = tracer
        self.name = name
        self.attr = attr
        self.span = None

    def __enter__(self):
        self.span = self.tracer.open(self.name, self.attr)
        return self.span

    def __exit__(self, *exc_info):
        self.tracer.close(self.span)


def _covered(intervals, low, high):
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """``{span id: self ns}`` over finished ``spans``.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span) minus its ``agg_ns``.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, ()), span.start, span.end)
        - span.agg_ns
        for span in spans
    }

