"""Span recording around calls into the layers of ``repro``, from outside.

:func:`instrument` wraps public functions of the layers (``prepare_stream``,
``SplitStrategy.route``, ``PollutionPipeline.apply``, ``integrate``, ...)
for the length of one traced repetition and restores them afterwards.
Nothing under ``src/`` changes; untraced repetitions run the unwrapped code.

Spans live in compact arrays in memory (:class:`SpanRecorder`) and are
written out once, when the benchmark ends. A span's self time is its
duration minus the time its child spans cover. The wrappers cost time of
their own: :func:`calibrate` measures it per wrapper kind on empty calls,
and :func:`layer_split` takes it out of the layer it lands in (part inside
the span, the rest in its parent) and reports it as ``trace.spans_s``.
The corrected self times plus ``trace.spans_s`` sum to the repetition's
wall time by construction, so the tiling check guards span nesting only.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter

#: Span name -> the per-layer metric its self time adds to. Span names are
#: the ``src/repro`` module (or module.function) the wrapped call lives in.
METRIC_OF_SPAN = {
    "datasets.io.load_records": "source.busy_s",
    "streaming.source": "source.busy_s",
    "core.prepare": "prepare.busy_s",
    "core.prepare.map": "prepare.busy_s",
    "streaming.split": "route.busy_s",
    "streaming.split.copy": "route.busy_s",
    "core.pipeline": "pollute.busy_s",
    "batch.kernels": "pollute.busy_s",
    "core.log.record_event": "log.record_s",
    "core.log.merged": "log.sort_s",
    "core.log.to_csv": "log.csv_s",
    "core.integrate": "integrate.busy_s",
    "streaming.sink": "sink.busy_s",
    "check.preflight": "plan.busy_s",
    "plan.compile_plan": "plan.busy_s",
    "batch.kernels.compile_pipeline": "plan.busy_s",
    "core.runner": "engine.residual_s",
}
ROOT_SPAN = "bench.repetition"
#: An unspanned call of the wrapped ``Record.copy`` (a copy made outside
#: the split): it pays the caller check, which lands in the open span.
COPY_PASS = "copy-pass"
#: Largest share of a traced wall the layer self times may leave uncovered.
TILE_TOLERANCE = 0.01


def no_span(name: str):
    """What an untraced repetition enters where a traced one opens a span."""
    return nullcontext()


class SpanRecorder:
    """In-memory spans: name, start, end, parent and run id per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.run_id = -1
        self.enabled = False
        self.ranges: dict[int, tuple[int, int]] = {}
        self.counts: dict[str, int] = {}
        #: Span index -> unspanned wrapped calls made while it was innermost.
        self.passes: dict[int, int] = {}

    def name_id(self, name: str, kind: str = "ctx") -> int:
        """The id of span ``name``, registered with how it is opened.

        ``kind`` is ``"call"`` (a wrapped call), ``"iter"`` (one item of a
        wrapped iterator), ``"copy"`` (a wrapped ``Record.copy``) or
        ``"ctx"`` (a ``with span(...)`` block in the benchmark).
        """
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        elif self.kinds[nid] != kind:
            raise ValueError(f"span {name!r} opened as {kind}, before as {self.kinds[nid]}")
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def count_pass(self) -> None:
        top = self._stack[-1]
        self.passes[top] = self.passes.get(top, 0) + 1

    @contextmanager
    def repetition(self):
        """One traced repetition: a new run id and its root span."""
        self.run_id += 1
        self.counts = {}
        self.passes = {}
        lo = len(self.start)
        self.enabled = True
        try:
            with self.span(ROOT_SPAN):
                yield self.run_id
        finally:
            self.enabled = False
            self.ranges[self.run_id] = (lo, len(self.start))

    def write(self, path: Path) -> None:
        """Write every span recorded so far (one ``.npz`` of columns)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


def layer_split(
    rec: SpanRecorder, run_id: int, costs: dict[str, tuple[float, float]]
) -> tuple[dict[str, float], float, list[str]]:
    """Per-metric self time of one traced repetition, tracer cost taken out.

    ``costs`` is :func:`calibrate`'s result. Returns ``(seconds by metric,
    traced wall, problems)``; the metrics include ``trace.spans_s``, the
    tracer's own cost. ``problems`` lists every way the spans fail to nest
    or to tile the wall.
    """
    lo, hi = rec.ranges[run_id]
    start = np.frombuffer(rec.start, dtype=np.float64)[lo:hi]
    end = np.frombuffer(rec.end, dtype=np.float64)[lo:hi]
    parent = np.frombuffer(rec.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
    name = np.frombuffer(rec.name, dtype=np.int32)[lo:hi]
    problems: list[str] = []
    duration = end - start
    if (end == 0.0).any() or (duration < 0).any():
        problems.append("a span was never closed")
    children = parent >= 0
    if parent[0] != -lo - 1 or (~children[1:]).any():
        problems.append("spans outside the repetition's root span")
    coverage = np.bincount(
        parent[children], weights=duration[children], minlength=len(duration)
    )
    if (coverage > duration + 1e-6).any():
        problems.append("child spans cover more than their parent")
    # Tracer cost: a span's inner share lands in its own self time, its
    # outer share (wrapper entry and exit) in its parent's.
    inner = np.array([costs[kind][0] for kind in rec.kinds])[name]
    outer = np.array([costs[kind][1] for kind in rec.kinds])[name]
    tracer = inner + np.bincount(
        parent[children], weights=outer[children], minlength=len(duration)
    )
    pass_cost = costs[COPY_PASS][1]
    for index, passes in rec.passes.items():
        if lo <= index < hi:
            tracer[index - lo] += passes * pass_cost
    self_time = duration - coverage - tracer
    wall = float(duration[0])
    by_metric: dict[str, float] = {"trace.spans_s": float(tracer.sum())}
    for nid, metric_name in enumerate(rec.names):
        metric = METRIC_OF_SPAN.get(metric_name)
        if metric is None:
            continue
        by_metric[metric] = by_metric.get(metric, 0.0) + float(self_time[name == nid].sum())
    tiled = sum(by_metric.values())
    if abs(wall - tiled) > TILE_TOLERANCE * wall:
        problems.append(
            f"layer self times tile {tiled:.4f} s of a {wall:.4f} s traced wall"
        )
    return by_metric, wall, problems


def span_seconds(rec: SpanRecorder, run_id: int, span_name: str) -> float:
    """Summed duration of one repetition's spans of one name."""
    lo, hi = rec.ranges[run_id]
    start = np.frombuffer(rec.start, dtype=np.float64)[lo:hi]
    end = np.frombuffer(rec.end, dtype=np.float64)[lo:hi]
    name = np.frombuffer(rec.name, dtype=np.int32)[lo:hi]
    return float((end - start)[name == rec.name_id(span_name, "call")].sum())


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _wrap_call(rec: SpanRecorder, fn, span_name: str):
    nid = rec.name_id(span_name, "call")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _timed_items(rec: SpanRecorder, iterator, nid: int, counter: str | None):
    """Re-yield ``iterator``, recording each ``next()`` as one span."""
    while True:
        index = rec.open(nid)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.close(index)
        if counter is not None:
            rec.count(counter)
        yield item


def _wrap_iter(rec: SpanRecorder, fn, span_name: str, counter: str | None = None):
    nid = rec.name_id(span_name, "iter")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        if not rec.enabled:
            return iterator
        return _timed_items(rec, iterator, nid, counter)

    return wrapper


def _wrap_copy(rec: SpanRecorder, fn, span_name: str, callers: set, counter: str):
    """Span a ``copy`` method only when one of ``callers`` calls it."""
    nid = rec.name_id(span_name, "copy")

    @functools.wraps(fn)
    def copy(self):
        if rec.enabled:
            if sys._getframe(1).f_code in callers:
                rec.count(counter)
                index = rec.open(nid)
                try:
                    return fn(self)
                finally:
                    rec.close(index)
            rec.count_pass()
        return fn(self)

    return copy


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _noop(arg):
    return arg


def _items(n: int):
    return iter(range(n))


class _Copyable:
    def copy(self):
        return self


def _wrapped_copyable(rec: SpanRecorder, callers: set):
    wrapped = _wrap_copy(rec, _Copyable.copy, "calibrate.copy", callers, "calibrate.copies")
    return type("_Wrapped", (), {"copy": wrapped})()


def _time_loop(n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        pass
    return perf_counter() - start


def _time_calls(fn, n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        fn(None)
    return perf_counter() - start


def _time_items(fn, n: int) -> float:
    start = perf_counter()
    for _ in fn(n):
        pass
    return perf_counter() - start


def _time_blocks(span, n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        with span("calibrate.ctx"):
            pass
    return perf_counter() - start


def _time_copies(obj, n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        obj.copy()
    return perf_counter() - start


def calibrate(n: int = 10_000, trials: int = 3) -> dict[str, tuple[float, float]]:
    """Seconds a wrapper adds per span, as ``(inner, outer)`` per kind.

    Each kind wraps an empty call exactly as :func:`instrument` wraps a
    layer's, and is timed ``n`` times with and without the wrapper. The
    added time splits into the share inside the span (its duration minus
    the bare call) and the share its parent sees (the rest). Medians over
    ``trials``. ``COPY_PASS`` has only an outer share; ``ctx`` is timed
    against :func:`no_span`, which an untraced repetition enters instead.
    """
    cases = {
        "call": (_time_calls, _noop, lambda rec: _wrap_call(rec, _noop, "calibrate.call")),
        "iter": (
            _time_items, _items,
            lambda rec: _wrap_iter(rec, _items, "calibrate.iter", "calibrate.items"),
        ),
        "copy": (
            _time_copies, _Copyable(), lambda rec: _wrapped_copyable(rec, {_time_copies.__code__})
        ),
        COPY_PASS: (_time_copies, _Copyable(), lambda rec: _wrapped_copyable(rec, set())),
        "ctx": (_time_blocks, no_span, lambda rec: rec.span),
    }
    samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind in cases}
    for _ in range(trials):
        for kind, (timer, bare, make) in cases.items():
            loop = _time_loop(n)
            base = timer(bare, n)
            rec = SpanRecorder()
            subject = make(rec)
            with rec.repetition():
                wrapped = timer(subject, n)
            spans = len(rec.start) - 1
            inside = (
                sum(rec.end[i] - rec.start[i] for i in range(1, spans + 1)) / spans
                if spans else 0.0
            )
            added = (wrapped - base) / n
            inner = inside - (base - loop) / n if spans else 0.0
            samples[kind].append((inner, added - inner))
    costs = {}
    for kind, values in samples.items():
        costs[kind] = (
            float(np.median([v[0] for v in values])),
            float(np.median([v[1] for v in values])),
        )
    return costs


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap the layers' public functions for the duration of the block."""
    import repro.batch.engine as batch_engine
    import repro.core.runner as runner
    import repro.plan as plan
    from repro.batch.kernels import CompiledPipeline
    from repro.core.integrate import EventTimeSorter
    from repro.core.log import PollutionLog
    from repro.core.pipeline import PollutionPipeline
    from repro.core.prepare import PrepareFunction
    from repro.streaming import split
    from repro.streaming.record import Record
    from repro.streaming.source import CollectionSource

    # The package re-exports a function of the same name as this module.
    check_preflight = sys.modules["repro.check.preflight"]
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def call(span_name: str):
        return lambda fn: _wrap_call(rec, fn, span_name)

    try:
        # streaming.source / core.prepare
        patch(
            CollectionSource, "iter_from",
            lambda fn: _wrap_iter(rec, fn, "streaming.source", "source.tuples"),
        )
        for module in (runner, batch_engine):
            patch(module, "prepare_stream", lambda fn: _wrap_iter(rec, fn, "core.prepare"))
        patch(PrepareFunction, "map", call("core.prepare.map"))

        # streaming.split: routing (Broadcast, the strategy a single pipeline
        # gets) plus the per-substream Record.copy the executors make right
        # after it; copies made anywhere else are counted as passes of the
        # span that is open.
        patch(split.Broadcast, "route", call("streaming.split"))
        split_callers = {
            runner._run_direct.__code__,
            batch_engine.run_batched.__code__,
            split.SplitNode.on_record.__code__,
            split.SplitNode.on_batch.__code__,
        }
        patch(
            Record, "copy",
            lambda fn: _wrap_copy(rec, fn, "streaming.split.copy", split_callers, "route.copies"),
        )

        # core.pipeline / batch.kernels / core.log
        patch(PollutionPipeline, "apply", call("core.pipeline"))
        patch(CompiledPipeline, "apply_batch", call("batch.kernels"))
        patch(PollutionLog, "record_event", call("core.log.record_event"))
        patch(
            PollutionLog, "merged",
            lambda cm: classmethod(_wrap_call(rec, cm.__func__, "core.log.merged")),
        )

        # core.integrate
        for module in (runner, batch_engine):
            patch(module, "integrate", call("core.integrate"))
        patch(runner, "sort_by_timestamp", call("core.integrate"))
        patch(EventTimeSorter, "process", call("core.integrate"))
        patch(EventTimeSorter, "on_watermark", call("core.integrate"))

        # plan / check
        patch(check_preflight, "preflight", call("check.preflight"))
        patch(plan, "compile_plan", call("plan.compile_plan"))
        patch(batch_engine, "compile_pipeline", call("batch.kernels.compile_pipeline"))

        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def instrument_parallel(rec: SpanRecorder):
    """Wrap the sharded run's merge (records and log) for the block.

    Both run in the coordinator after every shard has finished.
    """
    from repro.core.log import PollutionLog
    from repro.parallel.merge import ShardMerger

    merge = ShardMerger.__dict__["merge"]
    merged = PollutionLog.__dict__["merged"]
    ShardMerger.merge = _wrap_call(rec, merge, "parallel.merge")
    PollutionLog.merged = classmethod(_wrap_call(rec, merged.__func__, "parallel.merge"))
    try:
        yield rec
    finally:
        ShardMerger.merge = merge
        PollutionLog.merged = merged
