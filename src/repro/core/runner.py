"""Algorithm 1 end-to-end: the pollution runner.

:func:`pollute` executes the full workflow — prepare, split into
sub-streams, pollute each sub-stream with its pipeline, integrate, and
return both the clean and the polluted stream (Algorithm 1 returns
``D, D^p``) plus the pollution log.

Two execution modes produce identical output:

* ``engine="direct"`` (default) — a plain Python loop over the prepared
  stream; fastest, and the reference semantics.
* ``engine="stream"`` — builds a topology on the
  :class:`~repro.streaming.environment.StreamExecutionEnvironment`
  (source -> prepare -> split -> per-branch pollution process -> union ->
  event-time sort -> sink), exercising the same code paths a Flink
  deployment would. Experiment 3's runtime measurements use this mode.

Equivalence of the two modes is asserted by an integration test and is a
useful invariant: the pollution semantics live in the pipeline objects, not
in the execution substrate.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.integrate import EventTimeSorter, integrate, sort_by_timestamp
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.prepare import IdGenerator, PrepareFunction, prepare_stream
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger
from repro.obs.live import ProgressRenderer
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.tracing import Tracer
from repro.streaming.checkpoint import Checkpoint, CheckpointStore
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Collector, ProcessContext, ProcessFunction
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import CollectSink
from repro.streaming.source import CollectionSource, Source
from repro.streaming.split import SplitStrategy
from repro.streaming.supervision import ExecutionReport, FailurePolicy


@dataclass
class PollutionResult:
    """Output of one pollution run (Algorithm 1 returns ``D, D^p``)."""

    clean: list[Record]
    polluted: list[Record]
    log: PollutionLog
    schema: Schema
    seed: int | None = None
    report: ExecutionReport | None = None
    metrics: MetricsRegistry | None = None
    #: The run's :class:`~repro.obs.profile.Profiler` when ``profile=True``.
    profile: Profiler | None = None
    #: The run's :class:`~repro.obs.ledger.RunLedger` when one was passed.
    ledger: RunLedger | None = None

    @property
    def n_clean(self) -> int:
        return len(self.clean)

    @property
    def n_polluted(self) -> int:
        return len(self.polluted)

    def clean_by_id(self) -> dict[int, Record]:
        return {r.record_id: r for r in self.clean if r.record_id is not None}

    def dirty_tuples(self) -> list[tuple[Record, Record]]:
        """Pairs (clean, polluted) whose attribute values differ.

        Matches by record ID; dropped tuples have no pair here (consult the
        log), duplicated tuples contribute one pair per surviving copy.
        """
        clean = self.clean_by_id()
        out = []
        for rec in self.polluted:
            original = clean.get(rec.record_id)
            if original is not None and original.diff(rec):
                out.append((original, rec))
        return out


def _coerce_source(
    data: Source | Sequence[Mapping[str, Any] | Record],
    schema: Schema | None,
) -> tuple[Source, Schema]:
    if isinstance(data, Source):
        return data, data.schema
    if schema is None:
        raise PollutionError("a schema is required when passing raw rows")
    return CollectionSource(schema, data, validate=False), schema


def _run_preflight(
    check: str,
    pipelines: PollutionPipeline | Sequence[PollutionPipeline] | None,
    data: Source | Sequence[Mapping[str, Any] | Record],
    schema: Schema | None,
    *,
    seed: int | None,
    parallelism: int | None,
    key_by: Any | None,
    pipeline_factory: Any | None,
    failure_policy: Any | None = None,
    batch_size: int | None = None,
) -> None:
    """Static plan check before any record flows (``check="error"|"warn"|"off"``).

    Analysis is pure — no RNG draws, no pipeline mutation — so it cannot
    change the polluted output. Missing schema or pipelines are left for the
    run's own validation to report.
    """
    from repro.check.preflight import preflight

    if isinstance(data, Source):
        schema = data.schema
    if pipelines is None and pipeline_factory is not None:
        pipelines = getattr(pipeline_factory, "_template", None)
    if isinstance(pipelines, PollutionPipeline):
        pipelines = [pipelines]
    preflight(
        list(pipelines) if pipelines else [],
        schema,
        check,
        seed=seed,
        parallelism=parallelism,
        key_by=key_by,
        failure_policy=failure_policy,
        batch_size=batch_size,
    )


def pollute(
    data: Source | Sequence[Mapping[str, Any] | Record],
    pipelines: PollutionPipeline | Sequence[PollutionPipeline] | None = None,
    schema: Schema | None = None,
    split: SplitStrategy | None = None,
    seed: int | None = None,
    log: bool = True,
    engine: str = "direct",
    failure_policy: FailurePolicy | None = None,
    checkpoint_dir: str | Path | CheckpointStore | None = None,
    checkpoint_interval: int = 100,
    resume_from: Checkpoint | str | Path | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    parallelism: int | None = None,
    key_by: str | Any | None = None,
    pipeline_factory: Any | None = None,
    mp_context: str | Any | None = None,
    check: str = "warn",
    batch_size: int | None = None,
    max_shard_restarts: int = 2,
    heartbeat_timeout: float | None = 30.0,
    profile: bool = False,
    ledger: RunLedger | None = None,
    progress: ProgressRenderer | bool = False,
) -> PollutionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    data:
        A :class:`~repro.streaming.source.Source` or a sequence of rows.
    pipelines:
        One pipeline (single-stream pollution) or ``m`` pipelines — one per
        sub-stream of the integration scenario.
    schema:
        Required when ``data`` is raw rows.
    split:
        How tuples are routed to the ``m`` sub-streams; defaults to
        :class:`~repro.streaming.split.Broadcast` (each tuple enters every
        sub-stream, the paper's "overlapping" reading). Ignored for a single
        pipeline.
    seed:
        Run seed; the same seed reproduces the pollution exactly (§2.3).
    log:
        Whether to record a :class:`~repro.core.log.PollutionLog`.
    engine:
        ``"direct"`` or ``"stream"``; identical output, see module docs.
        Fault-tolerance options force ``"stream"``.
    failure_policy:
        Default :class:`~repro.streaming.supervision.FailurePolicy` applied
        to every operator of the stream topology (supervised execution).
    checkpoint_dir:
        Directory (or :class:`~repro.streaming.checkpoint.CheckpointStore`)
        for periodic state snapshots; enables ``resume_from`` after a crash.
    checkpoint_interval:
        Source records between checkpoints (used with ``checkpoint_dir``).
    resume_from:
        A checkpoint (object or file path) from a previous run of the *same*
        configuration; the run continues from the checkpointed offset. The
        pollution log only covers post-resume tuples.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to collect run
        telemetry into: per-polluter activation/condition/injection counters
        plus the stream engine's node metrics. An enabled registry forces
        ``engine="stream"`` so node-level metrics exist. Pollution output is
        byte-identical with and without metrics.
    tracer:
        A :class:`~repro.obs.tracing.Tracer` receiving span records for node
        lifecycle, checkpoint, and supervision events (stream engine only).
    parallelism:
        When set, runs the sharded multi-process runtime
        (:func:`repro.parallel.pollute_parallel`): prepared records are
        partitioned across ``parallelism`` worker processes and the outputs
        deterministically merged. Keyed plans (``key_by``) are byte-identical
        to the sequential run; unkeyed plans are reproducible per
        ``(seed, parallelism)``. Incompatible with ``tracer`` (spans cannot
        cross process boundaries) and with ``engine="stream"``-only options
        no worse than the sequential path.
    key_by:
        Pollution key — an attribute name or a picklable key selector. Runs
        one pipeline instance per key (isolated stateful error functions);
        combine with ``parallelism`` for hash-partitioned parallel keyed
        pollution. Mutually exclusive with ``split``.
    pipeline_factory:
        Picklable per-key pipeline factory for keyed runs; defaults to
        cloning the single template pipeline per key.
    mp_context:
        Multiprocessing start method (name or context) for parallel runs.
    check:
        Pre-flight static plan analysis (:mod:`repro.check`): ``"error"``
        raises on error-severity diagnostics, ``"warn"`` (default) emits one
        :class:`~repro.check.PlanCheckWarning` for warning-or-worse findings,
        ``"off"`` skips the check. Runs once before execution; the analysis
        is pure, so output is byte-identical for every mode.
    batch_size:
        When > 1, run the micro-batching fast path (:mod:`repro.batch`):
        records move through the engine in slabs of this many tuples and
        the polluter chains execute as compiled batch kernels with bulk RNG
        draws. Output — records, metadata, pollution-log CSV, checkpoints —
        is byte-identical to the per-record path for every plan (the
        differential-equivalence suite enforces this). Applies to both
        engines and to parallel shard workers. Under a ``failure_policy``
        the engine executes whole slabs and, when one fails, rolls the slab
        back and replays it per-record so only the poison record is skipped,
        retried, or dead-lettered — never the surrounding ``batch_size - 1``
        records. Keyed runs dispatch per-record (batch kernels do not cross
        per-key pipeline instances); the planner records this as an explicit
        ``keyed-batching-per-record`` decision, visible via ``repro plan``.
    max_shard_restarts:
        Parallel runtime only (ignored otherwise): in-run respawn budget per
        shard for crashed or hung workers. After the budget,
        ``failure_policy`` decides between failing the run and degrading the
        shard to a sequential drain on the coordinator.
    heartbeat_timeout:
        Parallel runtime only (ignored otherwise): seconds of worker silence
        before the coordinator's watchdog declares the shard hung and
        recovers it; ``None`` disables hang detection.
    profile:
        Opt-in wall-time attribution (:class:`~repro.obs.profile.Profiler`):
        run phases, per-node exclusive time, and per-kernel timing —
        including which polluters run on the ``FallbackKernel`` — land in
        ``result.profile``. Observational only; output is byte-identical.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` receiving the run's
        structured lifecycle event log (run start/complete, checkpoint
        writes/restores, batch slab boundaries; plus the full shard
        lifecycle in parallel runs). Write it out with
        :meth:`~repro.obs.ledger.RunLedger.to_jsonl`.
    progress:
        ``True`` (or a preconfigured
        :class:`~repro.obs.live.ProgressRenderer`) paints live progress to
        stderr: an in-place ``top``-style table on a TTY, one plain line per
        refresh otherwise.
    """
    _run_preflight(
        check,
        pipelines,
        data,
        schema,
        seed=seed,
        parallelism=parallelism,
        key_by=key_by,
        pipeline_factory=pipeline_factory,
        failure_policy=failure_policy,
        batch_size=batch_size,
    )
    from repro.plan import PlanRequest, compile_plan, execute_plan

    request = PlanRequest(
        pipelines=pipelines,
        schema=schema,
        split=split,
        seed=seed,
        log=log,
        engine=engine,
        failure_policy=failure_policy,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        resume_from=resume_from,
        metrics=metrics,
        tracer=tracer,
        parallelism=parallelism,
        key_by=key_by,
        pipeline_factory=pipeline_factory,
        mp_context=mp_context,
        batch_size=batch_size,
        max_shard_restarts=max_shard_restarts,
        heartbeat_timeout=heartbeat_timeout,
        profile=profile,
        ledger=ledger,
        progress=progress,
    )
    return execute_plan(compile_plan(request), data)


def _execute_sequential_plan(plan: Any, data: Any) -> PollutionResult:
    """Run a compiled sequential plan: direct/stream, per-record/batched.

    Consumes the plan's normalized fields (``plan.pipelines``,
    ``plan.strategy``, the final ``plan.engine``) — every mode decision was
    made by :func:`repro.plan.compile_plan`, none is re-derived here.
    """
    request = plan.request
    pipelines: list[PollutionPipeline] = plan.pipelines
    strategy = plan.strategy
    streamed = plan.engine in ("stream", "stream-batch")
    batched = plan.batched
    seed = request.seed
    batch_size = request.batch_size
    metrics = request.metrics
    metered = request.metered
    ledger = request.ledger
    failure_policy = request.failure_policy
    profiler = request.profiler
    if profiler is None and request.profile:
        profiler = Profiler()
    renderer: ProgressRenderer | None = (
        request.progress
        if isinstance(request.progress, ProgressRenderer)
        else (ProgressRenderer() if request.progress else None)
    )

    source, schema = _coerce_source(data, request.schema)
    random_source = RandomSource(seed)
    for pipeline in pipelines:
        pipeline.bind(random_source)
        pipeline.reset()
        pipeline.bind_metrics(metrics if metered else None)
    pollution_log = PollutionLog() if request.log else None

    if ledger is not None:
        config = {
            "engine": plan.engine,
            "seed": seed,
            "batch_size": batch_size,
            "pipelines": sorted(p.name for p in pipelines),
            "checkpoint_interval": (
                request.checkpoint_interval if request.checkpoint_dir else None
            ),
        }
        ledger.record(
            "run.start",
            ledger_schema=LEDGER_SCHEMA_VERSION,
            config_hash=_config_digest(config),
            engine=plan.engine,
            seed=seed,
        )

    report: ExecutionReport | None = None
    try:
        if not streamed:
            if batched:
                from repro.batch.engine import run_batched

                clean, polluted = run_batched(
                    source, schema, list(pipelines), strategy, pollution_log, batch_size
                )
            else:
                clean, polluted = _run_direct(
                    source, schema, pipelines, strategy, pollution_log
                )
        else:
            with profiler.phase("execute") if profiler is not None else nullcontext():
                clean, polluted, report = _run_stream(
                    source,
                    schema,
                    pipelines,
                    strategy,
                    pollution_log,
                    failure_policy=failure_policy,
                    checkpoint_dir=request.checkpoint_dir,
                    checkpoint_interval=request.checkpoint_interval,
                    resume_from=request.resume_from,
                    metrics=metrics if metered else None,
                    tracer=request.tracer,
                    batch_size=batch_size,
                    profiler=profiler,
                    ledger=ledger,
                    progress=renderer,
                )
    finally:
        if metered:
            for pipeline in pipelines:
                pipeline.flush_metrics()
            if batched:
                from repro.batch.kernels import KERNEL_CACHE

                KERNEL_CACHE.publish(metrics)
        if renderer is not None:
            renderer.finish()
    if profiler is not None:
        profiler.finish()
        if metered:
            profiler.to_metrics(metrics)
    if ledger is not None:
        ledger.record(
            "run.complete",
            records_in=len(clean),
            records_out=len(polluted),
            completed=report.completed if report is not None else True,
        )
    if batched and pollution_log is not None:
        # Batch kernels append log events polluter-major; the stable
        # record-ID reorder restores the sequential record-major order
        # exactly (IDs are assigned in arrival order, within-record chain
        # order is append order).
        pollution_log = PollutionLog.merged([pollution_log])
    return PollutionResult(
        clean=clean,
        polluted=polluted,
        log=pollution_log if pollution_log is not None else PollutionLog(),
        schema=schema,
        seed=seed,
        report=report,
        metrics=metrics if metered else None,
        profile=profiler,
        ledger=ledger,
    )


def _config_digest(body: dict[str, Any]) -> str:
    """SHA-256 over a run configuration in canonical (sorted, compact) JSON."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Sequential keyed mode
# ---------------------------------------------------------------------------


def _execute_keyed_plan(plan: Any, data: Any) -> PollutionResult:
    """Run a compiled keyed-direct plan: the reference keyed loop.

    This is the sequential baseline the parallel keyed run is byte-compared
    against, so it must use the exact same pipeline factory semantics the
    shard workers do. The effective ``key_selector`` / ``pipeline_factory``
    were normalized by the planner; option combinations a keyed run cannot
    honour were already rejected at compile time.
    """
    from repro.core.keyed_pollution import run_keyed_direct

    request = plan.request
    key_selector = plan.key_selector
    pipeline_factory = plan.pipeline_factory
    seed = request.seed
    metrics = request.metrics
    ledger = request.ledger

    source, schema = _coerce_source(data, request.schema)
    metered = request.metered
    pollution_log = PollutionLog() if request.log else None
    profiler = request.profiler
    if profiler is None and request.profile:
        profiler = Profiler()
    renderer: ProgressRenderer | None = (
        request.progress
        if isinstance(request.progress, ProgressRenderer)
        else (ProgressRenderer() if request.progress else None)
    )
    if ledger is not None:
        config = {
            "engine": "keyed-direct",
            "seed": seed,
            "keyed": True,
        }
        ledger.record(
            "run.start",
            ledger_schema=LEDGER_SCHEMA_VERSION,
            config_hash=_config_digest(config),
            engine="keyed-direct",
            seed=seed,
        )
    with profiler.phase("prepare") if profiler is not None else nullcontext():
        clean = list(prepare_stream(source, schema, IdGenerator()))

    def _feed():
        for i, record in enumerate(clean, 1):
            if renderer is not None and (i & 1023) == 0:
                renderer.tick(i)
            yield record.copy()

    try:
        with profiler.phase("execute") if profiler is not None else nullcontext():
            polluted = run_keyed_direct(
                _feed(),
                key_selector,
                pipeline_factory,
                RandomSource(seed),
                pollution_log,
                metrics if metered else None,
                profiler=profiler,
            )
    finally:
        if renderer is not None:
            renderer.tick(len(clean))
            renderer.finish()
    if profiler is not None:
        profiler.finish()
        if metered:
            profiler.to_metrics(metrics)
    polluted = sort_by_timestamp(polluted, schema)
    if ledger is not None:
        ledger.record(
            "run.complete",
            records_in=len(clean),
            records_out=len(polluted),
            completed=True,
        )
    return PollutionResult(
        clean=clean,
        polluted=polluted,
        log=pollution_log if pollution_log is not None else PollutionLog(),
        schema=schema,
        seed=seed,
        metrics=metrics if metered else None,
        profile=profiler,
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Direct mode
# ---------------------------------------------------------------------------


def _run_direct(
    source: Source,
    schema: Schema,
    pipelines: Sequence[PollutionPipeline],
    strategy: SplitStrategy,
    log: PollutionLog | None,
) -> tuple[list[Record], list[Record]]:
    clean: list[Record] = []
    substreams: list[list[Record]] = [[] for _ in pipelines]
    for record in prepare_stream(source, schema):
        clean.append(record)
        for idx in strategy.route(record):
            copy = record.copy()
            copy.substream = idx
            substreams[idx].extend(
                pipelines[idx].apply(copy, copy.event_time, log)  # type: ignore[arg-type]
            )
    polluted = integrate(substreams, schema)
    return clean, polluted


# ---------------------------------------------------------------------------
# Stream-engine mode
# ---------------------------------------------------------------------------


class PollutionProcessFunction(ProcessFunction):
    """A pollution pipeline as a streaming-engine process operator."""

    def __init__(
        self,
        pipeline: PollutionPipeline,
        log: PollutionLog | None,
        profiler: Profiler | None = None,
    ) -> None:
        self._pipeline = pipeline
        self._log = log
        self._profiler = profiler
        self._compiled = None
        if profiler is not None:
            profiler.register_pipeline(pipeline)

    def process(self, record: Record, ctx: ProcessContext, out: Collector) -> None:
        tau = record.event_time
        if tau is None:
            raise PollutionError("pollution operator received unprepared record")
        for result in self._pipeline.apply(record, tau, self._log):
            out.collect(result)

    def process_batch(self, records: list[Record], ctx: ProcessContext, out: Collector) -> None:
        """Batch-mode entry point: the chain compiled into fused kernels.

        Compiled lazily on the first slab so the operator is constructed
        before the environment decides the execution mode; kernels hold
        references to the live polluter objects, so checkpoint restore
        (which rewrites polluter state in place) needs no recompilation.
        """
        compiled = self._compiled
        if compiled is None:
            from repro.batch.kernels import compile_pipeline

            compiled = self._compiled = compile_pipeline(
                self._pipeline, profiler=self._profiler
            )
        taus: list[int] = []
        for record in records:
            tau = record.event_time
            if tau is None:
                raise PollutionError("pollution operator received unprepared record")
            taus.append(tau)
        out_records, _ = compiled.apply_batch(list(records), taus, self._log)
        out.collect_batch(out_records)

    def snapshot_state(self):
        return self._pipeline.snapshot_state()

    def restore_state(self, state) -> None:
        self._pipeline.restore_state(state)

    def slab_token(self):
        # The pollution log is process-local and append-only; a rolled-back
        # slab must truncate it to the cut or the per-record replay would
        # record every pre-failure event twice.
        return len(self._log) if self._log is not None else None

    def slab_rollback(self, token) -> None:
        self._log.truncate(token)


class _TeeSink(CollectSink):
    """Collects the clean stream off a tee in the topology."""


def _run_stream(
    source: Source,
    schema: Schema,
    pipelines: Sequence[PollutionPipeline],
    strategy: SplitStrategy,
    log: PollutionLog | None,
    failure_policy: FailurePolicy | None = None,
    checkpoint_dir: str | Path | CheckpointStore | None = None,
    checkpoint_interval: int = 100,
    resume_from: Checkpoint | str | Path | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    batch_size: int | None = None,
    profiler: Profiler | None = None,
    ledger: RunLedger | None = None,
    progress: ProgressRenderer | None = None,
) -> tuple[list[Record], list[Record], ExecutionReport]:
    env = StreamExecutionEnvironment(
        metrics=metrics,
        tracer=tracer,
        batch_size=batch_size,
        ledger=ledger,
        profiler=profiler,
        progress=progress,
    )
    if failure_policy is not None:
        env.set_failure_policy(failure_policy)
    if checkpoint_dir is not None:
        env.enable_checkpointing(checkpoint_interval, checkpoint_dir)
    prepared = env.from_source(source, name="input").map(
        PrepareFunction(schema, IdGenerator()), name="prepare"
    )
    clean_sink = _TeeSink()
    prepared.map(lambda r: r.copy(), name="tee-clean").add_sink(clean_sink, name="clean")
    branches = prepared.split(strategy, name="substreams")
    polluted_branches = [
        branch.process(
            PollutionProcessFunction(pipeline, log, profiler=profiler),
            name=f"pollute[{i}]",
        )
        for i, (branch, pipeline) in enumerate(zip(branches, pipelines))
    ]
    merged = (
        polluted_branches[0].union(*polluted_branches[1:], name="integrate")
        if len(polluted_branches) > 1
        else polluted_branches[0]
    )
    dirty_sink = CollectSink()
    merged.process(EventTimeSorter(schema), name="sort").add_sink(dirty_sink, name="dirty")
    report = env.execute(resume_from=resume_from)
    # The streaming sorter flushes per watermark; a final global stable sort
    # makes output identical to direct mode regardless of watermark cadence.
    polluted = sort_by_timestamp(dirty_sink.records, schema)
    return clean_sink.records, polluted, report
