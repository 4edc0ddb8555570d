"""The benchmark's workloads: seeded inputs, one repetition, its reference.

A repetition makes the calls a user makes: for ``fig8-csv`` exactly the
calls of ``repro pollute --log`` (``load_records`` -> ``pollute`` ->
``save_records`` -> ``PollutionLog.to_csv``), for the other workloads one
in-memory ``pollute()`` call. Its output is reduced to the SHA-256 of the
polluted records as CSV and of the pollution log as CSV. The reference
digests come from composing the layer functions directly
(``prepare_stream`` -> ``SplitStrategy.route`` -> ``PollutionPipeline.apply``
-> ``integrate`` -> ``CsvSink`` -> ``PollutionLog.to_csv``).
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import plans
from spans import no_span
from repro.core.integrate import integrate
from repro.core.log import PollutionLog
from repro.core.prepare import prepare_stream
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.datasets.airquality import AIR_QUALITY_SCHEMA, AirQualityConfig, generate_air_quality
from repro.datasets.io import load_records, save_records
from repro.datasets.wearable import WEARABLE_SCHEMA, WearableConfig, generate_wearable
from repro.plan import PlanRequest, compile_plan
from repro.streaming.sink import CsvSink
from repro.streaming.source import CollectionSource, CsvSource
from repro.streaming.split import Broadcast

#: One station, one year of hourly air-quality tuples per Fig. 8 input.
AIR_QUALITY_HOURS = 8760
AIR_QUALITY_STATION = "Aotizhongxin"
#: Input rows of each in-memory workload.
NOISE_ROWS = 50_000
#: Tuples per call of the warm-up that precedes the timed repetitions.
WARM_UP_TUPLES = 2_000
#: Input rows and distinct key values of the keyed run (:class:`KeyedRun`).
KEYED_ROWS = 25_000
KEYS = 64


class HashWriter(io.TextIOBase):
    """A text sink that keeps only the SHA-256 of what it is given."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._hash.update(text.encode("utf-8"))
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _csv_digests(polluted, log: PollutionLog, schema) -> tuple[str, str]:
    records_out = HashWriter()
    sink = CsvSink(schema, records_out)
    sink.open()
    for record in polluted:
        sink.invoke(record)
    log_out = HashWriter()
    log.to_csv(log_out)
    return records_out.hexdigest(), log_out.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def noise_rows(n: int, seed: int) -> list[dict[str, Any]]:
    """``n`` rows of two float attributes, one minute apart."""
    rng = np.random.default_rng(seed)
    a = rng.normal(50.0, 10.0, n).tolist()
    b = rng.normal(0.0, 1.0, n).tolist()
    start = 1_600_000_000
    return [{"a": a[i], "b": b[i], "timestamp": start + 60 * i} for i in range(n)]


def keyed_rows(n: int, seed: int) -> list[dict[str, Any]]:
    """:func:`noise_rows` with an integer key ``k`` of :data:`KEYS` values."""
    rows = noise_rows(n, seed)
    keys = np.random.default_rng([seed, KEYS]).integers(0, KEYS, n).tolist()
    for row, key in zip(rows, keys):
        row["k"] = key
    return rows


@dataclass
class Job:
    """One ``pollute()`` call of a repetition, with its input and outputs."""

    name: str
    schema: Any
    pipeline: Any
    tuples: int
    rows: list | None = None
    csv_in: Path | None = None
    csv_out: Path | None = None
    log_out: Path | None = None


class Workload:
    """A named workload built from a seed: data and pollution seed alike."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        if name not in plans.PLANS:
            raise ValueError(f"unknown workload {name!r}; choose from {list(plans.PLANS)}")
        self.name = name
        self.seed = seed
        self.options = plans.OPTIONS[name]
        #: Whether traced runs also time the plan observed and plain.
        self.observed = name in plans.OBSERVED_RUNS
        #: Options of the keyed run traced runs time next to this workload.
        self.parallel_options = plans.PARALLEL_OPTIONS.get(name)
        workdir.mkdir(parents=True, exist_ok=True)
        if name == "fig8-csv":
            inputs = {"wearable.schema.json": workdir / "wearable.csv",
                      "airquality.schema.json": workdir / "airquality.csv"}
            wearable = generate_wearable(WearableConfig(seed=seed))
            save_records(wearable, WEARABLE_SCHEMA, inputs["wearable.schema.json"])
            air = generate_air_quality(
                AirQualityConfig(
                    n_hours=AIR_QUALITY_HOURS, stations=(AIR_QUALITY_STATION,), seed=seed
                )
            )[AIR_QUALITY_STATION]
            save_records(air, AIR_QUALITY_SCHEMA, inputs["airquality.schema.json"])
            sizes = {"wearable.schema.json": len(wearable), "airquality.schema.json": len(air)}
            self.jobs = []
            for job_name, config, schema_file in plans.PLANS[name]:
                schema, pipeline = plans.load_plan(config, schema_file)
                self.jobs.append(Job(
                    job_name, schema, pipeline, sizes[schema_file.name],
                    csv_in=inputs[schema_file.name],
                    csv_out=workdir / f"{job_name}.polluted.csv",
                    log_out=workdir / f"{job_name}.log.csv",
                ))
        else:
            rows = noise_rows(NOISE_ROWS, seed)
            ((job_name, config, schema_file),) = plans.PLANS[name]
            schema, pipeline = plans.load_plan(config, schema_file)
            self.jobs = [Job(job_name, schema, pipeline, len(rows), rows=rows)]

    @property
    def tuples(self) -> int:
        return sum(job.tuples for job in self.jobs)

    def engines(self, options: dict | None = None) -> list[str]:
        """The engine ``compile_plan`` picks for each call of a repetition."""
        return [
            compile_plan(PlanRequest(
                pipelines=job.pipeline, schema=job.schema, seed=self.seed,
                **plans.call_options(self.options if options is None else options),
            )).engine
            for job in self.jobs
        ]

    def run(self, span=no_span, options: dict | None = None) -> list:
        """One repetition; ``span(name)`` brackets the calls made from here.

        ``options`` replaces the workload's ``pollute()`` options.
        """
        options = self.options if options is None else options
        results = []
        for job in self.jobs:
            if job.csv_in is not None:
                with span("datasets.io.load_records"):
                    data = load_records(job.schema, job.csv_in)
            else:
                data = job.rows
            with span("core.runner"):
                result = pollute(
                    data, job.pipeline, schema=job.schema, seed=self.seed,
                    **plans.call_options(options),
                )
            if job.csv_out is not None:
                with span("streaming.sink"):
                    save_records(result.polluted, job.schema, job.csv_out)
                with span("core.log.to_csv"):
                    result.log.to_csv(job.log_out)
            results.append(result)
        return results

    def warm_up(self, options: dict | None = None) -> None:
        """Each call of a repetition on its first tuples, unchecked.

        First-call costs (lazy imports, plan and kernel caches) belong to
        set-up, which ``setup_s`` measures. ``options`` replaces the
        workload's ``pollute()`` options, as in :meth:`run`.
        """
        options = self.options if options is None else options
        for job in self.jobs:
            data = load_records(job.schema, job.csv_in) if job.csv_in is not None else job.rows
            pollute(
                data[:WARM_UP_TUPLES], job.pipeline, schema=job.schema, seed=self.seed,
                **plans.call_options(options),
            )

    def digests(self, results: list) -> list[list[str]]:
        """Records-CSV and log-CSV digests of one repetition's output."""
        out = []
        for job, result in zip(self.jobs, results):
            if job.csv_out is not None:
                out.append([_file_digest(job.csv_out), _file_digest(job.log_out)])
            else:
                out.append(list(_csv_digests(result.polluted, result.log, job.schema)))
        return out

    def reference(self) -> list[list[str]]:
        """Digests of the reference output, composed from the layer functions."""
        out = []
        for job in self.jobs:
            source = (
                CsvSource(job.schema, job.csv_in)
                if job.csv_in is not None
                else CollectionSource(job.schema, job.rows, validate=False)
            )
            polluted, log = _compose(source, job.schema, job.pipeline, self.seed)
            out.append(list(_csv_digests(polluted, log, job.schema)))
        return out

    def output_bytes(self) -> tuple[int, int]:
        """Bytes of the records CSVs and log CSVs the last repetition wrote."""
        records = sum(j.csv_out.stat().st_size for j in self.jobs if j.csv_out is not None)
        logs = sum(j.log_out.stat().st_size for j in self.jobs if j.log_out is not None)
        return records, logs

    def polluters(self) -> int:
        """Top-level polluters times tuples, summed over the calls."""
        return sum(job.tuples * len(job.pipeline) for job in self.jobs)


class KeyedRun:
    """``pollute(rows, noise, key_by=...)``, sharded across processes or sequential.

    The sequential keyed run is the reference the sharded run must match.
    """

    def __init__(self, seed: int, options: dict) -> None:
        self.seed = seed
        self.sharded = options
        self.sequential = {"key_by": options["key_by"]}
        self.schema, self.pipeline = plans.load_plan(plans.NOISE_CONFIG, plans.KEYED_SCHEMA)
        self.rows = keyed_rows(KEYED_ROWS, seed)

    def run(self, sharded: bool = True, rows: list | None = None):
        return pollute(
            self.rows if rows is None else rows, self.pipeline, schema=self.schema,
            seed=self.seed, **(self.sharded if sharded else self.sequential),
        )

    def plan(self, sharded: bool = True):
        return compile_plan(PlanRequest(
            pipelines=self.pipeline, schema=self.schema, seed=self.seed,
            **(self.sharded if sharded else self.sequential),
        ))

    def warm_up(self) -> None:
        for sharded in (True, False):
            self.run(sharded, self.rows[:WARM_UP_TUPLES])

    def digests(self, result) -> list[str]:
        return list(_csv_digests(result.polluted, result.log, self.schema))

    def reference(self) -> list[str]:
        return self.digests(self.run(sharded=False))


def _compose(source, schema, pipeline, seed: int):
    """Algorithm 1 from its layer functions, one record at a time."""
    pipeline.bind(RandomSource(seed))
    pipeline.reset()
    log = PollutionLog()
    strategy = Broadcast(1)
    substreams: list[list] = [[]]
    for record in prepare_stream(source, schema):
        for idx in strategy.route(record):
            copy = record.copy()
            copy.substream = idx
            substreams[idx].extend(pipeline.apply(copy, copy.event_time, log))
    return integrate(substreams, schema), log

