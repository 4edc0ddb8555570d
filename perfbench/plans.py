"""What each workload pollutes: plan files, schema files and ``pollute()`` options.

This module imports nothing from ``repro`` at load time, so a fresh
interpreter can time ``import repro`` itself (see :func:`setup_once`).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXAMPLES = HERE.parent / "examples" / "configs"
NOISE_CONFIG = HERE / "configs" / "noise.json"
NOISE_SCHEMA = HERE / "configs" / "noise.schema.json"
KEYED_SCHEMA = HERE / "configs" / "noise-keyed.schema.json"

BATCH_SIZE = 256

#: ``(job name, plan config, schema)`` for every ``pollute()`` call of one
#: repetition. ``fig8-csv`` runs the three Fig. 8 scenarios of the paper.
PLANS = {
    "fig8-csv": [
        ("software_update", EXAMPLES / "software_update.json", EXAMPLES / "wearable.schema.json"),
        ("bad_network", EXAMPLES / "bad_network.json", EXAMPLES / "airquality.schema.json"),
        ("random_temporal", EXAMPLES / "random_temporal.json", EXAMPLES / "airquality.schema.json"),
    ],
    "noise-batch": [("noise", NOISE_CONFIG, NOISE_SCHEMA)],
}

#: ``pollute()`` options per workload; ``"metrics": True`` stands for a
#: fresh ``MetricsRegistry`` per call, as ``repro pollute --metrics-out``
#: creates one per invocation.
OPTIONS = {
    "fig8-csv": {},
    "noise-batch": {"batch_size": BATCH_SIZE},
}

#: The options ``repro pollute --profile --metrics-out`` sets. Telemetry
#: forces the stream engine, so the executor's own overhead shows. The
#: traced runs of the workloads named here also time their plan with these
#: options and, as its baseline, per record with telemetry off (``obs.*``
#: metrics).
OBSERVED_OPTIONS = {"profile": True, "metrics": True}
OBSERVED_RUNS = {"noise-batch"}

#: The keyed run a workload's traced run times through ``repro.parallel``
#: (``parallel.*`` metrics): the noise plan on rows with a key column,
#: sharded with these options and, as its reference, sequential.
PARALLEL_OPTIONS = {"noise-batch": {"key_by": "k", "parallelism": 2}}


def call_options(options: dict) -> dict:
    """``pollute()`` keyword arguments for one call of a workload."""
    out = dict(options)
    if out.get("metrics") is True:
        from repro.obs.metrics import MetricsRegistry

        out["metrics"] = MetricsRegistry()
    return out


def load_plan(config: Path, schema_file: Path):
    """``(schema, pipeline)`` from their JSON files, as ``repro pollute`` loads them."""
    from repro.cli import schema_from_config
    from repro.core.config import pipeline_from_config

    schema = schema_from_config(json.loads(schema_file.read_text()))
    pipeline = pipeline_from_config(json.loads(config.read_text()))
    return schema, pipeline


def setup_once(workload: str, seed: int) -> None:
    """The work a ``repro pollute`` invocation does before its first tuple.

    Loads every schema and plan of the workload, then runs the pre-flight
    check, ``compile_plan`` and the kernel compile on each plan. The caller
    times this together with the ``import repro`` that precedes it.
    """
    from repro.batch.kernels import compile_pipeline
    from repro.check.preflight import preflight
    from repro.core.rng import RandomSource
    from repro.plan import PlanRequest, compile_plan

    options = call_options(OPTIONS[workload])
    for _, config, schema_file in PLANS[workload]:
        schema, pipeline = load_plan(config, schema_file)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            preflight(
                [pipeline], schema, "warn", seed=seed, batch_size=options.get("batch_size")
            )
        compile_plan(PlanRequest(pipelines=pipeline, schema=schema, seed=seed, **options))
        pipeline.bind(RandomSource(seed))
        compile_pipeline(pipeline)
