#!/usr/bin/env python3
"""The repository benchmark: pollution runs as users make them, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-csv --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload noise-batch --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --steadiness 5 --seconds 45

One process runs repetitions back to back (a closed loop, one client, no
concurrency). ``--seed`` drives the generated inputs and the pollution seed.
Every repetition's records CSV and log CSV must match the reference output,
computed once in a separate process; a mismatch or an exception counts as a
failed repetition. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; result files and
spans go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = tuple(plans.PLANS)
#: Fresh interpreters whose median set-up time is reported as ``setup_s``.
SETUP_PROBES = 9
MIN_REPS = 3
MIN_TRACE_CYCLES = 2
PROBE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "tuples_per_s": "1/s",
    "run_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "source.busy_s": "s",
    "source.tuples": "count",
    "prepare.busy_s": "s",
    "route.busy_s": "s",
    "route.copies": "count",
    "pollute.busy_s": "s",
    "pollute.fired": "count",
    "pollute.fire_ratio": "ratio",
    "log.record_s": "s",
    "log.sort_s": "s",
    "log.csv_s": "s",
    "log.events": "count",
    "log.csv_bytes": "bytes",
    "integrate.busy_s": "s",
    "sink.busy_s": "s",
    "sink.bytes": "bytes",
    "plan.busy_s": "s",
    "plan.factbase_hit_ratio": "ratio",
    "engine.residual_s": "s",
    "obs.wall_s": "s",
    "obs.residual_s": "s",
    "obs.overhead_s": "s",
    "parallel.wall_s": "s",
    "parallel.sequential_s": "s",
    "parallel.partition_s": "s",
    "parallel.pickle_s": "s",
    "parallel.bytes_moved": "bytes",
    "parallel.shard_busy_max_s": "s",
    "parallel.shard_skew": "ratio",
    "parallel.merge_s": "s",
    "parallel.wait_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_s": "s",
}


class Unavailable(Exception):
    """The program under test is not in the checkout."""


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Unavailable(f"no repro package under {src}")
    if not (ROOT / "examples" / "configs").is_dir():
        raise Unavailable(f"no plan configs under {ROOT / 'examples' / 'configs'}")
    sys.path.insert(0, str(src))


def _probe(kind: str, workload: str, seed: int, trace: int = 0) -> dict:
    """Run one ``--probe`` in a fresh interpreter; return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_main(args: argparse.Namespace) -> int:
    if args.probe == "setup":
        start = time.perf_counter()
        _import_program()
        import repro  # noqa: F401  (the import a `repro pollute` run pays)

        plans.setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    _import_program()
    import workloads

    workload = workloads.Workload(args.workload, args.seed, _workdir(args) / "reference")
    reference = {"digests": workload.reference()}
    if args.trace and workload.parallel_options is not None:
        reference["keyed"] = workloads.KeyedRun(args.seed, workload.parallel_options).reference()
    print(json.dumps(reference))
    return 0


def _workdir(args: argparse.Namespace) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Repetitions:
    """Runs and checks repetitions; counts attempts and failures."""

    def __init__(self, workload, reference: list[list[str]]) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def attempt(self, call, digests, reference, bracket=nullcontext()) -> tuple[float, object]:
        """Time ``call()`` inside ``bracket``, then check ``digests`` of its result.

        Returns ``(wall, result)``; ``result`` is None if the call raised.
        """
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with bracket:
                result = call()
        except Exception:  # noqa: BLE001 - a raising repetition is a failed one
            wall = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            return wall, None
        wall = time.perf_counter() - start
        if digests(result) != reference:
            print(f"repetition {self.attempted}: output differs from the reference",
                  file=sys.stderr)
            self.failed += 1
        return wall, result

    def run(self, rec=None, options: dict | None = None) -> tuple[float, list | None]:
        """Time one repetition of the workload, then check it.

        With a span recorder ``rec`` the repetition is traced: its root span
        covers exactly the timed call, never the check that follows.
        ``options`` replaces the workload's ``pollute()`` options.
        """
        kwargs = {"options": options}
        bracket = nullcontext()
        if rec is not None:
            kwargs["span"] = rec.span
            bracket = rec.repetition()
        return self.attempt(
            lambda: self.workload.run(**kwargs), self.workload.digests, self.reference, bracket
        )


def measure_end_to_end(args, workload, reps: Repetitions) -> tuple[dict, dict]:
    """Untraced repetitions for ``--seconds``, set-up probes spread among them.

    The host's speed drifts over seconds, so the fresh interpreters
    ``setup_s`` takes its median from run evenly spaced across the run, one
    at a time between repetitions, rather than back to back.
    """
    workload.warm_up()
    walls: list[float] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(_probe("setup", args.workload, args.seed)["setup_s"])
        elif len(walls) < MIN_REPS or elapsed < args.seconds:
            walls.append(reps.run()[0])
        else:
            break
    metrics = {
        "tuples_per_s": workload.tuples * len(walls) / sum(walls),
        "run_p50_ms": 1000.0 * statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"run_ms": [1000.0 * w for w in walls], "setup_s": setup}
    return metrics, samples


def measure_layers(
    args, workload, reps: Repetitions, keyed_reference
) -> tuple[dict, dict, list[str], dict]:
    """Untraced, traced, observed and keyed repetitions in turn for ``--seconds``."""
    import spans
    import workloads
    from repro.check.factbase import FACTBASE_CACHE

    rec = spans.SpanRecorder()
    calibrations: list[dict[str, tuple[float, float]]] = []
    keyed = None
    if workload.parallel_options is not None:
        keyed = workloads.KeyedRun(args.seed, workload.parallel_options)
        keyed.warm_up()
    workload.warm_up()
    if workload.observed:
        workload.warm_up(plans.OBSERVED_OPTIONS)
        workload.warm_up({})
    untraced: list[float] = []
    traced: list[float] = []
    observed: list[float] = []
    plain: list[float] = []
    residual: list[float] = []
    per_rep: list[dict[str, float]] = []
    per_keyed: list[dict[str, float]] = []
    problems: list[str] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_CYCLES or time.perf_counter() - start < args.seconds:
        untraced.append(reps.run()[0])
        # The host's speed drifts, so the tracer cost is measured next to
        # each traced repetition.
        costs = spans.calibrate()
        calibrations.append(costs)
        before = FACTBASE_CACHE.stats()
        with spans.instrument(rec):
            _, results = reps.run(rec=rec)
        after = FACTBASE_CACHE.stats()
        run_id = rec.run_id
        split, traced_wall, bad = spans.layer_split(rec, run_id, costs)
        problems += [f"traced repetition {run_id}: {p}" for p in bad]
        traced.append(traced_wall)
        if results is not None:
            split.update(_counted(workload, results, rec, before, after))
            per_rep.append(split)
        del results
        if workload.observed:
            observed.append(reps.run(options=plans.OBSERVED_OPTIONS)[0])
            with spans.instrument(rec):
                reps.run(rec=rec, options=plans.OBSERVED_OPTIONS)
            split, _, bad = spans.layer_split(rec, rec.run_id, costs)
            problems += [f"traced observed repetition {rec.run_id}: {p}" for p in bad]
            residual.append(split["engine.residual_s"])
            plain.append(reps.run(options={})[0])
        if keyed is not None:
            per_keyed.append(measure_parallel(keyed, reps, keyed_reference, rec))
    rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        values = [rep[name] for rep in per_rep + per_keyed if name in rep]
        if values:
            metrics[name] = statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if observed:
        metrics["obs.wall_s"] = statistics.median(observed)
        metrics["obs.residual_s"] = statistics.median(residual)
        metrics["obs.overhead_s"] = statistics.median(observed) - statistics.median(plain)
    samples = {
        "untraced_ms": [1000.0 * w for w in untraced],
        "traced_ms": [1000.0 * w for w in traced],
        "observed_ms": [1000.0 * w for w in observed],
        "plain_ms": [1000.0 * w for w in plain],
        "keyed_ms": [1000.0 * rep["parallel.wall_s"] for rep in per_keyed if rep],
    }
    extra = {"span_cost_us": {
        kind: [1e6 * statistics.median(c[kind][share] for c in calibrations) for share in (0, 1)]
        for kind in calibrations[0]
    }}
    if workload.observed:
        extra["observed_engines"] = [
            workload.engines(plans.OBSERVED_OPTIONS)[0], workload.engines({})[0]
        ]
    if keyed is not None:
        extra["keyed_engines"] = [keyed.plan(True).engine, keyed.plan(False).engine]
        extra["keyed_tuples"] = len(keyed.rows)
    return metrics, samples, problems, extra


def measure_parallel(keyed, reps: Repetitions, reference, rec) -> dict[str, float]:
    """One sharded and one sequential keyed run, and the parallel layer's split.

    The sharded run is timed whole, with spans only around its merge (records
    and log) in the coordinator. Partitioning, pickling and each shard's work
    are then timed from outside on the same input: the coordinator's
    partition loop over the prepared records, a pickle round trip of every
    queue message at the coordinator's chunking (input chunks, output chunks
    and each shard's log), and each shard's partition run sequentially
    in-process. ``parallel.wait_s`` is the wall the critical path (partition,
    busiest shard, merge) leaves: spawning, queue transfer and polling.
    """
    import pickle
    from multiprocessing.reduction import ForkingPickler

    import spans
    from repro.streaming.partition import KeyPartitioner

    with spans.instrument_parallel(rec):
        wall, result = reps.attempt(keyed.run, keyed.digests, reference, rec.repetition())
    sequential, _ = reps.attempt(lambda: keyed.run(sharded=False), keyed.digests, reference)
    if result is None:
        return {}
    merge_s = spans.span_seconds(rec, rec.run_id, "parallel.merge")

    plan = keyed.plan()
    partitioner = KeyPartitioner(plan.request.parallelism, plan.key_selector)
    n = partitioner.n_shards
    assignments: list[list] = [[] for _ in range(n)]
    begin = time.perf_counter()
    for index, record in enumerate(result.clean):
        assignments[partitioner.shard_of(record, index)].append(record)
    partition_s = time.perf_counter() - begin

    shard_of_id = {record.record_id: partitioner.shard_of(record, 0) for record in result.clean}
    outputs: list[list] = [[] for _ in range(n)]
    for record in result.polluted:
        outputs[shard_of_id[record.record_id]].append(record)
    events: list[list] = [[] for _ in range(n)]
    for event in result.log.events:
        events[shard_of_id[event.record_id]].append(event)
    messages = []
    chunk = plan.request.chunk_size
    for shard in range(n):
        for lo in range(0, len(assignments[shard]), chunk):
            messages.append(("records", assignments[shard][lo:lo + chunk]))
        for lo in range(0, len(outputs[shard]), chunk):
            part = outputs[shard][lo:lo + chunk]
            messages.append(("chunk", shard, part, part[-1].event_time, 0))
    moved = 0
    begin = time.perf_counter()
    for message in messages:
        blob = ForkingPickler.dumps(message)
        pickle.loads(blob)
        moved += len(blob)
    for shard in range(n):
        payload = pickle.dumps({"log_events": events[shard]}, protocol=pickle.HIGHEST_PROTOCOL)
        blob = ForkingPickler.dumps(("done", shard, payload, 0))
        pickle.loads(pickle.loads(blob)[2])
        moved += len(blob)
    pickle_s = time.perf_counter() - begin

    rows_of: list[list] = [[] for _ in range(n)]
    for row, record in zip(keyed.rows, result.clean):
        rows_of[shard_of_id[record.record_id]].append(row)
    busy = []
    for rows in rows_of:
        gc.collect()
        begin = time.perf_counter()
        keyed.run(sharded=False, rows=rows)
        busy.append(time.perf_counter() - begin)
    sizes = [len(a) for a in assignments]
    return {
        "parallel.wall_s": wall,
        "parallel.sequential_s": sequential,
        "parallel.partition_s": partition_s,
        "parallel.pickle_s": pickle_s,
        "parallel.bytes_moved": float(moved),
        "parallel.shard_busy_max_s": max(busy),
        "parallel.shard_skew": max(sizes) / (sum(sizes) / n),
        "parallel.merge_s": merge_s,
        "parallel.wait_s": wall - (partition_s + max(busy) + merge_s),
    }


def _counted(workload, results: list, rec, before: dict, after: dict) -> dict[str, float]:
    """Per-layer counts of one traced repetition."""
    counts = rec.counts
    fired = sum(len(result.log) for result in results)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    out = {
        "source.tuples": counts.get("source.tuples", 0),
        "route.copies": counts.get("route.copies", 0),
        "pollute.fired": fired,
        "pollute.fire_ratio": fired / workload.polluters(),
        "log.events": fired,
        "plan.factbase_hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
    }
    if any(job.csv_out is not None for job in workload.jobs):
        out["sink.bytes"], out["log.csv_bytes"] = workload.output_bytes()
    return out


def run_main(args: argparse.Namespace) -> int:
    _import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.Workload(args.workload, args.seed, _workdir(args))
    reference = _probe("reference", args.workload, args.seed, args.trace)
    reps = Repetitions(workload, reference["digests"])
    problems: list[str] = []
    extra: dict = {}
    if args.trace:
        metrics, samples, problems, extra = measure_layers(
            args, workload, reps, reference.get("keyed")
        )
        units = PER_LAYER_UNITS
    else:
        metrics, samples = measure_end_to_end(args, workload, reps)
        units = END_TO_END_UNITS
    stamps = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "tuples_per_repetition": workload.tuples,
        "samples": {series: len(values) for series, values in samples.items()},
        "batch_size": workload.options.get("batch_size"),
        "engine": workload.engines(),
        "failed_frac": reps.failed / reps.attempted,
        "seconds": args.seconds,
        **extra,
    }
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    print(f"{'failed_frac':28s} {stamps['failed_frac']:16.6f} ratio "
          f"({reps.failed} of {reps.attempted} repetitions)")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"stamps": stamps}))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamps": stamps, "metrics": metrics, "samples": samples,
                    "problems": problems}, indent=2)
    )
    shutil.rmtree(_workdir(args), ignore_errors=True)
    print(json.dumps({
        "correct": reps.failed == 0 and not problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def steadiness_main(args: argparse.Namespace) -> int:
    """Run each workload ``--steadiness`` times with distinct seeds; print spreads."""
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    report: dict[str, dict] = {}
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for i in range(args.steadiness):
            seed = args.seed + i
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: incorrect run", file=sys.stderr)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        report[name] = {"failed_frac": failed / attempted}
        print(f"{name:15s} failed_frac    {failed / attempted:.4f} ratio "
              f"({failed} of {attempted} repetitions)")
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            report[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "values": series}
            bound = bounds.get(metric)
            verdict = (
                "" if bound is None else f"  bound {bound:.3f}  spread/bound {spread / bound:.2f}"
            )
            print(f"{name:15s} {metric:14s} median {median:14.4f}  spread {spread:.4f}{verdict}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=2))
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="run every workload RUNS times and report the spread")
    parser.add_argument("--probe", choices=("setup", "reference"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.steadiness and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.probe:
            return probe_main(args)
        if args.steadiness:
            return steadiness_main(args)
        return run_main(args)
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
