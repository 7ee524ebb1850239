#!/usr/bin/env python
"""One benchmark runner: every BENCH_<name>.json snapshot and its ledger entry.

The benches are the keys of :data:`repro.obs.ledger.BENCH_SNAPSHOTS`;
``--only`` picks a comma-separated subset and the default runs all:

* ``microperf`` -- best-of-``--rounds`` timings of the library's hot
  paths (suite generation, M5' fit, predict, leaf assignment, profile)
  and a compiled-vs-recursive predict sweep over batch sizes.
* ``serve`` -- a closed-loop sweep over 1-, 16- and 64-row requests
  against the default server (each request sends the next rows of the
  seeded batch), then two paired overheads at batch 64:
  request telemetry (two ``monitor=False`` servers, one with an event
  log) and the 99 Hz sampling profiler (one ``monitor=False`` server,
  the profiler toggled per burst).
* ``drift`` -- :meth:`DriftMonitor.observe` cost per record, then the
  paired serving overhead of the drift monitor (``monitor=False`` vs
  the default server).
* ``pipeline`` -- the cpu2006 -> omp2001 replay's detect-to-promote
  wall time (it must promote), then the paired serving overhead of
  arming the pipeline (the default server vs ``pipeline=True``).
* ``loadbench`` -- the cluster saturation curve over ``--workers``
  and one open-loop run against the widest cluster.

Every bench serves one model: the cpu2006 tree published with its
``train_y`` moments, and one seeded 64-row batch (labelled with noisy
``actuals`` for drift and pipeline).  Every timed request goes through
:func:`repro.loadbench.run_load` persistent connections, every server
is checked bit-identical to ``ModelTree.predict`` before it is timed,
and a failed request aborts the run before any snapshot is written
(exit 2).

Every overhead is measured the same way: ``--reps`` pairs of
:data:`BURST_S`-second closed-loop bursts against two long-lived
servers (or one, toggled), alternating which side goes first; each
pair gives one on/off rows/s ratio and the median ratio is reported.
Pairing at burst granularity keeps machine drift, which swings single
ratios by +/-10% on a shared box, out of a single-digit-percent
effect.  :data:`OVERHEAD_BUDGETS` is the one budget table: the runner
exits 1 when a snapshot it wrote breaches it, and
``benchmarks/conftest.py`` fails the benchmark session on the
committed ones.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --only serve,drift --reps 15
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List

from repro.loadbench import LoadConfig, LoadResult, run_load
from repro.loadbench.report import verify_bit_equality
from repro.obs.ledger import (
    BENCH_SNAPSHOTS,
    DEFAULT_LEDGER_PATH,
    PerfLedger,
    headline_metrics,
)
from repro.serve.registry import ModelRegistry

#: Seconds per paired on/off burst.
BURST_S = 0.5
#: Closed-loop connections for the serve sweep and every pair.
PAIR_CONNECTIONS = 4
#: Closed-loop connections per saturation-curve point (and open-loop
#: senders).
CURVE_CONNECTIONS = 8
#: Open-loop offered rate against the widest cluster, requests/s.
OPEN_RATE = 50.0
#: Rows per request for the pairs and the curve.
BATCH = 64
#: Rows per request for the serve sweep.
SERVE_BATCHES = (1, 16, 64)
#: DriftMonitor.observe batches streamed for the per-record cost.
MONITOR_BATCHES = 1000
#: Drift window, matched to the serving default.
WINDOW = 256
#: Experiment scale of the pipeline replay.
REPLAY_SCALE = 0.1
PROFILER_HZ = 99
#: Batch sizes for the compiled-vs-recursive sweep: 64 and 256 are the
#: serving regime (engine max_batch is 256), 10_000 the offline scale.
MICRO_SWEEP_BATCHES = (1, 64, 256, 1024, 10_000)

#: One row per overhead budget: the snapshot, its paired section, what
#: the delta pays for, the limit, and what to trim when it breaches.
#: The runner checks the snapshots it writes; the benchmarks conftest
#: checks the committed ones.
OVERHEAD_BUDGETS = (
    {
        "snapshot": "BENCH_serve.json",
        "section": "telemetry_overhead",
        "what": "request telemetry",
        "limit_pct": 5.0,
        "remedy": "trim the traced path, then re-run "
        "run_bench.py --only serve",
    },
    {
        "snapshot": "BENCH_serve.json",
        "section": "profiler_overhead",
        "what": "the 99 Hz sampling profiler",
        "limit_pct": 5.0,
        "remedy": "cheapen repro.obs.prof._sample_once, then re-run "
        "run_bench.py --only serve",
    },
    {
        "snapshot": "BENCH_pipeline.json",
        "section": "serving_throughput",
        "what": "arming the pipeline",
        "limit_pct": 5.0,
        "remedy": "trim the hub tap, then re-run "
        "run_bench.py --only pipeline",
    },
    {
        "snapshot": "BENCH_drift.json",
        "section": "serving_throughput",
        "what": "the drift monitor",
        "limit_pct": 5.0,
        "remedy": "trim the monitor tap, then re-run "
        "run_bench.py --only drift",
    },
)


def budget_breaches(snapshots: Dict[str, dict]) -> List[str]:
    """One message per budget a snapshot (keyed by filename) breaches.

    A missing snapshot or section binds nothing.
    """
    breaches = []
    for budget in OVERHEAD_BUDGETS:
        section = (snapshots.get(budget["snapshot"]) or {}).get(
            budget["section"]
        )
        if not section or "overhead_pct" not in section:
            continue
        pct = float(section["overhead_pct"])
        if pct > budget["limit_pct"]:
            breaches.append(
                f"{budget['what']} costs {pct:.2f}% of batch-"
                f"{section.get('batch_size', BATCH)} throughput per "
                f"{budget['snapshot']} (limit {budget['limit_pct']:.0f}%)"
                f" — {budget['remedy']}"
            )
    return breaches


class BenchAborted(RuntimeError):
    """A server failed its bit-identity check or a timed request failed."""


# -- the served model, timed runs, pairs -----------------------------------


@dataclass
class ServedModel:
    """The one model every HTTP bench serves, and its request batch."""

    registry: ModelRegistry
    model_id: str
    instances: List[List[float]]
    expected: List[float]  #: tree.predict(instances)
    actuals: List[float]  #: expected plus N(0, 0.05) noise

    def spec(self, duration_s: float, labelled: bool = False) -> LoadConfig:
        """A closed-loop batch-64 spec; ``url`` is set per run."""
        return LoadConfig(
            url="",
            duration_s=duration_s,
            connections=PAIR_CONNECTIONS,
            batch_rows=BATCH,
            instances=self.instances,
            actuals=self.actuals if labelled else None,
        )


def served_model(work: Path) -> ServedModel:
    """Fit the cpu2006 tree and publish it into ``work/registry``."""
    import numpy as np

    from repro.mtree.tree import ModelTree, ModelTreeConfig
    from repro.workloads.spec_cpu2006 import spec_cpu2006
    from repro.workloads.suite import SuiteGenerationConfig

    data = spec_cpu2006().generate(
        SuiteGenerationConfig(total_samples=6000, seed=20080402)
    )
    tree = ModelTree(ModelTreeConfig(min_leaf=40)).fit_sample_set(data)
    registry = ModelRegistry(work / "registry")
    record = registry.publish(
        tree,
        metadata={
            "suite": "cpu2006",
            "origin": "run_bench",
            "train_y": {
                "n": len(data),
                "mean": float(data.y.mean()),
                "var": float(data.y.var(ddof=1)),
            },
        },
    )
    rng = np.random.default_rng(99)
    rows = data.X[rng.integers(0, len(data), size=BATCH)]
    expected = tree.predict(rows)
    return ServedModel(
        registry=registry,
        model_id=record.model_id,
        instances=rows.tolist(),
        expected=expected.tolist(),
        actuals=(expected + rng.normal(0.0, 0.05, BATCH)).tolist(),
    )


@contextmanager
def serving(server, model: ServedModel):
    """Start a ModelServer or ClusterSupervisor, check it, yield its URL."""
    with server:
        try:
            check = verify_bit_equality(
                server.url, "latest", model.instances, model.expected
            )
        except OSError as error:
            raise BenchAborted(f"{server.url}: {error}") from error
        if not check["identical"]:
            raise BenchAborted(
                f"{server.url}: predictions differ from ModelTree.predict"
            )
        yield server.url


def timed(spec: LoadConfig, url: str) -> LoadResult:
    """One run_load against ``url``; any failed request aborts."""
    result = run_load(replace(spec, url=url))
    if result.errors or not result.requests:
        raise BenchAborted(
            f"{url}: {result.errors} of {result.requests + result.errors} "
            "request(s) failed"
        )
    return result


def paired(
    spec: LoadConfig,
    reps: int,
    off_url: str,
    on_url: str,
    on_context: Callable = nullcontext,
) -> Dict[str, object]:
    """Median on/off rows/s ratio over ``reps`` alternating burst pairs.

    ``on_context`` wraps each "on" burst (the profiler toggles this
    way; two-server pairs leave it a no-op).
    """
    for url in {off_url, on_url}:  # warm both sides off the clock
        timed(spec, url)
    rates: Dict[bool, List[float]] = {False: [], True: []}
    ratios = []
    for rep in range(reps):
        pair = {}
        for on in (False, True) if rep % 2 == 0 else (True, False):
            with on_context() if on else nullcontext():
                pair[on] = timed(
                    spec, on_url if on else off_url
                ).achieved_rows_per_s
            rates[on].append(pair[on])
        ratios.append(pair[True] / pair[False])
        print(
            f"  pair {rep + 1}/{reps}: off {pair[False]:9.0f}  "
            f"on {pair[True]:9.0f} rows/s  ratio {ratios[-1]:.4f}"
        )
    median = statistics.median(ratios)
    print(f"  overhead {100.0 * (1.0 - median):+.2f}%")
    return {
        "batch_size": len(spec.instances),
        "connections": spec.connections,
        "burst_s": spec.duration_s,
        "reps": reps,
        "rows_per_s_off": statistics.median(rates[False]),
        "rows_per_s_on": statistics.median(rates[True]),
        "throughput_ratios": sorted(ratios),
        "median_throughput_ratio": median,
        "overhead_pct": 100.0 * (1.0 - median),
    }


# -- the benches -----------------------------------------------------------


def _round_times(fn: Callable, rounds: int, iters: int = 1) -> List[float]:
    """Per-call seconds of each of ``rounds`` rounds of ``iters`` calls."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        times.append((time.perf_counter() - start) / iters)
    return times


def bench_microperf(args, work: Path) -> Dict[str, object]:
    from repro.characterization.profile import profile_sample_set
    from repro.mtree.tree import ModelTree, ModelTreeConfig
    from repro.obs.metrics import get_registry, histogram
    from repro.workloads.spec_cpu2006 import spec_cpu2006
    from repro.workloads.suite import SuiteGenerationConfig

    suite = spec_cpu2006()
    data = suite.generate(SuiteGenerationConfig(total_samples=10_000, seed=77))
    tree = ModelTree(ModelTreeConfig(min_leaf=40)).fit_sample_set(data)
    operations = {
        "suite_generation": lambda: suite.generate(
            SuiteGenerationConfig(total_samples=10_000, seed=5)
        ),
        "tree_fit": lambda: ModelTree(
            ModelTreeConfig(min_leaf=40)
        ).fit_sample_set(data),
        "predict": lambda: tree.predict(data.X),
        "predict_compiled": lambda: tree.predict(data.X, compiled=True),
        "predict_recursive": lambda: tree.predict(data.X, compiled=False),
        "assign_leaves": lambda: tree.assign_leaves(data.X),
        "profile": lambda: profile_sample_set(tree, data),
    }
    results = {}
    for name, fn in operations.items():
        times = _round_times(fn, args.rounds)
        track = histogram(f"microperf.{name}_s")
        for elapsed in times:
            track.observe(elapsed)
        results[name] = {
            "best_s": min(times),
            "mean_s": sum(times) / len(times),
            "rounds": args.rounds,
            "all_s": times,
        }
        print(f"  {name:20s} best {min(times) * 1e3:9.2f} ms")
    sweep = {}
    for batch in MICRO_SWEEP_BATCHES:
        Xb = data.X[:batch]
        # Enough calls per round to dominate timer overhead at small
        # batches without stretching the large ones.
        iters = max(1, 4096 // batch)
        tree.predict(Xb)  # warm the compiled cache
        compiled_s, recursive_s = (
            min(_round_times(fn, args.rounds, iters))
            for fn in (
                lambda: tree.predict(Xb),
                lambda: tree.predict(Xb, compiled=False),
            )
        )
        histogram(f"microperf.predict_compiled_b{batch}_s").observe(compiled_s)
        histogram(f"microperf.predict_recursive_b{batch}_s").observe(
            recursive_s
        )
        sweep[str(batch)] = {
            "compiled_s": compiled_s,
            "recursive_s": recursive_s,
            "speedup": recursive_s / compiled_s,
        }
        print(
            f"  batch {batch:6d}  compiled {compiled_s * 1e6:9.1f} us  "
            f"speedup {recursive_s / compiled_s:5.2f}x"
        )
    return {
        "results": results,
        "compiled_sweep": sweep,
        "metrics": get_registry().as_records(),
    }


def _engine_counters() -> Dict[str, float]:
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return {
        name: registry.counter(f"serve.engine.{name}").value
        for name in ("batches", "rows")
    }


def bench_serve(args, work: Path) -> Dict[str, object]:
    from repro.obs.prof import SamplingProfiler
    from repro.serve.api import ModelServer

    model = served_model(work)
    results = {}
    with serving(ModelServer(model.registry, port=0), model) as url:
        for rows in SERVE_BATCHES:
            # Each request sends the next ``rows`` rows of the batch, so
            # the monitored server sees the batch's leaf mix at every
            # size, not one row's leaf.
            spec = replace(model.spec(args.duration), batch_rows=rows)
            before = _engine_counters()
            row = timed(spec, url).as_dict()
            after = _engine_counters()
            batches = after["batches"] - before["batches"]
            row["engine_batches"] = batches
            row["rows_per_engine_batch"] = (
                (after["rows"] - before["rows"]) / batches
                if batches
                else float("nan")
            )
            results[str(rows)] = row
            print(
                f"  batch {rows:3d}: p50 {row['latency_p50_ms']:6.2f} ms  "
                f"p99 {row['latency_p99_ms']:6.2f} ms  "
                f"{row['achieved_rows_per_s']:10.0f} rows/s"
            )

    @contextmanager
    def profiling():
        profiler = SamplingProfiler(hz=PROFILER_HZ).start()
        try:
            yield
        finally:
            profiler.stop()

    spec = model.spec(BURST_S)
    print("  telemetry: event log on vs off")
    with serving(
        ModelServer(model.registry, port=0, monitor=False), model
    ) as off, serving(
        ModelServer(
            model.registry,
            port=0,
            monitor=False,
            events_path=str(work / "events.jsonl"),
        ),
        model,
    ) as on:
        telemetry = paired(spec, args.reps, off, on)
    print(f"  profiler: {PROFILER_HZ} Hz sampling on vs off")
    with serving(
        ModelServer(model.registry, port=0, monitor=False), model
    ) as url:
        profiler = paired(spec, args.reps, url, url, profiling)
    return {
        "batch_sizes": list(SERVE_BATCHES),
        "results": results,
        "telemetry_overhead": telemetry,
        "profiler_overhead": profiler,
    }


def bench_drift(args, work: Path) -> Dict[str, object]:
    import numpy as np

    from repro.drift.monitor import (
        DriftMonitor,
        DriftMonitorConfig,
        ModelProfile,
    )
    from repro.serve.api import ModelServer
    from repro.stats.transfer import SampleMoments

    monitor = DriftMonitor(
        ModelProfile(
            model_id="run_bench", training_y=SampleMoments(1000, 2.0, 0.49)
        ),
        DriftMonitorConfig(window=WINDOW),
    )
    rng = np.random.default_rng(7)
    traffic = [
        (p, p + rng.normal(0.0, 0.05, BATCH))
        for p in (
            rng.normal(2.0, 0.7, BATCH) for _ in range(MONITOR_BATCHES)
        )
    ]
    # Fill the window first so evictions and the full detector battery
    # are what gets timed.
    for predictions, actuals in traffic[: WINDOW // BATCH]:
        monitor.observe(predictions, actuals)
    start = time.perf_counter()
    for predictions, actuals in traffic:
        monitor.observe(predictions, actuals)
    elapsed = time.perf_counter() - start
    records = MONITOR_BATCHES * BATCH
    monitor_overhead = {
        "window": WINDOW,
        "batch": BATCH,
        "batches": MONITOR_BATCHES,
        "records": records,
        "per_record_us": 1e6 * elapsed / records,
        "per_batch_ms": 1e3 * elapsed / MONITOR_BATCHES,
        "final_verdict": monitor.verdict.value,
    }
    print(f"  monitor: {monitor_overhead['per_record_us']:.2f} us/record")

    model = served_model(work)
    print("  serving: drift monitor on vs off")
    with serving(
        ModelServer(model.registry, port=0, monitor=False), model
    ) as off, serving(ModelServer(model.registry, port=0), model) as on:
        serving_throughput = paired(
            model.spec(BURST_S, labelled=True), args.reps, off, on
        )
    return {
        "monitor_overhead": monitor_overhead,
        "serving_throughput": serving_throughput,
    }


def bench_pipeline(args, work: Path) -> Dict[str, object]:
    import io

    from repro.experiments.config import ExperimentConfig
    from repro.pipeline.replay import run_pipeline_replay
    from repro.serve.api import ModelServer

    start = time.perf_counter()
    summary = run_pipeline_replay(
        ModelRegistry(work / "replay"),
        "cpu2006",
        "omp2001",
        config=ExperimentConfig().scaled(REPLAY_SCALE),
        out=io.StringIO(),
    )
    elapsed = time.perf_counter() - start
    if not summary["promoted"]:
        raise BenchAborted(
            "the cpu2006 -> omp2001 replay did not promote; fix the "
            "pipeline before snapshotting its cost"
        )
    loop_closure = {
        "scale": REPLAY_SCALE,
        "train_suite": "cpu2006",
        "traffic_suite": "omp2001",
        "window": WINDOW,
        "wall_s": elapsed,
        "records_replayed": summary["records"],
        "records_per_s": summary["records"] / elapsed,
        "promotions": len(summary["promotions"]),
        "final_state": summary["state"],
    }
    print(f"  loop closure: {elapsed:.2f} s, {summary['records']} records")

    model = served_model(work)
    print("  serving: pipeline armed vs off")
    with serving(ModelServer(model.registry, port=0), model) as off, serving(
        ModelServer(model.registry, port=0, pipeline=True), model
    ) as on:
        serving_throughput = paired(
            model.spec(BURST_S, labelled=True), args.reps, off, on
        )
    return {
        "loop_closure": loop_closure,
        "serving_throughput": serving_throughput,
    }


def bench_loadbench(args, work: Path) -> Dict[str, object]:
    from repro.cluster import ClusterConfig, ClusterSupervisor

    model = served_model(work)

    def cluster(workers: int) -> ClusterSupervisor:
        return ClusterSupervisor(
            ClusterConfig(
                registry_dir=str(model.registry.root),
                workers=workers,
                port=0,
                monitor=False,
            )
        )

    spec = replace(model.spec(args.duration), connections=CURVE_CONNECTIONS)
    saturation = {}
    for workers in args.workers:
        supervisor = cluster(workers)
        with serving(supervisor, model) as url:
            result = timed(spec, url).as_dict()
            saturation[str(workers)] = {
                "workers": workers,
                "socket_mode": supervisor.socket_mode,
                "result": result,
                "bit_identical": True,
            }
        print(
            f"  workers={workers}: {result['achieved_rows_per_s']:10.0f} "
            f"rows/s  p99 {result['latency_p99_ms']:.2f} ms"
        )
    widest = max(args.workers)
    with serving(cluster(widest), model) as url:
        open_loop = timed(replace(spec, mode="open", rate=OPEN_RATE), url)
    print(
        f"  open loop at {open_loop.offered_rps:.1f} req/s (workers="
        f"{widest}): p99 {open_loop.latency_p99_ms:.2f} ms"
    )
    return {
        "batch_rows": BATCH,
        "connections": CURVE_CONNECTIONS,
        "duration_s": args.duration,
        "model_id": model.model_id,
        "saturation": saturation,
        "open_loop": {**open_loop.as_dict(), "workers": widest},
    }


#: bench name -> (snapshot schema, bench function), in ledger order.
BENCHES = {
    "microperf": ("repro-microperf-v2", bench_microperf),
    "serve": ("repro-servebench-v3", bench_serve),
    "drift": ("repro-driftbench-v2", bench_drift),
    "pipeline": ("repro-pipelinebench-v2", bench_pipeline),
    "loadbench": ("repro-loadbench-v1", bench_loadbench),
}

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=",".join(BENCHES),
        help=f"comma-separated benches (default all: {','.join(BENCHES)})",
    )
    parser.add_argument(
        "--out-dir",
        default=str(Path(__file__).parent),
        help="where BENCH_<name>.json go (default benchmarks/)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="ledger path (default benchmarks/LEDGER.jsonl)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending headline numbers to the ledger",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=31,
        help="on/off burst pairs per overhead (median ratio reported)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="seconds per serve-sweep and saturation-curve point",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="cluster worker counts for the saturation curve",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="microperf rounds per operation (best is reported)",
    )
    args = parser.parse_args(argv)
    names = [name.strip() for name in args.only.split(",") if name.strip()]
    unknown = sorted(set(names) - set(BENCHES))
    if not names or unknown:
        parser.error(
            f"--only takes names from {','.join(BENCHES)}; got {args.only!r}"
        )
    if min(args.reps, args.rounds, *args.workers) < 1:
        parser.error("--reps, --rounds and --workers must be >= 1")
    if args.duration <= 0:
        parser.error("--duration must be positive")

    selected = [name for name in BENCHES if name in names]
    snapshots = {}
    try:
        with tempfile.TemporaryDirectory(prefix="run-bench-") as tmp:
            for name in selected:
                schema, bench = BENCHES[name]
                print(f"{name}:")
                snapshots[BENCH_SNAPSHOTS[name]] = {
                    "schema": schema,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpu_count": os.cpu_count(),
                    **bench(args, Path(tmp) / name),
                }
    except BenchAborted as error:
        print(f"run_bench: aborted, nothing written: {error}", file=sys.stderr)
        return 2

    ledger = None if args.no_ledger else PerfLedger(
        args.ledger or DEFAULT_LEDGER_PATH
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in selected:
        filename = BENCH_SNAPSHOTS[name]
        path = out_dir / filename
        path.write_text(json.dumps(snapshots[filename], indent=2) + "\n")
        print(f"wrote {path}")
        if ledger is not None:
            ledger.append(
                name,
                headline_metrics(name, snapshots[filename]),
                meta={
                    "source": filename,
                    "reps": args.reps,
                    "rounds": args.rounds,
                    "duration_s": args.duration,
                },
            )
    if ledger is not None:
        print(f"ledger: appended {len(snapshots)} entries to {ledger.path}")
    breaches = budget_breaches(snapshots)
    for breach in breaches:
        print(f"budget breached: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
