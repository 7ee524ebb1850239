"""The serve workloads: ``serve-b64`` and ``drift-incident``.

Both serve the model ``repro publish cpu2006`` trains, from a separate
``repro serve`` process driven over keep-alive HTTP.

* ``serve-b64``: closed loop over two connections with no think time.
  Each request carries 64 distinct CPU2006 test-split rows.  The server
  runs with ``--no-monitor``, so only the request path works.
* ``drift-incident``: open loop with one sender and Poisson arrivals at
  10 req/s.  Each request carries 16 OMP2001 test-split rows and their
  actual CPI.  The server runs with ``--pipeline --events``: the CPU2006
  champion fails to transfer, and the pipeline retrains on the traffic
  and promotes a candidate while the load runs.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import gates
import load
import program
import spans as sp
from spans import mean, percentile

SETUP_SPAWNS = 5
CONNECTIONS = 2
B64_ROWS = 64
DRIFT_ROWS = 16
DRIFT_RATE = 10.0
PATH = "/v1/models/latest/predict"


class Traffic:
    """The seeded requests of one run: bodies and the rows each carries."""

    def __init__(self, workload: str, seed: int, schedule_seed: int,
                 seconds: float, cache: Path) -> None:
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(ExperimentConfig(), cache_dir=str(cache))
        rng = np.random.default_rng(seed)
        self.schedule: List[float] = []
        if workload == "serve-b64":
            self.X = ctx.test_set("cpu2006").X
            order = rng.permutation(len(self.X))
            self.rows = [order[i:i + B64_ROWS] for i in
                         range(0, len(order) - B64_ROWS + 1, B64_ROWS)]
            self.bodies = [_body(self.X[r]) for r in self.rows]
            return
        test = ctx.test_set("omp2001")
        n = int(round(DRIFT_RATE * seconds))
        passes = n * DRIFT_ROWS // len(test.X) + 1
        order = np.concatenate(
            [rng.permutation(len(test.X)) for _ in range(passes)]
        )
        self.X = test.X
        self.rows = [order[i * DRIFT_ROWS:(i + 1) * DRIFT_ROWS]
                     for i in range(n)]
        self.bodies = [_body(test.X[r], test.y[r]) for r in self.rows]
        # A Poisson process conditioned on n arrivals in [0, seconds) is
        # n sorted uniform times: every run offers the same request count.
        # The schedule has its own seed: whether a request meets the
        # framing stall depends on how soon it follows the previous
        # reply, so a schedule that changed with the traffic seed would
        # move the tail more than any change to the server.
        schedule_rng = np.random.default_rng(schedule_seed)
        self.schedule = sorted(schedule_rng.uniform(0.0, seconds, n).tolist())

    def rows_of(self, index: int) -> np.ndarray:
        return self.X[self.rows[index % len(self.rows)]]


def _body(X: np.ndarray, y: Optional[np.ndarray] = None) -> bytes:
    payload: Dict[str, list] = {"instances": X.tolist()}
    if y is not None:
        payload["actuals"] = y.tolist()
    return json.dumps(payload).encode()


def _serve_args(workload: str, registry: Path, events: Path) -> List[str]:
    args = ["--registry", str(registry), "--port", "0"]
    if workload == "serve-b64":
        return args + ["--no-monitor"]
    return args + ["--pipeline", "--events", str(events)]


def measure_setup(workload: str, work: Path, pristine: Path,
                  probe: bytes) -> List[float]:
    """Seconds from spawning ``repro serve`` to its first 200 predict."""
    samples = []
    for k in range(SETUP_SPAWNS):
        registry = work / f"setup{k}"
        shutil.copytree(pristine, registry)
        argv = program.repro(
            "serve", *_serve_args(workload, registry, work / f"setup{k}.jsonl")
        )
        server = program.Server(argv, work / f"setup{k}.log")
        try:
            # The server prints its address once it accepts requests;
            # an error status raises instead of returning.
            server.post(PATH, probe)
            samples.append(time.perf_counter() - server.started)
        finally:
            server.stop()
    return samples


def drive(workload: str, work: Path, pristine: Path, champion: str,
          traffic: Traffic, seconds: float, tag: str,
          spans_path: Optional[Path] = None) -> dict:
    """One server lifetime under load, and what it reported."""
    registry = work / f"registry-{tag}"
    shutil.copytree(pristine, registry)
    args = _serve_args(workload, registry, work / f"events-{tag}.jsonl")
    argv = (program.repro("serve", *args) if spans_path is None else
            program.launcher("serve", str(spans_path), "--", *args))
    server = program.Server(argv, work / f"serve-{tag}.log")
    try:
        server.get("/healthz")
        before = server.counters()
        if workload == "serve-b64":
            results, wall, connects = load.closed_loop(
                server.host, server.port, PATH, traffic.bodies, seconds,
                CONNECTIONS, tag,
            )
        else:
            results, wall, connects = load.open_loop(
                server.host, server.port, PATH, traffic.bodies,
                traffic.schedule, tag,
            )
        after = server.counters()
        drift = server.get_json(f"/v1/models/{champion}/drift")
    finally:
        code, rss_mb = server.stop()
    return {
        "results": results, "wall": wall, "connects": connects,
        "counts": {k: v - before.get(k, 0.0) for k, v in after.items()},
        "drift": drift, "registry": registry, "rss_mb": rss_mb, "exit": code,
    }


def _check(workload: str, run: dict, traffic: Traffic,
           champion: str) -> List[str]:
    failures = [] if run["exit"] == 0 else [f"server exited {run['exit']}"]
    predict = gates.registry_predict(run["registry"])
    if workload == "serve-b64":
        return failures + gates.predictions(
            run["results"], traffic.rows_of, predict, champion=champion
        )
    return (failures
            + gates.predictions(run["results"], traffic.rows_of, predict)
            + gates.promotions(run["registry"]))


def _headline(workload: str, run: dict, slo_s: float) -> Tuple[dict, dict]:
    """End-to-end metrics, and the workload's own statistics with units."""
    results = run["results"]
    ok = [r for r in results if r.ok]
    if workload == "serve-b64":
        rows, tail_q = B64_ROWS, 99
        latencies = [r.round_trip_s for r in ok]
    else:
        rows, tail_q = DRIFT_ROWS, 95
        latencies = [r.latency_s for r in ok]
    tail_ms = percentile(latencies, tail_q) * 1e3
    ok_share = (sum(1 for r in ok if r.latency_s <= slo_s)
                / max(1, len(results)))
    metrics = {
        "rows_per_s": rows * len(ok) / run["wall"],
        "latency_mean_ms": mean(latencies) * 1e3,
        "latency_tail_ms": tail_ms,
        "ok_share": ok_share,
        "peak_rss_mb": run["rss_mb"],
    }
    # The error rate reads 0 on a healthy run, so it is printed, not bounded.
    extra = {
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        f"latency_p{tail_q}_ms": (tail_ms, "ms"),
        "slo_ok_share": (ok_share, "fraction"),
        "error_rate": ((len(results) - len(ok)) / max(1, len(results)),
                       "fraction"),
    }
    return metrics, extra


def _remediation(run: dict, traffic: Traffic, champion: str) -> Optional[float]:
    """Scheduled send time of the first request another model answered."""
    for result in run["results"]:
        if result.ok and result.model_id != champion:
            return traffic.schedule[result.index]
    return None


def _counts(run: dict) -> Dict[str, float]:
    """Counts from the server's own ``/metrics`` and drift report."""
    c = run["counts"]
    batches = c.get("serve_engine_batches", 0.0)
    transitions = run["drift"].get("transitions", [])
    return {
        "serve.engine.batches": batches,
        "serve.engine.rows_per_batch":
            c.get("serve_engine_rows", 0.0) / batches if batches else 0.0,
        "serve.registry.loads": c.get("serve_registry_loads", 0.0),
        "serve.registry.lru_hits": c.get("serve_registry_cache_hits", 0.0),
        "pipeline.retrains": c.get("pipeline_retrains", 0.0),
        "pipeline.promotions": c.get("pipeline_promotions", 0.0),
        "pipeline.rejections": c.get("pipeline_rejections", 0.0),
        "drift.transitions": float(len(transitions)),
        "drift.failed_entries": float(sum(
            1 for t in transitions if t.get("to") == "transfer_failed")),
    }


def _layers(s: sp.Spans, run: dict) -> tuple:
    """Per-layer metrics of a traced run, and the round-trip breakdown."""
    results = run["results"]
    ok = [r for r in results if r.ok]
    ms, us = 1e3, 1e6

    def durations(records: List[tuple]) -> List[float]:
        return [s.duration(r) for r in records]

    handlers = s.layer(sp.API)
    n = max(1, len(handlers))
    reads, writes = s.outermost(sp.REGISTRY_READ), s.outermost(sp.REGISTRY_WRITE)
    predicts, fits = s.layer(sp.PREDICT), s.layer(sp.FIT)
    observes = s.layer(sp.OBSERVE)
    flushes = s.layer(sp.FLUSH)
    m = {
        "client.send_ms_p50": percentile([r.send_s for r in ok], 50) * ms,
        "client.ttfb_ms_p50": percentile([r.ttfb_s for r in ok], 50) * ms,
        "client.ttfb_ms_p99": percentile([r.ttfb_s for r in ok], 99) * ms,
        "client.body_ms_p50": percentile([r.body_s for r in ok], 50) * ms,
        "client.body_ms_p99": percentile([r.body_s for r in ok], 99) * ms,
        "client.lag_ms_p99": percentile([r.lag_s for r in results], 99) * ms,
        "client.connects": float(run["connects"]),
        "serve.api.requests": float(len(handlers)),
        "serve.api.handler_ms_p50": percentile(durations(handlers), 50) * ms,
        "serve.api.handler_ms_p99": percentile(durations(handlers), 99) * ms,
        "serve.api.self_ms_p50":
            percentile([s.self_s(h) for h in handlers], 50) * ms,
        "serve.registry.reads_per_request": len(reads) / n,
        "serve.registry.read_us_p50": percentile(durations(reads), 50) * us,
        "serve.registry.read_ms_per_request": sum(durations(reads)) / n * ms,
        "serve.registry.writes": float(len(writes)),
        "serve.registry.write_ms_p50": percentile(durations(writes), 50) * ms,
        "serve.engine.submit_us_p50":
            percentile(durations(s.layer(sp.SUBMIT)), 50) * us,
        "serve.engine.wait_ms_p50":
            percentile(durations(s.layer(sp.WAIT)), 50) * ms,
        "serve.engine.wait_ms_p99":
            percentile(durations(s.layer(sp.WAIT)), 99) * ms,
        "mtree.predict.calls": float(len(predicts)),
        "mtree.predict.us_p50": percentile(durations(predicts), 50) * us,
        "mtree.predict.rows_mean": mean([r[7] for r in predicts]),
        "mtree.predict.busy_s": s.busy_s(sp.PREDICT),
        "mtree.fit.calls": float(len(fits)),
        "mtree.fit.ms_p50": percentile(durations(fits), 50) * ms,
        "mtree.fit.busy_s": s.busy_s(sp.FIT),
        "drift.observe.calls": float(len(observes)),
        "drift.observe.us_p50": percentile(durations(observes), 50) * us,
        "drift.observe.busy_s": s.busy_s(sp.OBSERVE),
        "pipeline.retrain_ms_max":
            max(durations(s.inside(sp.FIT, sp.OBSERVE)), default=0.0) * ms,
        "pipeline.buffer_extend_us_p50":
            percentile(durations(s.layer(sp.BUFFER)), 50) * us,
        "pipeline.journal_writes": float(len(s.layer(sp.JOURNAL))),
        "pipeline.journal_write_ms_p50":
            percentile(durations(s.layer(sp.JOURNAL)), 50) * ms,
        "obs.events.appends": float(len(s.layer(sp.APPEND))),
        "obs.events.append_us_p50":
            percentile(durations(s.layer(sp.APPEND)), 50) * us,
        "obs.events.flushes": float(len(flushes)),
        "obs.events.flush_ms_p50": percentile(durations(flushes), 50) * ms,
    }
    # Join each request's client round trip to its handler span by the
    # X-Repro-Trace id the client sent; the rest of the trip is the gap.
    round_trip = {r.trace_id: r.round_trip_s for r in ok}
    parts: Dict[str, List[float]] = {}
    gaps, trips = [], []
    for handler in handlers:
        trip = round_trip.get(handler[6])
        if trip is None:
            continue
        trips.append(trip)
        gaps.append(trip - s.duration(handler))
        for layer, value in s.request_parts(handler).items():
            parts.setdefault(layer, []).append(value)
    m["wire.gap_ms_mean"] = mean(gaps) * ms
    breakdown = {"requests": len(trips), "round_trip_ms": mean(trips) * ms,
                 "wire.gap": mean(gaps) * ms}
    breakdown.update({layer: sum(v) / max(1, len(trips)) * ms
                      for layer, v in parts.items()})
    return m, breakdown


def run(workload: str, seed: int, schedule_seed: int, seconds: float,
        trace: bool, work: Path) -> dict:
    from repro.obs.slo import SloConfig

    slo_s = SloConfig().latency_threshold_s
    pristine, cache = work / "pristine", work / "cache"
    champion = program.publish(pristine, cache)
    traffic = Traffic(workload, seed, schedule_seed, seconds, cache)
    outcome: dict = {"notes": []}
    if not trace:
        setup = measure_setup(workload, work, pristine, traffic.bodies[0])
        measured = drive(workload, work, pristine, champion, traffic,
                         seconds, "m")
        outcome["failures"] = _check(workload, measured, traffic, champion)
        metrics, outcome["extra"] = _headline(workload, measured, slo_s)
        metrics["setup_s"] = percentile(setup, 50)
    else:
        spans_path = work / "spans.json"
        plain = drive(workload, work, pristine, champion, traffic,
                      seconds, "u")
        traced = drive(workload, work, pristine, champion, traffic,
                       seconds, "t", spans_path)
        outcome["failures"] = (_check(workload, plain, traffic, champion)
                               + _check(workload, traced, traffic, champion))
        metrics, breakdown = _layers(sp.load(str(spans_path)), traced)
        base, _ = _headline(workload, plain, slo_s)
        with_tracing, outcome["extra"] = _headline(workload, traced, slo_s)
        if workload == "serve-b64":
            ratio = base["rows_per_s"] / max(with_tracing["rows_per_s"], 1e-9)
        else:
            ratio = (with_tracing["latency_tail_ms"]
                     / max(base["latency_tail_ms"], 1e-9))
        metrics["tracing.overhead_pct"] = (ratio - 1.0) * 100.0
        outcome["breakdown"] = breakdown
        measured = traced
    # Counts from the server's own endpoints need no tracing, so both
    # modes report them.
    metrics.update(_counts(measured))
    outcome["metrics"] = metrics
    results = measured["results"]
    outcome["attempted"] = len(results)
    outcome["failed"] = sum(1 for r in results if not r.ok)
    if workload == "drift-incident":
        when = _remediation(measured, traffic, champion)
        metrics["pipeline.remediation_s"] = (
            when if when is not None else measured["wall"])
        if when is None:
            outcome["notes"].append(
                "no promotion during the run: remediation_s is the run length")
        if load.backlog_grew(results, 1.0 / DRIFT_RATE):
            outcome["notes"].append("open-loop backlog grew during the run")
    return outcome
