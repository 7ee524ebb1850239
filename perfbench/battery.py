"""The ``battery`` workload: ``repro all --jobs 2``, the reproduction itself.

Suite generation, M5' fits and the 20 experiments at the default
``ExperimentConfig``, with no HTTP, drift or event log.  One battery
takes a few seconds, so a run repeats it for its whole length and
reports the mean and the slowest.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import List

import gates
import program
import spans as sp
from spans import percentile

SETUP_RUNS = 5
JOBS = 2


def _battery_once(work: Path, k: int) -> dict:
    out = work / f"battery{k}.txt"
    with open(out, "wb") as handle:
        code, wall, rss_mb = program.run(
            program.repro("all", "--jobs", str(JOBS)), handle, 170.0)
    failures = [] if code == 0 else [f"repro all exited {code}"]
    failures += gates.battery_stdout(out.read_bytes())
    return {"wall": wall, "rss_mb": rss_mb, "failures": failures}


def _launch(work: Path, name: str, jobs: int, traced: bool) -> dict:
    out = work / f"{name}.json"
    args = ["battery", str(out), "--jobs", str(jobs)]
    if traced:
        args += ["--spans", str(work / f"{name}.spans.json")]
    code, _, _ = program.run(program.launcher(*args), subprocess.DEVNULL,
                             170.0)
    if code != 0:
        return {"failures": [f"launcher battery {name} exited {code}"]}
    result = json.loads(out.read_text())
    result["failures"] = gates.battery_stdout(result.pop("stdout").encode())
    return result


def _layers(s: sp.Spans, traced: dict, serial: dict, parallel: dict) -> dict:
    predicts, fits = s.layer(sp.PREDICT), s.layer(sp.FIT)
    generations = s.layer(sp.GENERATE)
    cache = traced["cache"]
    # Experiments are the outermost work: what no wrapped layer covers.
    covered = sum(s.duration(r) for r in s.roots())
    return {
        "mtree.predict.calls": float(len(predicts)),
        "mtree.predict.us_p50":
            percentile([s.duration(r) for r in predicts], 50) * 1e6,
        "mtree.predict.rows_mean": sp.mean([r[7] for r in predicts]),
        "mtree.predict.busy_s": s.busy_s(sp.PREDICT),
        "mtree.fit.calls": float(len(fits)),
        "mtree.fit.ms_p50": percentile([s.duration(r) for r in fits], 50) * 1e3,
        "mtree.fit.busy_s": s.busy_s(sp.FIT),
        "workloads.generate.calls": float(len(generations)),
        "workloads.generate.busy_s": s.busy_s(sp.GENERATE),
        "datasets.cache.hits": float(cache["memory_hits"] + cache["disk_hits"]),
        "datasets.cache.misses": float(cache["generations"]),
        "datasets.cache.self_s": s.busy_s(sp.CACHE),
        "baselines.busy_s": s.busy_s(sp.BASELINES),
        "experiments.self_s": sum(traced["timings"]) - covered,
        "experiments.slowest_s": max(serial["timings"]),
        "experiments.parallel_efficiency":
            sum(parallel["timings"]) / (parallel["wall_s"] * JOBS),
        "tracing.overhead_pct":
            (traced["wall_s"] / serial["wall_s"] - 1.0) * 100.0,
    }


def run(workload: str, seed: int, schedule_seed: int, seconds: float,
        trace: bool, work: Path) -> dict:
    if trace:
        parallel = _launch(work, "parallel", JOBS, traced=False)
        serial = _launch(work, "serial", 1, traced=False)
        traced = _launch(work, "traced", 1, traced=True)
        runs = (parallel, serial, traced)
        failures = [f for r in runs for f in r["failures"]]
        metrics = {}
        if not failures:
            metrics = _layers(sp.load(str(work / "traced.spans.json")),
                              traced, serial, parallel)
        return {"failures": failures, "metrics": metrics, "notes": [],
                "attempted": len(runs),
                "failed": sum(1 for r in runs if r["failures"])}

    from repro.experiments.config import ExperimentConfig

    setup: List[float] = []
    for _ in range(SETUP_RUNS):
        code, wall, _ = program.run(program.repro("list"),
                                    subprocess.DEVNULL, 60.0)
        if code != 0:
            raise RuntimeError(f"repro list exited {code}")
        setup.append(wall)
    batteries = []
    start = time.perf_counter()
    while not batteries or time.perf_counter() - start < seconds:
        batteries.append(_battery_once(work, len(batteries)))
    walls = [b["wall"] for b in batteries]
    ok = [b for b in batteries if not b["failures"]]
    config = ExperimentConfig()
    return {
        "failures": [f for b in batteries for f in b["failures"]],
        "metrics": {
            "setup_s": percentile(setup, 50),
            "latency_mean_ms": sp.mean(walls) * 1e3,
            "latency_tail_ms": max(walls) * 1e3,
            "rows_per_s": (config.cpu_samples + config.omp_samples)
            * len(walls) / sum(walls),
            "ok_share": len(ok) / len(batteries),
            "peak_rss_mb": max(b["rss_mb"] for b in batteries),
        },
        "extra": {"battery_s": (sp.mean(walls), "s")},
        "notes": [f"{len(batteries)} batteries, walls "
                  + " ".join(f"{w:.3f}" for w in walls) + " s"],
        "attempted": len(batteries),
        "failed": len(batteries) - len(ok),
    }
