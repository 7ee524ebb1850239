"""Shared full-scale context for the benchmark harness.

The benchmarks regenerate every table and figure of the paper at the
library's full default scale (40k CPU2006 intervals, 24k OMP2001
intervals, 10% train splits).  The context — data generation plus the
two fitted trees — is built once per session; each benchmark times its
own regeneration step and writes the rendered artifact to
``benchmarks/output/``.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from run_bench import budget_breaches


@pytest.fixture(scope="session", autouse=True)
def compiled_perf_guard() -> None:
    """Perf smoke guard: the compiled kernel must beat the recursive
    walk at the serving batch size (256, the engine's max_batch).

    A regression here means every serving flush, drift replay and
    transferability cell silently pays the recursive price — fail the
    whole benchmark session rather than record misleading artifacts.
    """
    import numpy as np

    from repro.mtree.tree import ModelTree, ModelTreeConfig

    rng = np.random.default_rng(42)
    X = rng.normal(size=(2000, 8))
    y = X @ rng.normal(size=8) + np.where(X[:, 0] > 0, 2.0, -1.0)
    tree = ModelTree(ModelTreeConfig(min_leaf=25)).fit(
        X, y, [f"f{i}" for i in range(8)]
    )
    batch = X[:256]
    tree.predict(batch)  # warm the compiled cache
    tree.predict(batch, compiled=False)

    def best_of(fn, repeats: int = 30) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    compiled_s = best_of(lambda: tree.predict(batch))
    recursive_s = best_of(lambda: tree.predict(batch, compiled=False))
    if compiled_s > recursive_s:
        pytest.fail(
            "compiled predict slower than the recursive walk at batch "
            f"256: compiled {compiled_s * 1e6:.1f} us vs recursive "
            f"{recursive_s * 1e6:.1f} us — the repro.mtree.compiled "
            "kernel has regressed"
        )


@pytest.fixture(scope="session", autouse=True)
def snapshot_overhead_guard() -> None:
    """Overhead cost guards: every committed snapshot must hold the
    budgets in ``run_bench.OVERHEAD_BUDGETS``.

    Each is the median of paired, alternating on/off bursts written by
    ``run_bench.py`` — deterministic at session time, unlike a live
    HTTP measurement, whose run-to-run variance at this scale is of
    the same order as the budget being enforced.  A breach means the
    zero-overhead-when-disabled discipline leaked work onto a hot path
    — fail the whole benchmark session rather than record misleading
    artifacts.  Missing snapshots or sections (fresh checkout,
    pre-feature snapshot) bind nothing.
    """
    snapshots = {
        path.name: json.loads(path.read_text())
        for path in Path(__file__).parent.glob("BENCH_*.json")
    }
    breaches = budget_breaches(snapshots)
    if breaches:
        pytest.fail("; ".join(breaches))


@pytest.fixture(scope="session", autouse=True)
def perf_ledger_guard() -> None:
    """Regression guard: ``repro perf check`` over the committed
    ledger must be clean before the session records new artifacts.

    The ledger check is noise-aware (median baseline, MAD band), so a
    failure here is a real drift of a headline number, not scheduler
    jitter; fix or consciously re-baseline (regenerate the snapshot
    and append) before benchmarking on top of it.
    """
    from repro.obs.ledger import DEFAULT_LEDGER_PATH, check_ledger

    if not DEFAULT_LEDGER_PATH.exists():  # pragma: no cover
        return
    findings = check_ledger(DEFAULT_LEDGER_PATH)
    regressions = [f for f in findings if f.status == "regression"]
    if regressions:
        lines = ", ".join(
            f"{f.bench}.{f.metric} {f.value:.4g} vs median "
            f"{f.baseline:.4g}"
            for f in regressions
        )
        pytest.fail(
            f"performance ledger shows {len(regressions)} "
            f"regression(s): {lines} — see `repro perf check`"
        )


@pytest.fixture(scope="session", autouse=True)
def cluster_scaling_guard() -> None:
    """Scaling guard: the committed loadbench curve must show a
    4-worker cluster at >= 2x single-worker rows/s on the box that
    recorded it.

    Does not bind when the box or the snapshot's recorded ``cpu_count``
    has fewer than 4 CPUs — N replicas time-sharing fewer cores cannot
    scale — or when the snapshot lacks the curve; it then warns, so the
    session summary shows the claim unverified rather than passed.  On
    a >= 4-CPU box a sub-2x curve means the cluster's horizontal
    scaling has regressed (accept contention, leader bottleneck, GIL
    leak into the fork path): re-profile with ``run_bench.py --only
    loadbench`` before recording new artifacts.
    """
    import os

    path = Path(__file__).parent / "BENCH_loadbench.json"
    if not path.exists():  # pragma: no cover - fresh checkout
        return
    snapshot = json.loads(path.read_text())
    recorded_cpus = snapshot.get("cpu_count") or 0
    host_cpus = os.cpu_count() or 1
    if host_cpus < 4 or recorded_cpus < 4:
        # The guard is vacuous without the cores to scale across; a
        # session-scoped pytest.skip would skip every benchmark, so it
        # warns and does not bind.
        warnings.warn(
            "cluster_scaling_guard did not bind: the >= 2x 4-worker "
            f"scaling claim is unverified (host CPUs {host_cpus}, "
            f"BENCH_loadbench.json cpu_count {recorded_cpus}; both "
            "need >= 4)"
        )
        return
    curve = snapshot.get("saturation") or {}
    single = (curve.get("1") or {}).get("result") or {}
    quad = (curve.get("4") or {}).get("result") or {}
    base = single.get("achieved_rows_per_s")
    wide = quad.get("achieved_rows_per_s")
    if not base or not wide:
        warnings.warn(
            "cluster_scaling_guard did not bind: BENCH_loadbench.json "
            "has no 1- and 4-worker saturation points"
        )
        return
    if wide < 2.0 * base:
        pytest.fail(
            f"4-worker cluster reached {wide:,.0f} rows/s vs "
            f"{base:,.0f} single-worker ({wide / base:.2f}x, "
            "limit >= 2x) per BENCH_loadbench.json — horizontal "
            "scaling has regressed; re-profile with "
            "run_bench.py --only loadbench"
        )


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    context = ExperimentContext(ExperimentConfig())
    # Force the expensive artifacts once, outside any timing loop.
    context.tree(context.CPU)
    context.tree(context.OMP)
    return context


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    path = Path(__file__).parent / "output"
    path.mkdir(exist_ok=True)
    return path


def write_artifact(artifact_dir: Path, name: str, text: str) -> None:
    (artifact_dir / name).write_text(text + "\n")
