"""Append-only performance ledger — ``repro.obs.ledger``.

The four ``benchmarks/run_*bench.py`` harnesses write point-in-time
``BENCH_*.json`` snapshots; this module turns their headline numbers
into a *time series*.  Every benchmark run appends one JSON line to
``benchmarks/LEDGER.jsonl``, stamped with a lightweight manifest (git
describe, platform, package versions) so any entry still answers
"what produced these numbers?" months later — the same provenance
discipline :mod:`repro.obs.manifest` applies to experiment traces,
applied to the benchmark stream.

On top of the stream, :func:`check_ledger` does *noise-aware*
regression detection, the way arXiv:2401.16690 treats SPEC result
streams as statistical series rather than single points:

* the baseline for a metric is the **median** of its historical
  values (each of which is already a best-of-N or paired-median
  figure from the harness, so single-run jitter is pre-suppressed);
* the tolerance band is ``max(k * 1.4826 * MAD, rel_floor * |median|,
  abs_floor)`` — the MAD term adapts to however noisy this metric has
  actually been on this box, the relative floor keeps near-constant
  histories from producing zero-width bands, and the absolute floor
  keeps already-tiny percentage metrics (paired overhead ratios that
  hover around 0%) from tripping on arithmetic dust;
* direction is inferred from the metric name: ``*_s``/``*_ms``/
  ``*_us``/``*_pct`` regress upward, ``*_per_s``/``*speedup*``
  regress downward — a value *better* than the band is reported as an
  improvement, never a failure.

``repro perf record|log|check`` are the CLI surface; the benchmarks
conftest runs :func:`check_ledger` as a session guard so a regression
fails the bench suite the same way a broken test would.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.durable import append_jsonl, read_jsonl
from repro.obs.manifest import build_info
from repro.obs.metrics import counter

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "DEFAULT_LEDGER_PATH",
    "BENCH_SNAPSHOTS",
    "PerfLedger",
    "CheckConfig",
    "Finding",
    "headline_metrics",
    "check_ledger",
    "render_ledger_log",
    "render_findings",
]

LEDGER_SCHEMA_VERSION = "repro-ledger-v1"

#: Repo-relative home of the committed ledger.
DEFAULT_LEDGER_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "LEDGER.jsonl"

_APPENDS = counter("obs.ledger.appends")
_READ_ERRORS = counter("obs.ledger.read_errors")
_CHECKS = counter("obs.ledger.checks")
_REGRESSIONS = counter("obs.ledger.regressions")

#: bench name -> committed snapshot filename, for ``repro perf record``.
BENCH_SNAPSHOTS = {
    "microperf": "BENCH_microperf.json",
    "serve": "BENCH_serve.json",
    "drift": "BENCH_drift.json",
    "pipeline": "BENCH_pipeline.json",
    "loadbench": "BENCH_loadbench.json",
}


def _manifest_lite() -> Dict[str, Any]:
    info = build_info()
    return {
        "git": info.get("git"),
        "version": info.get("version"),
        "python": info.get("python"),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
    }


class PerfLedger:
    """One append-only JSONL file of benchmark headline metrics.

    Appends and reads go through :mod:`repro.durable`; reads skip
    lines that are not entries (a crashed writer's torn tail) and
    count them on ``obs.ledger.read_errors``.
    """

    def __init__(self, path: Union[str, Path] = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def append(
        self,
        bench: str,
        metrics: Dict[str, float],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Append one entry; returns the record as written."""
        if not metrics:
            raise ValueError(f"refusing to append empty metrics for {bench!r}")
        now = time.time()
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA_VERSION,
            "unix": now,
            "iso": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
            "bench": bench,
            "metrics": {k: float(v) for k, v in sorted(metrics.items())},
            "manifest": _manifest_lite(),
        }
        if meta:
            record["meta"] = meta
        append_jsonl(self.path, record)
        _APPENDS.inc()
        return record

    def entries(self, bench: Optional[str] = None) -> List[Dict[str, Any]]:
        """All parseable entries, oldest first, optionally one bench."""
        records, bad = read_jsonl(self.path)
        _READ_ERRORS.inc(len(bad))
        out: List[Dict[str, Any]] = []
        for record in records:
            if "bench" not in record:
                _READ_ERRORS.inc()
                continue
            if bench is None or record["bench"] == bench:
                out.append(record)
        return out

    def latest(self, bench: str) -> Optional[Dict[str, Any]]:
        entries = self.entries(bench)
        return entries[-1] if entries else None

    def benches(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.entries():
            seen.setdefault(str(record["bench"]), None)
        return list(seen)


# -- headline extraction ---------------------------------------------------


def _get(snapshot: Dict[str, Any], *path: str) -> Optional[float]:
    node: Any = snapshot
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def headline_metrics(bench: str, snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The ledger-worthy numbers of one ``BENCH_*.json`` snapshot.

    Shared by the benchmark runners (append as they write the
    snapshot) and ``repro perf record`` (derive from a committed
    snapshot), so both paths produce identical entries.
    """
    out: Dict[str, float] = {}

    def put(name: str, value: Optional[float]) -> None:
        if value is not None:
            out[name] = value

    if bench == "microperf":
        put("tree_fit_s", _get(snapshot, "results", "tree_fit", "best_s"))
        put(
            "suite_generation_s",
            _get(snapshot, "results", "suite_generation", "best_s"),
        )
        put(
            "predict_compiled_s",
            _get(snapshot, "results", "predict_compiled", "best_s"),
        )
        put(
            "predict_recursive_s",
            _get(snapshot, "results", "predict_recursive", "best_s"),
        )
        # {"64": {"speedup": ...}, ...}; older snapshots nest the
        # sweep inside "results" instead of beside it.
        results = snapshot.get("results")
        sweep = snapshot.get("compiled_sweep") or (
            results.get("compiled_sweep")
            if isinstance(results, dict)
            else None
        )
        for batch in ("64", "256"):
            speedup = _get(sweep or {}, batch, "speedup")
            if speedup is not None:
                out[f"compiled_speedup_b{batch}"] = float(speedup)
    elif bench == "serve":
        # Unit suffix last so metric_direction can judge it.
        put("p50_b64_ms", _get(snapshot, "results", "64", "p50_ms"))
        put("rows_per_s_b64", _get(snapshot, "results", "64", "rows_per_s"))
        put(
            "telemetry_overhead_pct",
            _get(snapshot, "telemetry_overhead", "overhead_pct"),
        )
        put(
            "profiler_overhead_pct",
            _get(snapshot, "profiler_overhead", "overhead_pct"),
        )
    elif bench == "drift":
        put(
            "monitor_per_record_us",
            _get(snapshot, "monitor_overhead", "per_record_us"),
        )
        put(
            "serving_overhead_pct",
            _get(snapshot, "serving_throughput", "overhead_pct"),
        )
    elif bench == "pipeline":
        put("loop_closure_wall_s", _get(snapshot, "loop_closure", "wall_s"))
        put(
            "serving_overhead_pct",
            _get(snapshot, "serving_throughput", "overhead_pct"),
        )
    elif bench == "loadbench":
        # The saturation curve keys points by worker count; headline
        # the single-process baseline, the widest point, and the
        # scaling ratio between them (a *_speedup, so higher-better).
        curve = snapshot.get("saturation") or {}
        counts = sorted(int(k) for k in curve)
        if counts:
            low, high = str(counts[0]), str(counts[-1])
            put(
                "rows_per_s_w1",
                _get(curve, low, "result", "achieved_rows_per_s"),
            )
            put(
                f"rows_per_s_w{high}",
                _get(curve, high, "result", "achieved_rows_per_s"),
            )
            put(
                "p99_closed_ms",
                _get(curve, low, "result", "latency_p99_ms"),
            )
            low_rate = _get(curve, low, "result", "achieved_rows_per_s")
            high_rate = _get(curve, high, "result", "achieved_rows_per_s")
            if low_rate and high_rate:
                put("cluster_speedup", float(high_rate) / float(low_rate))
        put(
            "open_loop_p99_ms",
            _get(snapshot, "open_loop", "latency_p99_ms"),
        )
    else:
        raise ValueError(f"unknown bench {bench!r}")
    return out


# -- regression checking ---------------------------------------------------

#: Name suffixes where smaller is better.
_LOWER_BETTER = ("_s", "_ms", "_us", "_pct")
#: Name fragments where larger is better.
_HIGHER_BETTER = ("_per_s", "speedup")


def metric_direction(name: str) -> str:
    """'lower' | 'higher' | 'none' — which way this metric regresses."""
    for fragment in _HIGHER_BETTER:
        if fragment in name:
            return "higher"
    for suffix in _LOWER_BETTER:
        if name.endswith(suffix):
            return "lower"
    return "none"


def _median(values: List[float]) -> float:
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return 0.5 * (ranked[mid - 1] + ranked[mid])


def _mad(values: List[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


@dataclass
class CheckConfig:
    """Tunables for noise-aware regression detection.

    Defaults are deliberately loose: on a shared/virtualized box the
    run-to-run spread of wall-clock benchmarks is 25-35%, so the
    relative floor sits at the top of that range and the MAD band
    widens further for metrics that have historically been noisier.
    """

    #: Entries (including the candidate) needed before judging.
    min_history: int = 3
    #: MAD multiplier; 4 sigma-equivalents once scaled by 1.4826.
    mad_k: float = 4.0
    #: Relative band floor as a fraction of |median|.
    min_rel: float = 0.35
    #: Absolute band floor for ``*_pct`` metrics, in points — paired
    #: overhead ratios legitimately wander a few points around zero.
    pct_floor: float = 3.0


@dataclass
class Finding:
    """One metric's verdict against its baseline band."""

    bench: str
    metric: str
    status: str  # "ok" | "regression" | "improvement" | "insufficient"
    value: float
    baseline: Optional[float] = None
    band: Optional[float] = None
    history: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "status": self.status,
            "value": self.value,
            "baseline": self.baseline,
            "band": self.band,
            "history": self.history,
            "detail": self.detail,
        }


def _check_metric(
    bench: str,
    name: str,
    history: List[float],
    candidate: float,
    config: CheckConfig,
) -> Finding:
    direction = metric_direction(name)
    if direction == "none":
        return Finding(
            bench, name, "ok", candidate, detail="no direction; not judged"
        )
    if len(history) + 1 < config.min_history:
        return Finding(
            bench,
            name,
            "insufficient",
            candidate,
            history=len(history) + 1,
            detail=(
                f"need {config.min_history} entries, have {len(history) + 1}"
            ),
        )
    baseline = _median(history)
    band = max(
        config.mad_k * 1.4826 * _mad(history, baseline),
        config.min_rel * abs(baseline),
    )
    if name.endswith("_pct"):
        band = max(band, config.pct_floor)
    delta = candidate - baseline
    regressed = delta > band if direction == "lower" else delta < -band
    improved = delta < -band if direction == "lower" else delta > band
    status = "regression" if regressed else ("improvement" if improved else "ok")
    detail = (
        f"{candidate:.6g} vs baseline {baseline:.6g} "
        f"(band +/-{band:.3g}, n={len(history)}, {direction} is better)"
    )
    return Finding(
        bench,
        name,
        status,
        candidate,
        baseline=baseline,
        band=band,
        history=len(history) + 1,
        detail=detail,
    )


def check_ledger(
    path: Union[str, Path] = DEFAULT_LEDGER_PATH,
    config: Optional[CheckConfig] = None,
    bench: Optional[str] = None,
) -> List[Finding]:
    """Judge the newest entry of each bench against its history.

    The newest entry is the candidate; every older entry of the same
    bench contributes to the baseline.  Returns one finding per
    (bench, metric); callers decide what exit status "regression"
    earns — ``repro perf check`` and the benchmarks session guard
    both fail on any.
    """
    config = config or CheckConfig()
    ledger = PerfLedger(path)
    findings: List[Finding] = []
    _CHECKS.inc()
    benches = [bench] if bench else ledger.benches()
    for bench_name in benches:
        entries = ledger.entries(bench_name)
        if not entries:
            continue
        candidate = entries[-1]
        older = entries[:-1]
        for name, value in candidate.get("metrics", {}).items():
            history = [
                float(entry["metrics"][name])
                for entry in older
                if name in entry.get("metrics", {})
            ]
            finding = _check_metric(
                bench_name, name, history, float(value), config
            )
            findings.append(finding)
            if finding.status == "regression":
                _REGRESSIONS.inc()
    return findings


# -- rendering -------------------------------------------------------------


def render_ledger_log(
    ledger: PerfLedger, bench: Optional[str] = None, last: int = 10
) -> str:
    """Human view of the tail of the ledger (``repro perf log``)."""
    entries = ledger.entries(bench)
    if not entries:
        return f"ledger {ledger.path}: empty"
    lines = [f"ledger {ledger.path}: {len(entries)} entries"]
    for record in entries[-last:]:
        manifest = record.get("manifest", {})
        metrics = record.get("metrics", {})
        rendered = ", ".join(
            f"{name}={value:.6g}" for name, value in metrics.items()
        )
        lines.append(
            f"  {record.get('iso', '?'):25s} {record.get('bench', '?'):10s}"
            f" [{manifest.get('git') or 'no-git'}] {rendered}"
        )
    return "\n".join(lines)


_STATUS_MARKS = {
    "ok": " ok ",
    "improvement": "BETTER",
    "regression": "REGRESSED",
    "insufficient": "n/a",
}


def render_findings(findings: Iterable[Finding]) -> str:
    """Human view of a check pass (``repro perf check``)."""
    findings = list(findings)
    if not findings:
        return "perf check: ledger empty — nothing to judge"
    lines = []
    regressions = 0
    for finding in findings:
        if finding.status == "regression":
            regressions += 1
        mark = _STATUS_MARKS.get(finding.status, finding.status)
        lines.append(
            f"  [{mark:>9s}] {finding.bench}.{finding.metric}: "
            f"{finding.detail or finding.value}"
        )
    verdict = (
        f"perf check: {regressions} regression(s) across "
        f"{len(findings)} metric(s)"
        if regressions
        else f"perf check: ok ({len(findings)} metric(s) within bands)"
    )
    return verdict + "\n" + "\n".join(lines)
