"""Terminal rendering of exported traces: ``repro trace-summary``.

Reads a trace JSONL file (manifest line, span lines, metric lines —
the format :meth:`repro.obs.trace.Tracer.write_jsonl` writes), rebuilds
the span tree and prints it time-sorted with per-span wall/CPU/RSS
figures, followed by the run's top metrics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.durable import read_jsonl

__all__ = [
    "read_trace",
    "render_trace_summary",
    "format_metrics_table",
    "render_prometheus",
    "escape_label_value",
]


def read_trace(
    path: Union[str, Path],
    warnings: Optional[List[str]] = None,
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Parse a trace file into (manifest, span records, metric records).

    A malformed *final* line is tolerated when at least one record
    parsed before it — that is what a process killed mid-write leaves
    behind — and noted in ``warnings`` (when the caller passes a list)
    instead of raised.  Malformed content anywhere else is still a
    ``ValueError``: it means the file is not a trace at all.
    """
    if not Path(path).is_file():
        raise FileNotFoundError(f"{path}: no such trace file")
    records, bad = read_jsonl(path)
    if bad:
        # Tolerable only as the one line after every record.
        if not records or bad != [len(records) + 1]:
            raise ValueError(f"{path}:{bad[0]}: not valid JSON")
        if warnings is not None:
            warnings.append(f"ignored truncated final line {bad[0]}")
    manifest: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = []
    metrics: List[Dict[str, Any]] = []
    for line_number, record in enumerate(records, start=1):
        kind = record.get("type")
        if kind == "manifest":
            manifest = record
        elif kind == "span":
            spans.append(record)
        elif kind == "metric":
            metrics.append(record)
        else:
            raise ValueError(
                f"{path}:{line_number}: unknown record type {kind!r}"
            )
    return manifest, spans, metrics


def _payload_brief(payload: Dict[str, Any], limit: int = 4) -> str:
    if not payload:
        return ""
    parts = []
    for key, value in list(payload.items())[:limit]:
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    if len(payload) > limit:
        parts.append("...")
    return "  [" + " ".join(parts) + "]"


def _render_span_tree(spans: List[Dict[str, Any]]) -> List[str]:
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    ids = {record["id"] for record in spans}
    for record in spans:
        parent = record.get("parent")
        if parent not in ids:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_wall", 0.0))

    lines: List[str] = []

    def visit(record: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        wall_ms = record.get("wall_s", 0.0) * 1e3
        cpu_ms = record.get("cpu_s", 0.0) * 1e3
        rss_kb = record.get("rss_delta_kb", 0)
        line = (
            f"{indent}{record['name']:{max(1, 34 - 2 * depth)}s} "
            f"{wall_ms:9.2f} ms  cpu {cpu_ms:9.2f} ms"
        )
        if rss_kb:
            line += f"  +rss {rss_kb / 1024:6.1f} MB"
        line += _payload_brief(record.get("payload", {}))
        lines.append(line)
        for child in children.get(record["id"], []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    return lines


def format_metrics_table(
    metrics: List[Dict[str, Any]], top: int = 20
) -> str:
    """The run's metrics, counters first (largest values lead)."""
    if not metrics:
        return "(no metrics recorded)"
    counters = sorted(
        (m for m in metrics if m.get("kind") == "counter"),
        key=lambda m: -m.get("value", 0),
    )
    gauges = sorted(
        (m for m in metrics if m.get("kind") == "gauge"),
        key=lambda m: m["name"],
    )
    histograms = sorted(
        (m for m in metrics if m.get("kind") == "histogram"),
        key=lambda m: m["name"],
    )
    summaries = sorted(
        (m for m in metrics if m.get("kind") == "summary"),
        key=lambda m: (m["name"], sorted((m.get("labels") or {}).items())),
    )
    lines: List[str] = []
    for metric in counters[:top]:
        lines.append(f"  {metric['name']:40s} {metric['value']:>14,}")
    for metric in gauges[:top]:
        lines.append(f"  {metric['name']:40s} {metric['value']:>14.6g}")
    for metric in histograms[:top]:
        mean = metric.get("mean", 0.0)
        lines.append(
            f"  {metric['name']:40s} n={metric['count']:<8d}"
            f" mean={mean:.6g} min={metric.get('min')} max={metric.get('max')}"
        )
    for metric in summaries[:top]:
        labels = metric.get("labels") or {}
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        quantiles = metric.get("quantiles", {})
        quantile_text = " ".join(
            f"p{float(q) * 100:g}={value:.6g}"
            for q, value in sorted(quantiles.items(), key=lambda kv: float(kv[0]))
        )
        lines.append(
            f"  {metric['name'] + label_text:40s} n={metric['count']:<8d}"
            f" {quantile_text}"
        )
    return "\n".join(lines)


def _prometheus_name(name: str) -> str:
    """Map a dotted registry name to a Prometheus metric name."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{cleaned}"


def escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="..."``.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus(metrics: List[Dict[str, Any]]) -> str:
    """Text exposition of registry records (the serving ``/metrics``).

    Counters and gauges render one sample each; histograms render
    ``_count``/``_sum`` plus cumulative ``_bucket`` samples whose ``le``
    labels are the upper edges of the registry's log2 buckets;
    summaries render one ``quantile``-labelled sample per tracked
    quantile (plus ``_count``/``_sum``), carrying any instrument labels
    such as ``endpoint`` or ``model``.  Records sharing a name form one
    metric family: a single ``# TYPE`` line followed by every sample,
    with label values escaped per the exposition format.
    """
    by_family: Dict[str, List[Dict[str, Any]]] = {}
    for record in metrics:
        by_family.setdefault(record["name"], []).append(record)
    lines: List[str] = []
    for family_name in sorted(by_family):
        records = sorted(
            by_family[family_name],
            key=lambda m: sorted((m.get("labels") or {}).items()),
        )
        name = _prometheus_name(family_name)
        lines.append(f"# TYPE {name} {records[0].get('kind')}")
        for record in records:
            kind = record.get("kind")
            labels = dict(record.get("labels") or {})
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_render_labels(labels)} {record['value']}"
                )
            elif kind == "histogram":
                cumulative = 0
                buckets = record.get("buckets", {})
                for index in sorted(buckets, key=int):
                    cumulative += buckets[index]
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels({**labels, 'le': f'{2.0 ** int(index):g}'})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket{_render_labels({**labels, 'le': '+Inf'})}"
                    f" {record['count']}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} {record['sum']}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {record['count']}"
                )
            elif kind == "summary":
                for q, value in record.get("quantiles", {}).items():
                    lines.append(
                        f"{name}{_render_labels({**labels, 'quantile': q})}"
                        f" {value}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} {record['sum']}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {record['count']}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render_trace_summary(path: Union[str, Path]) -> str:
    """Full terminal report for one trace file.

    Degenerate files render a message instead of raising: an empty
    file says so, a manifest-only file renders the manifest, and a
    file whose final line was cut mid-write notes the dropped line.
    """
    warnings: List[str] = []
    manifest, spans, metrics = read_trace(path, warnings=warnings)
    if manifest is None and not spans and not metrics:
        return f"{path}: empty trace (no records)"
    lines: List[str] = []
    for warning in warnings:
        lines.append(f"warning: {warning}")
    if manifest is not None:
        config = manifest.get("config", {})
        lines.append(
            f"trace of {' '.join(manifest.get('argv', []))!s}".rstrip()
        )
        lines.append(
            f"  created {manifest.get('created_iso', '?')}"
            f"  seed {config.get('seed', '?')}"
            f"  python {manifest.get('platform', {}).get('python', '?')}"
            f"  machine {manifest.get('platform', {}).get('machine', '?')}"
        )
        if manifest.get("experiments"):
            lines.append(
                "  experiments " + " ".join(manifest["experiments"])
            )
        lines.append("")
    if spans:
        total = sum(
            record.get("wall_s", 0.0)
            for record in spans
            if record.get("parent") is None
        )
        lines.append(f"spans ({len(spans)}, root wall {total:.3f}s):")
        lines.extend(_render_span_tree(spans))
    else:
        lines.append("(no spans recorded)")
    lines.append("")
    lines.append(f"metrics ({len(metrics)}):")
    lines.append(format_metrics_table(metrics))
    return "\n".join(lines)
