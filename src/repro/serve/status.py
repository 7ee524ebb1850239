"""The serving status document and its renderings.

One function builds the single JSON document behind ``GET /v1/status``
— engine throughput and queue depth, HTTP traffic and exact latency
quantiles, SLO error budgets, per-model drift verdicts with their
transition history, the shadow-evaluation recommendation, registry
contents with aliases, build provenance and telemetry sink stats —
and two renderers turn that same document into the ``/dashboard``
HTML page and the ``repro status`` terminal view.  Everything reads
the document; nothing re-queries live state, so the three surfaces
can never disagree.

The dashboard is deliberately stdlib-only: inline CSS, a
``<meta http-equiv="refresh">`` reload, and ASCII sparklines from
:func:`repro.viz.ascii_plots.sparkline` inside ``<pre>`` blocks — it
must render from a bare ``python -m http.server``-grade environment
with no JavaScript and no external assets.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.manifest import build_info
from repro.obs.metrics import get_registry
from repro.obs.prof import Profile, flamegraph_fragment
from repro.viz.ascii_plots import sparkline

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "build_status_document",
    "render_dashboard_html",
    "render_status_text",
]

STATUS_SCHEMA_VERSION = "repro-status-v1"

#: Registry counters surfaced verbatim in the engine section.
_ENGINE_COUNTERS = (
    "requests",
    "rows",
    "batches",
    "errors",
    "validation_failures",
    "drained_requests",
    "monitor_errors",
)


def _metric_values(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """name -> value for label-less counters and gauges."""
    values: Dict[str, Any] = {}
    for record in records:
        if record.get("kind") in ("counter", "gauge") and not record.get(
            "labels"
        ):
            values[record["name"]] = record.get("value")
    return values


def _latency_quantiles(
    records: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Summary records of the serving latency instruments, labels kept."""
    out: List[Dict[str, Any]] = []
    for record in records:
        if record.get("kind") != "summary":
            continue
        if not str(record.get("name", "")).startswith("serve."):
            continue
        out.append(
            {
                "name": record["name"],
                "labels": dict(record.get("labels") or {}),
                "count": record.get("count"),
                "quantiles": dict(record.get("quantiles") or {}),
            }
        )
    return out


def build_status_document(
    registry,
    engine,
    drift=None,
    slo=None,
    events=None,
    recent_latency_s: Optional[Sequence[float]] = None,
    started_unix: Optional[float] = None,
    pipeline=None,
    profiler=None,
    replica: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``/v1/status`` document from the serving pieces.

    Every argument beyond the registry/engine pair is optional so the
    document degrades gracefully: no drift hub reports
    ``monitoring: false``, no event log reports ``enabled: false``,
    no pipeline orchestrator reports ``armed: false``.  ``replica``
    (``{"index", "pid", "leader", "cpu"}``) identifies this process
    inside a :mod:`repro.cluster` group; single-process servers omit it
    and the document carries ``"replica": null``.
    """
    now = time.time()
    records = get_registry().as_records()
    values = _metric_values(records)
    document: Dict[str, Any] = {
        "schema": STATUS_SCHEMA_VERSION,
        "generated_unix": now,
        "uptime_s": (now - started_unix) if started_unix else None,
        "build": build_info(),
        "http": {
            "requests": values.get("serve.http.requests", 0),
            "responses_2xx": values.get("serve.http.responses_2xx", 0),
            "responses_4xx": values.get("serve.http.responses_4xx", 0),
            "responses_5xx": values.get("serve.http.responses_5xx", 0),
            "predictions": values.get("serve.http.predictions", 0),
            "rejected_oversized": values.get(
                "serve.http.rejected_oversized", 0
            ),
            "recent_latency_s": list(recent_latency_s or ()),
        },
        "engine": {
            "running": engine.running,
            "max_batch": engine.batch.max_batch,
            "max_wait_s": engine.batch.max_wait_s,
            "queue_depth": values.get("serve.engine.queue_depth", 0),
            **{
                name: values.get(f"serve.engine.{name}", 0)
                for name in _ENGINE_COUNTERS
            },
        },
        "latency_quantiles": _latency_quantiles(records),
        "models": {
            "count": len(registry),
            "records": [r.as_dict() for r in registry.list_records()],
            "aliases": registry.aliases(),
        },
        "slo": slo.report() if slo is not None else None,
        "drift": (
            drift.status() if drift is not None else {"monitoring": False}
        ),
        "telemetry": (
            {"enabled": True, **events.stats()}
            if events is not None
            else {"enabled": False}
        ),
        "pipeline": (
            pipeline.report() if pipeline is not None else {"armed": False}
        ),
        "profiler": (
            profiler.report()
            if profiler is not None
            else {"available": False}
        ),
        "replica": dict(replica) if replica is not None else None,
    }
    return document


# -- terminal rendering ----------------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.0f}s"


def _fmt_budget(objective: Dict[str, Any]) -> str:
    return (
        f"target {objective['target']:.4g}  "
        f"events {objective['events']}  "
        f"bad {objective['bad_events']}  "
        f"budget {objective['budget_remaining'] * 100:6.1f}%  "
        f"burn {objective['burn_rate']:.2f}x"
    )


def render_status_text(status: Dict[str, Any]) -> str:
    """The ``repro status`` terminal view of one status document."""
    build = status.get("build") or {}
    http = status.get("http") or {}
    engine = status.get("engine") or {}
    lines: List[str] = []
    lines.append(
        f"repro serving status  "
        f"(schema {status.get('schema', '?')}, "
        f"version {build.get('version') or '?'}"
        + (f", git {build['git']}" if build.get("git") else "")
        + f", up {_fmt_seconds(status.get('uptime_s'))})"
    )
    lines.append("")
    lines.append(
        f"http      requests {http.get('requests', 0)}  "
        f"2xx {http.get('responses_2xx', 0)}  "
        f"4xx {http.get('responses_4xx', 0)}  "
        f"5xx {http.get('responses_5xx', 0)}  "
        f"predictions {http.get('predictions', 0)}"
    )
    recent = http.get("recent_latency_s") or []
    if recent:
        lines.append(
            f"latency   last {recent[-1] * 1e3:.2f} ms  "
            f"[{sparkline(recent, width=48)}]"
        )
    lines.append(
        f"engine    running={engine.get('running')}  "
        f"queue {engine.get('queue_depth', 0)}  "
        f"batches {engine.get('batches', 0)}  "
        f"rows {engine.get('rows', 0)}  "
        f"errors {engine.get('errors', 0)}  "
        f"validation_failures {engine.get('validation_failures', 0)}  "
        f"drained {engine.get('drained_requests', 0)}"
    )
    for summary in status.get("latency_quantiles") or []:
        labels = summary.get("labels") or {}
        label_text = ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())
        )
        quantiles = summary.get("quantiles") or {}
        quantile_text = "  ".join(
            f"p{float(q) * 100:g} {value * 1e3:.2f}ms"
            for q, value in sorted(
                quantiles.items(), key=lambda kv: float(kv[0])
            )
        )
        lines.append(
            f"quantiles {summary['name']}"
            + (f"{{{label_text}}}" if label_text else "")
            + f"  n={summary.get('count', 0)}  {quantile_text}"
        )
    slo = status.get("slo")
    if slo:
        lines.append("")
        lines.append(
            f"slo latency ({slo['latency']['threshold_s'] * 1e3:g} ms): "
            + _fmt_budget(slo["latency"])
        )
        lines.append(
            "slo availability:        " + _fmt_budget(slo["availability"])
        )
    models = status.get("models") or {}
    lines.append("")
    lines.append(f"models ({models.get('count', 0)}):")
    aliases = models.get("aliases") or {}
    by_model: Dict[str, List[str]] = {}
    for alias, model_id in aliases.items():
        by_model.setdefault(model_id, []).append(alias)
    for record in models.get("records") or []:
        model_id = record.get("model_id", "?")
        names = ",".join(sorted(by_model.get(model_id, [])))
        lines.append(
            f"  {model_id}  leaves={record.get('n_leaves', '?')}"
            + (f"  aliases={names}" if names else "")
        )
    drift = status.get("drift") or {}
    if drift.get("monitoring"):
        lines.append("")
        lines.append("drift:")
        for model_id, report in (drift.get("models") or {}).items():
            hysteresis = report.get("hysteresis") or {}
            lines.append(
                f"  {model_id}  verdict={report.get('verdict', '?')}  "
                f"evaluations={report.get('evaluations', 0)}  "
                f"records={report.get('records_seen', 0)}  "
                f"breach_streak={hysteresis.get('breach_streak', 0)}  "
                f"clean_streak={hysteresis.get('clean_streak', 0)}"
            )
            for transition in (report.get("transitions") or [])[-3:]:
                lines.append(
                    f"    {transition.get('from')} -> {transition.get('to')}"
                    f"  at record {transition.get('records_seen')}"
                )
        shadow = drift.get("shadow")
        if shadow:
            lines.append(
                f"  shadow: {shadow.get('recommendation', '?')} "
                f"({shadow.get('reason', '')})"
            )
    else:
        lines.append("")
        lines.append("drift: monitoring off")
    pipeline = status.get("pipeline") or {}
    if pipeline.get("armed"):
        buffer = pipeline.get("buffer") or {}
        trigger = pipeline.get("trigger") or {}
        promotions = pipeline.get("promotions") or {}
        lines.append("")
        lines.append(
            f"pipeline  state={pipeline.get('state', '?')}  "
            f"champion={pipeline.get('champion') or '?'}  "
            f"buffer {buffer.get('n', 0)}/{buffer.get('capacity', 0)}  "
            f"trigger fired={trigger.get('fired', 0)} "
            f"suppressed={trigger.get('suppressed', 0)}"
        )
        lines.append(
            f"  promotions: {promotions.get('entries', 0)} "
            f"(chain {'ok' if promotions.get('chain_valid') else 'BROKEN'})"
        )
        for entry in (promotions.get("tail") or [])[-3:]:
            lines.append(
                f"    #{entry.get('seq')} {entry.get('action')}: "
                f"{entry.get('from')} -> {entry.get('to')} "
                f"({entry.get('why')})"
            )
    else:
        lines.append("pipeline: off")
    telemetry = status.get("telemetry") or {}
    if telemetry.get("enabled"):
        lines.append(
            f"telemetry: {telemetry.get('path')}  "
            f"written={telemetry.get('written', 0)}  "
            f"rotations={telemetry.get('rotations', 0)}"
        )
    else:
        lines.append("telemetry: off")
    profiler = status.get("profiler") or {}
    if profiler.get("available"):
        line = (
            f"profiler: captures={profiler.get('captures', 0)}  "
            f"busy={profiler.get('busy', False)}"
        )
        last = profiler.get("last")
        if last:
            top = _top_span(last)
            line += (
                f"  last: {last.get('samples', 0)} passes @"
                f"{last.get('hz', '?')}Hz, "
                f"{float(last.get('attributed_fraction') or 0) * 100:.0f}% "
                "span-attributed"
            )
            if top:
                line += f", top span {top[0]} ({top[1]:.0f}%)"
        lines.append(line)
    else:
        lines.append("profiler: off")
    return "\n".join(lines)


def _top_span(last: Dict[str, Any]) -> Optional[Any]:
    """(span, share_pct) of the busiest span in a capped profile dict."""
    try:
        profile = Profile.from_dict(last)
    except (ValueError, KeyError, TypeError):
        return None
    busy = profile.busy_count
    spans = profile.by_span()
    if not busy or not spans:
        return None
    name, count = next(iter(spans.items()))
    return name, 100.0 * count / busy


# -- the dashboard ---------------------------------------------------------

_CSS = """
body { font-family: monospace; background: #101418; color: #d8dee9;
       margin: 1.5em; }
h1 { font-size: 1.2em; border-bottom: 1px solid #3b4252; }
h2 { font-size: 1.0em; color: #88c0d0; margin-top: 1.2em; }
table { border-collapse: collapse; margin: 0.4em 0; }
td, th { border: 1px solid #3b4252; padding: 0.2em 0.6em;
         text-align: left; font-size: 0.9em; }
th { color: #81a1c1; }
pre { background: #0b0e11; padding: 0.5em; border: 1px solid #3b4252; }
.ok { color: #a3be8c; } .warn { color: #ebcb8b; }
.bad { color: #bf616a; } .muted { color: #616e7f; }
.bar { display: inline-block; height: 0.7em; background: #a3be8c; }
.bar.low { background: #ebcb8b; } .bar.neg { background: #bf616a; }
"""

_VERDICT_CLASSES = {
    "ok": "ok",
    "warn": "warn",
    "transfer_failed": "bad",
    "insufficient_data": "muted",
}

_PIPELINE_CLASSES = {
    "idle": "muted",
    "retraining": "warn",
    "shadowing": "warn",
    "promoting": "warn",
    "promoted": "ok",
    "rejected": "muted",
    "rolled_back": "bad",
}


def _budget_bar(remaining: float) -> str:
    width = max(0.0, min(1.0, remaining)) * 160.0
    css = "bar"
    if remaining < 0.0:
        css, width = "bar neg", 160.0
    elif remaining < 0.25:
        css = "bar low"
    return (
        f'<span class="{css}" style="width:{width:.0f}px"></span>'
        f" {remaining * 100:.1f}%"
    )


def _slo_rows(slo: Dict[str, Any]) -> str:
    rows = []
    for name in ("latency", "availability"):
        objective = slo[name]
        label = name
        if name == "latency":
            label = f"latency &le; {objective['threshold_s'] * 1e3:g} ms"
        rows.append(
            "<tr>"
            f"<td>{label}</td>"
            f"<td>{objective['target']:.4g}</td>"
            f"<td>{objective['events']}</td>"
            f"<td>{objective['bad_events']}</td>"
            f"<td>{_budget_bar(objective['budget_remaining'])}</td>"
            f"<td>{objective['burn_rate']:.2f}x</td>"
            "</tr>"
        )
    return "".join(rows)


def render_dashboard_html(
    status: Dict[str, Any], refresh_s: int = 2
) -> str:
    """The ``/dashboard`` page for one status document.

    Self-refreshing via ``<meta http-equiv="refresh">``; every dynamic
    string is HTML-escaped.  No JavaScript, no external assets.
    """
    build = status.get("build") or {}
    http = status.get("http") or {}
    engine = status.get("engine") or {}
    esc = html.escape
    parts: List[str] = [
        "<!DOCTYPE html><html><head>",
        '<meta charset="utf-8">',
        f'<meta http-equiv="refresh" content="{int(refresh_s)}">',
        "<title>repro serving dashboard</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        "<h1>repro serving dashboard</h1>",
        '<p class="muted">'
        f"version {esc(str(build.get('version') or '?'))}"
        + (
            f" &middot; git {esc(str(build['git']))}"
            if build.get("git")
            else ""
        )
        + f" &middot; up {_fmt_seconds(status.get('uptime_s'))}"
        f" &middot; refreshed every {int(refresh_s)}s</p>",
    ]

    parts.append("<h2>traffic</h2><table>")
    parts.append(
        "<tr><th>requests</th><th>2xx</th><th>4xx</th><th>5xx</th>"
        "<th>predictions</th><th>oversized rejected</th></tr>"
    )
    parts.append(
        "<tr>"
        f"<td>{http.get('requests', 0)}</td>"
        f"<td class=\"ok\">{http.get('responses_2xx', 0)}</td>"
        f"<td class=\"warn\">{http.get('responses_4xx', 0)}</td>"
        f"<td class=\"bad\">{http.get('responses_5xx', 0)}</td>"
        f"<td>{http.get('predictions', 0)}</td>"
        f"<td>{http.get('rejected_oversized', 0)}</td>"
        "</tr></table>"
    )
    recent = http.get("recent_latency_s") or []
    if recent:
        parts.append(
            "<pre>recent latency "
            f"(last {recent[-1] * 1e3:.2f} ms)\n"
            f"{esc(sparkline(recent, width=72))}</pre>"
        )

    parts.append("<h2>engine</h2><table>")
    parts.append(
        "<tr><th>running</th><th>queue</th><th>batches</th><th>rows</th>"
        "<th>errors</th><th>validation failures</th><th>drained</th></tr>"
    )
    running = engine.get("running")
    parts.append(
        "<tr>"
        f"<td class=\"{'ok' if running else 'bad'}\">{running}</td>"
        f"<td>{engine.get('queue_depth', 0)}</td>"
        f"<td>{engine.get('batches', 0)}</td>"
        f"<td>{engine.get('rows', 0)}</td>"
        f"<td>{engine.get('errors', 0)}</td>"
        f"<td>{engine.get('validation_failures', 0)}</td>"
        f"<td>{engine.get('drained_requests', 0)}</td>"
        "</tr></table>"
    )

    quantiles = status.get("latency_quantiles") or []
    if quantiles:
        parts.append("<h2>latency quantiles</h2><table>")
        parts.append(
            "<tr><th>instrument</th><th>n</th><th>p50</th>"
            "<th>p95</th><th>p99</th></tr>"
        )
        for summary in quantiles:
            labels = summary.get("labels") or {}
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            )
            name = summary["name"] + (
                f"{{{label_text}}}" if label_text else ""
            )
            q = summary.get("quantiles") or {}

            def _cell(key: str) -> str:
                value = q.get(key)
                return (
                    f"{value * 1e3:.2f} ms" if value is not None else "-"
                )

            parts.append(
                "<tr>"
                f"<td>{esc(name)}</td>"
                f"<td>{summary.get('count', 0)}</td>"
                f"<td>{_cell('0.5')}</td>"
                f"<td>{_cell('0.95')}</td>"
                f"<td>{_cell('0.99')}</td>"
                "</tr>"
            )
        parts.append("</table>")

    slo = status.get("slo")
    if slo:
        parts.append("<h2>SLO error budgets</h2><table>")
        parts.append(
            "<tr><th>objective</th><th>target</th><th>events</th>"
            "<th>bad</th><th>budget remaining</th><th>burn rate</th></tr>"
        )
        parts.append(_slo_rows(slo))
        parts.append("</table>")

    models = status.get("models") or {}
    aliases = models.get("aliases") or {}
    by_model: Dict[str, List[str]] = {}
    for alias, model_id in aliases.items():
        by_model.setdefault(model_id, []).append(alias)
    parts.append(f"<h2>models ({models.get('count', 0)})</h2><table>")
    parts.append(
        "<tr><th>model</th><th>aliases</th><th>leaves</th>"
        "<th>features</th></tr>"
    )
    for record in models.get("records") or []:
        model_id = str(record.get("model_id", "?"))
        parts.append(
            "<tr>"
            f"<td>{esc(model_id)}</td>"
            f"<td>{esc(','.join(sorted(by_model.get(model_id, []))) or '-')}"
            "</td>"
            f"<td>{record.get('n_leaves', '?')}</td>"
            f"<td>{esc(','.join(record.get('feature_names') or ()))}</td>"
            "</tr>"
        )
    parts.append("</table>")

    drift = status.get("drift") or {}
    parts.append("<h2>drift</h2>")
    if drift.get("monitoring"):
        parts.append("<table>")
        parts.append(
            "<tr><th>model</th><th>verdict</th><th>evaluations</th>"
            "<th>records</th><th>breach streak</th><th>clean streak</th>"
            "<th>last transitions</th></tr>"
        )
        for model_id, report in (drift.get("models") or {}).items():
            verdict = str(report.get("verdict", "?"))
            css = _VERDICT_CLASSES.get(verdict, "")
            hysteresis = report.get("hysteresis") or {}
            transitions = " ; ".join(
                f"{t.get('from')}&rarr;{t.get('to')}@{t.get('records_seen')}"
                for t in (report.get("transitions") or [])[-3:]
            )
            parts.append(
                "<tr>"
                f"<td>{esc(model_id)}</td>"
                f"<td class=\"{css}\">{esc(verdict)}</td>"
                f"<td>{report.get('evaluations', 0)}</td>"
                f"<td>{report.get('records_seen', 0)}</td>"
                f"<td>{hysteresis.get('breach_streak', 0)}</td>"
                f"<td>{hysteresis.get('clean_streak', 0)}</td>"
                f"<td>{transitions or '-'}</td>"
                "</tr>"
            )
        parts.append("</table>")
        shadow = drift.get("shadow")
        if shadow:
            parts.append(
                '<p>shadow: <span class="'
                + (
                    "ok"
                    if shadow.get("recommendation") == "promote_challenger"
                    else "muted"
                )
                + f'">{esc(str(shadow.get("recommendation", "?")))}</span>'
                f" &mdash; {esc(str(shadow.get('reason', '')))}</p>"
            )
    else:
        parts.append('<p class="muted">monitoring off</p>')

    pipeline = status.get("pipeline") or {}
    parts.append("<h2>pipeline</h2>")
    if pipeline.get("armed"):
        state = str(pipeline.get("state", "?"))
        css = _PIPELINE_CLASSES.get(state, "")
        buffer = pipeline.get("buffer") or {}
        trigger = pipeline.get("trigger") or {}
        promotions = pipeline.get("promotions") or {}
        chain_ok = bool(promotions.get("chain_valid"))
        parts.append(
            f'<p>state <span class="{css}">{esc(state)}</span>'
            f" &middot; champion {esc(str(pipeline.get('champion') or '?'))}"
            f" &middot; buffer {buffer.get('n', 0)}/"
            f"{buffer.get('capacity', 0)} rows"
            f" &middot; trigger fired={trigger.get('fired', 0)}"
            f" suppressed={trigger.get('suppressed', 0)}"
            f" &middot; chain <span class=\"{'ok' if chain_ok else 'bad'}\">"
            f"{'verified' if chain_ok else 'BROKEN'}</span></p>"
        )
        tail = promotions.get("tail") or []
        if tail:
            parts.append("<table>")
            parts.append(
                "<tr><th>#</th><th>action</th><th>from</th><th>to</th>"
                "<th>why</th></tr>"
            )
            for entry in tail[-5:]:
                parts.append(
                    "<tr>"
                    f"<td>{entry.get('seq')}</td>"
                    f"<td>{esc(str(entry.get('action')))}</td>"
                    f"<td>{esc(str(entry.get('from')))}</td>"
                    f"<td>{esc(str(entry.get('to')))}</td>"
                    f"<td>{esc(str(entry.get('why')))}</td>"
                    "</tr>"
                )
            parts.append("</table>")
    else:
        parts.append('<p class="muted">pipeline off</p>')

    profiler = status.get("profiler") or {}
    parts.append("<h2>profiler</h2>")
    if profiler.get("available"):
        last = profiler.get("last")
        if last:
            top = _top_span(last)
            parts.append(
                f"<p>{profiler.get('captures', 0)} capture(s) &middot; "
                f"last: {last.get('samples', 0)} passes at "
                f"{last.get('hz', '?')} Hz over "
                f"{float(last.get('duration_s') or 0):.1f}s &middot; "
                f"{float(last.get('attributed_fraction') or 0) * 100:.0f}% "
                "span-attributed"
                + (f" &middot; top span {esc(str(top[0]))}" if top else "")
                + "</p>"
            )
            try:
                parts.append(flamegraph_fragment(Profile.from_dict(last)))
            except (ValueError, KeyError, TypeError):
                parts.append(
                    '<p class="muted">last profile unrenderable</p>'
                )
        else:
            parts.append(
                '<p class="muted">no captures yet &mdash; '
                "GET /v1/profile/cpu?seconds=2 takes one</p>"
            )
    else:
        parts.append('<p class="muted">profiler off</p>')
    telemetry = status.get("telemetry") or {}
    if telemetry.get("enabled"):
        parts.append(
            '<p class="muted">telemetry: '
            f"{esc(str(telemetry.get('path')))} "
            f"written={telemetry.get('written', 0)} "
            f"rotations={telemetry.get('rotations', 0)}</p>"
        )
    else:
        parts.append('<p class="muted">telemetry: off</p>')
    parts.append("</body></html>")
    return "".join(parts)
