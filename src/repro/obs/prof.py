"""Span-attributed sampling CPU profiler — ``repro.obs.prof``.

The paper characterizes *workloads* by where they spend machine
resources; this module applies the same treatment to the library
itself.  A daemon-thread sampler walks :func:`sys._current_frames` at
a configurable rate (default 99 Hz — the classic off-by-one from 100
that avoids lockstep with 10 ms schedulers), folds each thread's
Python stack into a ``module:function`` frame list, and aggregates
counts keyed by three coordinates:

* **thread role** — derived from the thread name (``main``, the
  serving ``http`` handlers, the engine ``batcher`` worker, ...), so
  a serving profile separates request handling from kernel work;
* **innermost open span** — joined live from
  :mod:`repro.obs.trace`'s per-thread attribution stacks, so profiles
  slice by the same names the tracer exports (``mtree.fit``,
  ``serve.batch``, ``experiment.E7``, pipeline stages);
* **the folded stack itself** — root-first, flamegraph.pl's
  collapsed-stack grammar (``frame;frame;frame count``).

Sampling is wall-clock; samples whose leaf frame is a known blocking
call (lock waits, socket accept/select, ``time.sleep``) are counted
separately as *idle* and excluded from the CPU profile by default, so
a mostly-parked serving process does not drown the flame graph in
``wait`` frames.

Overhead discipline matches the tracer: **zero when not started** (no
thread, no allocation — importing this module does nothing), and the
sampler's own cost is measured per pass and exported through the
metrics registry (``obs.prof.sample_cost_s``) so a profile always
carries the evidence of what collecting it cost.  The measured
serving cost at 99 Hz is guarded at <= 5% of batch-64 throughput by
``benchmarks/conftest.py``.

Three renderers sit on top of a captured :class:`Profile`:
:meth:`Profile.folded` (flamegraph.pl-compatible collapsed output),
:func:`render_profile_table` (ASCII top-N self/cumulative, the
``repro profile-summary`` view) and :func:`render_flamegraph_html`
(a self-contained no-JS icicle flame graph, embedded in the serving
``/dashboard`` and served by ``GET /v1/profile/cpu?format=html``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from html import escape as _escape_html
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import build_info
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.trace import (
    disable_span_attribution,
    enable_span_attribution,
    thread_span_names,
)

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "Profile",
    "SamplingProfiler",
    "render_profile_table",
    "render_flamegraph_html",
    "flamegraph_fragment",
    "load_profile",
]

PROFILE_SCHEMA_VERSION = "repro-profile-v1"

DEFAULT_HZ = 99
MAX_HZ = 500
MAX_STACK_DEPTH = 128

#: Span label for samples taken while no span was open on the thread.
UNATTRIBUTED = "unattributed"

_SAMPLES = counter("obs.prof.samples")
_STACKS = counter("obs.prof.stacks")
_IDLE_STACKS = counter("obs.prof.idle_stacks")
_ERRORS = counter("obs.prof.errors")
_RUNNING = gauge("obs.prof.running")
_HZ = gauge("obs.prof.hz")
_SAMPLE_COST = histogram("obs.prof.sample_cost_s")

#: (module prefix, function name) pairs whose presence as the *leaf*
#: frame marks a sample as blocked rather than burning CPU.  Coarse on
#: purpose: the goal is to keep parked server threads out of the CPU
#: flame graph, not to be a scheduler.  A bias this table cannot fix:
#: a thread blocked inside a *C-implemented* call (``time.sleep``,
#: ``queue.SimpleQueue.get``, ``lock.acquire``) shows its Python
#: *caller* as the leaf, indistinguishable from that caller burning
#: CPU — hence the entries below for known pure-wait callers of C
#: blocking primitives (see docs/OBSERVABILITY.md, "sampling bias").
_IDLE_LEAVES = {
    ("threading", "wait"),
    ("threading", "_wait_for_tstate_lock"),
    ("selectors", "select"),
    ("socket", "accept"),
    # SocketIO.readinto: blocked in C recv_into waiting for bytes.
    ("socket", "readinto"),
    ("socketserver", "serve_forever"),
    ("time", "sleep"),
    ("queue", "get"),
    ("subprocess", "_try_wait"),
    ("multiprocessing.connection", "poll"),
    ("concurrent.futures._base", "result"),
    # The engine's batcher parks in C-level SimpleQueue.get between
    # batches (and in the flush lock's acquire, or a window's timed
    # get), leaving its loop body as the visible leaf.
    ("repro.serve.engine", "_run"),
    ("repro.serve.engine", "_coalesce"),
}

#: Thread-name prefixes mapped to stable role labels; anything else
#: reports as ``other`` so role cardinality stays bounded.
_ROLE_PREFIXES = (
    ("MainThread", "main"),
    ("repro-serve-http", "http"),
    ("repro-serve-batcher", "engine"),
    ("repro-pipeline", "pipeline"),
    ("repro-prof", "profiler"),
    ("Thread-", "http"),  # ThreadingHTTPServer per-connection handlers
)


def _thread_role(name: str) -> str:
    for prefix, role in _ROLE_PREFIXES:
        if name.startswith(prefix):
            return role
    return "other"


def _frame_label(frame) -> str:
    """One folded-stack frame: ``module:function``, grammar-safe.

    flamegraph.pl's collapsed format reserves space (the count
    separator) and semicolon (the frame separator); both are replaced
    defensively, though real module/function names contain neither.
    """
    module = frame.f_globals.get("__name__", "?")
    label = f"{module}:{frame.f_code.co_name}"
    if " " in label or ";" in label:
        label = label.replace(" ", "_").replace(";", "_")
    return label


def _walk_stack(frame) -> List[str]:
    """Root-first frame labels for one thread, depth-capped."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return labels


def _is_idle(frame) -> bool:
    module = frame.f_globals.get("__name__", "")
    name = frame.f_code.co_name
    for idle_module, idle_name in _IDLE_LEAVES:
        if name == idle_name and (
            module == idle_module or module.startswith(idle_module + ".")
        ):
            return True
    return False


class Profile:
    """One captured profile: aggregated folded stacks plus metadata.

    ``stacks`` maps ``(role, span, frames_tuple)`` to sample counts;
    ``idle`` maps the same key shape for samples classified as
    blocked.  ``samples`` counts sampler *passes* (ticks), while the
    per-thread stack counts can exceed it on multi-threaded processes
    — every running thread contributes one stack per pass.
    """

    def __init__(self, hz: int) -> None:
        self.hz = hz
        self.duration_s = 0.0
        self.samples = 0
        self.sample_cost_s = 0.0
        self.started_unix = time.time()
        self.stacks: Dict[Tuple[str, str, Tuple[str, ...]], int] = {}
        self.idle: Dict[Tuple[str, str, Tuple[str, ...]], int] = {}

    # -- aggregate views --------------------------------------------------

    @property
    def busy_count(self) -> int:
        return sum(self.stacks.values())

    @property
    def idle_count(self) -> int:
        return sum(self.idle.values())

    def by_span(self, include_idle: bool = False) -> Dict[str, int]:
        """Sample counts grouped by innermost-span name, largest first."""
        totals: Dict[str, int] = {}
        sources = [self.stacks] + ([self.idle] if include_idle else [])
        for source in sources:
            for (_, span_name, _), count in source.items():
                totals[span_name] = totals.get(span_name, 0) + count
        return dict(
            sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        )

    def by_role(self, include_idle: bool = False) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        sources = [self.stacks] + ([self.idle] if include_idle else [])
        for source in sources:
            for (role, _, _), count in source.items():
                totals[role] = totals.get(role, 0) + count
        return dict(
            sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        )

    def attributed_fraction(self) -> float:
        """Share of busy samples carrying a real span name (0 when empty)."""
        busy = self.busy_count
        if not busy:
            return 0.0
        attributed = sum(
            count
            for (_, span_name, _), count in self.stacks.items()
            if span_name != UNATTRIBUTED
        )
        return attributed / busy

    # -- renderers --------------------------------------------------------

    def folded(self, include_idle: bool = False) -> str:
        """flamegraph.pl collapsed-stack output.

        One line per distinct stack: semicolon-joined frames, one
        space, the sample count.  The stack is rooted at
        ``<role>;<span>`` so flame graphs group by thread role and
        span before code — exactly the slicing the tentpole asks for.
        Feed directly to ``flamegraph.pl`` or any compatible renderer.
        """
        merged: Dict[Tuple[str, str, Tuple[str, ...]], int] = dict(
            self.stacks
        )
        if include_idle:
            for key, count in self.idle.items():
                merged[key] = merged.get(key, 0) + count
        lines = []
        for (role, span_name, frames), count in sorted(merged.items()):
            stack = ";".join((role, f"span:{span_name}") + frames)
            lines.append(f"{stack} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def function_totals(
        self,
    ) -> List[Tuple[str, int, int]]:
        """(frame, self_count, cumulative_count) over busy stacks.

        Cumulative counts each stack once per frame even when the
        frame recurses within it.
        """
        self_counts: Dict[str, int] = {}
        cumulative: Dict[str, int] = {}
        for (_, _, frames), count in self.stacks.items():
            if not frames:
                continue
            leaf = frames[-1]
            self_counts[leaf] = self_counts.get(leaf, 0) + count
            for frame in set(frames):
                cumulative[frame] = cumulative.get(frame, 0) + count
        return sorted(
            (
                (frame, self_counts.get(frame, 0), cumulative[frame])
                for frame in cumulative
            ),
            key=lambda item: (-item[1], -item[2], item[0]),
        )

    # -- persistence ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        def encode(source):
            return [
                {
                    "role": role,
                    "span": span_name,
                    "frames": list(frames),
                    "count": count,
                }
                for (role, span_name, frames), count in sorted(source.items())
            ]

        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "duration_s": self.duration_s,
            "samples": self.samples,
            "busy_stacks": self.busy_count,
            "idle_stacks": self.idle_count,
            "sample_cost_s": self.sample_cost_s,
            "attributed_fraction": self.attributed_fraction(),
            "started_unix": self.started_unix,
            "build": build_info(),
            "stacks": encode(self.stacks),
            "idle": encode(self.idle),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Profile":
        if payload.get("schema") != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"not a {PROFILE_SCHEMA_VERSION} profile: "
                f"schema={payload.get('schema')!r}"
            )
        profile = cls(int(payload.get("hz", DEFAULT_HZ)))
        profile.duration_s = float(payload.get("duration_s", 0.0))
        profile.samples = int(payload.get("samples", 0))
        profile.sample_cost_s = float(payload.get("sample_cost_s", 0.0))
        profile.started_unix = float(
            payload.get("started_unix", profile.started_unix)
        )
        for target, field in ((profile.stacks, "stacks"), (profile.idle, "idle")):
            for record in payload.get(field, []):
                key = (
                    str(record["role"]),
                    str(record["span"]),
                    tuple(record["frames"]),
                )
                target[key] = target.get(key, 0) + int(record["count"])
        return profile

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path


def load_profile(path: Union[str, Path]) -> Profile:
    """Load a profile written by :meth:`Profile.save`."""
    return Profile.from_dict(json.loads(Path(path).read_text()))


class SamplingProfiler:
    """Daemon-thread wall-clock sampler over ``sys._current_frames``.

    ``start``/``stop`` are idempotent: starting a running profiler is
    a no-op returning self, stopping a stopped one returns the last
    captured profile (or an empty one).  Only the profiler's own
    thread is excluded from sampling.  The sampler enables span
    attribution in :mod:`repro.obs.trace` for its lifetime so
    instrumented code registers open span names even without a full
    tracer installed.
    """

    def __init__(self, hz: int = DEFAULT_HZ) -> None:
        if not 1 <= hz <= MAX_HZ:
            raise ValueError(f"hz must be in [1, {MAX_HZ}], got {hz}")
        self.hz = hz
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._profile = Profile(hz)
        self._started_at = 0.0

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._profile = Profile(self.hz)
        self._stop.clear()
        enable_span_attribution()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        _RUNNING.set(1.0)
        _HZ.set(float(self.hz))
        self._thread.start()
        return self

    def stop(self) -> Profile:
        thread = self._thread
        if thread is None:
            return self._profile
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        disable_span_attribution()
        _RUNNING.set(0.0)
        self._profile.duration_s = time.perf_counter() - self._started_at
        return self._profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the sampling loop ------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        profile = self._profile
        own_ident = threading.get_ident()
        next_tick = time.perf_counter() + interval
        while not self._stop.wait(
            max(0.0, next_tick - time.perf_counter())
        ):
            t0 = time.perf_counter()
            # A pass that fell behind resynchronizes rather than
            # bursting to catch up — burst samples would all see the
            # same stacks and bias the profile toward whatever caused
            # the stall.
            next_tick = max(next_tick + interval, t0 + 0.25 * interval)
            try:
                self._sample_once(profile, own_ident)
            except Exception:  # pragma: no cover - defensive
                _ERRORS.inc()
            cost = time.perf_counter() - t0
            profile.sample_cost_s += cost
            _SAMPLE_COST.observe(cost)

    @staticmethod
    def _sample_once(profile: Profile, own_ident: int) -> None:
        frames = sys._current_frames()
        try:
            names = {
                thread.ident: thread.name for thread in threading.enumerate()
            }
            spans = thread_span_names()
            profile.samples += 1
            _SAMPLES.inc()
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                role = _thread_role(names.get(ident, "?"))
                span_name = spans.get(ident, UNATTRIBUTED)
                key = (role, span_name, tuple(_walk_stack(frame)))
                if _is_idle(frame):
                    profile.idle[key] = profile.idle.get(key, 0) + 1
                    _IDLE_STACKS.inc()
                else:
                    profile.stacks[key] = profile.stacks.get(key, 0) + 1
                    _STACKS.inc()
        finally:
            # Frames hold every local in every thread alive; drop the
            # mapping before doing anything else.
            del frames


# -- renderers -------------------------------------------------------------


def render_profile_table(profile: Profile, top: int = 20) -> str:
    """ASCII top-N self/cumulative table (``repro profile-summary``)."""
    busy = profile.busy_count
    lines = [
        f"profile: {profile.samples} passes at {profile.hz} Hz over "
        f"{profile.duration_s:.2f}s — {busy} busy stack samples, "
        f"{profile.idle_count} idle",
        f"span attribution: {profile.attributed_fraction() * 100:.1f}% "
        "of busy samples inside a named span",
        f"sampler self-cost: {profile.sample_cost_s * 1e3:.1f} ms total",
    ]
    spans = profile.by_span()
    if spans:
        lines.append("")
        lines.append("by span:")
        for span_name, count in list(spans.items())[:top]:
            share = 100.0 * count / busy if busy else 0.0
            lines.append(f"  {span_name:42s} {count:>8d}  {share:5.1f}%")
    totals = profile.function_totals()
    if totals:
        lines.append("")
        lines.append(
            f"  {'function':58s} {'self':>8s} {'self%':>6s} "
            f"{'cumul':>8s} {'cumul%':>6s}"
        )
        for frame, self_count, cumulative in totals[:top]:
            self_pct = 100.0 * self_count / busy if busy else 0.0
            cumulative_pct = 100.0 * cumulative / busy if busy else 0.0
            lines.append(
                f"  {frame:58s} {self_count:>8d} {self_pct:>5.1f}% "
                f"{cumulative:>8d} {cumulative_pct:>5.1f}%"
            )
    if not totals and not spans:
        lines.append("(no busy samples captured)")
    return "\n".join(lines)


class _FlameNode:
    __slots__ = ("name", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.children: Dict[str, "_FlameNode"] = {}


def _flame_tree(profile: Profile) -> _FlameNode:
    root = _FlameNode("all")
    for (role, span_name, frames), count in profile.stacks.items():
        root.count += count
        node = root
        for label in (role, f"span:{span_name}") + frames:
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _FlameNode(label)
            child.count += count
            node = child
    return root


#: Warm flame-graph palette cycled by depth; inline so the page stays
#: self-contained.
_FLAME_COLORS = ("#c35b4e", "#d98445", "#ddb052", "#b0a160", "#8f9a6d")


def _render_flame_node(
    node: _FlameNode, total: int, depth: int, parts: List[str]
) -> None:
    for child in sorted(
        node.children.values(), key=lambda n: (-n.count, n.name)
    ):
        width = 100.0 * child.count / node.count if node.count else 0.0
        share = 100.0 * child.count / total if total else 0.0
        color = _FLAME_COLORS[depth % len(_FLAME_COLORS)]
        label = _escape_html(child.name)
        parts.append(
            f'<div class="fnode" style="width:{width:.4f}%">'
            f'<div class="fbox" style="background:{color}" '
            f'title="{label} — {child.count} samples ({share:.1f}%)">'
            f"{label}</div>"
        )
        if child.children:
            parts.append('<div class="frow">')
            _render_flame_node(child, total, depth + 1, parts)
            parts.append("</div>")
        parts.append("</div>")


def flamegraph_fragment(profile: Profile) -> str:
    """The flame graph as an embeddable ``<div>`` (used by /dashboard).

    An *icicle* layout (root on top) built from nested flexbox rows —
    no JavaScript, no external assets; hover shows exact counts via
    ``title`` tooltips.
    """
    total = profile.busy_count
    if total == 0:
        return '<p class="muted">no busy samples captured</p>'
    root = _flame_tree(profile)
    parts = [
        "<style>"
        ".flame { font: 10px monospace; }"
        ".frow { display: flex; width: 100%; }"
        ".fnode { overflow: hidden; }"
        ".fbox { color: #15181c; border: 1px solid #15181c; height: 14px;"
        " overflow: hidden; white-space: nowrap; text-overflow: ellipsis;"
        " padding: 0 2px; box-sizing: border-box; }"
        "</style>",
        '<div class="flame"><div class="frow">',
    ]
    _render_flame_node(root, total, 0, parts)
    parts.append("</div></div>")
    return "".join(parts)


def render_flamegraph_html(profile: Profile, title: str = "CPU profile") -> str:
    """A complete self-contained flame-graph page (``format=html``)."""
    spans = profile.by_span()
    busy = profile.busy_count
    span_rows = "".join(
        f"<tr><td>{_escape_html(name)}</td><td>{count}</td>"
        f"<td>{100.0 * count / busy:.1f}%</td></tr>"
        for name, count in list(spans.items())[:12]
        if busy
    )
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_escape_html(title)}</title>"
        "<style>body { font-family: monospace; background: #101418;"
        " color: #d8dee9; margin: 1.5em; }"
        " h1 { font-size: 1.1em; } table { border-collapse: collapse; }"
        " td, th { border: 1px solid #3b4252; padding: 2px 8px; }"
        "</style></head><body>"
        f"<h1>{_escape_html(title)}</h1>"
        f"<p>{profile.samples} passes at {profile.hz} Hz over "
        f"{profile.duration_s:.2f}s &middot; {busy} busy / "
        f"{profile.idle_count} idle stack samples &middot; "
        f"{profile.attributed_fraction() * 100:.1f}% span-attributed</p>"
        + (
            "<table><tr><th>span</th><th>samples</th><th>share</th></tr>"
            + span_rows
            + "</table>"
            if span_rows
            else ""
        )
        + flamegraph_fragment(profile)
        + "</body></html>"
    )
