"""The load generator: closed-loop and open-loop HTTP driving.

Two load models, because they answer different questions:

**Closed loop** — K client threads, each with one persistent
connection, each looping request → response → think-time.  Offered
load adapts to service rate (a slow server simply sees its clients
wait), so this measures *capacity*: the achieved-throughput plateau as
K grows is the saturation point.  This is the SPEC-style "how much can
the box do" number.

**Open loop** — arrivals are a Poisson process at a target rate,
independent of how the server is doing; requests that arrive while
others are in flight queue.  This measures *latency at an offered
rate*, the question a production SLO asks.  Crucially the latency
clock for each request starts at its **scheduled arrival time**, not
when a sender thread finally got around to transmitting it: starting
at send time silently excuses server-induced backlog — the
coordinated-omission trap — and reports fantasy percentiles exactly
when the server is the problem.

Implementation notes: persistent ``http.client.HTTPConnection`` per
sender thread (reconnect-per-request would measure TCP handshakes and,
against a ``SO_REUSEPORT`` cluster, re-roll the replica hash per
request — one connection per thread is also what keeps replica
affinity realistic); percentiles are nearest-rank over every recorded
sample, no binning; errors (connect failures, non-2xx, timeouts) are
counted and excluded from the latency population rather than recorded
as zero-latency successes.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs.telemetry import TRACE_HEADER

__all__ = ["LoadConfig", "LoadResult", "run_load", "percentile"]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (the convention used across the repo)."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadConfig:
    """One load run against one URL."""

    url: str  #: server base URL, e.g. http://127.0.0.1:8080
    model: str = "latest"
    mode: str = "closed"  #: "closed" | "open"
    duration_s: float = 10.0
    #: closed loop: concurrent connections; open loop: sender pool size
    #: (bounds in-flight requests the harness itself can sustain).
    connections: int = 4
    #: closed loop only — per-iteration think time (0 = back to back).
    think_ms: float = 0.0
    #: open loop only — offered arrival rate, requests/s.
    rate: float = 100.0
    #: rows per request (the serving batch the paper's numbers use).
    batch_rows: int = 64
    #: the request rows.  With more rows than ``batch_rows``, each
    #: request sends the next ``batch_rows`` of them, wrapping around;
    #: otherwise every request sends them all.  Bodies are encoded
    #: before the clock starts.
    instances: Optional[List[List[float]]] = None
    #: one label per instance, sent as ``actuals`` so the server's drift
    #: monitor (and an armed pipeline) sees labelled traffic.
    actuals: Optional[List[float]] = None
    timeout_s: float = 30.0
    seed: int = 20080402

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open': {self.mode!r}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0: {self.duration_s}")
        if self.connections < 1:
            raise ValueError(f"connections must be >= 1: {self.connections}")
        if self.batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1: {self.batch_rows}")
        if self.actuals is not None and (
            self.instances is None or len(self.actuals) != len(self.instances)
        ):
            raise ValueError("actuals needs instances of the same length")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError(f"rate must be > 0 in open mode: {self.rate}")


@dataclass
class LoadResult:
    """What one run measured; :meth:`as_dict` is the snapshot section."""

    mode: str
    duration_s: float
    requests: int
    errors: int
    rows: int
    achieved_rps: float
    achieved_rows_per_s: float
    offered_rps: Optional[float]  #: open loop only
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    connections: int
    batch_rows: int
    replicas_seen: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "errors": self.errors,
            "rows": self.rows,
            "achieved_rps": self.achieved_rps,
            "achieved_rows_per_s": self.achieved_rows_per_s,
            "offered_rps": self.offered_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_max_ms": self.latency_max_ms,
            "connections": self.connections,
            "batch_rows": self.batch_rows,
            "replicas_seen": sorted(self.replicas_seen),
        }


class _Sender:
    """One persistent-connection client thread's state.

    Every request carries the trace ID ``lb-<index>-<n>`` (``n`` counts
    this sender's requests from 0), which the server echoes and records
    in its event log, so a slow request can be found there.
    """

    def __init__(
        self, index: int, host: str, port: int, timeout_s: float
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None
        self.sent = 0

    def request(self, path: str, body: bytes) -> tuple:
        """POST once; returns (ok, replica_header).  Reconnects lazily."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        trace_id = f"lb-{self.index}-{self.sent}"
        self.sent += 1
        try:
            self.conn.request(
                "POST",
                path,
                body=body,
                headers={
                    "Content-Type": "application/json",
                    TRACE_HEADER: trace_id,
                },
            )
            response = self.conn.getresponse()
            replica = response.getheader("X-Repro-Replica")
            response.read()
            if response.status != 200:
                return False, replica
            return True, replica
        except (OSError, http.client.HTTPException):
            # Drop the connection; the next call re-establishes it.
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
            return False, None

    def close(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None


def _default_instances(
    batch_rows: int, seed: int, n_features: int = 3
) -> List[List[float]]:
    """A deterministic payload of ``n_features``-wide rows."""
    rng = random.Random(seed)
    return [
        [rng.uniform(-2, 2) for _ in range(n_features)]
        for _ in range(batch_rows)
    ]


def _bodies(config: LoadConfig) -> Tuple[List[bytes], int]:
    """Every distinct request body in sending order, and rows per body."""
    instances = config.instances
    if instances is None:
        instances = _default_instances(config.batch_rows, config.seed)
    n = len(instances)
    size = min(n, config.batch_rows)
    bodies = []
    for k in range(n // math.gcd(n, size) if n else 1):
        rows = [(k * size + i) % n for i in range(size)]
        payload: Dict[str, Any] = {"instances": [instances[r] for r in rows]}
        if config.actuals is not None:
            payload["actuals"] = [config.actuals[r] for r in rows]
        bodies.append(json.dumps(payload).encode())
    return bodies, size


def run_load(config: LoadConfig) -> LoadResult:
    """Drive one load run; blocks for ``config.duration_s``."""
    parts = urlsplit(config.url)
    host, port = parts.hostname or "127.0.0.1", parts.port or 80
    path = f"/v1/models/{config.model}/predict"
    bodies, rows_per_request = _bodies(config)
    # Shared by every sender: each request takes the next body.
    next_body = itertools.cycle(bodies).__next__

    lock = threading.Lock()
    latencies: List[float] = []
    errors = [0]
    replicas: set = set()
    stop = threading.Event()
    started = time.perf_counter()
    deadline = started + config.duration_s

    def record(ok: bool, replica: Optional[str], latency_s: float) -> None:
        with lock:
            if ok:
                latencies.append(latency_s)
            else:
                errors[0] += 1
            if replica is not None:
                replicas.add(replica)

    offered: Optional[float] = None
    threads: List[threading.Thread] = []

    if config.mode == "closed":

        def closed_client(index: int) -> None:
            sender = _Sender(index, host, port, config.timeout_s)
            think_s = config.think_ms / 1e3
            try:
                # The first request goes whatever the clock says: a
                # sender that starts after a short run's deadline still
                # records one, and the run's elapsed time is measured.
                while True:
                    t0 = time.perf_counter()
                    ok, replica = sender.request(path, next_body())
                    record(ok, replica, time.perf_counter() - t0)
                    if think_s > 0:
                        stop.wait(think_s)
                    if stop.is_set() or time.perf_counter() >= deadline:
                        break
            finally:
                sender.close()

        threads = [
            threading.Thread(
                target=closed_client, args=(i,), name=f"loadbench-{i}",
                daemon=True,
            )
            for i in range(config.connections)
        ]
    else:
        # Open loop: one shared schedule of Poisson arrival offsets,
        # partitioned round-robin over the sender pool.  Each sender
        # sleeps to its next *scheduled* time and measures from that
        # schedule point — late sends (server backlog, GIL) eat into
        # the recorded latency instead of being silently omitted.
        rng = random.Random(config.seed)
        arrivals: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(config.rate)
            if t >= config.duration_s:
                break
            arrivals.append(t)
        offered = len(arrivals) / config.duration_s

        def open_client(index: int) -> None:
            sender = _Sender(index, host, port, config.timeout_s)
            try:
                for scheduled in arrivals[index :: config.connections]:
                    target = started + scheduled
                    delay = target - time.perf_counter()
                    if delay > 0 and stop.wait(delay):
                        break
                    if stop.is_set():
                        break
                    ok, replica = sender.request(path, next_body())
                    record(ok, replica, time.perf_counter() - target)
            finally:
                sender.close()

        threads = [
            threading.Thread(
                target=open_client, args=(i,), name=f"loadbench-{i}",
                daemon=True,
            )
            for i in range(config.connections)
        ]

    for thread in threads:
        thread.start()
    for thread in threads:
        # Bounded: a hung server cannot hang the harness forever.
        thread.join(config.duration_s + config.timeout_s + 5.0)
    stop.set()
    elapsed = time.perf_counter() - started

    requests = len(latencies)
    return LoadResult(
        mode=config.mode,
        duration_s=elapsed,
        requests=requests,
        errors=errors[0],
        rows=requests * rows_per_request,
        achieved_rps=requests / elapsed if elapsed > 0 else 0.0,
        achieved_rows_per_s=(
            requests * rows_per_request / elapsed if elapsed > 0 else 0.0
        ),
        offered_rps=offered,
        latency_p50_ms=percentile(latencies, 0.50) * 1e3,
        latency_p95_ms=percentile(latencies, 0.95) * 1e3,
        latency_p99_ms=percentile(latencies, 0.99) * 1e3,
        latency_mean_ms=(
            sum(latencies) / len(latencies) * 1e3 if latencies else float("nan")
        ),
        latency_max_ms=max(latencies) * 1e3 if latencies else float("nan"),
        connections=config.connections,
        batch_rows=rows_per_request,
        replicas_seen=sorted(replicas),
    )
