"""Keep-alive HTTP load over stdlib ``http.client``: a closed and an open loop.

Load comes from one process with at most two threads and two connections,
so the client never outnumbers the CPUs it shares with the server.  Each
request is timed in three parts: writing the request (``send``), waiting
for the status line and headers (``ttfb``) and reading the body
(``body``).  A stall between a response's headers and its body therefore
shows up in ``body`` on its own.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

TRACE_HEADER = "X-Repro-Trace"
TIMEOUT_S = 10.0


@dataclass
class Result:
    """One request as the client saw it (times are ``perf_counter``)."""

    index: int
    trace_id: str
    scheduled: float
    sent: float = 0.0
    send_s: float = 0.0
    ttfb_s: float = 0.0
    body_s: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: connect error, reset or timeout
    model_id: Optional[str] = None
    predictions: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        """From when the request was due to when its body was read."""
        return self.done - self.scheduled

    @property
    def round_trip_s(self) -> float:
        return self.done - self.sent

    @property
    def lag_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.scheduled


class Client:
    """One keep-alive connection that reopens after a failure."""

    def __init__(self, host: str, port: int, path: str, tag: str) -> None:
        self.path, self.tag = path, tag
        self.conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        self.connects = 0

    def request(self, index: int, body: bytes, scheduled: float) -> Result:
        result = Result(index, f"{self.tag}-{index}", scheduled)
        headers = {
            "Content-Type": "application/json",
            TRACE_HEADER: result.trace_id,
        }
        if self.conn.sock is None:
            self.connects += 1
        t0 = result.sent = time.perf_counter()
        try:
            self.conn.request("POST", self.path, body=body, headers=headers)
            t1 = time.perf_counter()
            response = self.conn.getresponse()
            t2 = time.perf_counter()
            payload = response.read()
            t3 = time.perf_counter()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            result.done = time.perf_counter()
            return result
        result.done = t3
        result.send_s, result.ttfb_s, result.body_s = t1 - t0, t2 - t1, t3 - t2
        result.status = response.status
        if response.status == 200:
            document = json.loads(payload)
            result.model_id = document.get("model_id")
            result.predictions = document.get("predictions")
        return result

    def close(self) -> None:
        self.conn.close()


def closed_loop(
    host: str,
    port: int,
    path: str,
    bodies: Sequence[bytes],
    seconds: float,
    connections: int,
    tag: str,
) -> Tuple[List[Result], float, int]:
    """``connections`` clients each send their next request on reply.

    Request ``i`` carries ``bodies[i % len(bodies)]``.  Returns the
    results in request order, the wall time and the connections opened.
    """
    counter = itertools.count()
    clients = [
        Client(host, port, path, f"{tag}{c}") for c in range(connections)
    ]
    per_client: List[List[Result]] = [[] for _ in clients]
    start = time.perf_counter()
    deadline = start + seconds

    def drive(client: Client, out: List[Result]) -> None:
        while time.perf_counter() < deadline:
            index = next(counter)
            body = bodies[index % len(bodies)]
            out.append(client.request(index, body, time.perf_counter()))

    threads = [
        threading.Thread(target=drive, args=(client, out), daemon=True)
        for client, out in zip(clients, per_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * TIMEOUT_S)
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish")
    results = sorted(
        (r for out in per_client for r in out), key=lambda r: r.index
    )
    return results, wall, sum(c.connects for c in clients)


def open_loop(
    host: str,
    port: int,
    path: str,
    bodies: Sequence[bytes],
    schedule: Sequence[float],
    tag: str,
) -> Tuple[List[Result], float, int]:
    """One sender fires request ``i`` at ``schedule[i]`` seconds.

    A request is timed from when it was due, so a stall that holds the
    sender back is charged to every request queued behind it.
    """
    client = Client(host, port, path, tag)
    results: List[Result] = []
    start = time.perf_counter()
    for index, offset in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        results.append(client.request(index, bodies[index], due))
    wall = time.perf_counter() - start
    client.close()
    return results, wall, client.connects


def backlog_grew(results: Sequence[Result], interval_s: float) -> bool:
    """True when the sender ended further behind schedule than it began.

    Compares the median lag of the last quarter of requests with that of
    the first quarter; a gap beyond one mean inter-arrival interval
    means requests arrived faster than they were answered.
    """
    quarter = len(results) // 4
    if quarter == 0:
        return False
    first = sorted(r.lag_s for r in results[:quarter])
    last = sorted(r.lag_s for r in results[-quarter:])
    return last[len(last) // 2] - first[len(first) // 2] > interval_s
