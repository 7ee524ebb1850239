"""The cluster control plane: fork, health-check, restart, drain.

The supervisor owns everything the replicas must agree on before they
exist: the listening sockets (created first, so ``port=0`` resolves
once and crashed workers' successors re-inherit the very same socket —
connections queued while a worker was dead are accepted by its
replacement instead of being reset), the replica indices (0 is the
pipeline leader), and the shutdown order.

Per worker the supervisor keeps a ``fork``-context ``Process`` and one
end of a control :class:`~multiprocessing.Pipe`.  The pipe is the
whole control plane — ping / status / metrics / stop — deliberately
out-of-band from the data plane's HTTP sockets, so a worker drowning
in requests still answers health checks and a hung worker is detected
even though the kernel would happily keep queueing connections for it.

Failure policy: the health loop restarts any dead worker after a
fixed backoff (a crash loop burns one respawn per
``restart_backoff_s``, not CPU); restarts are counted per replica and
cluster-wide (``cluster.worker_restarts``).  Shutdown walks replicas
one at a time — SIGTERM, bounded join, SIGKILL escalation — and
:meth:`ClusterSupervisor.shutdown` returns how many workers needed
the hammer, which the CLI turns into the exit code.

An optional admin HTTP endpoint (``--admin-port``) serves the
aggregated cluster ``/v1/status``, ``/metrics`` and ``/healthz`` from
the supervisor process itself — one scrape target for N replicas.
"""

from __future__ import annotations

import json
import signal
import socket as socket_module
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.aggregate import (
    build_cluster_status,
    render_cluster_metrics,
)
from repro.cluster.sockets import create_listen_sockets
from repro.cluster.worker import WorkerSpec, worker_main
from repro.obs.metrics import counter
from repro.serve.api import POLL_INTERVAL_S, OneWriteHandler
from repro.serve.engine import BatchConfig

__all__ = ["ClusterConfig", "ClusterSupervisor"]

_RESTARTS = counter("cluster.worker_restarts")

#: Fallback reply window for one control-pipe request.
DEFAULT_CONTROL_TIMEOUT_S = 5.0


@dataclass
class ClusterConfig:
    """Shape of one serving cluster."""

    registry_dir: str
    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8080
    batch: Optional[BatchConfig] = None
    monitor: bool = True
    pipeline: bool = False
    events_path: Optional[str] = None
    #: Follower alias-watch poll cadence (bounds promotion staleness).
    alias_poll_s: float = 0.5
    #: Health-loop cadence: liveness sweep + dead-worker respawn.
    health_interval_s: float = 0.5
    #: Respawn delay after a worker death (crash-loop throttle).
    restart_backoff_s: float = 0.5
    #: Per-worker SIGTERM drain window before SIGKILL.
    drain_timeout_s: float = 10.0
    #: Supervisor admin HTTP port (None = no admin endpoint, 0 = pick).
    admin_port: Optional[int] = None
    #: Extra ModelServer kwargs forwarded to every worker.
    extra_server_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class _WorkerHandle:
    """One replica slot: process + control pipe + restart bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        #: Serializes request/reply pairs on the pipe — two overlapping
        #: requests would read each other's replies.
        self.lock = threading.Lock()
        self.restarts = 0
        self.died_at: Optional[float] = None


class _AdminHandler(OneWriteHandler):
    """Supervisor admin endpoint: the aggregated cluster documents."""

    def do_GET(self) -> None:
        supervisor: "ClusterSupervisor" = self.server.supervisor
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                alive = supervisor.alive_workers()
                payload = {
                    "status": "ok" if alive == supervisor.config.workers
                    else "degraded",
                    "workers": supervisor.config.workers,
                    "alive": alive,
                }
                self._send(200, json.dumps(payload).encode())
            elif path == "/v1/status":
                self._send(200, json.dumps(supervisor.status()).encode())
            elif path == "/metrics":
                self._send(
                    200,
                    supervisor.metrics_text().encode(),
                    "text/plain; version=0.0.4",
                )
            else:
                self._send(
                    404,
                    json.dumps(
                        {"error": {"code": "not_found", "message": path}}
                    ).encode(),
                )
        except (BrokenPipeError, ConnectionResetError):
            pass


class ClusterSupervisor:
    """Forks and babysits N serving replicas behind one host:port."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._ctx = get_context("fork")
        self._sockets: List[socket_module.socket] = []
        self.port: Optional[int] = None
        self.socket_mode: Optional[str] = None
        self._handles: List[_WorkerHandle] = []
        self._stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self._admin: Optional[ThreadingHTTPServer] = None
        self._admin_thread: Optional[threading.Thread] = None
        self.started_unix: Optional[float] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        if self._handles:
            raise RuntimeError("cluster already started")
        self._sockets, self.port, self.socket_mode = create_listen_sockets(
            self.config.host, self.config.port, self.config.workers
        )
        self.started_unix = time.time()
        self._handles = [
            _WorkerHandle(index) for index in range(self.config.workers)
        ]
        try:
            for handle in self._handles:
                self._spawn(handle)
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="repro-cluster-health",
                daemon=True,
            )
            self._health_thread.start()
            if self.config.admin_port is not None:
                self._start_admin()
        except Exception:
            # A partial boot must not leak forked workers or sockets —
            # a leaked worker holds inherited stdio pipes open forever.
            self.shutdown()
            self._handles = []
            raise
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Fork one replica into ``handle``'s slot.

        The child inherits the supervisor's listening sockets and its
        pipe end by fork — nothing is pickled, so the sockets stay the
        same kernel objects across every respawn of this slot.  It also
        inherits every supervisor-side pipe end open at the fork, which
        it closes first: while a copy stays open in a replica, that
        pipe never reads EOF when the supervisor dies.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        supervisor_ends = [parent_conn] + [
            other.conn for other in self._handles if other.conn is not None
        ]
        spec = WorkerSpec(
            index=handle.index,
            registry_dir=self.config.registry_dir,
            host=self.config.host,
            port=int(self.port or 0),
            socket_mode=str(self.socket_mode),
            batch=self.config.batch,
            monitor=self.config.monitor,
            pipeline=self.config.pipeline,
            events_path=self.config.events_path,
            alias_poll_s=self.config.alias_poll_s,
            extra_server_kwargs=dict(self.config.extra_server_kwargs),
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(spec, self._sockets, child_conn, supervisor_ends),
            name=f"repro-worker-{handle.index}",
        )
        process.start()
        child_conn.close()  # the child's copy lives on in the child
        handle.process = process
        handle.conn = parent_conn
        handle.died_at = None

    # -- health / restart ------------------------------------------------

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            now = time.monotonic()
            for handle in self._handles:
                process = handle.process
                if process is None or process.is_alive():
                    continue
                if handle.died_at is None:
                    handle.died_at = now
                    continue  # respawn next sweep, after the backoff
                if now - handle.died_at < self.config.restart_backoff_s:
                    continue
                if self._stop.is_set():
                    return
                process.join(0)
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.restarts += 1
                _RESTARTS.inc()
                self._spawn(handle)

    def alive_workers(self) -> int:
        return sum(
            1
            for handle in self._handles
            if handle.process is not None and handle.process.is_alive()
        )

    def restart_counts(self) -> List[int]:
        return [handle.restarts for handle in self._handles]

    # -- control plane ---------------------------------------------------

    def worker_request(
        self,
        index: int,
        command: str,
        timeout: float = DEFAULT_CONTROL_TIMEOUT_S,
    ) -> Optional[Dict[str, Any]]:
        """One request/reply on a worker's control pipe.

        Returns ``None`` when the worker is dead, mid-restart, or does
        not answer within ``timeout`` — callers treat that as
        "unresponsive", never as an exception, because health surfaces
        must degrade instead of erroring.
        """
        if not 0 <= index < len(self._handles):
            raise IndexError(f"no worker {index}")
        handle = self._handles[index]
        with handle.lock:
            process, conn = handle.process, handle.conn
            if process is None or not process.is_alive():
                return None
            try:
                conn.send({"command": command})
                if not conn.poll(timeout):
                    return None
                reply = conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return None
        return reply if isinstance(reply, dict) else None

    def status(self) -> Dict[str, Any]:
        """The aggregated cluster ``/v1/status`` document."""
        per_replica: Dict[int, Optional[Dict[str, Any]]] = {}
        for handle in self._handles:
            reply = self.worker_request(handle.index, "status")
            per_replica[handle.index] = (
                reply.get("status") if reply and reply.get("ok") else None
            )
        return build_cluster_status(per_replica, self.supervisor_info())

    def metrics_text(self) -> str:
        """The aggregated cluster ``/metrics`` exposition."""
        per_replica: Dict[int, List[Dict[str, Any]]] = {}
        for handle in self._handles:
            reply = self.worker_request(handle.index, "metrics")
            if reply and reply.get("ok"):
                per_replica[handle.index] = reply["records"]
        return render_cluster_metrics(per_replica)

    def supervisor_info(self) -> Dict[str, Any]:
        return {
            "host": self.config.host,
            "port": self.port,
            "socket_mode": self.socket_mode,
            "workers": self.config.workers,
            "alive": self.alive_workers(),
            "restarts": self.restart_counts(),
            "pipeline_leader": 0 if self.config.pipeline else None,
            "uptime_s": (
                time.time() - self.started_unix
                if self.started_unix
                else None
            ),
            "admin": (
                f"http://{self.config.host}:{self.admin_port}"
                if self._admin is not None
                else None
            ),
        }

    # -- admin endpoint --------------------------------------------------

    def _start_admin(self) -> None:
        self._admin = ThreadingHTTPServer(
            (self.config.host, int(self.config.admin_port or 0)),
            _AdminHandler,
        )
        self._admin.daemon_threads = True
        self._admin.supervisor = self  # type: ignore[attr-defined]
        self._admin_thread = threading.Thread(
            target=self._admin.serve_forever,
            args=(POLL_INTERVAL_S,),
            name="repro-cluster-admin",
            daemon=True,
        )
        self._admin_thread.start()

    @property
    def admin_port(self) -> Optional[int]:
        if self._admin is None:
            return None
        return self._admin.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- shutdown --------------------------------------------------------

    def serve_forever(self) -> None:
        """Park the CLI thread until :meth:`request_stop`.

        Python runs signal handlers on the main thread, when it next
        runs bytecode.  A signal another thread took would leave an
        untimed wait parked for good, so this waits in 0.1 s slices.
        """
        while not self._stop.wait(0.1):
            pass

    def request_stop(self) -> None:
        """Signal-handler-safe: unblocks :meth:`serve_forever`."""
        self._stop.set()

    def shutdown(self) -> int:
        """Rolling drain; returns how many workers exited uncleanly.

        One replica at a time: SIGTERM (the worker stops accepting and
        drains its engine), a bounded join, then SIGKILL for a worker
        that would not die — counted, because a forced kill may have
        dropped in-flight requests and the exit code must say so.
        """
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(5.0)
            self._health_thread = None
        unclean = 0
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            if process.is_alive():
                try:
                    process.terminate()  # SIGTERM → worker drain path
                except OSError:  # pragma: no cover
                    pass
                process.join(self.config.drain_timeout_s)
            if process.is_alive():
                process.kill()
                process.join(5.0)
                unclean += 1
            elif (process.exitcode or 0) not in (0, -signal.SIGTERM):
                unclean += 1
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._admin is not None:
            self._admin.shutdown()
            self._admin.server_close()
            self._admin = None
            if self._admin_thread is not None:
                self._admin_thread.join(5.0)
                self._admin_thread = None
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sockets = []
        return unclean

    def __enter__(self) -> "ClusterSupervisor":
        # Works both for ``with ClusterSupervisor(cfg) as s`` and for a
        # supervisor the caller already ``start()``-ed.
        if not self._handles:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
