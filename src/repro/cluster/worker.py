"""What runs inside one forked cluster replica.

:func:`worker_main` is the child-process entry point the supervisor
forks into.  Everything it needs — the :class:`WorkerSpec`, the
listening sockets, its end of the control pipe — arrives by fork
inheritance, never pickling, so sockets and callables travel for free.

Per-replica layout:

- its **own** :class:`~repro.serve.registry.ModelRegistry` over the
  shared directory and its own batching engine — replicas share
  *artifacts on disk*, never Python objects, which is what makes
  predictions bit-identical across them (same bytes in, same compiled
  kernel, same float ops);
- the **leader** (replica 0, and only it) arms the MLOps pipeline, so
  retrain/shadow/promote runs exactly once per cluster;
- every **follower** runs an :class:`~repro.cluster.watch.AliasWatcher`
  that warms freshly promoted champions (resolution itself re-reads
  alias files per request, so followers serve a promotion on their
  next request regardless);
- a **control thread** answers the supervisor's pipe requests (ping /
  status / metrics / stop) so health checks never touch the data
  plane's HTTP path;
- **SIGTERM** triggers the drain: stop accepting, answer everything
  already queued in the engine, flush telemetry, exit 0.  The drain is
  deliberately *bounded* — ``block_on_close`` is turned off so an idle
  keep-alive connection (a load generator holding a persistent socket,
  a dead client) cannot pin the worker in ``server_close`` forever;
  the supervisor's SIGKILL ladder backstops true stragglers.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.engine import BatchConfig

__all__ = ["WorkerSpec", "worker_main"]

#: After the engine drain, how long a worker lingers so in-flight
#: handler threads finish writing their (already computed) responses.
RESPONSE_GRACE_S = 0.3


@dataclass
class WorkerSpec:
    """Everything one replica needs, passed across the fork."""

    index: int
    registry_dir: str
    host: str
    port: int
    socket_mode: str  # "reuseport" | "shared"
    batch: Optional[BatchConfig] = None
    monitor: bool = True
    pipeline: bool = False
    events_path: Optional[str] = None
    alias_poll_s: float = 0.5
    extra_server_kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def leader(self) -> bool:
        return self.index == 0


def _own_socket(
    spec: WorkerSpec, sockets: List[socket.socket]
) -> socket.socket:
    """Keep this replica's listening socket, close the siblings'.

    Fork hands the child *every* socket the supervisor created.  In
    reuseport mode each replica must accept on exactly one of them —
    holding a sibling's socket open would both steal its kernel-hashed
    connections and keep the port alive after that sibling dies.  In
    shared mode there is only one socket and everyone keeps it.
    """
    if spec.socket_mode == "shared":
        return sockets[0]
    own = sockets[spec.index]
    for i, sock in enumerate(sockets):
        if i != spec.index:
            sock.close()
    return own


def worker_main(spec: WorkerSpec, sockets: List[socket.socket], conn) -> None:
    """Run one replica until SIGTERM or a ``stop`` control command."""
    # The metrics registry arrived pre-populated from the supervisor's
    # process; zero it so this replica reports only its own traffic.
    from repro.obs.metrics import get_registry
    from repro.serve.api import ModelServer
    from repro.serve.registry import ModelRegistry
    from repro.cluster.watch import AliasWatcher

    get_registry().reset()

    listen_socket = _own_socket(spec, sockets)
    registry = ModelRegistry(spec.registry_dir)
    server = ModelServer(
        registry,
        host=spec.host,
        port=spec.port,
        batch=spec.batch,
        monitor=spec.monitor,
        events_path=spec.events_path,
        events_per_pid=True,
        pipeline=spec.pipeline and spec.leader,
        listen_socket=listen_socket,
        replica={"index": spec.index, "leader": spec.leader},
        **spec.extra_server_kwargs,
    )
    # Bounded drain: never sit in server_close joining an idle
    # keep-alive reader; the engine drain below answers all real work.
    server._httpd.block_on_close = False

    watcher: Optional[AliasWatcher] = None
    if not spec.leader:
        watcher = AliasWatcher(registry, poll_s=spec.alias_poll_s).start()

    stop_event = threading.Event()

    def _on_sigterm(signum, frame) -> None:
        stop_event.set()

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, _on_sigterm)

    def _status_document() -> Dict[str, Any]:
        document = server.status_document()
        if watcher is not None:
            document["alias_watch"] = watcher.report()
        return document

    def _control_loop() -> None:
        """Answer supervisor pipe requests until stop/EOF."""
        while not stop_event.is_set():
            try:
                if not conn.poll(0.2):
                    continue
                request = conn.recv()
            except (EOFError, OSError):
                # Supervisor went away: treat as a stop order rather
                # than running on as an unsupervised orphan.
                stop_event.set()
                return
            command = request.get("command")
            try:
                if command == "ping":
                    reply: Dict[str, Any] = {"ok": True, "pid": os.getpid()}
                elif command == "status":
                    reply = {"ok": True, "status": _status_document()}
                elif command == "metrics":
                    reply = {
                        "ok": True,
                        "records": get_registry().as_records(),
                    }
                elif command == "stop":
                    reply = {"ok": True, "pid": os.getpid()}
                    stop_event.set()
                else:
                    reply = {"ok": False, "error": f"unknown {command!r}"}
            except Exception as error:  # pragma: no cover - defensive
                reply = {"ok": False, "error": str(error)}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # pragma: no cover
                stop_event.set()
                return

    control = threading.Thread(
        target=_control_loop, name="repro-cluster-control", daemon=True
    )
    control.start()

    # serve_forever blocks this (the main) thread; the shutdown trigger
    # must come from another one, and a signal handler cannot call
    # httpd.shutdown itself (it would deadlock waiting for the very
    # serve loop it interrupted), hence the waiter thread.
    def _shutdown_when_stopped() -> None:
        stop_event.wait()
        server._httpd.shutdown()

    threading.Thread(
        target=_shutdown_when_stopped,
        name="repro-cluster-drain",
        daemon=True,
    ).start()

    try:
        server.serve_forever()
    finally:
        stop_event.set()
        if watcher is not None:
            watcher.stop()
        # Drain: no new accepts (loop exited), answer the queued work,
        # flush telemetry, give in-flight response writes a beat.
        server._httpd.server_close()
        server.engine.stop()
        if server.telemetry is not None:
            server.telemetry.close()
        time.sleep(RESPONSE_GRACE_S)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
