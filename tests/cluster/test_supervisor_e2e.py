"""End-to-end cluster tests: real forked workers, real HTTP.

The three ISSUE-mandated scenarios — bit-identity across replicas,
crash + restart with traffic continuing, and an alias flip picked up
by followers without restart — plus the control plane (aggregated
status/metrics, admin endpoint) and the shutdown ladder.

Each test boots its own cluster on an ephemeral port; worker counts
stay at 2 and durations short so the whole module runs in seconds.
``urllib`` opens a fresh connection per request, which re-rolls the
``SO_REUSEPORT`` hash every time — that is what spreads a test's
requests across replicas without any affinity tricks.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor
from repro.serve.api import choose_cpu

from .conftest import make_tree

#: Requests per probe loop: with 2 replicas and a fresh connection per
#: request, the chance of never hitting both is ~2^-39.
_PROBE_REQUESTS = 40


def _predict(url: str, ref: str, rows) -> tuple:
    body = json.dumps({"instances": rows}).encode()
    request = urllib.request.Request(
        f"{url}/v1/models/{ref}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        payload = json.loads(response.read())
        replica = response.headers.get("X-Repro-Replica")
    return payload, replica


def _cluster(registry, **overrides) -> ClusterSupervisor:
    config = ClusterConfig(
        registry_dir=str(registry.root),
        workers=2,
        port=0,
        monitor=False,
        health_interval_s=0.1,
        restart_backoff_s=0.1,
        **overrides,
    )
    return ClusterSupervisor(config).start()


def _wait_responsive(supervisor: ClusterSupervisor, deadline_s: float = 15.0):
    """Block until every worker answers its control pipe."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if all(
            supervisor.worker_request(i, "ping", timeout=1.0)
            for i in range(supervisor.config.workers)
        ):
            return
        time.sleep(0.05)
    pytest.fail("cluster workers never became responsive")


class TestBitIdentity:
    def test_two_workers_serve_bit_identical_predictions(
        self, published, probe
    ):
        registry, record, tree = published
        expected = tree.predict(probe).tolist()
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            replicas_seen = set()
            for _ in range(_PROBE_REQUESTS):
                payload, replica = _predict(
                    supervisor.url, "latest", probe.tolist()
                )
                replicas_seen.add(replica)
                assert payload["model_id"] == record.model_id
                # Float equality on the JSON round-trip: Python reprs
                # doubles exactly, so serving must be bit-identical.
                assert payload["predictions"] == expected
                if len(replicas_seen) == 2:
                    break
            assert replicas_seen == {"0", "1"}

    def test_healthz_names_the_replica(self, published):
        registry, _, _ = published
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            with urllib.request.urlopen(
                f"{supervisor.url}/healthz", timeout=10
            ) as response:
                payload = json.loads(response.read())
                header = response.headers.get("X-Repro-Replica")
            assert payload["replica"]["index"] == int(header)
            assert payload["replica"]["leader"] == (header == "0")


class TestCrashRestart:
    def test_killed_worker_is_restarted_and_traffic_continues(
        self, published, probe
    ):
        registry, _, tree = published
        expected = tree.predict(probe).tolist()
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            victim = supervisor._handles[1]
            old_pid = victim.process.pid
            os.kill(old_pid, signal.SIGKILL)
            # Traffic keeps flowing while the worker is down: the
            # surviving replica answers every request.
            for _ in range(5):
                payload, _ = _predict(
                    supervisor.url, "latest", probe.tolist()
                )
                assert payload["predictions"] == expected
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                process = supervisor._handles[1].process
                if process.pid != old_pid and process.is_alive():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor never restarted the killed worker")
            assert supervisor.restart_counts() == [0, 1]
            # The successor inherits the same listening socket and
            # answers the control plane again.
            _wait_responsive(supervisor)
            payload, _ = _predict(supervisor.url, "latest", probe.tolist())
            assert payload["predictions"] == expected


class TestAliasFlip:
    def test_followers_serve_a_promotion_without_restart(
        self, published, probe
    ):
        registry, champion_record, champion_tree = published
        challenger_tree = make_tree(seed=21)
        # No aliases: publish() defaults to taking "latest", which would
        # flip before the explicit promotion below.
        challenger = registry.publish(challenger_tree, aliases=())
        old_predictions = champion_tree.predict(probe).tolist()
        new_predictions = challenger_tree.predict(probe).tolist()
        assert old_predictions != new_predictions
        with _cluster(registry, alias_poll_s=0.1) as supervisor:
            _wait_responsive(supervisor)
            pids_before = [h.process.pid for h in supervisor._handles]
            # Live traffic before the flip serves the champion.
            payload, _ = _predict(supervisor.url, "latest", probe.tolist())
            assert payload["model_id"] == champion_record.model_id
            # The promotion: exactly what the leader's pipeline does.
            registry.move_alias(
                "latest", challenger.model_id, reason="e2e flip"
            )
            # Every replica serves the challenger on its next request —
            # resolution re-reads the alias file per request, no
            # restart involved (pids prove it below).
            replicas_seen = set()
            for _ in range(_PROBE_REQUESTS):
                payload, replica = _predict(
                    supervisor.url, "latest", probe.tolist()
                )
                replicas_seen.add(replica)
                assert payload["model_id"] == challenger.model_id
                assert payload["predictions"] == new_predictions
                if len(replicas_seen) == 2:
                    break
            assert replicas_seen == {"0", "1"}
            assert [
                h.process.pid for h in supervisor._handles
            ] == pids_before
            # The follower's watcher noticed (leader has no watcher —
            # its own pipeline is the source of flips).
            deadline = time.monotonic() + 5.0
            flips = 0
            while time.monotonic() < deadline:
                reply = supervisor.worker_request(1, "status")
                flips = (
                    (reply or {})
                    .get("status", {})
                    .get("alias_watch", {})
                    .get("flips", 0)
                )
                if flips:
                    break
                time.sleep(0.1)
            assert flips == 1
            # The promotions chain stays verifiable after the flip.
            history = registry.alias_history("latest")
            assert history[-1]["to"] == challenger.model_id


class TestControlPlane:
    def test_cluster_status_aggregates_all_replicas(self, published, probe):
        registry, _, _ = published
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            for _ in range(6):
                _predict(supervisor.url, "latest", probe.tolist())
            document = supervisor.status()
            assert document["workers"] == 2
            assert document["responsive"] == 2
            assert document["totals"]["http"]["requests"] >= 6
            indices = {r["index"] for r in document["replicas"]}
            assert indices == {0, 1}
            leaders = [
                entry["status"]["replica"]["leader"]
                for entry in document["replicas"]
            ]
            assert leaders == [True, False]

    def test_cluster_metrics_keep_per_replica_samples(
        self, published, probe
    ):
        registry, _, _ = published
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            replicas_seen = set()
            for _ in range(_PROBE_REQUESTS):
                _, replica = _predict(
                    supervisor.url, "latest", probe.tolist()
                )
                replicas_seen.add(replica)
                if len(replicas_seen) == 2:
                    break
            text = supervisor.metrics_text()
            assert 'repro_serve_http_requests{replica="0"}' in text
            assert 'repro_serve_http_requests{replica="1"}' in text

    def test_admin_endpoint_serves_aggregated_documents(self, published):
        registry, _, _ = published
        with _cluster(registry, admin_port=0) as supervisor:
            _wait_responsive(supervisor)
            # Touch the data plane once so at least one replica has
            # metric samples to expose.
            with urllib.request.urlopen(
                f"{supervisor.url}/healthz", timeout=10
            ) as response:
                response.read()
            base = f"http://127.0.0.1:{supervisor.admin_port}"
            with urllib.request.urlopen(
                f"{base}/healthz", timeout=10
            ) as response:
                health = json.loads(response.read())
            assert health == {"status": "ok", "workers": 2, "alive": 2}
            with urllib.request.urlopen(
                f"{base}/v1/status", timeout=10
            ) as response:
                document = json.loads(response.read())
            assert document["schema"] == "repro-cluster-status-v1"
            with urllib.request.urlopen(
                f"{base}/metrics", timeout=10
            ) as response:
                assert b"# TYPE" in response.read()


class TestShutdown:
    def test_clean_shutdown_reports_zero_unclean(self, published):
        registry, _, _ = published
        supervisor = _cluster(registry)
        _wait_responsive(supervisor)
        assert supervisor.shutdown() == 0
        assert all(
            not handle.process.is_alive()
            for handle in supervisor._handles
        )

    def test_sigkill_escalation_counts_unclean(self, published):
        registry, _, _ = published
        supervisor = _cluster(registry, drain_timeout_s=0.5)
        _wait_responsive(supervisor)
        # A worker that ignores SIGTERM must be SIGKILLed and counted.
        victim = supervisor._handles[0].process
        os.kill(victim.pid, signal.SIGSTOP)  # cannot run its handler
        try:
            assert supervisor.shutdown() >= 1
        finally:
            if victim.is_alive():  # pragma: no cover - kill failed
                os.kill(victim.pid, signal.SIGKILL)

    def test_per_pid_event_logs_merge_into_one_timeline(
        self, published, probe, tmp_path
    ):
        from repro.obs.events import read_events

        registry, _, _ = published
        events_path = tmp_path / "events.jsonl"
        with _cluster(
            registry, events_path=str(events_path)
        ) as supervisor:
            _wait_responsive(supervisor)
            replicas_seen = set()
            for _ in range(_PROBE_REQUESTS):
                _, replica = _predict(
                    supervisor.url, "latest", probe.tolist()
                )
                replicas_seen.add(replica)
                if len(replicas_seen) == 2:
                    break
        # Workers wrote per-PID siblings, never the base path.
        assert not events_path.exists()
        siblings = sorted(tmp_path.glob("events.pid-*.jsonl"))
        assert len(siblings) == 2
        records = read_events(events_path)
        assert records
        stamps = [record["unix"] for record in records]
        assert stamps == sorted(stamps)


def _pinned_cpu(pid: int) -> int:
    """The one CPU every thread of ``pid`` allows (asserted)."""
    masks = set()
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            masks.add(frozenset(os.sched_getaffinity(int(tid))))
        except ProcessLookupError:  # the thread exited meanwhile
            continue
    assert len(masks) == 1, masks
    (mask,) = masks
    assert len(mask) == 1, mask
    return next(iter(mask))


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="replica pinning needs sched_setaffinity and 2+ CPUs",
)
class TestAffinity:
    def test_replicas_sit_on_distinct_cpus_and_report_them(
        self, published
    ):
        registry, _, _ = published
        allowed = set(os.sched_getaffinity(0))
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            cpus = [
                _pinned_cpu(handle.process.pid)
                for handle in supervisor._handles
            ]
            assert cpus == [choose_cpu(allowed, i) for i in (0, 1)]
            assert len(set(cpus)) == 2
            reported = {}
            for _ in range(_PROBE_REQUESTS):
                with urllib.request.urlopen(
                    f"{supervisor.url}/healthz", timeout=10
                ) as response:
                    replica = json.loads(response.read())["replica"]
                reported[replica["index"]] = replica["cpu"]
                if len(reported) == 2:
                    break
            assert reported == {0: cpus[0], 1: cpus[1]}
            # The supervisor itself stays unpinned.
            assert set(os.sched_getaffinity(0)) == allowed

    def test_respawned_replica_returns_to_its_slots_cpu(self, published):
        registry, _, _ = published
        with _cluster(registry) as supervisor:
            _wait_responsive(supervisor)
            old_pid = supervisor._handles[1].process.pid
            cpu = _pinned_cpu(old_pid)
            os.kill(old_pid, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                process = supervisor._handles[1].process
                if process.pid != old_pid and process.is_alive():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor never restarted the killed worker")
            _wait_responsive(supervisor)
            assert _pinned_cpu(supervisor._handles[1].process.pid) == cpu


def _exited(pid: int) -> bool:
    """Gone, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads /proc"
)
class TestSupervisorKilled:
    def test_replicas_exit_when_the_supervisor_is_sigkilled(
        self, published, tmp_path
    ):
        """A supervisor killed with SIGKILL runs no shutdown: each
        replica must notice on its own, by EOF on its control pipe."""
        registry, _, _ = published
        src = Path(__file__).resolve().parents[2] / "src"
        log = tmp_path / "cluster.log"
        with open(log, "wb") as err:
            # Its own session, so cleanup can take down every replica.
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--registry", str(registry.root), "--port", "0",
                    "--workers", "2", "--no-monitor", "--admin-port", "0",
                ],
                env={**os.environ, "PYTHONPATH": str(src)},
                stdout=subprocess.DEVNULL,
                stderr=err,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 30
            admin = None
            while admin is None and time.monotonic() < deadline:
                assert proc.poll() is None, log.read_text()
                admin = re.search(r"admin (http://[\d.]+:\d+)",
                                  log.read_text())
                time.sleep(0.02)
            assert admin, log.read_text()
            pids = []
            while len(pids) < 2 and time.monotonic() < deadline:
                with urllib.request.urlopen(
                    admin.group(1) + "/v1/status", timeout=10
                ) as response:
                    document = json.loads(response.read())
                pids = [
                    entry["status"]["replica"]["pid"]
                    for entry in document["replicas"]
                    if entry.get("status")
                ]
                time.sleep(0.05)
            assert len(pids) == 2, document
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(_exited(pid) for pid in pids):
                    break
                time.sleep(0.05)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(10)
