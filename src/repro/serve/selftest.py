"""End-to-end serving smoke test: ``repro serve --self-test``.

Boots a :class:`~repro.serve.api.ModelServer` on an ephemeral port,
round-trips one predict request over real HTTP and verifies the
response is bit-identical to calling the tree directly — through both
the compiled kernel (the serving default) and the recursive reference
walk, so the float64 equivalence of the two backends is asserted on
the real serving path, not just in unit tests — then checks
``/healthz``, sends a labelled predict and confirms the drift monitor
saw it (``/v1/models/<ref>/drift``), and finally that ``/metrics``
reflects both the traffic and the drift instruments.  Exits 0 only if
every check passes — cheap enough for CI, honest enough to catch a
broken serving path.

If the registry holds no model yet, a small tree is trained and
published under the ``selftest`` alias first (deterministic seed, a
few thousand synthetic CPU2006 intervals), so the command works on an
empty directory.

With ``workers > 1`` (``repro serve --self-test --workers N``) a
second pass boots a real forked :mod:`repro.cluster` on an ephemeral
port and repeats the probe through it, asserting every replica's HTTP
response bit-identical to direct ``ModelTree.predict`` and that at
least two distinct replicas answered.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from typing import Optional

import numpy as np

from repro.serve.api import ModelServer
from repro.serve.engine import BatchConfig
from repro.serve.registry import ModelRegistry

__all__ = ["run_self_test"]

#: Sample count/seed for the fallback model on an empty registry.
_SELFTEST_SAMPLES = 3000
_SELFTEST_SEED = 20080401


def _ensure_model(registry: ModelRegistry) -> str:
    """Guarantee a resolvable model; returns the reference to probe."""
    try:
        registry.resolve("latest")
        return "latest"
    except KeyError:
        pass
    records = registry.list_records()
    if records:
        return records[-1].model_id
    from repro.mtree.tree import ModelTree, ModelTreeConfig
    from repro.workloads.spec_cpu2006 import spec_cpu2006
    from repro.workloads.suite import SuiteGenerationConfig

    data = spec_cpu2006().generate(
        SuiteGenerationConfig(
            total_samples=_SELFTEST_SAMPLES, seed=_SELFTEST_SEED
        )
    )
    tree = ModelTree(ModelTreeConfig(min_leaf=40)).fit_sample_set(data)
    registry.publish(
        tree,
        metadata={
            "suite": "cpu2006",
            "origin": "serve --self-test",
            "train_y": {
                "n": len(data),
                "mean": float(data.y.mean()),
                "var": float(data.y.var(ddof=1)),
            },
        },
        aliases=("latest", "selftest"),
    )
    return "latest"


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _cluster_self_test(
    registry_dir: str,
    ref: str,
    record,
    probe: np.ndarray,
    expected: np.ndarray,
    workers: int,
    batch: Optional[BatchConfig],
    out,
) -> int:
    """Smoke the same probe through an N-replica cluster front end.

    Every request carries an ``X-Repro-Replica`` header; the probe is
    repeated until at least two distinct replicas have answered (the
    kernel hashes connections, so coverage is probabilistic per
    request but certain over enough fresh connections), and every
    single response must be bit-identical to the direct
    ``ModelTree.predict`` floats.
    """
    from repro.cluster import ClusterConfig, ClusterSupervisor

    body = json.dumps({"instances": probe.tolist()}).encode()
    with ClusterSupervisor(
        ClusterConfig(
            registry_dir=registry_dir,
            workers=workers,
            port=0,
            batch=batch,
            monitor=False,
        )
    ) as supervisor:
        replicas_seen = set()
        # urllib opens a fresh connection per request — each re-rolls
        # the SO_REUSEPORT hash, so 40 tries cover 2+ replicas with
        # overwhelming probability (shared mode round-robins anyway).
        for attempt in range(40):
            request = urllib.request.Request(
                f"{supervisor.url}/v1/models/{ref}/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                reply = json.loads(response.read())
                replica = response.headers.get("X-Repro-Replica")
            if replica is not None:
                replicas_seen.add(replica)
            got = np.asarray(reply["predictions"], dtype=float)
            if not np.array_equal(got, expected):
                print(
                    f"self-test: replica {replica} predictions differ "
                    "from direct ModelTree.predict (max diff "
                    f"{np.max(np.abs(got - expected)):.3g})",
                    file=out,
                )
                return 1
            if len(replicas_seen) >= min(2, workers) and attempt >= 9:
                break
        if len(replicas_seen) < min(2, workers):
            print(
                f"self-test: only replica(s) {sorted(replicas_seen)} "
                f"answered across 40 requests to a {workers}-worker "
                "cluster",
                file=out,
            )
            return 1
        status = supervisor.status()
        if status.get("responsive") != workers:
            print(
                f"self-test: {status.get('responsive')}/{workers} "
                "replicas answered the control plane",
                file=out,
            )
            return 1
        unclean = 0
    print(
        f"self-test: cluster ok ({workers} workers, "
        f"{supervisor.socket_mode} mode, replicas "
        f"{sorted(replicas_seen)} all bit-identical over HTTP)",
        file=out,
    )
    return unclean


def run_self_test(
    registry_dir: str,
    batch: Optional[BatchConfig] = None,
    out=None,
    workers: int = 1,
) -> int:
    """Run the smoke sequence; returns a process exit code.

    ``workers > 1`` appends a cluster pass: the same probe through a
    real forked N-replica cluster, asserting HTTP bit-equality against
    direct ``ModelTree.predict`` on every response and control-plane
    responsiveness of every replica.
    """
    out = sys.stderr if out is None else out  # resolve late: tests swap stderr
    registry = ModelRegistry(registry_dir)
    ref = _ensure_model(registry)
    record, tree = registry.load(ref)

    # A deterministic probe drawn from the training distribution's
    # scale: the exact values are irrelevant, the equality check isn't.
    rng = np.random.default_rng(7)
    probe = rng.random((5, record.n_features))
    expected = tree.predict(probe)
    recursive = tree.predict(probe, compiled=False)
    if not np.array_equal(expected, recursive):
        print(
            "self-test: compiled and recursive backends disagree "
            f"(max diff {np.max(np.abs(expected - recursive)):.3g})",
            file=out,
        )
        return 1

    with ModelServer(registry, port=0, batch=batch) as server:
        health = _get_json(f"{server.url}/healthz")
        if health.get("status") != "ok" or health.get("models", 0) < 1:
            print(f"self-test: bad /healthz response {health}", file=out)
            return 1

        request = urllib.request.Request(
            f"{server.url}/v1/models/{ref}/predict",
            data=json.dumps({"instances": probe.tolist()}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            reply = json.loads(response.read())
        got = np.asarray(reply["predictions"], dtype=float)
        if reply.get("model_id") != record.model_id:
            print(
                f"self-test: predicted against {reply.get('model_id')!r}, "
                f"expected {record.model_id!r}",
                file=out,
            )
            return 1
        if not np.array_equal(got, expected):
            print(
                "self-test: HTTP predictions differ from direct "
                f"ModelTree.predict (max diff "
                f"{np.max(np.abs(got - expected)):.3g})",
                file=out,
            )
            return 1
        # expected == recursive was asserted above, so HTTP equality
        # transitively covers both backends; state it explicitly.
        if not np.array_equal(got, recursive):
            print(
                "self-test: HTTP predictions differ from the recursive "
                "reference walk",
                file=out,
            )
            return 1

        # Drift: a labelled predict must show up in the monitor.  The
        # batcher feeds the hub after the response is written, so poll
        # briefly instead of assuming the observation already landed.
        request = urllib.request.Request(
            f"{server.url}/v1/models/{ref}/predict",
            data=json.dumps(
                {
                    "instances": probe.tolist(),
                    "actuals": expected.tolist(),
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10):
            pass
        drift = {}
        for _ in range(50):
            drift = _get_json(f"{server.url}/v1/models/{ref}/drift")
            if drift.get("records_seen", 0) >= 2 * len(probe):
                break
            time.sleep(0.05)
        if not drift.get("monitoring"):
            print(f"self-test: drift monitoring not active: {drift}", file=out)
            return 1
        if drift.get("records_seen", 0) < 2 * len(probe):
            print(
                f"self-test: drift monitor saw {drift.get('records_seen')} "
                f"records, expected >= {2 * len(probe)}",
                file=out,
            )
            return 1

        with urllib.request.urlopen(
            f"{server.url}/metrics", timeout=10
        ) as response:
            metrics_text = response.read().decode()
        if "repro_serve_http_requests" not in metrics_text:
            print("self-test: /metrics missing serve counters", file=out)
            return 1
        if f"repro_drift_{record.model_id}" not in metrics_text:
            print("self-test: /metrics missing drift instruments", file=out)
            return 1

    print(
        f"self-test: ok (model {record.model_id}, {record.n_leaves} "
        f"leaves; {len(probe)} predictions bit-identical over HTTP, "
        f"compiled == recursive; drift verdict {drift.get('verdict')})",
        file=out,
    )
    if workers > 1:
        return _cluster_self_test(
            registry_dir, ref, record, probe, expected, workers, batch, out
        )
    return 0
