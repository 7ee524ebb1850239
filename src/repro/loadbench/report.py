"""Bit-identity checks and terminal rendering for the load harness.

:func:`verify_bit_equality` is the correctness gate in front of every
load number ``benchmarks/run_bench.py`` records: a throughput figure
for a server that disagrees with the in-process kernel is worthless.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Dict, List, Sequence

from repro.loadbench.harness import LoadResult

__all__ = ["verify_bit_equality", "render_load_text"]


def verify_bit_equality(
    url: str,
    model: str,
    instances: List[List[float]],
    expected: Sequence[float],
    timeout_s: float = 30.0,
) -> Dict[str, Any]:
    """One HTTP predict vs the caller's direct ``tree.predict`` floats.

    Equality is ``==`` on the JSON-decoded floats: Python round-trips
    doubles exactly (shortest-repr), so serving is bit-identical to the
    in-process kernel or this fails — no tolerance, by design.
    """
    body = json.dumps({"instances": instances}).encode()
    request = urllib.request.Request(
        f"{url}/v1/models/{model}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        payload = json.loads(response.read())
        replica = response.headers.get("X-Repro-Replica")
    served = payload["predictions"]
    identical = list(served) == list(expected)
    return {
        "identical": identical,
        "replica": replica,
        "n": len(served),
    }


def render_load_text(result: LoadResult, url: str) -> str:
    """The ``repro loadbench`` terminal report for one run."""
    lines = [
        f"loadbench  {result.mode} loop against {url}",
        (
            f"  requests {result.requests}  errors {result.errors}  "
            f"rows {result.rows}  over {result.duration_s:.2f}s"
        ),
        (
            f"  throughput {result.achieved_rps:,.1f} req/s  "
            f"{result.achieved_rows_per_s:,.0f} rows/s"
            + (
                f"  (offered {result.offered_rps:,.1f} req/s)"
                if result.offered_rps is not None
                else ""
            )
        ),
        (
            f"  latency  p50 {result.latency_p50_ms:.2f} ms  "
            f"p95 {result.latency_p95_ms:.2f} ms  "
            f"p99 {result.latency_p99_ms:.2f} ms  "
            f"max {result.latency_max_ms:.2f} ms"
        ),
    ]
    if result.replicas_seen:
        lines.append(
            "  replicas  " + ", ".join(result.replicas_seen)
        )
    return "\n".join(lines)
