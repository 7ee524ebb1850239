"""Runs the repository's program as a user would: ``python -m repro.cli``.

Every program process is a child of the benchmark, started from the
checkout's ``src`` tree and reaped with ``os.wait4`` so its peak RSS
(including the children it waited for) comes back with its exit status.
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
from typing import Dict, List, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
READY = re.compile(r"on http://([0-9.]+):(\d+)")


def env() -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def launcher(*args: str) -> List[str]:
    """The traced launcher: the same program with timing wrappers."""
    return [sys.executable, str(BENCH_DIR / "launcher.py"), *args]


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB).

    Kills the process if it has not exited within ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run(argv: Sequence[str], stdout, timeout: float) -> Tuple[int, float, float]:
    """Run one program process to completion: (exit code, wall s, peak MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), env=env(), stdout=stdout, stderr=subprocess.DEVNULL
    )
    code, rss_mb = reap(proc, timeout)
    return code, time.perf_counter() - start, rss_mb


def publish(registry: Path, cache: Path) -> str:
    """``repro publish cpu2006`` into ``registry``; returns the model id."""
    out = subprocess.run(
        repro("publish", "cpu2006", "--registry", str(registry),
              "--cache-dir", str(cache)),
        env=env(), capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"publish failed: {out.stderr.strip()}")
    return out.stdout.split()[1]


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, argv: Sequence[str], log: Path) -> None:
        self.log = log
        self.started = time.perf_counter()
        with open(log, "wb") as handle:
            self.proc = subprocess.Popen(
                list(argv), env=env(), stdout=subprocess.DEVNULL,
                stderr=handle,
            )
        self.host, self.port = self._wait_for_address(60.0)

    def _wait_for_address(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = READY.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log.read_text(errors='replace')}"
        )

    def url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.url(path), timeout=30) as response:
            return response.read()

    def get_json(self, path: str) -> dict:
        return json.loads(self.get(path))

    def post(self, path: str, body: bytes) -> None:
        request = urllib.request.Request(
            self.url(path), data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            response.read()

    def counters(self) -> Dict[str, float]:
        """Unlabelled ``/metrics`` samples, keyed by name without ``repro_``."""
        values: Dict[str, float] = {}
        for line in self.get("/metrics").decode().splitlines():
            if line.startswith("repro_") and "{" not in line:
                name, _, value = line.partition(" ")
                try:
                    values[name[len("repro_"):]] = float(value)
                except ValueError:
                    continue
        return values

    def stop(self) -> Tuple[int, float]:
        """SIGTERM (the server drains), then reap: (exit code, peak MB)."""
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        return reap(self.proc, 30.0)
