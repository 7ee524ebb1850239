"""One CPU per serving process.

The CPU choice is a pure function; the pin itself is checked on real
``repro serve`` processes by reading every thread's mask under
``/proc/<pid>/task``, and on an in-process ``main(["serve", ...])``
whose caller must get its own mask back.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.serve.api import choose_cpu, pin_to_one_cpu, pinned_to_one_cpu
from repro.serve.registry import ModelRegistry

from .conftest import make_tree

SRC = Path(__file__).resolve().parents[2] / "src"


def _allowed() -> set:
    return set(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity"
    ) else set()


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_allowed()) < 2,
    reason="pinning is observable only with sched_setaffinity and 2+ CPUs",
)


def _thread_masks(pid: int) -> dict:
    """{tid: allowed CPUs} for every thread of ``pid``."""
    masks = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            masks[int(tid)] = set(os.sched_getaffinity(int(tid)))
        except ProcessLookupError:  # the thread exited meanwhile
            continue
    return masks


class TestChooseCpu:
    def test_counts_down_from_the_highest_cpu_and_wraps(self):
        allowed = {0, 1, 2, 3}
        assert [choose_cpu(allowed, i) for i in range(6)] == [
            3, 2, 1, 0, 3, 2,
        ]

    def test_one_cpu_mask_takes_that_cpu_for_every_index(self):
        assert {choose_cpu({5}, i) for i in range(4)} == {5}

    def test_non_contiguous_mask(self):
        assert [choose_cpu({0, 3}, i) for i in range(4)] == [3, 0, 3, 0]

    def test_order_of_the_mask_does_not_matter(self):
        assert choose_cpu([6, 2, 4], 1) == choose_cpu({2, 4, 6}, 1) == 4


class TestUnpinnedFallback:
    def test_missing_setaffinity_returns_none(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert pin_to_one_cpu(0) is None
        with pinned_to_one_cpu(0) as cpu:
            assert cpu is None

    def test_refusing_setaffinity_returns_none(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        before = _allowed()
        calls = []

        def refuse(pid, mask):
            calls.append(pid)
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        assert pin_to_one_cpu(0) is None
        with pinned_to_one_cpu(0) as cpu:
            assert cpu is None
        # Refused at the calling thread: no other thread was tried, and
        # nothing was restored over a mask that never changed.
        assert calls == [0, 0]
        assert _allowed() == before


@needs_two_cpus
class TestPinnedBlock:
    def test_pins_every_thread_and_restores_each_mask(self):
        before = _allowed()
        release = threading.Event()
        tid = []

        def park():
            tid.append(threading.get_native_id())
            release.wait(10)

        helper = threading.Thread(target=park, daemon=True)
        helper.start()
        while not tid:
            time.sleep(0.001)
        try:
            with pinned_to_one_cpu(0) as cpu:
                assert cpu == max(before)
                assert set(os.sched_getaffinity(0)) == {cpu}
                # A thread that existed before the pin is pinned too.
                assert set(os.sched_getaffinity(tid[0])) == {cpu}
                # A thread started inside inherits the mask.
                inside = []
                probe = threading.Thread(
                    target=lambda: inside.append(
                        set(os.sched_getaffinity(0))
                    )
                )
                probe.start()
                probe.join(10)
                assert inside == [{cpu}]
            assert _allowed() == before
            assert set(os.sched_getaffinity(tid[0])) == before
        finally:
            # Should the helper fail to restore, the tests after this
            # one (and their subprocesses) must not inherit the pin.
            os.sched_setaffinity(0, before)
            release.set()
            helper.join(10)


def _serve(registry: Path, log: Path, *extra: str) -> subprocess.Popen:
    with open(log, "wb") as err:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--registry", str(registry), "--port", "0", *extra,
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            stderr=err,
        )


def _wait_ready(proc: subprocess.Popen, log: Path) -> re.Match:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        assert proc.poll() is None, log.read_text()
        ready = re.search(
            r"on (http://[\d.]+:\d+) \(cpu (\d+),", log.read_text()
        )
        if ready:
            return ready
        time.sleep(0.01)
    pytest.fail(f"server never started: {log.read_text()}")


def _labelled_predict(url: str) -> None:
    body = {"instances": [[0.5, 0.5, 0.5]] * 4, "actuals": [1.0] * 4}
    request = urllib.request.Request(
        url + "/v1/models/latest/predict",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        json.loads(response.read())


@needs_two_cpus
class TestServeProcessIsPinned:
    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["no-monitor", "pipeline-events"])
    def test_every_thread_allows_the_same_single_cpu(
        self, tmp_path, pipeline
    ):
        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        extra = (
            ("--pipeline", "--events", str(tmp_path / "events.jsonl"))
            if pipeline
            else ("--no-monitor",)
        )
        log = tmp_path / "serve.log"
        proc = _serve(registry, log, *extra)
        try:
            ready = _wait_ready(proc, log)
            url, cpu = ready.group(1), int(ready.group(2))
            _labelled_predict(url)
            masks = _thread_masks(proc.pid)
            # The main thread, the batcher and the HTTP loop at least.
            assert len(masks) >= 3, masks
            assert {frozenset(mask) for mask in masks.values()} == {
                frozenset({cpu})
            }, masks
            assert cpu == max(_allowed())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_in_process_caller_gets_its_mask_back(self, tmp_path):
        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        script = textwrap.dedent(
            """
            import os, signal, sys, threading, time
            from repro.cli import main

            def kick():
                # SIGTERM once the server is pinned and drains on it.
                main_tid = threading.main_thread().native_id
                while (len(os.sched_getaffinity(main_tid)) > 1
                       or signal.getsignal(signal.SIGTERM)
                       is signal.SIG_DFL):
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGTERM)

            before = sorted(os.sched_getaffinity(0))
            threading.Thread(target=kick, daemon=True).start()
            code = main(["serve", "--registry", sys.argv[1], "--port", "0",
                         "--no-monitor"])
            print(before, sorted(os.sched_getaffinity(0)), code)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(registry)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        mask = sorted(_allowed())
        assert out.stdout.strip() == f"{mask} {mask} 0", out.stderr
        assert f"(cpu {max(mask)}," in out.stderr
