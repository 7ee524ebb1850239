"""Runs the program in this process, optionally with timing wrappers.

    python perfbench/launcher.py serve SPANS -- <repro serve arguments>
    python perfbench/launcher.py battery OUT --jobs N [--spans SPANS]

``serve`` installs the wrappers, runs ``repro serve`` through the CLI's
own ``main`` and writes the spans to SPANS once the server has drained.
``battery`` runs every experiment through ``ParallelRunner`` and writes
the battery's wall time, per-experiment timings and dataset-cache
counts to OUT; with ``--spans`` it installs the wrappers first, which
needs ``--jobs 1`` because spans recorded in forked workers are lost.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def serve(spans_path: str, argv: list) -> int:
    from repro.cli import main

    recorder = spans.Recorder()
    spans.install(recorder)
    code = main(["serve", *argv])
    recorder.dump(spans_path)
    return code


def battery(out_path: str, jobs: int, spans_path: str) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.runner import ParallelRunner

    recorder = None
    if spans_path:
        if jobs != 1:
            raise SystemExit("launcher: --spans needs --jobs 1")
        recorder = spans.Recorder()
        spans.install(recorder)
    keys = sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    run = ParallelRunner(jobs=jobs).run(keys)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "wall_s": run.wall_s,
                "timings": [t.wall_s for t in run.timings],
                "cache": dataclasses.asdict(run.cache_stats),
                # What `repro all` prints for the same battery.
                "stdout": "".join(f"{text}\n\n" for _, text in run.texts),
            },
            handle,
        )
    if recorder is not None:
        recorder.dump(spans_path)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="launcher")
    sub = parser.add_subparsers(dest="mode", required=True)
    serve_parser = sub.add_parser("serve")
    serve_parser.add_argument("spans")
    serve_parser.add_argument("argv", nargs=argparse.REMAINDER)
    battery_parser = sub.add_parser("battery")
    battery_parser.add_argument("out")
    battery_parser.add_argument("--jobs", type=int, required=True)
    battery_parser.add_argument("--spans", default="")
    args = parser.parse_args()
    if args.mode == "serve":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return serve(args.spans, argv)
    return battery(args.out, args.jobs, args.spans)


if __name__ == "__main__":
    sys.exit(main())
