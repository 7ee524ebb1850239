"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload serve-b64 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it starts the program from ``src``
and keeps its scratch files under ``.perfbench/``.  Workloads:
``serve-b64``, ``drift-incident`` and ``battery`` (see DESIGN.md).

``--trace 0`` measures the end-to-end metrics from outside the program.
``--trace 1`` runs the workload once untraced and once under the traced
launcher and reports the per-layer metrics.  The metric names, units and
directions come from ``BENCHMARK.json`` at the checkout root.  Every
metric is printed with its unit, then the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness gate prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import program  # noqa: E402

WORKLOADS = ("serve-b64", "drift-incident", "battery")
#: The paper's master seed, reused as the default arrival schedule.
SCHEDULE_SEED = 20080401


def _declared(trace: bool) -> dict:
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {"units": units, "names": names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--schedule-seed", type=int, default=SCHEDULE_SEED,
        help="seed of the open-loop arrival schedule (drift-incident)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (program.SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {program.SRC}",
              file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))
    sys.path.insert(0, str(program.SRC))
    import battery
    import serve

    work = program.ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run
    (work / "tmp").mkdir(parents=True)
    # `repro all --jobs N` keeps its shared dataset cache in a temporary
    # directory; keep that inside the checkout too.
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        module = battery if args.workload == "battery" else serve
        outcome = module.run(args.workload, args.seed, args.schedule_seed,
                             args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = outcome["metrics"]
    if args.trace or outcome["failures"]:
        # A layer the workload never calls did no work: zero calls, zero
        # time, and percentiles of no samples read 0 as well.  A run
        # that failed a gate reports what it has; "correct" is false.
        for name in declared["names"]:
            metrics.setdefault(name, 0.0)
    missing = [name for name in declared["names"] if name not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    units = declared["units"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    for name, (value, unit) in sorted(outcome.get("extra", {}).items()):
        print(f"  {name:36s} {value:14.6g} {unit}")
    breakdown = outcome.get("breakdown")
    if breakdown:
        terms = [k for k in breakdown
                 if k not in ("requests", "round_trip_ms")]
        total = sum(breakdown[k] for k in terms)
        print(f"round trip, mean over {breakdown['requests']} requests: "
              f"{breakdown['round_trip_ms']:.3f} ms = "
              + " + ".join(f"{k} {breakdown[k]:.3f}" for k in terms)
              + f" (sum {total:.3f} ms)")
    for note in outcome["notes"]:
        print(f"note: {note}")
    for failure in outcome["failures"]:
        print(f"GATE FAILED: {failure}")
    correct = not outcome["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in declared["names"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
