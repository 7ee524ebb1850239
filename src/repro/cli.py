"""Command-line interface: ``repro <experiment-id> [...]``.

Examples::

    repro E3                 # regenerate Table II
    repro all                # run the full battery
    repro E7 --scale 0.25    # quarter-size quick run
    repro list               # show the experiment index
    repro E7 --trace trace.jsonl   # run with hierarchical tracing
    repro trace-summary trace.jsonl  # render an exported trace
    repro E7 --profile prof.json   # run under the sampling profiler
    repro profile-summary prof.json  # top functions, spans, self/cumul
    repro profile --url http://127.0.0.1:8080 > live.folded  # live capture
    repro perf record              # ledger entries from BENCH snapshots
    repro perf log                 # the benchmark result time series
    repro perf check               # noise-aware perf-regression gate
    repro publish cpu2006 --registry ./models   # train + register a model
    repro serve --registry ./models --port 8080 # serve it over HTTP
    repro monitor cpu2006            # stream held-out traffic, watch drift
    repro monitor cpu2006 omp2001    # cross-suite traffic -> transfer fails
    repro serve --registry ./models --shadow cand1  # champion/challenger
    repro serve --registry ./models --events events.jsonl  # + telemetry
    repro status --url http://127.0.0.1:8080        # one status snapshot
    repro status --watch                            # live terminal view
    repro serve --registry ./models --pipeline      # arm the MLOps loop
    repro pipeline run cpu2006 omp2001   # replay detect->retrain->promote
    repro promotions --registry ./models            # audit trail + verify
    repro rollback --registry ./models              # undo the last flip
    repro registry gc --registry ./models --dry-run # plan artifact cleanup
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

# repro.experiments imports the whole battery: commands that build an
# ExperimentConfig or run experiments import it themselves, so that
# 'repro serve' and the other commands start without it.
if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.context import ExperimentContext

__all__ = ["main"]

_TITLES = {
    "E1": "Table I (metric catalog)",
    "E2": "Figure 1 (CPU2006 model tree)",
    "E3": "Table II (CPU2006 profiles)",
    "E4": "Table III (CPU2006 similarity)",
    "E5": "Figure 2 (OMP2001 model tree)",
    "E6": "Table IV (OMP2001 profiles)",
    "E7": "Section VI.A (transfer t-tests)",
    "E8": "Section VI.B (transfer metrics)",
    "E9": "Ablation (model families)",
    "E10": "Ablation (tree design / pipeline)",
    "E11": "Extension (benchmark subsetting strategies)",
    "E12": "Extension (M5' parameter tuning frontier)",
    "E13": "Extension (per-event CPI attribution)",
    "E14": "Extension (seed robustness of transferability)",
    "E15": "Extension (generational transfer: CPU2006 -> CPU2000)",
    "E16": "Extension (structural model dissimilarity)",
    "E17": "Extension (phase-detection quality)",
    "E18": "Extension (per-benchmark cross-suite error)",
    "E19": "Extension (cross-machine transferability)",
    "E20": "Extension (event-level simulation validation)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Characterization of "
            "SPEC CPU2006 and SPEC OMP2001' (ISPASS 2008)"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            "experiment ids (E1..E20), 'all', 'list', 'report', "
            "'catalog <suite>', 'describe <benchmark>', 'rules <suite>', "
            "'dot <suite>', 'export <suite> <path>', "
            "'trace-summary <trace.jsonl>', 'publish <suite>', 'serve', "
            "'status', 'monitor <model-suite> [<traffic-suite>]', "
            "'pipeline run <train-suite> <traffic-suite>', 'promotions', "
            "'rollback', 'registry gc', 'profile', "
            "'profile-summary <prof.json>', 'perf record|log|check', "
            "or 'loadbench'"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor on sample counts (default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    parser.add_argument(
        "--output",
        default="repro_report.md",
        help="output path for 'report' (default repro_report.md)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache generated suite data in this directory",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run experiments across N worker processes; stdout is "
            "byte-identical to the serial run, per-experiment timings "
            "go to stderr"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "enable hierarchical tracing and write spans, metrics and "
            "the run manifest to PATH as JSONL (stdout is unchanged; "
            "inspect with 'repro trace-summary PATH')"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the process metrics registry to stderr after the run",
    )
    profiling = parser.add_argument_group(
        "profiling & perf ledger ('profile', 'profile-summary', 'perf', "
        "and --profile on runs)"
    )
    profiling.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        dest="profile",
        help=(
            "sample the run's CPU at --profile-hz and write the profile "
            "to PATH as JSON (mirrors --trace; works on experiment runs "
            "and 'serve'; inspect with 'repro profile-summary PATH')"
        ),
    )
    profiling.add_argument(
        "--profile-hz",
        type=int,
        default=99,
        metavar="HZ",
        help="sampling rate for --profile and 'profile' (default 99)",
    )
    profiling.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        metavar="S",
        help="profile: remote capture window in seconds (default 2)",
    )
    profiling.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="perf: ledger file (default benchmarks/LEDGER.jsonl)",
    )
    profiling.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="perf log: ledger entries to show (default 10)",
    )
    serving = parser.add_argument_group("serving ('publish' and 'serve')")
    serving.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="model registry directory (required for publish/serve)",
    )
    serving.add_argument(
        "--alias",
        action="append",
        default=None,
        metavar="NAME",
        help="alias(es) to point at a published model (default: latest)",
    )
    serving.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address"
    )
    serving.add_argument(
        "--port",
        type=int,
        default=8080,
        help="serve: TCP port (0 picks an ephemeral port)",
    )
    serving.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="serve: max rows coalesced into one prediction batch",
    )
    serving.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help=(
            "serve: max time the head request waits for a batch to fill "
            "(default 0: every flush takes what is queued and never "
            "waits; a window only helps many tiny concurrent requests)"
        ),
    )
    serving.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "serve: boot on an ephemeral port, round-trip one predict "
            "request, verify bit-identical results, exit (with "
            "--workers N, also self-test through an N-replica cluster)"
        ),
    )
    serving.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "serve: fork N replica processes sharing the host:port "
            "(SO_REUSEPORT where available); replica 0 leads the "
            "pipeline (default 1 = single process)"
        ),
    )
    serving.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="N",
        help=(
            "serve --workers: also serve aggregated cluster /metrics "
            "and /v1/status from the supervisor on this port "
            "(0 picks an ephemeral port)"
        ),
    )
    serving.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help=(
            "serve: append per-request telemetry (stage timelines, "
            "X-Repro-Trace ids) to PATH as rotating JSONL"
        ),
    )
    serving.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        metavar="URL",
        help="status: base URL of a running server (default %(default)s)",
    )
    serving.add_argument(
        "--watch",
        action="store_true",
        help="status: refresh the view continuously until Ctrl-C",
    )
    serving.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="status: seconds between --watch refreshes (default 2)",
    )
    loadbench = parser.add_argument_group("load harness ('loadbench')")
    loadbench.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help=(
            "loadbench: closed loop (K connections + think time, "
            "measures capacity) or open loop (Poisson arrivals at "
            "--rate, measures latency at an offered rate; default "
            "closed)"
        ),
    )
    loadbench.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="S",
        help="loadbench: seconds of load per run (default 10)",
    )
    loadbench.add_argument(
        "--connections",
        type=int,
        default=4,
        metavar="K",
        help=(
            "loadbench: concurrent connections (closed) or sender "
            "pool size (open; default 4)"
        ),
    )
    loadbench.add_argument(
        "--rate",
        type=float,
        default=100.0,
        metavar="R",
        help="loadbench --mode open: offered arrival rate, req/s",
    )
    loadbench.add_argument(
        "--think-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="loadbench --mode closed: think time between requests",
    )
    loadbench.add_argument(
        "--batch-rows",
        type=int,
        default=64,
        metavar="N",
        help="loadbench: rows per predict request (default 64)",
    )
    drift = parser.add_argument_group("drift monitoring ('monitor', 'serve')")
    drift.add_argument(
        "--window",
        type=int,
        default=256,
        metavar="N",
        help="drift window size in records (default 256)",
    )
    drift.add_argument(
        "--stream-batch",
        type=int,
        default=64,
        metavar="N",
        help="monitor: records per replayed traffic batch (default 64)",
    )
    drift.add_argument(
        "--model",
        default=None,
        metavar="REF",
        help=(
            "monitor: watch this registry model (with --registry) instead "
            "of training one from the suite"
        ),
    )
    drift.add_argument(
        "--audit",
        default=None,
        metavar="PATH",
        help="append every drift evaluation to PATH as JSONL",
    )
    drift.add_argument(
        "--no-monitor",
        action="store_true",
        help="serve: disable online drift monitoring",
    )
    drift.add_argument(
        "--shadow",
        default=None,
        metavar="REF",
        help=(
            "serve: evaluate this challenger model on the champion's "
            "live traffic"
        ),
    )
    drift.add_argument(
        "--shadow-champion",
        default="latest",
        metavar="REF",
        help="serve: the champion the challenger shadows (default: latest)",
    )
    pipeline = parser.add_argument_group(
        "MLOps pipeline ('pipeline run', 'rollback', 'promotions', "
        "'registry gc', 'serve')"
    )
    pipeline.add_argument(
        "--pipeline",
        action="store_true",
        help=(
            "serve: arm the retrain/shadow/promote loop on the drift "
            "monitor (requires monitoring)"
        ),
    )
    pipeline.add_argument(
        "--max-records",
        type=int,
        default=8192,
        metavar="N",
        help=(
            "pipeline run: stop the replay after N traffic records "
            "(default 8192)"
        ),
    )
    pipeline.add_argument(
        "--to",
        default=None,
        metavar="MODEL_ID",
        help=(
            "rollback: restore this model id instead of the promotion "
            "trail's prior model"
        ),
    )
    pipeline.add_argument(
        "--why",
        default=None,
        metavar="TEXT",
        help="rollback: reason recorded on the promotion trail",
    )
    pipeline.add_argument(
        "--dry-run",
        action="store_true",
        help="registry gc: report what would be removed without deleting",
    )
    return parser


_SUITES = {"cpu2006": "cpu2006", "omp2001": "omp2001", "cpu2000": "cpu2000"}


def _config_from_args(args) -> ExperimentConfig:
    """The battery configuration implied by --seed/--scale."""
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig()
    if args.seed is not None:
        config = ExperimentConfig(
            cpu_samples=config.cpu_samples,
            omp_samples=config.omp_samples,
            seed=args.seed,
        )
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return config


def _suite_by_name(name: str):
    from repro.workloads import spec_cpu2000, spec_cpu2006, spec_omp2001

    factories = {
        "cpu2006": spec_cpu2006,
        "omp2001": spec_omp2001,
        "cpu2000": spec_cpu2000,
    }
    key = name.lower()
    if key not in factories:
        raise KeyError(f"unknown suite {name!r}; have {sorted(factories)}")
    return factories[key]()


def _run_subcommand(args) -> Optional[int]:
    """Handle 'catalog', 'dot' and 'export'; None means not handled."""
    words = [w for w in args.experiments]
    command = words[0].lower()
    if command == "catalog":
        if len(words) != 2:
            print("usage: repro catalog <cpu2006|omp2001|cpu2000>",
                  file=sys.stderr)
            return 2
        from repro.workloads.catalog import format_suite_catalog

        try:
            print(format_suite_catalog(_suite_by_name(words[1])))
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        return 0
    if command == "dot":
        if len(words) != 2 or words[1].lower() not in ("cpu2006", "omp2001"):
            print("usage: repro dot <cpu2006|omp2001>", file=sys.stderr)
            return 2
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.context import ExperimentContext
        from repro.mtree.render import render_dot

        ctx = ExperimentContext(ExperimentConfig().scaled(args.scale))
        which = words[1].lower()
        print(render_dot(ctx.tree(which), title=ctx.suite_label(which)))
        return 0
    if command == "rules":
        if len(words) != 2 or words[1].lower() not in ("cpu2006", "omp2001"):
            print("usage: repro rules <cpu2006|omp2001>", file=sys.stderr)
            return 2
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.context import ExperimentContext
        from repro.mtree.rules import render_rules

        ctx = ExperimentContext(ExperimentConfig().scaled(args.scale))
        print(render_rules(ctx.tree(words[1].lower())))
        return 0
    if command == "quality":
        if len(words) != 2:
            print("usage: repro quality <cpu2006|omp2001|cpu2000>",
                  file=sys.stderr)
            return 2
        from repro.experiments.config import ExperimentConfig
        from repro.pmu.collector import PmuCollector
        from repro.pmu.diagnostics import (
            data_quality_report,
            format_quality_table,
        )
        from repro.workloads.suite import SuiteGenerationConfig

        config = ExperimentConfig().scaled(args.scale)
        try:
            suite = _suite_by_name(words[1])
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        data = suite.generate(
            SuiteGenerationConfig(
                total_samples=config.cpu_samples, seed=config.seed
            )
        )
        print(format_quality_table(data_quality_report(data, PmuCollector())))
        return 0
    if command == "describe":
        if len(words) != 2:
            print("usage: repro describe <benchmark>", file=sys.stderr)
            return 2
        return _describe_benchmark(words[1], args)
    if command == "publish":
        if len(words) != 2 or words[1].lower() not in ("cpu2006", "omp2001"):
            print(
                "usage: repro publish <cpu2006|omp2001> --registry DIR",
                file=sys.stderr,
            )
            return 2
        if args.registry is None:
            print("publish: --registry DIR is required", file=sys.stderr)
            return 2
        from repro.serve.publish import publish_from_config
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(args.registry)
        record = publish_from_config(
            registry,
            words[1].lower(),
            config=_config_from_args(args),
            cache_dir=args.cache_dir,
            aliases=tuple(args.alias) if args.alias else ("latest",),
            argv=["repro", *words],
        )
        aliases = ", ".join(args.alias) if args.alias else "latest"
        print(
            f"published {record.model_id} ({record.n_leaves} leaves, "
            f"{record.n_features} features, suite "
            f"{record.metadata.get('suite')}) -> {aliases}"
        )
        return 0
    if command == "serve":
        if len(words) != 1:
            print("usage: repro serve --registry DIR [--port N]",
                  file=sys.stderr)
            return 2
        if args.registry is None:
            print("serve: --registry DIR is required", file=sys.stderr)
            return 2
        return _serve(args)
    if command == "status":
        if len(words) != 1:
            print(
                "usage: repro status [--url URL] [--watch] [--interval S]",
                file=sys.stderr,
            )
            return 2
        return _status(args)
    if command == "loadbench":
        if len(words) != 1:
            print(
                "usage: repro loadbench [--url URL] [--mode closed|open] "
                "[--duration S] [--connections K] [--rate R] "
                "[--think-ms MS] [--batch-rows N] [--model REF]",
                file=sys.stderr,
            )
            return 2
        return _loadbench(args)
    if command == "monitor":
        suites = ("cpu2006", "omp2001", "cpu2000")
        if len(words) not in (2, 3):
            print(
                "usage: repro monitor <model-suite> [<traffic-suite>]  or  "
                "repro monitor <traffic-suite> --registry DIR --model REF",
                file=sys.stderr,
            )
            return 2
        unknown = [w for w in words[1:] if w.lower() not in suites]
        if unknown:
            print(
                f"monitor: unknown suite {unknown[0]!r}; have {list(suites)}",
                file=sys.stderr,
            )
            return 2
        if args.model is not None and args.registry is None:
            print("monitor: --model requires --registry DIR", file=sys.stderr)
            return 2
        if args.model is not None and len(words) != 2:
            print(
                "monitor: with --model, give exactly one traffic suite",
                file=sys.stderr,
            )
            return 2
        return _monitor(args, [w.lower() for w in words[1:]])
    if command == "pipeline":
        suites = ("cpu2006", "omp2001", "cpu2000")
        if (
            len(words) != 4
            or words[1].lower() != "run"
            or words[2].lower() not in suites
            or words[3].lower() not in suites
        ):
            print(
                "usage: repro pipeline run <train-suite> <traffic-suite> "
                "[--registry DIR] [--window N] [--max-records N]",
                file=sys.stderr,
            )
            return 2
        return _pipeline_run(args, words[2].lower(), words[3].lower())
    if command == "promotions":
        if len(words) != 1 or args.registry is None:
            print(
                "usage: repro promotions --registry DIR", file=sys.stderr
            )
            return 2
        return _promotions(args)
    if command == "rollback":
        if len(words) != 1 or args.registry is None:
            print(
                "usage: repro rollback --registry DIR [--to MODEL_ID] "
                "[--why TEXT]",
                file=sys.stderr,
            )
            return 2
        return _rollback(args)
    if command == "registry":
        if len(words) != 2 or words[1].lower() != "gc":
            print(
                "usage: repro registry gc --registry DIR [--dry-run]",
                file=sys.stderr,
            )
            return 2
        if args.registry is None:
            print("registry gc: --registry DIR is required", file=sys.stderr)
            return 2
        return _registry_gc(args)
    if command == "profile":
        if len(words) != 1:
            print(
                "usage: repro profile [--url URL] [--seconds S] "
                "[--profile-hz HZ] [--profile PATH]",
                file=sys.stderr,
            )
            return 2
        return _profile_client(args)
    if command == "profile-summary":
        if len(words) != 2:
            print(
                "usage: repro profile-summary <prof.json>", file=sys.stderr
            )
            return 2
        from repro.obs.prof import load_profile, render_profile_table

        try:
            print(render_profile_table(load_profile(words[1])))
        except (OSError, ValueError, KeyError) as error:
            print(f"profile-summary: {error}", file=sys.stderr)
            return 2
        return 0
    if command == "perf":
        if len(words) != 2 or words[1].lower() not in (
            "record",
            "log",
            "check",
        ):
            print(
                "usage: repro perf record|log|check [--ledger PATH] "
                "[--last N] [--self-test]",
                file=sys.stderr,
            )
            return 2
        return _perf(args, words[1].lower())
    if command == "trace-summary":
        if len(words) != 2:
            print("usage: repro trace-summary <trace.jsonl>", file=sys.stderr)
            return 2
        from repro.obs.summary import render_trace_summary

        try:
            print(render_trace_summary(words[1]))
        except (OSError, ValueError) as error:
            print(f"trace-summary: {error}", file=sys.stderr)
            return 2
        return 0
    if command == "export":
        if len(words) != 3:
            print("usage: repro export <suite> <path.csv|path.arff>",
                  file=sys.stderr)
            return 2
        from repro.datasets import save_arff, save_csv
        from repro.experiments.config import ExperimentConfig
        from repro.workloads.suite import SuiteGenerationConfig

        config = ExperimentConfig().scaled(args.scale)
        try:
            suite = _suite_by_name(words[1])
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        data = suite.generate(
            SuiteGenerationConfig(
                total_samples=config.cpu_samples, seed=config.seed
            )
        )
        path = words[2]
        if path.endswith(".arff"):
            save_arff(data, path)
        else:
            save_csv(data, path)
        print(f"wrote {len(data)} intervals to {path}")
        return 0
    return None


def _profile_client(args) -> int:
    """Capture a live CPU profile from a running server.

    Fetches ``GET /v1/profile/cpu`` (JSON) and prints the folded
    stacks to stdout — pipe them straight into ``flamegraph.pl``.
    With ``--profile PATH`` the full profile JSON is saved there and a
    summary table is printed instead.
    """
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obs.prof import Profile, render_profile_table

    if args.seconds <= 0:
        print(
            f"profile: --seconds must be positive, got {args.seconds}",
            file=sys.stderr,
        )
        return 2
    url = (
        args.url.rstrip("/")
        + f"/v1/profile/cpu?seconds={args.seconds:g}&hz={args.profile_hz}"
    )
    try:
        with urllib.request.urlopen(
            url, timeout=args.seconds + 30.0
        ) as response:
            payload = _json.loads(response.read().decode("utf-8"))
        profile = Profile.from_dict(payload)
    except (urllib.error.URLError, OSError, ValueError, KeyError) as error:
        print(f"profile: {url}: {error}", file=sys.stderr)
        return 2
    if args.profile is not None:
        profile.save(args.profile)
        print(f"profile written to {args.profile}", file=sys.stderr)
        print(render_profile_table(profile))
    else:
        sys.stdout.write(profile.folded())
    return 0


def _perf(args, verb: str) -> int:
    """The performance-ledger verbs: record, log, check."""
    import json as _json
    from pathlib import Path

    from repro.obs.ledger import (
        BENCH_SNAPSHOTS,
        DEFAULT_LEDGER_PATH,
        PerfLedger,
        check_ledger,
        headline_metrics,
        render_findings,
        render_ledger_log,
    )

    ledger_path = (
        Path(args.ledger) if args.ledger is not None else DEFAULT_LEDGER_PATH
    )
    if verb == "record":
        ledger = PerfLedger(ledger_path)
        # Snapshots live next to the committed ledger regardless of
        # where --ledger points: record derives entries from what the
        # benchmark harness actually wrote.
        snapshot_dir = DEFAULT_LEDGER_PATH.parent
        recorded = 0
        for bench, filename in BENCH_SNAPSHOTS.items():
            path = snapshot_dir / filename
            if not path.exists():
                continue
            try:
                metrics = headline_metrics(
                    bench, _json.loads(path.read_text())
                )
            except (ValueError, OSError) as error:
                print(f"perf record: {filename}: {error}", file=sys.stderr)
                continue
            if not metrics:
                continue
            ledger.append(bench, metrics, meta={"source": filename})
            print(
                f"recorded {bench}: {len(metrics)} metric(s) "
                f"from {filename}"
            )
            recorded += 1
        if not recorded:
            print(
                f"perf record: no BENCH_*.json snapshots in {snapshot_dir}",
                file=sys.stderr,
            )
            return 2
        return 0
    if verb == "log":
        if args.last < 1:
            print(
                f"perf log: --last must be >= 1, got {args.last}",
                file=sys.stderr,
            )
            return 2
        print(render_ledger_log(PerfLedger(ledger_path), last=args.last))
        return 0
    # verb == "check"
    if args.self_test:
        return _perf_self_test(ledger_path)
    findings = check_ledger(ledger_path)
    print(render_findings(findings))
    return 1 if any(f.status == "regression" for f in findings) else 0


def _perf_self_test(committed_path) -> int:
    """Prove the regression gate works before trusting it in CI.

    Three assertions: injected 2x and 1.5x ``tree_fit_s`` regressions
    in a throwaway ledger ARE flagged, and the committed ledger is NOT
    (no false positive).  Exits 0 only if all hold.
    """
    import tempfile
    from pathlib import Path

    from repro.obs.ledger import PerfLedger, check_ledger, render_findings

    failures = 0

    committed = check_ledger(committed_path)
    committed_clean = not any(f.status == "regression" for f in committed)
    if committed:
        print(
            f"committed ledger ({committed_path}): "
            + ("clean" if committed_clean else "REGRESSION FLAGGED")
        )
        if not committed_clean:
            print(render_findings(committed))
            failures += 1
    else:
        print(f"committed ledger ({committed_path}): empty, skipped")

    # A realistic baseline history with a few percent of jitter, then
    # a candidate entry at 2x (unambiguous) and, separately, at 1.5x
    # (above the default 35% relative floor, so it must be caught).
    for slowdown in (2.0, 1.5):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ledger.jsonl"
            ledger = PerfLedger(path)
            for factor in (1.00, 0.97, 1.03, 0.99):
                ledger.append(
                    "microperf",
                    {
                        "tree_fit_s": 0.160 * factor,
                        "compiled_speedup_b64": 5.0 / factor,
                    },
                )
            ledger.append(
                "microperf",
                {"tree_fit_s": 0.160 * slowdown, "compiled_speedup_b64": 5.0},
            )
            findings = check_ledger(path)
        detected = any(
            f.metric == "tree_fit_s" and f.status == "regression"
            for f in findings
        )
        print(
            f"injected {slowdown:g}x tree_fit regression: "
            + ("detected" if detected else "MISSED")
        )
        if not detected:
            print(render_findings(findings))
            failures += 1

    print(
        "perf check --self-test: "
        + ("ok" if not failures else f"{failures} failure(s)")
    )
    return 1 if failures else 0


def _monitor(args, suites: List[str]) -> int:
    """Replay a suite's data as a traffic stream and print the verdict
    timeline — the live version of E7/E8's offline transferability
    battery.  Exits 0 while the model holds, 3 on TRANSFER_FAILED.
    """
    from repro.drift import (
        DriftMonitor,
        DriftMonitorConfig,
        DriftVerdict,
        JsonlAudit,
        ModelProfile,
    )
    from repro.experiments.context import ExperimentContext
    from repro.stats.transfer import SampleMoments

    try:
        monitor_config = DriftMonitorConfig(window=args.window)
    except ValueError as error:
        print(f"monitor: {error}", file=sys.stderr)
        return 2
    if args.stream_batch < 1:
        print(
            f"monitor: --stream-batch must be >= 1, got {args.stream_batch}",
            file=sys.stderr,
        )
        return 2

    config = _config_from_args(args)
    ctx = ExperimentContext(config, cache_dir=args.cache_dir)
    if args.model is not None:
        from repro.serve.registry import ModelRegistry, RegistryError

        traffic_suite = suites[0]
        try:
            record, tree = ModelRegistry(args.registry).load(args.model)
        except (RegistryError, KeyError) as error:
            print(f"monitor: {error}", file=sys.stderr)
            return 2
        profile = ModelProfile.from_record(record, tree)
        model_desc = f"registry model {record.model_id}"
        traffic = ctx.test_set(traffic_suite)
    else:
        model_suite = suites[0]
        traffic_suite = suites[-1]
        tree = ctx.tree(model_suite)
        train = ctx.train_set(model_suite)
        profile = ModelProfile.from_tree(
            model_suite, tree, training_y=SampleMoments.from_values(train.y)
        )
        model_desc = f"{ctx.suite_label(model_suite)} model"
        # Same split discipline as E7/E8: held-out data within suite,
        # the other suite's training-sized pool across suites.
        traffic = (
            ctx.test_set(traffic_suite)
            if traffic_suite == model_suite
            else ctx.train_set(traffic_suite)
        )

    actions = []
    if args.audit is not None:
        actions.append(JsonlAudit(args.audit))
    monitor = DriftMonitor(profile, monitor_config, actions)
    print(
        f"streaming {len(traffic)} {ctx.suite_label(traffic_suite)} "
        f"intervals through {model_desc} "
        f"(window={args.window}, batch={args.stream_batch})"
    )
    final_event = None
    batch = args.stream_batch
    # Replay drives every batch through the shared compiled evaluator
    # (predictions and leaf routing from one handle), the same backend
    # the serving engine and drift hub use.
    evaluator = tree.compiled()
    for start in range(0, len(traffic), batch):
        Xb = traffic.X[start : start + batch]
        yb = traffic.y[start : start + batch]
        event = monitor.observe(
            evaluator.predict(Xb), yb, evaluator.assign_names(Xb)
        )
        final_event = event
        if event.changed:
            detail = "; ".join(str(r) for r in event.breaches) or "clean"
            print(
                f"  record {event.records_seen:>7d}: "
                f"{event.previous_verdict.value} -> {event.verdict.value} "
                f"({detail})"
            )
    if final_event is None:
        print("monitor: traffic stream was empty", file=sys.stderr)
        return 2
    print(f"final verdict: {final_event.verdict.value}")
    for reading in final_event.readings:
        print(f"  {reading}")
    if args.audit is not None:
        print(f"audit trail: {args.audit}", file=sys.stderr)
    return 3 if final_event.verdict is DriftVerdict.TRANSFER_FAILED else 0


def _pipeline_run(args, train_suite: str, traffic_suite: str) -> int:
    """Replay the full detect -> retrain -> shadow -> promote loop.

    Exits 0 when the loop completed a promotion (the candidate took
    over the 'latest' alias and its verdict recovered), 3 otherwise —
    the remediation counterpart of ``repro monitor``'s exit 3.
    """
    import tempfile

    from repro.pipeline.replay import run_pipeline_replay
    from repro.serve.registry import ModelRegistry

    if args.window < 2:
        print(f"pipeline: --window must be >= 2, got {args.window}",
              file=sys.stderr)
        return 2
    if args.stream_batch < 1 or args.max_records < 1:
        print("pipeline: --stream-batch and --max-records must be >= 1",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        registry = ModelRegistry(
            args.registry if args.registry is not None else scratch
        )
        result = run_pipeline_replay(
            registry,
            train_suite,
            traffic_suite,
            config=_config_from_args(args),
            cache_dir=args.cache_dir,
            window=args.window,
            stream_batch=args.stream_batch,
            max_records=args.max_records,
        )
    return 0 if result["promoted"] else 3


def _promotions(args) -> int:
    """Print the promotion trail and verify its hash chain."""
    from repro.pipeline.promotions import PromotionChainError, PromotionLog
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    log = PromotionLog(registry.root / "promotions.jsonl")
    entries = log.entries()
    if not entries:
        print(f"no promotions recorded in {log.path}")
        return 0
    for entry in entries:
        import time as _time

        stamp = _time.strftime(
            "%Y-%m-%d %H:%M:%S",
            _time.localtime(float(entry.get("unix_time", 0))),
        )
        print(
            f"#{entry.get('seq')} {stamp} {entry.get('action')}: "
            f"{entry.get('alias')} {entry.get('from')} -> {entry.get('to')} "
            f"[{entry.get('actor')}] {entry.get('why')}"
        )
    try:
        count = log.verify()
    except PromotionChainError as error:
        print(f"hash chain BROKEN: {error}", file=sys.stderr)
        return 1
    print(f"hash chain verified ({count} entries)")
    return 0


def _rollback(args) -> int:
    """Restore the 'latest' alias to a prior model from the trail."""
    from repro.pipeline.promotions import (
        PromotionChainError,
        PromotionLog,
        perform_rollback,
    )
    from repro.serve.registry import ModelNotFound, ModelRegistry

    registry = ModelRegistry(args.registry)
    log = PromotionLog(registry.root / "promotions.jsonl")
    try:
        entry = perform_rollback(
            registry,
            log,
            to=args.to,
            why=args.why,
            actor="cli",
        )
    except (PromotionChainError, ModelNotFound) as error:
        print(f"rollback: {error}", file=sys.stderr)
        return 1
    print(
        f"rolled back 'latest': {entry.get('from')} -> {entry.get('to')} "
        f"(recorded as promotion-trail entry #{entry.get('seq')})"
    )
    return 0


def _registry_gc(args) -> int:
    """Collect registry artifacts unreachable from aliases or the trail."""
    from repro.pipeline.gc import collect_garbage
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    report = collect_garbage(registry, dry_run=args.dry_run)
    verb = "would remove" if report["dry_run"] else "removed"
    for item in report["collected"]:
        print(f"{verb} {item['model_id']} ({item['bytes']} bytes)")
    print(
        f"{verb} {len(report['collected'])} of {report['models_total']} "
        f"model(s), {report['bytes_freed']} bytes"
        + (
            f"; rollback target {report['rollback_target']} kept"
            if report["rollback_target"]
            else ""
        )
    )
    return 0


def _status(args) -> int:
    """Fetch ``/v1/status`` from a running server and render it.

    ``--watch`` redraws the view every ``--interval`` seconds until
    Ctrl-C — a terminal twin of the server's ``/dashboard`` page,
    stdlib-only (urllib + ANSI clear-screen).
    """
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from repro.serve.status import render_status_text

    url = args.url.rstrip("/") + "/v1/status"
    if args.interval <= 0:
        print(
            f"status: --interval must be positive, got {args.interval}",
            file=sys.stderr,
        )
        return 2

    def fetch():
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return _json.loads(response.read().decode("utf-8"))

    if not args.watch:
        try:
            print(render_status_text(fetch()))
        except (urllib.error.URLError, OSError, ValueError) as error:
            print(f"status: {url}: {error}", file=sys.stderr)
            return 2
        return 0
    try:
        while True:
            try:
                text = render_status_text(fetch())
            except (urllib.error.URLError, OSError, ValueError) as error:
                text = f"status: {url}: {error}"
            # ANSI clear + home keeps the view flicker-free without
            # depending on curses.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _loadbench(args) -> int:
    """Drive closed- or open-loop load at a running server's HTTP path."""
    import urllib.error

    from repro.loadbench import LoadConfig, run_load
    from repro.loadbench.report import render_load_text

    try:
        config = LoadConfig(
            url=args.url.rstrip("/"),
            model=args.model or "latest",
            mode=args.mode,
            duration_s=args.duration,
            connections=args.connections,
            think_ms=args.think_ms,
            rate=args.rate,
            batch_rows=args.batch_rows,
        )
    except ValueError as error:
        print(f"loadbench: {error}", file=sys.stderr)
        return 2
    # Fail fast on an unreachable server instead of recording a
    # duration_s-long run of nothing but connection errors, and size
    # the payload rows from the model's actual schema — a guessed
    # width would 400 on every request.
    import json as json_module
    import urllib.request

    from dataclasses import replace

    from repro.loadbench.harness import _default_instances

    try:
        with urllib.request.urlopen(
            f"{config.url}/healthz", timeout=5.0
        ) as response:
            response.read()
        with urllib.request.urlopen(
            f"{config.url}/v1/models/{config.model}", timeout=5.0
        ) as response:
            record = json_module.loads(response.read())
    except urllib.error.HTTPError as error:
        print(
            f"loadbench: no model {config.model!r} at {config.url} "
            f"(HTTP {error.code})",
            file=sys.stderr,
        )
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"loadbench: {config.url}: {error}", file=sys.stderr)
        return 2
    config = replace(
        config,
        instances=_default_instances(
            config.batch_rows,
            config.seed,
            len(record.get("feature_names") or ()) or 3,
        ),
    )
    result = run_load(config)
    print(render_load_text(result, config.url))
    if result.requests == 0:
        print("loadbench: no successful requests", file=sys.stderr)
        return 1
    return 0


def _serve_cluster(args, batch) -> int:
    """Run an N-replica cluster until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.cluster import ClusterConfig, ClusterSupervisor

    try:
        supervisor = ClusterSupervisor(
            ClusterConfig(
                registry_dir=args.registry,
                workers=args.workers,
                host=args.host,
                port=args.port,
                batch=batch,
                monitor=not args.no_monitor,
                pipeline=args.pipeline,
                events_path=args.events,
                admin_port=args.admin_port,
                extra_server_kwargs={
                    "shadow": args.shadow,
                    "shadow_champion": args.shadow_champion,
                    "audit_path": args.audit,
                },
            )
        ).start()
    except (OSError, ValueError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    def _drain(signum, frame) -> None:
        supervisor.request_stop()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    admin = (
        f", admin http://{args.host}:{supervisor.admin_port}"
        if supervisor.admin_port is not None
        else ""
    )
    print(
        f"serving on http://{args.host}:{supervisor.port} with "
        f"{args.workers} worker(s) ({supervisor.socket_mode} mode, "
        f"replica 0 leads{admin}; SIGTERM/Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    try:
        supervisor.serve_forever()
        print("draining workers...", file=sys.stderr)
        unclean = supervisor.shutdown()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    restarts = sum(supervisor.restart_counts())
    print(
        f"cluster stopped ({restarts} restart(s), "
        f"{unclean} unclean exit(s)); bye",
        file=sys.stderr,
    )
    return 1 if unclean else 0


def _serve(args) -> int:
    """Run the model server until SIGTERM/SIGINT, then drain and exit."""
    from repro.serve.engine import BatchConfig

    try:
        batch = BatchConfig(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1000.0
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"serve: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2

    if args.self_test:
        from repro.serve.selftest import run_self_test

        return run_self_test(
            args.registry, batch=batch, workers=args.workers
        )

    if args.workers > 1:
        if args.profile is not None:
            print(
                "serve: --profile samples one process; with --workers "
                "use 'repro profile' against a replica instead",
                file=sys.stderr,
            )
            return 2
        return _serve_cluster(args, batch)

    import signal
    import threading

    from repro.obs.metrics import get_registry
    from repro.serve.api import ModelServer
    from repro.serve.registry import ModelRegistry

    if args.pipeline and args.no_monitor:
        print(
            "serve: --pipeline requires drift monitoring "
            "(drop --no-monitor)",
            file=sys.stderr,
        )
        return 2
    registry = ModelRegistry(args.registry)
    try:
        server = ModelServer(
            registry,
            host=args.host,
            port=args.port,
            batch=batch,
            monitor=not args.no_monitor,
            shadow=args.shadow,
            shadow_champion=args.shadow_champion,
            audit_path=args.audit,
            events_path=args.events,
            pipeline=args.pipeline,
        )
    except (KeyError, ValueError) as error:
        # A --shadow ref not in the registry, or of another schema.
        print(f"serve: {error}", file=sys.stderr)
        return 2
    stop = threading.Event()

    def _drain(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    profiler = None
    if args.profile is not None:
        from repro.obs.prof import SamplingProfiler

        try:
            profiler = SamplingProfiler(hz=args.profile_hz).start()
        except ValueError as error:
            print(f"serve: --profile: {error}", file=sys.stderr)
            return 2
    server.start()
    host, port = server.address
    print(
        f"serving {len(registry)} model(s) on http://{host}:{port} "
        f"(max_batch={batch.max_batch}, max_wait="
        f"{batch.max_wait_s * 1e3:g}ms; SIGTERM/Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    try:
        # Python runs signal handlers on this thread, when it next runs
        # bytecode.  A signal another thread took (one starting up as it
        # arrived) would leave an untimed wait parked for good.
        while not stop.wait(0.1):
            pass
        print("draining...", file=sys.stderr)
        server.shutdown()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if profiler is not None:
            server_profile = profiler.stop()
            server_profile.save(args.profile)
            print(
                f"profile written to {args.profile} "
                f"({server_profile.samples} passes at "
                f"{server_profile.hz} Hz)",
                file=sys.stderr,
            )
    served = get_registry().counter("serve.http.requests").value
    print(f"served {served} request(s); bye", file=sys.stderr)
    return 0


def _describe_benchmark(name: str, args) -> int:
    """Full per-benchmark page: metadata, profile, equations, neighbors."""
    from repro.characterization.profile import profile_sample_set
    from repro.characterization.similarity import similarity_matrix
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.context import ExperimentContext
    from repro.workloads.catalog import format_benchmark_detail

    ctx = ExperimentContext(ExperimentConfig().scaled(args.scale))
    for which in ("cpu2006", "omp2001"):
        suite = ctx.suite(which)
        try:
            suite.benchmark(name)
        except KeyError:
            continue
        print(format_benchmark_detail(suite, name))
        profile = profile_sample_set(ctx.tree(which), ctx.data(which))
        bench = profile.benchmark(name)
        print(f"\naverage CPI: {bench.mean_cpi:.2f} "
              f"(suite: {ctx.data(which).y.mean():.2f})")
        print("dominant linear models:")
        tree = ctx.tree(which)
        for lm, share in bench.dominant(4):
            print(f"  {lm} ({share:.1f}%): {tree.leaf(lm).model.equation()}")
        matrix = similarity_matrix(profile)
        ranked = sorted(
            (
                (other.benchmark, matrix.distance(name, other.benchmark))
                for other in profile.benchmarks
                if other.benchmark != name
            ),
            key=lambda item: item[1],
        )
        print("most similar benchmarks (Eq. 4):")
        for other, distance in ranked[:4]:
            print(f"  {other:20s} {distance:5.1f}%")
        print(f"distance from suite profile: "
              f"{matrix.suite_distance(name):.1f}%")
        return 0
    print(f"unknown benchmark {name!r} (try 'repro catalog cpu2006')",
          file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    handled = _run_subcommand(args)
    if handled is not None:
        return handled

    from repro.experiments.context import ExperimentContext
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    requested = [e.upper() for e in args.experiments]

    if "LIST" in requested:
        for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
            print(f"{key:5s} {_TITLES[key]}")
        return 0

    ran_all = "ALL" in requested
    if ran_all:
        requested = sorted(EXPERIMENTS, key=lambda k: int(k[1:]))

    want_report = "REPORT" in requested
    requested = [e for e in requested if e != "REPORT"]

    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; run 'repro list'",
            file=sys.stderr,
        )
        return 2

    config = _config_from_args(args)
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)

    profiler = None
    profile = None
    if args.profile is not None:
        from repro.obs.prof import SamplingProfiler

        try:
            profiler = SamplingProfiler(hz=args.profile_hz).start()
        except ValueError as error:
            print(f"--profile: {error}", file=sys.stderr)
            return 2

    ctx: Optional[ExperimentContext] = None
    try:
        if args.jobs is not None and requested:
            from repro.experiments.runner import ParallelRunner

            runner = ParallelRunner(
                config, jobs=args.jobs, cache_dir=args.cache_dir
            )
            battery = runner.run(requested)
            for _, text in battery.texts:
                print(text)
                print()
            print(battery.summary(), file=sys.stderr)
        else:
            ctx = ExperimentContext(config, cache_dir=args.cache_dir)
            for key in requested:
                print(run_experiment(key, ctx))
                print()
            if ran_all and requested:
                from repro.datasets.cache import format_cache_stats

                print("dataset cache:", file=sys.stderr)
                print(format_cache_stats(ctx.cache.stats), file=sys.stderr)
        if want_report:
            from repro.experiments.report_gen import generate_report

            if ctx is None:
                ctx = ExperimentContext(config, cache_dir=args.cache_dir)
            generate_report(ctx, path=args.output)
            print(f"report written to {args.output}")
    finally:
        if tracer is not None:
            from repro.obs.trace import set_tracer

            set_tracer(None)
        if profiler is not None:
            profile = profiler.stop()

    if profile is not None:
        profile.save(args.profile)
        print(
            f"profile written to {args.profile} "
            f"({profile.samples} passes at {profile.hz} Hz, "
            f"{profile.attributed_fraction() * 100:.0f}% span-attributed)",
            file=sys.stderr,
        )
    if tracer is not None:
        from repro.obs.manifest import build_manifest
        from repro.obs.metrics import get_registry

        manifest = build_manifest(
            config,
            experiments=requested,
            argv=["repro", *(argv if argv is not None else sys.argv[1:])],
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            extra={"scale": args.scale, "trace_path": args.trace},
        )
        tracer.write_jsonl(
            args.trace,
            manifest=manifest,
            metrics=get_registry().as_records(),
        )
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        from repro.obs.metrics import get_registry
        from repro.obs.summary import format_metrics_table

        print("metrics:", file=sys.stderr)
        print(
            format_metrics_table(get_registry().as_records()),
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
