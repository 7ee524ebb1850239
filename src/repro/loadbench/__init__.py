"""Closed- and open-loop load generation against the serving HTTP path.

The microbenchmarks (``run_bench.py --only microperf``) time the
library from inside the process; this package measures what a
*client* sees — the full HTTP path through connection handling, JSON
decode, the batching queue, the compiled kernel and response encode —
in the two canonical load models (closed loop: K connections with
think time; open loop: Poisson arrivals at an offered rate).  Every
timed request of ``benchmarks/run_bench.py``'s HTTP benches goes
through :func:`run_load`.  See ``docs/PERFORMANCE.md`` ("The load
harness") for when each model is the right question and why the
open-loop clock starts at the *scheduled* arrival (coordinated
omission).
"""

from repro.loadbench.harness import LoadConfig, LoadResult, run_load

__all__ = ["LoadConfig", "LoadResult", "run_load"]
