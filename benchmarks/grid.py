"""One benchmark process: set up, then run the grid as `synthbench experiment`.

Run by ``run.py`` in a fresh interpreter, never imported by it:

    python3 benchmarks/grid.py --config C --out O --jobs J [--setup-only]
    python3 benchmarks/grid.py --config C --out O --jobs 1 --trace-workload W

The last stdout line is a JSON object. ``setup_done`` is a CLOCK_MONOTONIC
reading taken once ``import synthbench``, ``load_config``, ``load_original``,
``load_fitspecs`` and ``load_adhoc`` have returned; the parent subtracts its
own reading from just before it started this process. ``grid_s`` covers
``run_experiment`` plus ``emit_tables``; ``grid_cpu_s`` is the CPU time of
this process and its workers over the same span. With ``--trace-workload`` the
process wraps the package's layers first (see tracing.py) and adds the
per-layer numbers.
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-workload", default=None)
    args = p.parse_args()

    tracer = None
    if args.trace_workload is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    import synthbench
    from synthbench import harness

    cfg = harness.load_config(args.config, out=args.out)
    harness.load_original(cfg)
    synthbench.load_fitspecs(cfg.fitspecs)
    synthbench.load_adhoc(cfg.adhoc)
    result = {"setup_done": time.monotonic(), "synthbench": synthbench.__file__}
    if not args.setup_only:
        cpu0 = os.times()
        t0 = time.perf_counter()
        report, timings = harness.run_experiment(cfg, jobs=args.jobs)
        harness.emit_tables(report, cfg.out, timings)
        result["grid_s"] = time.perf_counter() - t0
        cpu1 = os.times()
        result["grid_cpu_s"] = sum(cpu1[:4]) - sum(cpu0[:4])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is in KiB
    if tracer is not None:
        tracer.check_hits(args.trace_workload)
        totals = tracer.totals()
        result["layers"] = tracer.layer_metrics(totals)
        result["cell_s"] = totals["harness.run_cell"][1]
        result["self_s"] = {name: t[2] for name, t in totals.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
