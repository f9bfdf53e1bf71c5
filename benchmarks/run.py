"""Benchmark for synthbench experiment grids.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/synthbench`` and
``tests/conftest.py``). The seed generates fixture-A and the grid config;
see README.md for the workloads and metrics. The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (grid cells) and
``metrics``. The line before it holds details such as the report digests.

``--trace 0`` runs the grid repeatedly, each time in a fresh process with
tracing off, and reports the end-to-end metrics. ``--trace 1`` runs the grid
once untraced (twice, at ``--jobs`` and at 1, when the workload uses
workers) and once traced with ``--jobs 1`` in a single process, and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "synthbench"
CONFTEST = ROOT / "tests" / "conftest.py"
SETUP_PROBES = 12


def deadline_s(seconds: int) -> float:
    """Run limit: 170 s up to ``--seconds 30``, then 4 s more per second,
    since the grid repeat count grows with ``--seconds``."""
    return 50.0 + 4.0 * max(seconds, 30)


class BenchError(RuntimeError):
    pass


def self_check() -> None:
    """The input generator must reproduce the test suite's fixture-A."""
    from workloads import COLUMNS, LEVELS, fixture_a_columns

    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ref = module.make_fixture_a(2000, 42)
    ours = fixture_a_columns(2000, 42)
    if ref.schema.names != COLUMNS:
        raise BenchError(f"fixture-A columns are {ref.schema.names}, generator has {COLUMNS}")
    for col, arr in zip(ref.schema.columns, ours):
        if col.kind.is_categorical and tuple(col.kind.levels) != LEVELS[col.name]:
            raise BenchError(f"fixture-A levels of {col.name} differ from the generator's")
        if not (ref.column(col.name) == arr).all():
            raise BenchError(f"generator differs from make_fixture_a() in column {col.name}")


class Runner:
    """Starts grid.py processes, each in its own session so that a timeout
    can stop its pool workers too."""

    def __init__(self, started: float, limit_s: float) -> None:
        self.deadline = started + limit_s
        self.limit_s = limit_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # One BLAS thread per process: the grid's own parallelism is --jobs,
        # and BLAS threads competing for the same cores made timings noisy.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def run(self, config: Path, out: Path, jobs: int, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "grid.py"), "--config", str(config),
               "--out", str(out), "--jobs", str(jobs), *extra]
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"grid process exceeded the {self.limit_s:.0f} s run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"grid process failed ({proc.returncode}):\n{stderr[-3000:]}")
        result = json.loads(stdout.strip().splitlines()[-1])
        if Path(result["synthbench"]).resolve().parent != PACKAGE.resolve():
            raise BenchError(f"imported synthbench from {result['synthbench']}, not {PACKAGE}")
        result["setup_s"] = result["setup_done"] - started
        return result


def dataset_seconds(out: Path) -> list[float]:
    with open(out / "timings.csv", newline="") as fh:
        return [float(r["seconds"]) for r in csv.DictReader(fh)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    if n <= 10:
        raise BenchError(f"{n} dataset timings leave no tail with 10 samples beyond it")
    return math.floor(100 * (n - 10) / n)


class Grids:
    """Grid runs of one benchmark invocation and the checks on their outputs."""

    def __init__(self, runner: Runner, workload, config: Path, work: Path) -> None:
        self.runner = runner
        self.workload = workload
        self.config = config
        self.work = work
        self.attempted = 0
        self.failed: dict[tuple, str] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.reference: Path | None = None

    def run(self, name: str, jobs: int, *extra: str) -> tuple[dict, list[float]]:
        from checks import check_run, compare_runs, sha256

        out = self.work / name
        result = self.runner.run(self.config, out, jobs, *extra)
        failed = check_run(out, self.workload)
        if self.reference is not None:
            for key, why in compare_runs(self.reference, out).items():
                failed.setdefault(key, why)
        self.attempted += self.workload.cells
        for key, why in failed.items():
            self.failed.setdefault(("|".join(key), name), why)
        self.digests[name] = {f: sha256(out / f) for f in ("report.csv", "summary.csv")}
        seconds = dataset_seconds(out)
        if self.reference is None:
            self.reference = out
            shutil.rmtree(out / "synth")
        else:
            shutil.rmtree(out)
        return result, seconds


def measure_end_to_end(grids: Grids, runner: Runner, seconds: int, details: dict) -> dict:
    w = grids.workload
    def probes(count: int) -> list[float]:
        return [runner.run(grids.config, grids.work / "probe", w.jobs, "--setup-only")["setup_s"]
                for _ in range(count)]

    probes(1)  # warm-up: compiles bytecode
    reps = max(1, int(seconds // w.nominal_s))
    # The set-up probes go in groups before, between and after the grids, so
    # that their median spans the whole run rather than the few seconds of
    # one of the machine's speed phases.
    group = math.ceil(SETUP_PROBES / (reps + 1))
    setups: list[float] = []
    grid_s, grid_cpu_s, rss, per_dataset = [], [], [], []
    for i in range(reps):
        setups.extend(probes(group))
        result, ds_seconds = grids.run(f"grid{i}", w.jobs)
        setups.append(result["setup_s"])
        grid_s.append(result["grid_s"])
        grid_cpu_s.append(result["grid_cpu_s"])
        rss.append(result["peak_rss_mb"])
        per_dataset.extend(ds_seconds)
    setups.extend(probes(group))
    if len(per_dataset) != reps * w.datasets:
        raise BenchError(f"timings.csv holds {len(per_dataset)} datasets, expected {reps * w.datasets}")
    tail_p = tail_percentile(len(per_dataset))
    details.update(
        reps=reps, grid_s=grid_s, grid_cpu_s=grid_cpu_s, setup_s=setups, peak_rss_mb=rss,
        dataset_tail_percentile=tail_p, dataset_samples=len(per_dataset),
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "grid_s": (statistics.median(grid_s), "s"),
        "datasets_per_s": (statistics.median(w.datasets / g for g in grid_s), "1/s"),
        "dataset_s_tail": (float(numpy.percentile(per_dataset, tail_p)), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "cells_ok_ratio": (1.0 - len(grids.failed) / grids.attempted, "ratio"),
    }


# Self-time layers whose dominance is each workload's reason for being chosen.
EVAL_LAYERS = ("harness.metric_rows", "estimands.regression", "estimands.mean_point",
               "metrics.kl", "analysis.classify", "analysis.adhoc",
               "models.cart.fit.eval", "models.linear.fit.eval",
               "models.logistic.fit.eval", "dataset.write_csv")


def reason_confirmed(workload: str, self_s: dict[str, float]) -> bool:
    top = max(self_s, key=self_s.get)
    if workload == "grid-2k-all":
        return top == "synthesis.synthesize"
    if workload == "grid-8k-trees-j2":
        return top == "models.cart.fit.synth"
    covered = sum(self_s.get(k, 0.0) for k in EVAL_LAYERS)
    return covered > 0.5 * sum(self_s.values())


def measure_layers(grids: Grids, workload: str, details: dict) -> dict:
    w = grids.workload
    untraced, ds_seconds = grids.run("untraced", w.jobs)
    serial = untraced
    if w.jobs > 1:
        serial, _ = grids.run("untraced-jobs1", 1)
    traced, _ = grids.run("traced", 1, "--trace-workload", workload)
    layers = dict(traced["layers"])
    layers["harness.pool.utilization"] = traced["cell_s"] / (w.jobs * untraced["grid_s"])
    layers["trace.overhead_ratio"] = traced["grid_s"] / serial["grid_s"] - 1.0
    # Per-dataset median of the untraced grid. It is not an end-to-end metric
    # because it swings by up to a third between runs (see README.md).
    layers["dataset_s_p50"] = float(numpy.percentile(ds_seconds, 50))
    top = sorted(traced["self_s"].items(), key=lambda kv: -kv[1])[:6]
    details.update(
        untraced_grid_s=untraced["grid_s"], untraced_jobs1_grid_s=serial["grid_s"],
        traced_grid_s=traced["grid_s"], top_self_s=dict(top),
        reason_confirmed=reason_confirmed(workload, traced["self_s"]),
    )
    units = {"calls": "count", "leaves": "count", "newton_iters": "count",
             "nonconverged": "count", "s": "s", "self_s": "s", "mb": "MB", "dataset_s_p50": "s"}
    return {k: (v, units.get(k.rsplit(".", 1)[-1], "ratio")) for k, v in layers.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (PACKAGE / "__init__.py").is_file() or not CONFTEST.is_file():
        print(f"benchmark error: run from a synthbench source checkout; "
              f"{PACKAGE} or {CONFTEST} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"benchmark error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("benchmark error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        self_check()
        config = write_inputs(workload, args.seed, work / "inputs")
        runner = Runner(started, deadline_s(args.seconds))
        grids = Grids(runner, workload, config, work)
        if args.trace:
            metrics = measure_layers(grids, args.workload, details)
        else:
            metrics = measure_end_to_end(grids, runner, args.seconds, details)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    details.update(
        digests=grids.digests,
        failures={" @ ".join(k): v for k, v in list(grids.failed.items())[:20]},
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        wall_s=time.monotonic() - started,
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not grids.failed,
        "attempted": grids.attempted,
        "failed": len(grids.failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
