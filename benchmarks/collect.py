"""Run the benchmark over many seeds and summarise, for one or two checkouts.

    python3 benchmarks/collect.py --workload grid-2k-all --seeds 1-10
    python3 benchmarks/collect.py --workload all --seeds 1-10 \\
        --checkout ../parent --checkout . --json pairs.json

Each checkout is a source tree holding the same ``benchmarks/`` directory
(copy it into the older one). With two checkouts the runs alternate: for
even seeds the first checkout runs first, for odd seeds the second. For
every end-to-end metric the summary gives each checkout's median and
quartiles, the quartile spread as a share of the median, and, with two
checkouts, how many seed pairs the second one won, read in the metric's
``better`` direction from BENCHMARK.json. The JSON output also records
nproc, the CPU model, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout.name} {workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def summarise(runs: dict[str, list[dict]], trace: int) -> dict:
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    out = {}
    names = list(runs)
    for m in metrics:
        name = m["name"]
        row = {}
        for checkout in names:
            values = [r["metrics"][name]["value"] for r in runs[checkout]]
            row[checkout] = spread(values) if len(values) >= 2 else {"values": values}
            row[checkout]["values"] = values
        if len(names) == 2 and "better" in m:
            a, b = (runs[n] for n in names)
            sign = -1.0 if m["better"] == "lower" else 1.0
            wins = sum(
                1 for ra, rb in zip(a, b)
                if sign * (rb["metrics"][name]["value"] - ra["metrics"][name]["value"]) > 0
            )
            row["second_wins"] = f"{wins}/{len(a)}"
        if "bound" in m:
            row["bound"] = m["bound"]
        out[name] = row
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True,
                   help="workload name, repeatable; 'all' for every workload")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", default=None,
                   help="source tree to run in, at most two (default: this one)")
    p.add_argument("--json", default=None, help="also write every run and the summary here")
    args = p.parse_args()

    workloads = [w["name"] for w in SPEC["workloads"]] if "all" in args.workload else args.workload
    names = args.checkout or ["."]
    if len(names) > 2 or len(set(names)) != len(names):
        raise SystemExit("give at most two different checkouts")
    # Results are keyed by the checkout as given, so outputs hold no absolute paths.
    checkouts = {name: Path(name).resolve() for name in names}
    doc: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {},
                 "machine": machine()}
    for workload in workloads:
        runs: dict[str, list[dict]] = {name: [] for name in names}
        for seed in parse_seeds(args.seeds):
            order = names if seed % 2 == 0 else names[::-1]
            for name in order:
                r = run_once(checkouts[name], workload, seed, args.seconds, args.trace)
                runs[name].append(r)
                shown = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
                print(f"{workload} seed {seed} {name}: correct={r['correct']} "
                      f"failed={r['failed']} {shown}", file=sys.stderr)
        summary = summarise(runs, args.trace)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, row in summary.items():
            parts = [f"{name:32s}"]
            for checkout in runs:
                s = row[checkout]
                if "median" in s:
                    share = s["iqr_share"]
                    parts.append(f"med {s['median']:.6g} iqr/med "
                                 f"{'n/a' if share is None else f'{share:.4f}'}")
                else:
                    parts.append(f"values {s['values']}")
            if "second_wins" in row:
                parts.append(f"second wins {row['second_wins']}")
            if "bound" in row:
                parts.append(f"bound {row['bound']}")
            print(f"{workload}: " + " | ".join(parts))
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
