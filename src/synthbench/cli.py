"""Command line entry points.

Exit codes: 0 on success, 1 on configuration or input errors, 2 when the run
finished but some cells or analyses recorded failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import load_config
from .dataset import NumberText
from .errors import ConfigError, SynthbenchError
from .harness import (
    grid_specs,
    load_metric_inputs,
    load_original,
    metric_rows,
    original_side,
    run_experiment,
)
from .metrics import ReportError, UtilityReport
from .synthesis import load_synthetic_set, save_synthetic_set, synthesize
from .tables import emit_tables, read_report, read_timings, write_report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="synthbench",
        description="Generate synthetic tabular datasets and measure their utility.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize one labelled configuration")
    g.add_argument("--config", required=True, help="experiment config JSON")
    g.add_argument("--spec", required=True, metavar="LABEL", help="synthesizer label, e.g. D or CPOT")
    g.add_argument("--m", type=int, required=True, help="number of datasets")
    g.add_argument("--seed", type=int, default=None, help="override the config seed")
    g.add_argument("--out", default=None, help="output directory (default: <config out>/synth/<LABEL>_m<m>)")

    e = sub.add_parser("evaluate", help="score an existing synthetic set against the original")
    e.add_argument("--config", required=True)
    e.add_argument("--syn", required=True, help="directory written by generate")
    e.add_argument("--out", required=True, help="directory for report.csv")

    x = sub.add_parser("experiment", help="run the full grid and emit tables")
    x.add_argument("--config", required=True)
    x.add_argument("--seed", type=int, default=None)
    x.add_argument("--out", default=None)
    x.add_argument("--jobs", type=int, default=1)
    x.add_argument("--resume", action="store_true", help="reuse finished replicates in the output directory")

    r = sub.add_parser("report", help="rebuild tables from an existing report.csv")
    r.add_argument("--out", required=True, help="experiment output directory")
    r.add_argument("--tables", nargs="*", default=None, help="specific tables (default: all available)")
    return p


def _cmd_generate(args) -> int:
    if args.m < 1:
        raise ConfigError(f"--m must be >= 1, got {args.m}")
    cfg = load_config(args.config, seed=args.seed)
    original = load_original(cfg)
    # simple mode is built whatever modes the grid lists
    specs = grid_specs(cfg, original.schema, ("simple",), m=args.m, seed=cfg.seed)
    spec = specs.get((args.spec, "simple"))
    if spec is None:
        raise ConfigError(f"label {args.spec!r} is not in the configured grid")
    sset = synthesize(original, spec)
    out = Path(args.out) if args.out else cfg.out / "synth" / f"{args.spec}_m{args.m}"
    total = math.fsum(save_synthetic_set(sset, out, known=NumberText.of(original)))
    print(
        f"wrote {sset.m} datasets to {out} in {total:.3f}s "
        f"({total / sset.m:.4f}s per dataset: fit, draw and write)"
    )
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    original = load_original(cfg)
    fits, predicates = load_metric_inputs(cfg, original.schema)
    sset = load_synthetic_set(args.syn, original.schema)
    if cfg.metrics.rule == "Tp" and sset.m < 2:
        raise ConfigError(f"rule Tp needs at least two datasets; {args.syn} holds m = {sset.m}")
    side = original_side(original, cfg.metrics, fits, predicates)
    rows, errors = metric_rows(original, sset, cfg.metrics, fits, predicates, side=side)
    report = UtilityReport()
    for metric, scope, value in rows[sset.m]:
        report.add(sset.label, "simple", sset.m, 0, metric, scope, value)
    report.errors += (ReportError(sset.label, "simple", sset.m, 0, *error) for error in errors)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out)
    print(f"evaluated {sset.label} (m={sset.m}); report in {out}")
    return 2 if errors else 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out=args.out)
    report, timings = run_experiment(cfg, jobs=args.jobs, resume=args.resume)
    written = emit_tables(report, cfg.out, timings)
    n_rows = len(report.rows)
    print(f"report rows: {n_rows}; tables: {', '.join(sorted(written)) or 'none'}")
    if report.errors:
        print(f"{len(report.errors)} stage failures; see errors.csv", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out)
    report = read_report(out)
    requested = tuple(args.tables) if args.tables else None
    written = emit_tables(report, out, read_timings(out), requested)
    for name in sorted(written):
        print(f"{name}: {written[name]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except SynthbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
