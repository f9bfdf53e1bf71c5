"""Experiment harness: run a synthesizer grid, persist results, emit tables.

A grid cell is one (synthesizer label, predictor mode, m, repetition).
Cells are independent: each synthesizes its m datasets, writes them out,
computes the configured metrics against the original data, and saves a cell
file. The report is assembled from the cell files in sorted key order, so
the report bytes do not depend on how many workers ran the cells, and a
resumed run reuses every finished cell without regenerating anything.
Timings are kept out of the report files on purpose.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    AdhocPredicate,
    adhoc_proportion,
    classify_compare,
    correlation_battery,
    load_adhoc,
)
from .dataset import (
    DEFAULT_MISSING_TOKENS,
    Dataset,
    LevelMapping,
    Schema,
    coarsen_levels,
    drop_column,
    head_n,
    load_csv,
    load_schema,
    replace_missing,
)
from .errors import ConfigError, MetricError, SynthbenchError
from .estimands import (
    FitSpec,
    ci,
    combine,
    estimate_set_from,
    load_fitspecs,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from .metrics import Overlap, UtilityReport, apo, cio, kl_divergence
from .synthesis import (
    SynthesizerSpec,
    SyntheticSet,
    build_spec,
    save_synthetic_set,
    synthesize,
)

PREDICTOR_MODES = ("simple", "selective")


@dataclass(frozen=True)
class SynthesizerEntry:
    base: str
    order: str = "original"
    own_order: tuple[str, ...] | None = None


@dataclass(frozen=True)
class MetricSettings:
    mean_point: bool = True
    regression: bool = True
    kl: bool = True
    kl_normalize: bool = True
    classification_target: str | None = None
    classification_test_fraction: float | None = None
    adhoc: bool = False
    rule: str = "Ts"
    ci_level: float = 0.95
    apo_threshold: float = 0.9
    apo_inclusive: bool = False
    kl_bins: int = 20
    kl_smoothing: float = 0.5
    kl_direction: str = "pq"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path
    schema: Path
    synthesizers: tuple[SynthesizerEntry, ...]
    m_list: tuple[int, ...]
    proper_variants: tuple[bool, ...]
    predictor_modes: tuple[str, ...]
    selective: dict[str, tuple[str, ...]] | None
    k: int
    seed: int
    out: Path
    fitspecs: Path | None = None
    adhoc: Path | None = None
    metrics: MetricSettings = field(default_factory=MetricSettings)
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    drop: tuple[str, ...] = ()
    coarsen: tuple[LevelMapping, ...] = ()
    head: int | None = None
    missing_seed: int = 0
    pmm_k: int = 5
    min_leaf: int = 5

    def labels(self) -> list[tuple[SynthesizerEntry, bool, str]]:
        """Expanded (entry, proper, label) triples; labels must be unique."""
        out = []
        seen = set()
        from .synthesis import _ORDER_SUFFIX  # single source for the suffix map

        for entry in self.synthesizers:
            for proper in self.proper_variants:
                label = entry.base + _ORDER_SUFFIX[entry.order] + ("T" if proper else "")
                if label in seen:
                    raise ConfigError(f"duplicate synthesizer label {label!r} in grid")
                seen.add(label)
                out.append((entry, proper, label))
        return out

    def fingerprint(self) -> str:
        doc = {
            "dataset": str(self.dataset),
            "schema": str(self.schema),
            "synthesizers": [
                [e.base, e.order, list(e.own_order) if e.own_order else None]
                for e in self.synthesizers
            ],
            "m": list(self.m_list),
            "proper": list(self.proper_variants),
            "modes": list(self.predictor_modes),
            "selective": {k: list(v) for k, v in (self.selective or {}).items()},
            "k": self.k,
            "seed": self.seed,
            "fitspecs": str(self.fitspecs) if self.fitspecs else None,
            "adhoc": str(self.adhoc) if self.adhoc else None,
            "metrics": self.metrics.__dict__,
            "missing_tokens": list(self.missing_tokens),
            "drop": list(self.drop),
            "coarsen": [[c.column, c.mapping] for c in self.coarsen],
            "head": self.head,
            "missing_seed": self.missing_seed,
            "pmm_k": self.pmm_k,
            "min_leaf": self.min_leaf,
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path: str | Path, *, seed: int | None = None, out: str | Path | None = None) -> ExperimentConfig:
    """Read an experiment configuration (JSON; grammar in the README).

    Relative paths inside the file resolve against the file's directory.
    ``seed``/``out`` override the file's values.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    base_dir = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base_dir / p

    try:
        grid = doc["grid"]
        entries = []
        for s in grid["synthesizers"]:
            entries.append(
                SynthesizerEntry(
                    base=s["base"],
                    order=s.get("order", "original"),
                    own_order=tuple(s["own_order"]) if "own_order" in s else None,
                )
            )
        m_list = tuple(int(m) for m in grid["m"])
        proper_variants = tuple(bool(b) for b in grid.get("proper", [False]))
        modes = tuple(grid.get("predictor_modes", ["simple"]))
        selective_doc = grid.get("selective")
        selective = (
            {str(k): tuple(v) for k, v in selective_doc.items()} if selective_doc else None
        )
        met = doc.get("metrics", {})
        clf = met.get("classification")
        settings = MetricSettings(
            mean_point=bool(met.get("mean_point", True)),
            regression=bool(met.get("regression", True)),
            kl=bool(met.get("kl", True)),
            kl_normalize=bool(met.get("kl_normalize", True)),
            classification_target=clf.get("target") if clf else None,
            classification_test_fraction=clf.get("test_fraction") if clf else None,
            adhoc=bool(met.get("adhoc", False)),
            rule=met.get("rule", "Ts"),
            ci_level=float(met.get("ci_level", 0.95)),
            apo_threshold=float(met.get("apo_threshold", 0.9)),
            apo_inclusive=bool(met.get("apo_inclusive", False)),
            kl_bins=int(met.get("kl_bins", 20)),
            kl_smoothing=float(met.get("kl_smoothing", 0.5)),
            kl_direction=met.get("kl_direction", "pq"),
        )
        pre = doc.get("preprocess", {})
        coarsen = tuple(
            LevelMapping(c["column"], dict(c["mapping"])) for c in pre.get("coarsen", ())
        )
        cfg = ExperimentConfig(
            dataset=resolve(doc["dataset"]),
            schema=resolve(doc["schema"]),
            synthesizers=tuple(entries),
            m_list=m_list,
            proper_variants=proper_variants,
            predictor_modes=modes,
            selective=selective,
            k=int(doc.get("k", 5)),
            seed=int(seed if seed is not None else doc.get("seed", 0)),
            out=Path(out) if out is not None else resolve(doc.get("out", "results")),
            fitspecs=resolve(doc["fitspecs"]) if doc.get("fitspecs") else None,
            adhoc=resolve(doc["adhoc"]) if doc.get("adhoc") else None,
            metrics=settings,
            missing_tokens=tuple(doc.get("missing_tokens", DEFAULT_MISSING_TOKENS)),
            drop=tuple(pre.get("drop", ())),
            coarsen=coarsen,
            head=int(pre["head_n"]) if pre.get("head_n") else None,
            missing_seed=int(pre.get("missing_seed", 0)),
            pmm_k=int(doc.get("pmm_k", 5)),
            min_leaf=int(doc.get("min_leaf", 5)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad config document: {err}") from err
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    from .synthesis import BASES, ORDER_KINDS

    for e in cfg.synthesizers:
        if e.base not in BASES:
            raise ConfigError(f"unknown synthesizer base {e.base!r}")
        if e.order not in ORDER_KINDS:
            raise ConfigError(f"unknown synthesis order {e.order!r}")
        if e.order == "own" and not e.own_order:
            raise ConfigError("order 'own' needs own_order")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not cfg.m_list or any(m < 1 for m in cfg.m_list):
        raise ConfigError("grid.m must be a non-empty list of integers >= 1")
    if len(set(cfg.m_list)) != len(cfg.m_list):
        raise ConfigError("grid.m has duplicates")
    if not cfg.synthesizers:
        raise ConfigError("grid.synthesizers is empty")
    if not cfg.proper_variants:
        raise ConfigError("grid.proper is empty")
    for mode in cfg.predictor_modes:
        if mode not in PREDICTOR_MODES:
            raise ConfigError(f"unknown predictor mode {mode!r}")
    if "selective" in cfg.predictor_modes and not cfg.selective:
        raise ConfigError("predictor mode 'selective' needs grid.selective")
    if cfg.metrics.rule not in ("Ts", "Tp"):
        raise ConfigError(f"unknown combining rule {cfg.metrics.rule!r}")
    if cfg.metrics.rule == "Tp" and any(m < 2 for m in cfg.m_list):
        raise ConfigError("rule Tp needs every m >= 2")
    labels = [lbl for _, _, lbl in cfg.labels()]
    if cfg.metrics.kl and cfg.metrics.kl_normalize and "S" not in labels:
        raise ConfigError(
            "kl_normalize needs the independent-sampling baseline: add base 'S' "
            "(non-proper) to the grid"
        )
    if cfg.metrics.regression and cfg.fitspecs is None:
        raise ConfigError("regression metrics need a fitspecs file")
    if cfg.metrics.adhoc and cfg.adhoc is None:
        raise ConfigError("adhoc metrics need an adhoc file")


def load_original(cfg: ExperimentConfig) -> Dataset:
    """Load and preprocess the original data: drop, coarsen, head, then fill
    missing cells by resampling observed values."""
    schema = load_schema(cfg.schema)
    ds, _ = load_csv(cfg.dataset, schema, cfg.missing_tokens)
    for name in cfg.drop:
        ds = drop_column(ds, name)
    for mapping in cfg.coarsen:
        ds = coarsen_levels(ds, mapping)
    if cfg.head is not None:
        ds = head_n(ds, cfg.head)
    ds = replace_missing(ds, cfg.missing_seed)
    return ds


@dataclass(frozen=True)
class TimingRecord:
    label: str
    mode: str
    m: int
    rep: int
    seconds: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.seconds)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "mode": self.mode,
            "m": self.m,
            "rep": self.rep,
            "seconds": list(self.seconds),
        }


def _cell_seed(master: int, label: str, mode: str, m: int, rep: int) -> int:
    tag = zlib.crc32(f"{label}|{mode}".encode())
    ss = np.random.SeedSequence((master, tag, m, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cell_key(label: str, mode: str, m: int, rep: int) -> str:
    return f"{label}_{mode}_m{m}_r{rep}"


def _selective_indices(
    schema: Schema, selective: dict[str, tuple[str, ...]] | None
) -> dict[int, tuple[int, ...]] | None:
    if not selective:
        return None
    out = {}
    for target, preds in selective.items():
        out[schema.index(target)] = tuple(schema.index(p) for p in preds)
    return out


def spec_for_label(
    cfg: ExperimentConfig,
    schema: Schema,
    label: str,
    *,
    m: int,
    seed: int,
    mode: str = "simple",
) -> SynthesizerSpec:
    """Build the spec of the grid's synthesizer ``label`` (base, order and
    proper flag from its grid entry; ``pmm_k`` and ``min_leaf`` from the
    config) for ``m`` datasets under ``seed`` in predictor ``mode``."""
    for entry, proper, lbl in cfg.labels():
        if lbl == label:
            return build_spec(
                schema,
                entry.base,
                order=entry.order,
                own_order=entry.own_order,
                proper=proper,
                m=m,
                seed=seed,
                selective=_selective_indices(schema, cfg.selective) if mode == "selective" else None,
                pmm_k=cfg.pmm_k,
                min_leaf=cfg.min_leaf,
            )
    raise ConfigError(f"label {label!r} is not in the configured grid")


def metric_rows(
    original: Dataset,
    sset: SyntheticSet,
    settings: MetricSettings,
    fits: tuple[FitSpec, ...],
    predicates: tuple[AdhocPredicate, ...],
) -> tuple[list[tuple[str, str, float]], list[tuple[str, str]]]:
    """Compute every configured metric for one synthetic set.

    Returns (rows, errors); a row is (metric, scope, value) and an error is
    (stage, message). A failing fit or predicate only loses its own rows.
    """
    rows: list[tuple[str, str, float]] = []
    errors: list[tuple[str, str]] = []
    level = settings.ci_level
    rule = settings.rule
    thr = settings.apo_threshold
    inc = settings.apo_inclusive

    if settings.mean_point:
        overlaps = []
        for col in original.schema.columns:
            if not col.kind.is_numeric:
                continue
            q0, v0 = mean_point_estimand(original, col.name)
            orig_ci = normal_interval(q0, v0, level)
            pairs = [mean_point_estimand(ds, col.name) for ds in sset.datasets]
            combined = combine(estimate_set_from(col.name, pairs), rule)
            ov = cio(orig_ci, ci(combined, level), estimand_id=col.name)
            overlaps.append(ov)
            rows.append(("mpe_cio", f"var:{col.name}", ov.value))
        if overlaps:
            rows.append(
                ("mpe_avg_cio", "", math.fsum(o.value for o in overlaps) / len(overlaps))
            )
            rows.append(("mpe_apo", "", apo(overlaps, thr, inclusive=inc)))

    if settings.regression and fits:
        fit_avgs: list[float] = []
        pooled: list[Overlap] = []
        for fit in fits:
            try:
                orig_coefs = regression_estimands(original, fit)
                per_ds = [regression_estimands(ds, fit) for ds in sset.datasets]
                names = [c.name for c in orig_coefs]
                for coefs in per_ds:
                    if [c.name for c in coefs] != names:
                        raise MetricError(
                            "synthetic fit produced a different coefficient set"
                        )
                fit_overlaps = []
                for idx, name in enumerate(names):
                    orig_ci = normal_interval(orig_coefs[idx].q, orig_coefs[idx].v, level)
                    est = estimate_set_from(
                        name, [(coefs[idx].q, coefs[idx].v) for coefs in per_ds]
                    )
                    ov = cio(orig_ci, ci(combine(est, rule), level), estimand_id=name)
                    fit_overlaps.append(ov)
                    rows.append(("rf_cio", f"fit:{fit.id}:coef:{name}", ov.value))
                avg = math.fsum(o.value for o in fit_overlaps) / len(fit_overlaps)
                rows.append(("rf_fit_avg_cio", f"fit:{fit.id}", avg))
                rows.append(
                    ("rf_fit_apo", f"fit:{fit.id}", apo(fit_overlaps, thr, inclusive=inc))
                )
                fit_avgs.append(avg)
                pooled.extend(fit_overlaps)
            except SynthbenchError as err:
                errors.append((f"fit:{fit.id}", str(err)))
        if fit_avgs:
            rows.append(("rf_avg_cio", "", math.fsum(fit_avgs) / len(fit_avgs)))
            rows.append(("rf_apo", "", apo(pooled, thr, inclusive=inc)))

    if settings.kl:
        for col in original.schema.columns:
            raws = []
            for ds in sset.datasets:
                score = kl_divergence(
                    original.column(col.name),
                    ds.column(col.name),
                    col.kind,
                    bins=settings.kl_bins,
                    smoothing=settings.kl_smoothing,
                    direction=settings.kl_direction,
                    variable=col.name,
                )
                raws.append(score.raw)
            rows.append(("kl_raw", f"var:{col.name}", math.fsum(raws) / len(raws)))

    if settings.classification_target is not None:
        try:
            res = classify_compare(
                original,
                sset,
                settings.classification_target,
                test_fraction=settings.classification_test_fraction,
            )
            rows.append(("clf_acc_orig", "", res.baseline_accuracy))
            rows.append(("clf_acc_syn", "", res.mean_accuracy))
            rows.append(("clf_acc_dev", "", res.accuracy_deviation))
            rows.append(("clf_agreement", "", res.agreement))
        except SynthbenchError as err:
            errors.append(("classification", str(err)))

    if settings.adhoc and predicates:
        for pred in predicates:
            try:
                p_orig = adhoc_proportion(original, pred)
                p_syn = math.fsum(
                    adhoc_proportion(ds, pred) for ds in sset.datasets
                ) / sset.m
                rows.append(("adhoc_orig", f"pred:{pred.id}", p_orig))
                rows.append(("adhoc_syn", f"pred:{pred.id}", p_syn))
                rows.append(("adhoc_dev", f"pred:{pred.id}", abs(p_orig - p_syn)))
            except SynthbenchError as err:
                errors.append((f"adhoc:{pred.id}", str(err)))

    return rows, errors


def _run_cell(args) -> dict:
    """Run one grid cell and save its cell file. Any exception becomes the
    cell's error row, so one failing cell never aborts the grid."""
    (cfg, original, label, mode, m, rep, fits, predicates) = args
    key = _cell_key(label, mode, m, rep)
    result = {"key": key, "label": label, "mode": mode, "m": m, "rep": rep}
    try:
        seed = _cell_seed(cfg.seed, label, mode, m, rep)
        spec = spec_for_label(cfg, original.schema, label, m=m, seed=seed, mode=mode)
        sset = synthesize(original, spec)
        seconds = save_synthetic_set(sset, cfg.out / "synth" / key)
        rows, errors = metric_rows(original, sset, cfg.metrics, fits, predicates)
        result["rows"] = [[mtr, scope, val] for mtr, scope, val in rows]
        result["errors"] = [[stage, msg] for stage, msg in errors]
        result["seconds"] = seconds
    except Exception as err:
        message = str(err) if isinstance(err, SynthbenchError) else f"{type(err).__name__}: {err}"
        result["rows"] = []
        result["errors"] = [["cell", message]]
        result["seconds"] = []
    cell_path = cfg.out / "cells" / f"{key}.json"
    cell_path.parent.mkdir(parents=True, exist_ok=True)
    cell_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def run_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, resume: bool = False
) -> tuple[UtilityReport, list[TimingRecord]]:
    """Execute the full grid and write report.csv, summary.csv, errors.csv,
    timings.csv and the resume manifest under ``cfg.out``."""
    original = load_original(cfg)
    if cfg.metrics.classification_target is not None:
        if cfg.metrics.classification_target not in original.schema.names:
            raise ConfigError(
                f"classification target {cfg.metrics.classification_target!r} "
                "is not a column of the preprocessed data"
            )
    fits = load_fitspecs(cfg.fitspecs) if (cfg.metrics.regression and cfg.fitspecs) else ()
    predicates = load_adhoc(cfg.adhoc) if (cfg.metrics.adhoc and cfg.adhoc) else ()

    cells = sorted(
        (label, mode, m, rep)
        for _, _, label in cfg.labels()
        for mode in cfg.predictor_modes
        for m in cfg.m_list
        for rep in range(cfg.k)
    )

    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    fingerprint = cfg.fingerprint()
    done: dict[str, dict] = {}
    if resume and manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("fingerprint") != fingerprint:
            raise ConfigError(
                "resume manifest belongs to a different configuration; "
                "use a fresh output directory"
            )
        for key in manifest.get("cells", {}):
            cell_path = out / "cells" / f"{key}.json"
            if cell_path.exists():
                done[key] = json.loads(cell_path.read_text())

    pending = [
        (cfg, original, label, mode, m, rep, fits, predicates)
        for label, mode, m, rep in cells
        if _cell_key(label, mode, m, rep) not in done
    ]
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fresh = list(pool.map(_run_cell, pending))
    else:
        fresh = [_run_cell(t) for t in pending]
    generated_now = sum(r["m"] for r in fresh if r["seconds"])

    results = dict(done)
    for r in fresh:
        results[r["key"]] = r

    report = UtilityReport()
    timings: list[TimingRecord] = []
    for label, mode, m, rep in cells:
        r = results[_cell_key(label, mode, m, rep)]
        for mtr, scope, val in r["rows"]:
            report.add(label, mode, m, rep, mtr, scope, val)
        for stage, msg in r["errors"]:
            report.add_error(label, mode, m, rep, stage, msg)
        if r["seconds"]:
            timings.append(TimingRecord(label, mode, m, rep, tuple(r["seconds"])))

    if cfg.metrics.kl and cfg.metrics.kl_normalize:
        _add_normalized_kl(report, cells)

    _write_report_files(report, out)
    _write_timings(timings, out / "timings.csv")

    manifest = {
        "fingerprint": fingerprint,
        "cells": {
            _cell_key(label, mode, m, rep): {"m": m}
            for label, mode, m, rep in cells
            if results[_cell_key(label, mode, m, rep)]["seconds"]
        },
        "datasets_generated": sum(
            m
            for label, mode, m, rep in cells
            if results[_cell_key(label, mode, m, rep)]["seconds"]
        ),
        "generated_last_run": generated_now,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return report, timings


def _add_normalized_kl(report: UtilityReport, cells) -> None:
    raw = report.values("kl_raw")
    for label, mode, m, rep in cells:
        if label == "S":
            continue
        mine = {
            scope: raw[(lbl, md, mm, rr, scope)]
            for (lbl, md, mm, rr, scope) in raw
            if (lbl, md, mm, rr) == (label, mode, m, rep)
        }
        if not mine:
            continue
        norms = []
        failed = False
        for scope in sorted(mine):
            base = raw.get(("S", mode, m, rep, scope))
            if base is None or not (base > 0.0) or math.isinf(base):
                report.add_error(
                    label, mode, m, rep, "kl_normalize",
                    f"baseline divergence unusable for {scope}",
                )
                failed = True
                break
            norms.append(mine[scope] / base)
            report.add(label, mode, m, rep, "kl_norm", scope, mine[scope] / base)
        if not failed and norms:
            report.add(label, mode, m, rep, "kl_norm_avg", "", math.fsum(norms) / len(norms))


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_report_files(report: UtilityReport, out: Path) -> None:
    with open(out / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "mode", "m", "k", "metric", "scope", "value"])
        for r in report.sorted_rows():
            w.writerow([r.label, r.mode, r.m, r.k, r.metric, r.scope, _fmt(r.value)])
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "mode", "m", "metric", "scope", "value"])
        for r in report.summary():
            w.writerow([r.label, r.mode, r.m, r.metric, r.scope, _fmt(r.value)])
    errors = sorted(report.errors, key=lambda e: e.key())
    if errors:
        with open(out / "errors.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "mode", "m", "k", "stage", "message"])
            for e in errors:
                w.writerow([e.label, e.mode, e.m, e.k, e.stage, e.message])


def _write_timings(timings: list[TimingRecord], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "mode", "m", "rep", "dataset", "seconds"])
        for t in timings:
            for i, s in enumerate(t.seconds):
                w.writerow([t.label, t.mode, t.m, t.rep, i, repr(s)])


def read_report(out: Path) -> UtilityReport:
    """Rebuild a UtilityReport from report.csv (+ errors.csv) in ``out``."""
    report_path = out / "report.csv"
    if not report_path.exists():
        raise ConfigError(f"{report_path} does not exist; run an experiment first")
    report = UtilityReport()
    with open(report_path, newline="") as fh:
        for row in csv.DictReader(fh):
            report.add(
                row["label"], row["mode"], int(row["m"]), int(row["k"]),
                row["metric"], row["scope"], float(row["value"]),
            )
    err_path = out / "errors.csv"
    if err_path.exists():
        with open(err_path, newline="") as fh:
            for row in csv.DictReader(fh):
                report.add_error(
                    row["label"], row["mode"], int(row["m"]), int(row["k"]),
                    row["stage"], row["message"],
                )
    return report


def benchmark_generation(
    cfg: ExperimentConfig, label: str, count: int = 100
) -> TimingRecord:
    """Serially generate ``count`` datasets with the labelled synthesizer and
    record per-dataset seconds (fit + draw + CSV write)."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    original = load_original(cfg)
    seed = int(
        np.random.SeedSequence(
            (cfg.seed, zlib.crc32(f"bench|{label}".encode()), count)
        ).generate_state(1, dtype=np.uint64)[0]
    )
    spec = spec_for_label(cfg, original.schema, label, m=count, seed=seed)
    sset = synthesize(original, spec)
    seconds = save_synthetic_set(sset, cfg.out / "bench" / label)
    record = TimingRecord(label, "simple", count, 0, tuple(seconds))
    bench_path = cfg.out / f"bench_{label}.json"
    bench_path.parent.mkdir(parents=True, exist_ok=True)
    bench_path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    return record


TABLES = ("mpe_apo", "cio_vs_m", "apo_vs_m", "kl_norm", "mode_compare", "apo_vs_time", "correlations")


def emit_tables(
    report: UtilityReport,
    out: Path,
    timings: list[TimingRecord] | None = None,
    requested: tuple[str, ...] | None = None,
) -> dict[str, Path]:
    """Write the plot-ready tables under ``out``/tables.

    With ``requested=None`` every table whose inputs are present is emitted;
    explicitly requesting a table whose inputs are missing is an error.
    """
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    summary = report.summary()
    by_metric: dict[str, dict[tuple, float]] = {}
    for r in summary:
        by_metric.setdefault(r.metric, {})[(r.label, r.mode, r.m, r.scope)] = r.value

    want = TABLES if requested is None else tuple(requested)
    for t in want:
        if t not in TABLES:
            raise ConfigError(f"unknown table {t!r}")
    explicit = requested is not None
    written: dict[str, Path] = {}

    def need(table: str, metric: str) -> bool:
        if metric in by_metric:
            return True
        if explicit and table in want:
            raise MetricError(f"table {table!r} needs metric {metric!r} in the report")
        return False

    if "mpe_apo" in want and need("mpe_apo", "mpe_apo"):
        path = tables_dir / "mpe_apo.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "mode", "m", "mpe_apo", "mpe_avg_cio"])
            for (label, mode, m, _), v in sorted(by_metric["mpe_apo"].items()):
                avg = by_metric.get("mpe_avg_cio", {}).get((label, mode, m, ""))
                w.writerow([label, mode, m, _fmt(v), "" if avg is None else _fmt(avg)])
        written["mpe_apo"] = path

    for table, metric in (("cio_vs_m", "rf_avg_cio"), ("apo_vs_m", "rf_apo")):
        if table in want and need(table, metric):
            path = tables_dir / f"{table}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["series", "m", "value"])
                for (label, mode, m, _), v in sorted(by_metric[metric].items()):
                    series = label if mode == "simple" else f"{label}/{mode}"
                    w.writerow([series, m, _fmt(v)])
            written[table] = path

    if "kl_norm" in want and need("kl_norm", "kl_norm"):
        path = tables_dir / "kl_norm.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "mode", "m", "variable", "value"])
            for (label, mode, m, scope), v in sorted(by_metric["kl_norm"].items()):
                w.writerow([label, mode, m, scope.removeprefix("var:"), _fmt(v)])
            for (label, mode, m, _), v in sorted(by_metric.get("kl_norm_avg", {}).items()):
                w.writerow([label, mode, m, "all", _fmt(v)])
        written["kl_norm"] = path

    if "mode_compare" in want:
        ok = "rf_apo" in by_metric and "rf_fit_apo" in by_metric
        modes_present = {mode for (_, mode, _, _) in by_metric.get("rf_apo", {})}
        ok = ok and {"simple", "selective"} <= modes_present
        if not ok and explicit and "mode_compare" in want:
            raise MetricError("table 'mode_compare' needs both predictor modes in the report")
        if ok:
            path = tables_dir / "mode_compare.csv"
            pairs = sorted(
                {
                    (label, m)
                    for (label, mode, m, _) in by_metric["rf_apo"]
                    if ("simple" == mode and (label, "selective", m, "") in by_metric["rf_apo"])
                }
            )
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow([
                    "label", "m", "apo_simple", "apo_selective",
                    "fit_wins_simple", "fit_wins_selective", "n_fits",
                ])
                for label, m in pairs:
                    a_s = by_metric["rf_apo"][(label, "simple", m, "")]
                    a_x = by_metric["rf_apo"][(label, "selective", m, "")]
                    fit_scopes = sorted(
                        scope
                        for (lbl, mode, mm, scope) in by_metric["rf_fit_apo"]
                        if (lbl, mode, mm) == (label, "simple", m)
                    )
                    wins_s = wins_x = 0.0
                    n_fits = 0
                    for scope in fit_scopes:
                        sel = by_metric["rf_fit_apo"].get((label, "selective", m, scope))
                        if sel is None:
                            continue
                        simp = by_metric["rf_fit_apo"][(label, "simple", m, scope)]
                        n_fits += 1
                        if simp > sel:
                            wins_s += 1.0
                        elif sel > simp:
                            wins_x += 1.0
                        else:
                            wins_s += 0.5
                            wins_x += 0.5
                    w.writerow([
                        label, m, _fmt(a_s), _fmt(a_x), _fmt(wins_s), _fmt(wins_x), n_fits,
                    ])
            written["mode_compare"] = path

    if "apo_vs_time" in want:
        if timings and "rf_apo" in by_metric:
            totals: dict[tuple, list[float]] = {}
            for t in timings:
                totals.setdefault((t.label, t.mode, t.m), []).append(t.total / max(t.m, 1))
            path = tables_dir / "apo_vs_time.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["label", "mode", "m", "seconds_per_dataset", "apo"])
                for (label, mode, m), secs in sorted(totals.items()):
                    v = by_metric["rf_apo"].get((label, mode, m, ""))
                    if v is None:
                        continue
                    w.writerow([label, mode, m, repr(math.fsum(secs) / len(secs)), _fmt(v)])
            written["apo_vs_time"] = path
        elif explicit and "apo_vs_time" in want:
            raise MetricError("table 'apo_vs_time' needs timing records and rf_apo values")

    if "correlations" in want:
        series: dict[str, dict[tuple, float]] = {}
        for metric in ("rf_avg_cio", "rf_apo", "kl_norm_avg", "clf_acc_dev", "mpe_apo"):
            if metric in by_metric:
                series[metric] = {
                    (label, mode, m): v
                    for (label, mode, m, scope), v in by_metric[metric].items()
                    if scope == ""
                }
        for (label, mode, m, scope), v in by_metric.get("adhoc_dev", {}).items():
            series.setdefault(f"adhoc_dev:{scope.removeprefix('pred:')}", {})[
                (label, mode, m)
            ] = v
        pairs = []
        names = sorted(series)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                keys = set(series[a]) & set(series[b])
                if len(keys) >= 3:
                    pairs.append((a, b))
        if pairs:
            results, skipped = correlation_battery(series, pairs)
            path = tables_dir / "correlations.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["series_x", "series_y", "r", "n"])
                for r in results:
                    w.writerow([r.series_x, r.series_y, repr(r.r), r.n])
            written["correlations"] = path
            if skipped:
                spath = tables_dir / "correlations_skipped.csv"
                with open(spath, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["series_x", "series_y", "reason"])
                    for a, b, reason in skipped:
                        w.writerow([a, b, reason])
        elif explicit and "correlations" in want:
            raise MetricError("table 'correlations' needs at least two alignable series")

    return written
