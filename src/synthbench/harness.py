"""Experiment harness: run a synthesizer grid, persist results, emit tables.

A grid cell is one (synthesizer label, predictor mode, m, repetition); a
replicate is one (label, mode, repetition) and the unit of work. It draws
max(m) datasets from a seed without m, writes them once, computes each
per-dataset metric value once, and gives the cell of each m the roll-up of
its first m datasets, all in one cell file. The cells of a replicate thus
share datasets (common random numbers): each m's summary keeps its expected
value, and its differences across m have less noise. The report is built
from the cell files in sorted key order, so its bytes do not depend on the
worker count, and a resumed run reuses every finished replicate. Timings
stay out of the report files. Each metric family scores the original and
every synthetic dataset alike, and a pure roll-up makes its rows of each m.
A run computes the original's metric values and fits each non-proper
synthesis step once, before the replicates that use them, which are sent
them; a process keeps neither. Neither changes a draw.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .analysis import (
    AdhocPredicate,
    adhoc_proportion,
    check_classifier,
    check_predicate,
    classifier_baseline,
    classify_compare,
    load_adhoc,
    pearson,
)
from .dataset import (
    DEFAULT_MISSING_TOKENS,
    Dataset,
    JsonFields,
    LevelMapping,
    NumberText,
    Schema,
    coarsen_levels,
    drop_column,
    head_n,
    load_csv,
    load_schema,
    read_json,
    replace_missing,
)
from .errors import ConfigError, DataError, MetricError, SchemaError, SynthbenchError
from .estimands import (
    RULES,
    FitSpec,
    check_fit,
    combine,
    load_fitspecs,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from .metrics import (
    KL_DIRECTIONS,
    ReportError,
    ReportRow,
    SummaryRow,
    UtilityReport,
    apo,
    cio,
    kl_divergence,
)
from .synthesis import (
    BASES,
    ORDER_KINDS,
    FitMemo,
    SynthesizerSpec,
    SyntheticSet,
    build_spec,
    fit_trees,
    save_synthetic_set,
    shared_steps,
    synthesize,
    synthesizer_label,
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
        for entry in self.synthesizers:
            for proper in self.proper_variants:
                label = synthesizer_label(entry.base, entry.order, proper)
                if label in seen:
                    raise ConfigError(f"duplicate synthesizer label {label!r} in grid")
                seen.add(label)
                out.append((entry, proper, label))
        return out

    def fingerprint(self) -> str:
        """sha256 over every setting except ``out``, the bytes of every input
        file and the package version, so a resumed run never mixes two
        inputs."""
        from . import __version__

        settings = asdict(self)
        del settings["out"]
        doc = {
            "version": __version__,
            "contents": {
                name: _file_sha256(path)
                for name in ("dataset", "schema", "fitspecs", "adhoc")
                if (path := getattr(self, name)) is not None
            },
            "settings": settings,
        }
        blob = json.dumps(doc, sort_keys=True, default=os.fspath).encode()
        return hashlib.sha256(blob).hexdigest()


def _file_sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as err:
        raise ConfigError(f"cannot read input file {path}: {err}") from err


# The keys of each object of a config document (README shows them all): the
# ones it must have, then the others. Each flat metrics key is the
# MetricSettings field of the same name.
_TOP_KEYS = ("dataset", "schema", "grid"), (
    "fitspecs", "adhoc", "k", "seed", "out", "metrics", "preprocess", "missing_tokens", "pmm_k",
    "min_leaf",
)
_GRID_KEYS = ("synthesizers", "m"), ("proper", "predictor_modes", "selective")
_ENTRY_KEYS = ("base",), ("order", "own_order")
_METRICS_KEYS = (), ("classification", *(
    f.name for f in fields(MetricSettings) if not f.name.startswith("classification_")
))
_CLF_KEYS = (), ("target", "test_fraction")
_PREPROCESS_KEYS = (), ("drop", "coarsen", "head_n", "missing_seed")
_COARSEN_KEYS = ("column", "mapping"), ()


def load_config(path: str | Path, *, seed: int | None = None, out: str | Path | None = None) -> ExperimentConfig:
    """Read an experiment configuration (JSON; grammar in the README).

    Relative paths inside the file resolve against the file's directory.
    ``seed``/``out`` override the file's values.
    """
    path, check = Path(path), JsonFields(ConfigError)

    def resolve(p, where: str) -> Path:
        p = Path(check.typed(p, str, where))
        return p if p.is_absolute() else path.parent / p

    def parse(doc) -> ExperimentConfig:
        doc = check.object(doc, "the config", *_TOP_KEYS)
        grid = check.object(doc["grid"], "grid", *_GRID_KEYS)
        met = check.object(doc.get("metrics", {}), "metrics", *_METRICS_KEYS)
        clf = check.object(met.get("classification", {}), "metrics.classification", *_CLF_KEYS)
        target, fraction = clf.get("target"), clf.get("test_fraction")
        pre = check.object(doc.get("preprocess", {}), "preprocess", *_PREPROCESS_KEYS)
        sel = check.typed(grid.get("selective", {}), dict, "grid.selective")
        synths = check.objects(grid["synthesizers"], "grid.synthesizers", *_ENTRY_KEYS)
        coarsen = check.objects(pre.get("coarsen", []), "preprocess.coarsen", *_COARSEN_KEYS)
        cfg = ExperimentConfig(
            dataset=resolve(doc["dataset"], "dataset"),
            schema=resolve(doc["schema"], "schema"),
            synthesizers=tuple(
                SynthesizerEntry(
                    check.typed(s["base"], str, f"{at}.base"),
                    check.typed(s.get("order", "original"), str, f"{at}.order"),
                    None if "own_order" not in s
                    else check.strings(s["own_order"], f"{at}.own_order"),
                )
                for at, s in synths
            ),
            m_list=tuple(
                check.typed(m, int, "grid.m") for m in check.typed(grid["m"], list, "grid.m")
            ),
            proper_variants=tuple(
                check.typed(b, bool, "grid.proper")
                for b in check.typed(grid.get("proper", [False]), list, "grid.proper")
            ),
            predictor_modes=check.strings(
                grid.get("predictor_modes", ["simple"]), "grid.predictor_modes"
            ),
            selective={k: check.strings(v, f"grid.selective.{k}") for k, v in sel.items()} or None,
            k=check.typed(doc.get("k", 5), int, "k"),
            seed=int(seed) if seed is not None else check.typed(doc.get("seed", 0), int, "seed"),
            out=Path(out) if out is not None else resolve(doc.get("out", "results"), "out"),
            fitspecs=resolve(doc["fitspecs"], "fitspecs") if "fitspecs" in doc else None,
            adhoc=resolve(doc["adhoc"], "adhoc") if "adhoc" in doc else None,
            metrics=MetricSettings(
                classification_target=None if target is None
                else check.typed(target, str, "metrics.classification.target"),
                classification_test_fraction=None if fraction is None
                else check.typed(fraction, float, "metrics.classification.test_fraction"),
                **{
                    f.name: check.typed(met[f.name], type(f.default), f"metrics.{f.name}")
                    for f in fields(MetricSettings)
                    if f.name in met and not f.name.startswith("classification_")
                },
            ),
            missing_tokens=check.strings(
                doc.get("missing_tokens", list(DEFAULT_MISSING_TOKENS)), "missing_tokens"
            ),
            drop=check.strings(pre.get("drop", []), "preprocess.drop"),
            coarsen=tuple(
                LevelMapping(
                    check.typed(c["column"], str, "preprocess.coarsen.column"),
                    check.string_map(c["mapping"], "preprocess.coarsen.mapping"),
                )
                for _, c in coarsen
            ),
            head=None if pre.get("head_n") is None
            else check.typed(pre["head_n"], int, "preprocess.head_n"),
            missing_seed=check.typed(pre.get("missing_seed", 0), int, "preprocess.missing_seed"),
            pmm_k=check.typed(doc.get("pmm_k", 5), int, "pmm_k"),
            min_leaf=check.typed(doc.get("min_leaf", 5), int, "min_leaf"),
        )
        _validate_config(cfg)
        return cfg

    return read_json(path, "config", ConfigError, parse)


def _validate_config(cfg: ExperimentConfig) -> None:
    for e in cfg.synthesizers:
        if e.base not in BASES:
            raise ConfigError(f"unknown synthesizer base {e.base!r}")
        if e.order not in ORDER_KINDS:
            raise ConfigError(f"unknown synthesis order {e.order!r}")
        if e.order == "own" and not e.own_order:
            raise ConfigError("order 'own' needs own_order")
    if not cfg.m_list or any(m < 1 for m in cfg.m_list):
        raise ConfigError("grid.m must be a non-empty list of integers >= 1")
    if len(set(cfg.m_list)) != len(cfg.m_list):
        raise ConfigError("grid.m has duplicates")
    if not cfg.synthesizers:
        raise ConfigError("grid.synthesizers is empty")
    if not cfg.proper_variants:
        raise ConfigError("grid.proper is empty")
    if not cfg.predictor_modes:
        raise ConfigError("grid.predictor_modes is empty")
    if len(set(cfg.predictor_modes)) != len(cfg.predictor_modes):
        raise ConfigError("grid.predictor_modes has duplicates")
    for mode in cfg.predictor_modes:
        if mode not in PREDICTOR_MODES:
            raise ConfigError(f"unknown predictor mode {mode!r}")
    if "selective" in cfg.predictor_modes and not cfg.selective:
        raise ConfigError("predictor mode 'selective' needs grid.selective")
    if cfg.metrics.rule not in RULES:
        raise ConfigError(f"unknown combining rule {cfg.metrics.rule!r}")
    if cfg.metrics.rule == "Tp" and any(m < 2 for m in cfg.m_list):
        raise ConfigError("rule Tp needs every m >= 2")
    labels = [lbl for _, _, lbl in cfg.labels()]
    if cfg.metrics.kl and cfg.metrics.kl_normalize and "S" not in labels:
        raise ConfigError(
            "kl_normalize needs the independent-sampling baseline: add base 'S' "
            "(non-proper) to the grid"
        )
    met, head = cfg.metrics, cfg.head
    fraction = met.classification_test_fraction
    for where, value, ok, rule in (
        ("k", cfg.k, cfg.k >= 1, "be >= 1"),
        ("seed", cfg.seed, cfg.seed >= 0, "be >= 0"),
        ("pmm_k", cfg.pmm_k, cfg.pmm_k >= 1, "be >= 1"),
        ("min_leaf", cfg.min_leaf, cfg.min_leaf >= 1, "be >= 1"),
        ("preprocess.head_n", head, head is None or head >= 1, "be >= 1"),
        ("metrics.classification.test_fraction", fraction,
         fraction is None or 0.0 < fraction < 1.0, "lie in (0, 1)"),
        ("metrics.ci_level", met.ci_level, 0.0 < met.ci_level < 1.0, "lie in (0, 1)"),
        ("metrics.apo_threshold", met.apo_threshold, 0.0 <= met.apo_threshold <= 1.0, "lie in [0, 1]"),
        ("metrics.kl_bins", met.kl_bins, met.kl_bins >= 2, "be >= 2"),
        ("metrics.kl_smoothing", met.kl_smoothing, met.kl_smoothing >= 0.0, "be >= 0"),
        ("metrics.kl_direction", met.kl_direction, met.kl_direction in KL_DIRECTIONS,
         f"be one of {', '.join(KL_DIRECTIONS)}"),
        ("preprocess.missing_seed", cfg.missing_seed, cfg.missing_seed >= 0, "be >= 0"),
    ):
        if not ok:
            raise ConfigError(f"{where} must {rule}, got {value!r}")
    if fraction is not None and met.classification_target is None:
        raise ConfigError("metrics.classification.test_fraction needs metrics.classification.target")
    if cfg.metrics.regression and cfg.fitspecs is None:
        raise ConfigError("regression metrics need a fitspecs file")
    if cfg.metrics.adhoc and cfg.adhoc is None:
        raise ConfigError("adhoc metrics need an adhoc file")


def load_original(cfg: ExperimentConfig) -> Dataset:
    """Load and preprocess the original data: drop, coarsen, head, then fill
    missing cells by resampling observed values. Data without rows, or with
    a numeric cell that is nan or infinite, is a ``DataError``; a
    classification target that is not a column of the result is a
    ``ConfigError``, and classifier settings that ``check_classifier``
    refuses on the result are an ``AnalysisError``."""
    ds = load_csv(cfg.dataset, load_schema(cfg.schema), cfg.missing_tokens)
    if ds.n_rows == 0:
        raise DataError(f"{cfg.dataset}: the data has no rows")
    for name in cfg.drop:
        ds = drop_column(ds, name)
    for mapping in cfg.coarsen:
        ds = coarsen_levels(ds, mapping)
    if cfg.head is not None:
        ds = head_n(ds, cfg.head)
    for col, values, missing in zip(ds.schema.columns, ds.columns, ds.missing):
        if col.kind.is_numeric:
            bad = ~np.isfinite(values) if missing is None else ~(np.isfinite(values) | missing)
            if bad.any():
                i = int(bad.argmax())
                raise DataError(
                    f"{cfg.dataset}: row {i + 2}, column {col.name!r}: "
                    f"{float(values[i])!r} is not a finite number"
                )
    target = cfg.metrics.classification_target
    if target is not None and target not in ds.schema.names:
        raise ConfigError(
            f"classification target {target!r} is not a column of the preprocessed data"
        )
    if target is not None:
        check_classifier(ds.schema, ds.n_rows, target, cfg.metrics.classification_test_fraction)
    return replace_missing(ds, cfg.missing_seed)


def load_metric_inputs(
    cfg: ExperimentConfig, schema: Schema
) -> tuple[tuple[FitSpec, ...], tuple[AdhocPredicate, ...]]:
    """The fits and ad-hoc predicates that ``cfg``'s metrics score, each
    checked against ``schema``, the preprocessed data's; none while a
    metric is off."""
    fits = load_fitspecs(cfg.fitspecs) if (cfg.metrics.regression and cfg.fitspecs) else ()
    predicates = load_adhoc(cfg.adhoc) if (cfg.metrics.adhoc and cfg.adhoc) else ()
    for fit in fits:
        check_fit(fit, schema)
    for predicate in predicates:
        check_predicate(predicate, schema)
    return fits, predicates


class TimingRow(NamedTuple):
    """One row of timings.csv: the seconds one dataset of a cell took to
    fit, draw and write."""

    label: str
    mode: str
    m: int
    rep: int
    dataset: int
    seconds: float


def _replicate_seed(master: int, label: str, mode: str, rep: int) -> int:
    """A uint64 seed from the master seed, the crc32 of "label|mode" and rep."""
    ss = np.random.SeedSequence((master, zlib.crc32(f"{label}|{mode}".encode()), rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _replicate_key(label: str, mode: str, rep: int) -> str:
    return f"{label}_{mode}_r{rep}"


def grid_specs(
    cfg: ExperimentConfig, schema: Schema, modes: tuple[str, ...], *, m: int, seed: int
) -> dict[tuple[str, str], SynthesizerSpec]:
    """The spec of each grid synthesizer in each predictor mode of ``modes``
    for ``m`` datasets under ``seed``, keyed by (label, mode): base, order
    and proper flag from the synthesizer's grid entry, ``pmm_k`` and
    ``min_leaf`` from the config. A spec that cannot be built is a
    ``ConfigError``, and so is a ``grid.selective`` name that is not a
    column of ``schema``, whether or not ``modes`` holds selective."""
    for target, names in (cfg.selective or {}).items():
        for name in (target, *names):
            try:
                schema.index(name)
            except SchemaError as err:
                raise ConfigError(f"grid.selective: {err}") from err
    specs = {}
    for entry, proper, label in cfg.labels():
        for mode in modes:
            try:
                specs[label, mode] = build_spec(
                    schema, entry.base, order=entry.order, own_order=entry.own_order,
                    proper=proper, m=m, seed=seed, pmm_k=cfg.pmm_k, min_leaf=cfg.min_leaf,
                    selective=cfg.selective if mode == "selective" else None,
                )
            except SynthbenchError as err:
                raise ConfigError(
                    f"synthesizer {label!r} in predictor mode {mode!r}: {err}"
                ) from err
    return specs


def _describe_error(err: Exception) -> str:
    """An error row's message: a package error's own text, any other
    exception's type and text."""
    return str(err) if isinstance(err, SynthbenchError) else f"{type(err).__name__}: {err}"


def _families(original: Dataset, settings: MetricSettings, fits: tuple[FitSpec, ...],
              predicates: tuple[AdhocPredicate, ...]) -> dict:
    """Each metric family of ``settings`` by stage, in the order of its rows,
    as (scorer, comparer, roll-up). The scorer maps the original, and each
    synthetic dataset when there is no comparer, to the family's value on
    it; a comparer maps the original's value and a synthetic set to the
    per-dataset values. ``metric_rows`` describes the roll-ups."""
    numeric = [c.name for c in original.schema.columns if c.kind.is_numeric]
    overlaps = partial(_overlap_rows, settings)
    table = {}
    if settings.mean_point:
        table["mean_point"] = (
            lambda ds: {name: mean_point_estimand(ds, name) for name in numeric},
            None,
            partial(overlaps, ("mpe_cio", "var:", "mpe_avg_cio", "mpe_apo", "")),
        )
    for fit in fits if settings.regression else ():
        stage = f"fit:{fit.id}"
        table[stage] = (
            lambda ds, fit=fit: regression_estimands(ds, fit),
            None,
            partial(overlaps, ("rf_cio", f"{stage}:coef:", "rf_fit_avg_cio", "rf_fit_apo", stage)),
        )
    if settings.kl:
        kl = partial(kl_divergence, bins=settings.kl_bins, smoothing=settings.kl_smoothing,
                     direction=settings.kl_direction)
        table["kl"] = (
            None,
            lambda _, sset: {
                c.name: [kl(original.column(c.name), ds.column(c.name), c.kind)
                         for ds in sset.datasets]
                for c in original.schema.columns
            },
            lambda _, raws, m: [("kl_raw", f"var:{c}", _mean(r[:m])) for c, r in raws.items()],
        )
    if (target := settings.classification_target) is not None:
        fraction = settings.classification_test_fraction
        table["classification"] = (
            lambda ds: classifier_baseline(ds, target, test_fraction=fraction),
            lambda baseline, sset: classify_compare(baseline, sset),
            # per-dataset values: the accuracies, then the agreements
            lambda baseline, scores, m: _deviation_rows(
                "clf_acc", "", float(baseline.correct.mean()), scores[0], m
            ) + [("clf_agreement", "", _mean(scores[1][:m]))],
        )
    for pred in predicates if settings.adhoc else ():
        table[f"adhoc:{pred.id}"] = (
            lambda ds, pred=pred: adhoc_proportion(ds, pred),
            None,
            partial(_deviation_rows, "adhoc", f"pred:{pred.id}"),
        )
    return table


def original_side(
    original: Dataset, settings: MetricSettings,
    fits: tuple[FitSpec, ...], predicates: tuple[AdhocPredicate, ...],
) -> dict:
    """The values of the metric families of ``settings`` that depend on
    ``original`` alone, keyed by family stage: the scorer of each family of
    ``metric_rows`` applied to ``original``, the classifier's baseline among
    them, each stored as the exception that computing it raised, if it did."""
    side = {}
    for stage, (score, _, _) in _families(original, settings, fits, predicates).items():
        if score is None:
            continue
        try:
            side[stage] = score(original)
        except Exception as err:
            side[stage] = err
    return side


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _overlap_rows(settings: MetricSettings, names: tuple[str, ...], orig: dict, per_ds, m: int):
    """The CIO roll-up of the first m datasets: each estimand's overlap of
    the interval of its (q, v) in ``orig`` with that of its per-dataset
    (q, v) combined, then their average and APO. ``names`` holds the
    overlap's metric and scope prefix, the average's metric, the APO's
    metric and their scope. Other estimands than the original's (a logistic
    fit on data that lacks a class) are a ``MetricError`` that names the
    first such dataset's index in the set and the estimands it lacks or adds."""
    each, prefix, avg, share, scope = names
    for i, values in enumerate(per_ds):
        if values.keys() != orig.keys():
            lacks, adds = [n for n in orig if n not in values], [n for n in values if n not in orig]
            raise MetricError(f"synthetic dataset {i} fit a different coefficient set: it lacks "
                              f"{lacks}" + (f" and has the extra {adds}" if adds else ""))
    overlaps = []
    for name, qv in orig.items():
        syn_ci = normal_interval(
            *combine([values[name] for values in per_ds[:m]], settings.rule), settings.ci_level)
        overlaps.append(cio(normal_interval(*qv, settings.ci_level), syn_ci, estimand_id=name))
    if not overlaps:
        return []
    return [(each, prefix + name, o) for name, o in zip(orig, overlaps)] + [
        (avg, scope, _mean(overlaps)),
        (share, scope, apo(overlaps, settings.apo_threshold, inclusive=settings.apo_inclusive)),
    ]


def _deviation_rows(metric: str, scope: str, orig: float, per_ds, m: int) -> list:
    """``metric``'s original value, its mean in the first m datasets and their distance."""
    syn = _mean(per_ds[:m])
    return [(f"{metric}_orig", scope, orig), (f"{metric}_syn", scope, syn),
            (f"{metric}_dev", scope, abs(orig - syn))]


def metric_rows(
    original: Dataset,
    sset: SyntheticSet,
    settings: MetricSettings,
    fits: tuple[FitSpec, ...],
    predicates: tuple[AdhocPredicate, ...],
    *,
    ms: tuple[int, ...] | None = None,
    side: dict,
) -> tuple[dict[int, list[tuple[str, str, float]]], list[tuple[str, str]]]:
    """Compute every configured metric of the first m datasets of ``sset``,
    for each m of ``ms`` (by default only m = ``sset.m``, the whole set).

    Returns (rows, errors): ``rows[m]`` lists the rows of the first m
    datasets, a row being (metric, scope, value), and an error is (stage,
    message). The families are the mean point estimands (``mean_point``),
    each fit (``fit:<id>``), KL (``kl``), the classifier
    (``classification``) and each predicate (``adhoc:<id>``). Each family
    computes its per-dataset values once, with the scorer that
    ``original_side`` applies to the original or, for KL and the classifier,
    against the original. A pure roll-up (original value, per-dataset
    values, m) -> rows gives each m's rows, so the rows of m equal those of
    a set holding only its first m datasets; the mean points and the fits
    share one. An exception in one family, of whatever type, becomes its
    error and loses that family's rows for every m. ``side`` is the
    ``original_side`` of the same arguments.
    """
    ms = (sset.m,) if ms is None else ms
    if not all(1 <= m <= sset.m for m in ms):
        raise MetricError(f"cannot score the first m of {sset.m} datasets for each m of {ms}")
    last_fit = f"fit:{fits[-1].id}" if settings.regression and fits else None
    rows: dict[int, list[tuple[str, str, float]]] = {m: [] for m in ms}
    errors: list[tuple[str, str]] = []
    for stage, (score, compare, roll) in _families(original, settings, fits, predicates).items():
        try:
            orig = None if score is None else side[stage]
            if isinstance(orig, Exception):
                raise orig.with_traceback(None)  # without the frames of earlier raises
            if compare is None:
                per_ds = [score(ds) for ds in sset.datasets]
            else:
                per_ds = compare(orig, sset)
            got = {m: roll(orig, per_ds, m) for m in ms}
        except Exception as err:
            errors.append((stage, _describe_error(err)))
        else:
            for m in ms:
                rows[m] += got[m]
        if stage == last_fit:  # then the fits that scored, taken together
            for m in ms:
                averages = [v for metric, _, v in rows[m] if metric == "rf_fit_avg_cio"]
                overlaps = [v for metric, _, v in rows[m] if metric == "rf_cio"]
                if averages:
                    rows[m].append(("rf_avg_cio", "", _mean(averages)))
                    share = apo(overlaps, settings.apo_threshold, inclusive=settings.apo_inclusive)
                    rows[m].append(("rf_apo", "", share))
    return rows, errors


@dataclass(frozen=True)
class _Experiment:
    """What the cells of one ``run_experiment`` call share: the inputs, the
    text of the original's numbers, the spec of each (label, mode) and the
    ``original_side`` of the metrics, all made by the parent. It holds no
    synthesis fit: each replicate is sent the shared fits that it uses."""

    cfg: ExperimentConfig
    fingerprint: str
    original: Dataset
    known: NumberText
    fits: tuple[FitSpec, ...]
    predicates: tuple[AdhocPredicate, ...]
    specs: dict[tuple[str, str], SynthesizerSpec]
    side: dict


_experiment: _Experiment | None = None


def _start_experiment(exp: _Experiment) -> None:
    """Make ``exp`` this process's experiment: ``run_experiment`` calls it
    with a new value for each run, and each pool worker as its initializer
    with the parent's value."""
    global _experiment
    _experiment = exp


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with UTF-8 ``text`` in one step, so an interrupted
    run leaves either the old file or the new one, never a truncated file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def _finished_cell(path: Path, fingerprint: str) -> dict | None:
    """The saved result of a replicate that generated its datasets under
    this fingerprint, or None when the file is absent, unreadable, belongs
    to another run or records a replicate that failed as a whole."""
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    ok = isinstance(result, dict) and result.get("fingerprint") == fingerprint
    return result if ok and result.get("seconds") else None


def _run_cell(replicate: tuple[str, str, int], fitted: dict) -> dict:
    """Run one replicate of the current experiment: synthesize and write
    max(m) datasets, fitting only the steps that ``fitted`` lacks, score the
    first m of them for each m of the grid, and save the replicate's cell
    file. Any exception becomes the replicate's error row, so one failing
    replicate never aborts the grid."""
    label, mode, rep = replicate
    exp = _experiment
    cfg = exp.cfg
    key = _replicate_key(label, mode, rep)
    result = {"key": key, "label": label, "mode": mode, "rep": rep, "fingerprint": exp.fingerprint}
    try:
        spec = replace(exp.specs[label, mode], seed=_replicate_seed(cfg.seed, label, mode, rep))
        sset = synthesize(exp.original, spec, memo=FitMemo(exp.original, fitted))
        seconds = save_synthetic_set(sset, cfg.out / "synth" / key, known=exp.known)
        rows, errors = metric_rows(
            exp.original, sset, cfg.metrics, exp.fits, exp.predicates,
            ms=cfg.m_list, side=exp.side,
        )
        # JSON object keys are strings
        result["rows"] = {str(m): [list(row) for row in rows[m]] for m in cfg.m_list}
        result.update(errors=[[stage, msg] for stage, msg in errors], seconds=seconds)
    except Exception as err:
        result.update(rows={}, errors=[["cell", _describe_error(err)]], seconds=[])
    cell_path = cfg.out / "cells" / f"{key}.json"
    cell_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(cell_path, json.dumps(result, indent=2) + "\n")
    return result


def _fit_shared(steps):
    """The fitted value of each shared step, or None where its fit raises.
    The donor trees among the steps grow as one forest."""
    memo = FitMemo(_experiment.original)
    fit_trees([(memo, step) for step in steps])
    fitted = []
    for step in steps:
        try:
            fitted.append(memo.fit(step))
        except Exception:
            fitted.append(None)
    return fitted


class _Later(partial):
    """A call that this process makes when its result is read."""

    def result(self):
        return self()


@contextmanager
def _workers(count: int):
    """``submit`` and ``as_completed`` over ``count`` pool workers, each
    started with this process's experiment, or, when ``count`` is below two,
    over this process, which makes each call when its result is read."""
    if count < 2:
        yield _Later, iter
    else:
        # Imported here: the pool pulls in multiprocessing, socket and
        # logging, which only a run with workers needs.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
            count, initializer=_start_experiment, initargs=(_experiment,)
        ) as pool:
            yield pool.submit, as_completed


def _run_cells(pending, jobs: int) -> list[dict]:
    """Run the ``pending`` replicates over ``jobs`` workers. Each distinct
    non-proper step of their specs is fitted once (no fit depends on the
    seed), alone or, for a donor tree, in one of max(1, jobs - 1) forests,
    which leaves a worker for replicates. A replicate starts once its steps
    are fitted, so proper ones first, and carries their fitted values; a
    step whose fit raises is left to the replicates that need it."""
    specs = _experiment.specs
    needs = {replicate: shared_steps(specs[replicate[:2]]) for replicate in pending}
    steps = dict.fromkeys(step for wanted in needs.values() for step in wanted)
    trees = [step for step in steps if step.grows_tree]
    forests = min(max(1, jobs - 1), len(trees))
    tasks = [trees[i::forests] for i in range(forests)]
    tasks += [[step] for step in steps if not step.grows_tree]
    fitted, cells = {}, []
    with _workers(min(jobs, len(tasks) + len(pending))) as (submit, as_completed):
        fitting = {submit(_fit_shared, task): task for task in tasks}
        for future in chain([None], as_completed(fitting)):
            if future is not None:
                fitted.update(zip(fitting[future], future.result()))
            for replicate in [r for r, wanted in needs.items() if fitted.keys() >= set(wanted)]:
                shipped = {s: fitted[s] for s in needs.pop(replicate) if fitted[s] is not None}
                cells.append(submit(_run_cell, replicate, shipped))
        return [cell.result() for cell in cells]


def run_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, resume: bool = False
) -> tuple[UtilityReport, list[TimingRow]]:
    """Execute the full grid and write report.csv, summary.csv, errors.csv,
    timings.csv and the resume manifest under ``cfg.out``.

    Each replicate's cell file carries the run's fingerprint and is written
    atomically. With ``resume`` every replicate of this grid whose file
    parses, carries the same fingerprint and generated its datasets is
    reused, whether or not the manifest lists it; every other replicate runs
    again. A manifest with another fingerprint refuses the resume.

    The spec of each (label, mode) is built once, before anything is
    written; one that cannot be built is a ``ConfigError``. Every non-proper
    synthesis step is fitted once per call, before any replicate that uses
    it, which is sent the fit and keeps it no longer. The ``original_side``
    is built the same way, once, and only when a replicate is pending."""
    global _experiment
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    original = load_original(cfg)
    fits, predicates = load_metric_inputs(cfg, original.schema)
    specs = grid_specs(cfg, original.schema, cfg.predictor_modes, m=max(cfg.m_list), seed=0)
    replicates = sorted((label, mode, rep) for label, mode in specs for rep in range(cfg.k))

    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    fingerprint = cfg.fingerprint()
    done: dict[str, dict] = {}
    if resume:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            manifest = None  # the cell files alone say what is done
        if isinstance(manifest, dict) and manifest.get("fingerprint") != fingerprint:
            raise ConfigError(
                "resume manifest belongs to a different configuration or input; "
                "use a fresh output directory"
            )
        for replicate in replicates:
            key = _replicate_key(*replicate)
            if (result := _finished_cell(out / "cells" / f"{key}.json", fingerprint)) is not None:
                done[key] = result

    pending = [r for r in replicates if _replicate_key(*r) not in done]
    side = original_side(original, cfg.metrics, fits, predicates) if pending else {}
    _start_experiment(_Experiment(
        cfg, fingerprint, original, NumberText.of(original), fits, predicates, specs, side,
    ))
    try:
        fresh = _run_cells(pending, jobs)
    finally:
        _experiment = None
    results = {**done, **{r["key"]: r for r in fresh}}

    report = UtilityReport()
    timings: list[TimingRow] = []
    cells = sorted((label, mode, m, rep) for label, mode, rep in replicates for m in cfg.m_list)
    for label, mode, m, rep in cells:
        r = results[_replicate_key(label, mode, rep)]
        for mtr, scope, val in r["rows"].get(str(m), ()):
            report.add(label, mode, m, rep, mtr, scope, val)
        report.errors += (ReportError(label, mode, m, rep, *error) for error in r["errors"])
        timings += (TimingRow(label, mode, m, rep, i, s) for i, s in enumerate(r["seconds"][:m]))

    if cfg.metrics.kl and cfg.metrics.kl_normalize:
        _add_normalized_kl(report, cells)

    write_report(report, out)
    _write_table(out / "timings.csv", TimingRow._fields, timings)

    # a replicate generated its datasets exactly when it has their seconds
    generated = {key: len(r["seconds"]) for key, r in sorted(results.items()) if r["seconds"]}
    manifest = {
        "fingerprint": fingerprint,
        "replicates": {key: {"datasets": n} for key, n in generated.items()},
        "datasets_generated": sum(generated.values()),
        "generated_last_run": sum(len(r["seconds"]) for r in fresh),
    }
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return report, timings


def _add_normalized_kl(report: UtilityReport, cells) -> None:
    """Divide each non-``S`` cell's ``kl_raw`` by the pooled ``S`` baseline.

    A scope's baseline is the mean divergence over every distinct ``S``
    dataset of the run: the mean ``kl_raw`` of the ``S`` cells at the
    largest m, since the cells at a smaller m score the first datasets of
    the same replicates. ``S`` has no predictors, so every mode and
    replicate draws from one distribution. A scope whose baseline is 0 or
    not finite gets no ``kl_norm``, and ``kl_norm_avg`` averages the scopes
    that have one.
    """
    raw = report.values("kl_raw")
    top = max(m for _, _, m, _ in cells)
    pooled: dict[str, list[float]] = {}
    for (label, _, m, _, scope), v in raw.items():
        if label == "S" and m == top:
            pooled.setdefault(scope, []).append(v)
    base = {scope: math.fsum(vs) / len(vs) for scope, vs in pooled.items()}
    defined = sorted(scope for scope, b in base.items() if b > 0.0 and math.isfinite(b))
    for label, mode, m, rep in cells:
        if label == "S":
            continue
        norms = [
            (scope, raw[(label, mode, m, rep, scope)] / base[scope])
            for scope in defined
            if (label, mode, m, rep, scope) in raw
        ]
        for scope, v in norms:
            report.add(label, mode, m, rep, "kl_norm", scope, v)
        if norms:
            avg = math.fsum(v for _, v in norms) / len(norms)
            report.add(label, mode, m, rep, "kl_norm_avg", "", avg)


def _write_table(path: Path, header, rows) -> None:
    """Replace one UTF-8 CSV file whole: the header row, then ``rows``, each
    float as its repr. A results file's header is its row type's
    ``_fields``."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    _write_atomic(path, buf.getvalue())


def write_report(report: UtilityReport, out: Path) -> None:
    """Write report.csv, summary.csv and, when ``report`` holds errors,
    errors.csv under ``out``, each in sorted row order. Without errors, an
    errors.csv from an earlier run is removed."""
    _write_table(out / "report.csv", ReportRow._fields, sorted(report.rows))
    _write_table(out / "summary.csv", SummaryRow._fields, report.summary())
    if report.errors:
        _write_table(out / "errors.csv", ReportError._fields, sorted(report.errors))
    else:
        (out / "errors.csv").unlink(missing_ok=True)


def read_report(out: Path) -> UtilityReport:
    """Rebuild a UtilityReport from report.csv (+ errors.csv) in ``out``."""
    report_path = out / "report.csv"
    if not report_path.exists():
        raise ConfigError(f"{report_path} does not exist; run an experiment first")
    err_path = out / "errors.csv"
    return UtilityReport(
        list(_table_rows(report_path, ReportRow)),
        list(_table_rows(err_path, ReportError)) if err_path.exists() else [],
    )


def read_timings(out: Path) -> list[TimingRow]:
    """The rows of timings.csv in ``out``, in file order; none when the file
    is absent."""
    path = out / "timings.csv"
    return list(_table_rows(path, TimingRow)) if path.exists() else []


def _table_rows(path: Path, row_type):
    """Each row of the results file at ``path`` as a ``row_type``, each field
    parsed by its annotated type (str, int or float). A row that lacks a
    field, holds a number that does not parse or has more fields than the
    header is a ``DataError`` naming the file and the row; so is a file
    that does not decode. A byte-order mark at the start is ignored."""
    fields = get_type_hints(row_type)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not {err.encoding} text ({err.reason})") from None
    for i, row in enumerate(rows, start=2):
        if None in row:
            raise DataError(f"{path}: row {i} has more fields than the header")
        values = []
        for name, kind in fields.items():
            text = row.get(name)
            if text is None:
                raise DataError(f"{path}: row {i} lacks the field {name!r}")
            try:
                values.append(kind(text))
            except ValueError:
                number = "an integer" if kind is int else "a number"
                raise DataError(
                    f"{path}: row {i}, field {name!r}: cannot parse {text!r} as {number}"
                ) from None
        yield row_type(*values)


# A table builder takes the summary values ``{metric: {(label, mode, m,
# scope): value}}`` and the timing rows. It returns its table's files,
# ``{file stem: (header, rows)}``, or what the table needs and lacks. A file
# it maps to None has no rows this time, and an old copy is removed.


def _mpe_apo_table(by_metric, timings):
    if "mpe_apo" not in by_metric:
        return "metric 'mpe_apo' in the report"
    avg = by_metric.get("mpe_avg_cio", {})
    rows = []
    for (label, mode, m, _), v in sorted(by_metric["mpe_apo"].items()):
        a = avg.get((label, mode, m, ""))
        rows.append([label, mode, m, v, "" if a is None else a])
    return {"mpe_apo": (["label", "mode", "m", "mpe_apo", "mpe_avg_cio"], rows)}


def _series_by_m_table(table: str, metric: str, by_metric, timings):
    """A ``series, m, value`` table of ``metric``; a series is a label, with
    its predictor mode appended unless that is simple."""
    if metric not in by_metric:
        return f"metric {metric!r} in the report"
    rows = [
        [label if mode == "simple" else f"{label}/{mode}", m, v]
        for (label, mode, m, _), v in sorted(by_metric[metric].items())
    ]
    return {table: (["series", "m", "value"], rows)}


def _kl_norm_table(by_metric, timings):
    if "kl_norm" not in by_metric:
        return "metric 'kl_norm' in the report"
    rows = [
        [label, mode, m, scope.removeprefix("var:"), v]
        for (label, mode, m, scope), v in sorted(by_metric["kl_norm"].items())
    ]
    rows += [
        [label, mode, m, "all", v]
        for (label, mode, m, _), v in sorted(by_metric.get("kl_norm_avg", {}).items())
    ]
    return {"kl_norm": (["label", "mode", "m", "variable", "value"], rows)}


def _mode_compare_table(by_metric, timings):
    """Per label and m: rf_apo in each predictor mode, and how many fits each
    mode wins on rf_fit_apo (a tie gives each half a win)."""
    apo_ = by_metric.get("rf_apo", {})
    fit_apo = by_metric.get("rf_fit_apo")
    if fit_apo is None or not {"simple", "selective"} <= {mode for _, mode, _, _ in apo_}:
        return "both predictor modes in the report"
    rows = []
    for label, m in sorted({(label, m) for label, mode, m, _ in apo_ if mode == "simple"}):
        if (label, "selective", m, "") not in apo_:
            continue
        shares = []  # the simple mode's share of each fit's win
        for (lbl, mode, mm, scope), simp in fit_apo.items():
            if (lbl, mode, mm) != (label, "simple", m):
                continue
            sel = fit_apo.get((label, "selective", m, scope))
            if sel is not None:
                shares.append(1.0 if simp > sel else 0.0 if sel > simp else 0.5)
        wins = math.fsum(shares)
        rows.append([
            label, m, apo_[(label, "simple", m, "")], apo_[(label, "selective", m, "")],
            wins, len(shares) - wins, len(shares),
        ])
    header = [
        "label", "m", "apo_simple", "apo_selective",
        "fit_wins_simple", "fit_wins_selective", "n_fits",
    ]
    return {"mode_compare": (header, rows)}


def _apo_vs_time_table(by_metric, timings):
    if not timings or "rf_apo" not in by_metric:
        return "timing records and rf_apo values"
    apo_ = by_metric["rf_apo"]
    totals: dict[tuple, list[float]] = {}
    for t in timings:
        totals.setdefault((t.label, t.mode, t.m), []).append(t.seconds)
    rows = [
        [label, mode, m, math.fsum(secs) / len(secs), apo_[(label, mode, m, "")]]
        for (label, mode, m), secs in sorted(totals.items())
        if (label, mode, m, "") in apo_
    ]
    return {"apo_vs_time": (["label", "mode", "m", "seconds_per_dataset", "apo"], rows)}


def _correlations_table(by_metric, timings):
    """Pearson r between every two series that share at least three
    (label, mode, m) cells, on the cells they share, and the pairs skipped
    because a series is constant on those cells."""
    series: dict[str, dict[tuple, float]] = {}
    for metric in ("rf_avg_cio", "rf_apo", "kl_norm_avg", "clf_acc_dev", "mpe_apo"):
        if metric in by_metric:
            series[metric] = {
                (label, mode, m): v
                for (label, mode, m, scope), v in by_metric[metric].items()
                if scope == ""
            }
    for (label, mode, m, scope), v in by_metric.get("adhoc_dev", {}).items():
        series.setdefault(f"adhoc_dev:{scope.removeprefix('pred:')}", {})[(label, mode, m)] = v
    names = sorted(series)
    rows, skipped = [], []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            keys = sorted(series[a].keys() & series[b].keys())
            if len(keys) < 3:
                continue
            xs = [series[a][k] for k in keys]
            ys = [series[b][k] for k in keys]
            constant = [name for name, vs in ((a, xs), (b, ys)) if max(vs) == min(vs)]
            if constant:
                skipped.append([a, b, f"series {constant[0]!r} is constant"])
            else:
                rows.append([a, b, pearson(xs, ys), len(keys)])
    if not rows and not skipped:
        return "at least two alignable series"
    return {
        "correlations": (["series_x", "series_y", "r", "n"], rows),
        "correlations_skipped": (["series_x", "series_y", "reason"], skipped) if skipped else None,
    }


_TABLE_BUILDERS = {
    "mpe_apo": _mpe_apo_table,
    "cio_vs_m": partial(_series_by_m_table, "cio_vs_m", "rf_avg_cio"),
    "apo_vs_m": partial(_series_by_m_table, "apo_vs_m", "rf_apo"),
    "kl_norm": _kl_norm_table,
    "mode_compare": _mode_compare_table,
    "apo_vs_time": _apo_vs_time_table,
    "correlations": _correlations_table,
}
TABLES = tuple(_TABLE_BUILDERS)


def emit_tables(
    report: UtilityReport,
    out: Path,
    timings: list[TimingRow] | None = None,
    requested: tuple[str, ...] | None = None,
) -> dict[str, Path]:
    """Write the plot-ready tables under ``out``/tables.

    With ``requested=None`` every table whose inputs are present is emitted;
    explicitly requesting a table whose inputs are missing is an error.
    Returns the path of each table written, by table name.
    """
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    want = TABLES if requested is None else tuple(requested)
    for t in want:
        if t not in TABLES:
            raise ConfigError(f"unknown table {t!r}")
    by_metric: dict[str, dict[tuple, float]] = {}
    for r in report.summary():
        by_metric.setdefault(r.metric, {})[(r.label, r.mode, r.m, r.scope)] = r.value

    written: dict[str, Path] = {}
    for table in TABLES:
        if table not in want:
            continue
        files = _TABLE_BUILDERS[table](by_metric, timings)
        if isinstance(files, str):
            if requested is not None:
                raise MetricError(f"table {table!r} needs {files}")
            continue
        for stem, table_file in files.items():
            path = tables_dir / f"{stem}.csv"
            if table_file is None:
                path.unlink(missing_ok=True)
            else:
                _write_table(path, *table_file)
        written[table] = tables_dir / f"{table}.csv"
    return written
