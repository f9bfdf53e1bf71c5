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
stay out of the report files. Within one run, replicates share the
non-proper synthesis fits, across worker processes too, and within one
process the original-side metric values; no random draw changes either.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    AdhocPredicate,
    adhoc_proportion,
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
from .errors import ConfigError, DataError, MetricError, SynthbenchError
from .estimands import (
    RULES,
    FitSpec,
    combine,
    load_fitspecs,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from .metrics import KL_DIRECTIONS, UtilityReport, apo, cio, kl_divergence
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
    if cfg.metrics.regression and cfg.fitspecs is None:
        raise ConfigError("regression metrics need a fitspecs file")
    if cfg.metrics.adhoc and cfg.adhoc is None:
        raise ConfigError("adhoc metrics need an adhoc file")


def load_original(cfg: ExperimentConfig) -> Dataset:
    """Load and preprocess the original data: drop, coarsen, head, then fill
    missing cells by resampling observed values. Data without rows, or with
    a numeric cell that is nan or infinite, is a ``DataError``; a
    classification target that is not a column of the result is a
    ``ConfigError``."""
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
    return replace_missing(ds, cfg.missing_seed)


def load_metric_inputs(cfg: ExperimentConfig) -> tuple[tuple[FitSpec, ...], tuple[AdhocPredicate, ...]]:
    """The fits and ad-hoc predicates that ``cfg``'s metrics score; none while a metric is off."""
    fits = load_fitspecs(cfg.fitspecs) if (cfg.metrics.regression and cfg.fitspecs) else ()
    predicates = load_adhoc(cfg.adhoc) if (cfg.metrics.adhoc and cfg.adhoc) else ()
    return fits, predicates


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
    ``ConfigError``."""
    specs = {}
    for entry, proper, label in cfg.labels():
        for mode in modes:
            try:
                specs[label, mode] = build_spec(
                    schema, entry.base, order=entry.order, own_order=entry.own_order,
                    proper=proper, m=m, seed=seed, pmm_k=cfg.pmm_k, min_leaf=cfg.min_leaf,
                    selective={
                        schema.index(target): tuple(schema.index(p) for p in preds)
                        for target, preds in cfg.selective.items()
                    } if mode == "selective" else None,
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


def metric_rows(
    original: Dataset,
    sset: SyntheticSet,
    settings: MetricSettings,
    fits: tuple[FitSpec, ...],
    predicates: tuple[AdhocPredicate, ...],
    *,
    ms: tuple[int, ...] | None = None,
    memo: dict | None = None,
) -> tuple[dict[int, list[tuple[str, str, float]]], list[tuple[str, str]]]:
    """Compute every configured metric of the first m datasets of ``sset``,
    for each m of ``ms`` (by default only m = ``sset.m``, the whole set).

    Returns (rows, errors): ``rows[m]`` lists the rows of the first m
    datasets, a row being (metric, scope, value), and an error is (stage,
    message). The families are the mean point estimands (``mean_point``),
    each fit (``fit:<id>``), KL (``kl``), the classifier
    (``classification``) and each predicate (``adhoc:<id>``). Each family
    computes its per-dataset values once and combines the first m of them
    for each m, so the rows of m equal those of a set holding only its
    first m datasets. An exception in one family, of whatever type, becomes
    its error and loses that family's rows for every m.

    ``memo`` keeps the original-side values (estimands and the classifier's
    original-trained predictions) for later calls with the same
    ``original`` and ``settings``; without it they are computed afresh.
    """
    ms = (sset.m,) if ms is None else ms
    if not all(1 <= m <= sset.m for m in ms):
        raise MetricError(f"cannot score the first m of {sset.m} datasets for each m of {ms}")
    rows: dict[int, list[tuple[str, str, float]]] = {m: [] for m in ms}
    errors: list[tuple[str, str]] = []
    thr = settings.apo_threshold
    inc = settings.apo_inclusive

    memo = {} if memo is None else memo

    def once(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def family(stage, compute):
        """Each m's result of ``compute()(m)``: compute() does the
        per-dataset work and returns the roll-up of the first m datasets.
        None after recording an exception of either."""
        try:
            roll = compute()
            return {m: roll(m) for m in ms}
        except Exception as err:
            errors.append((stage, _describe_error(err)))
            return None

    def add(stage, compute):
        """Append each m's rows of a family that does not raise."""
        got = family(stage, compute)
        for m in ms if got is not None else ():
            rows[m] += got[m]

    def mean(values, m=None):
        """The mean of ``values``, or of the first m per-dataset values."""
        values = values[:m]
        return math.fsum(values) / len(values)

    def overlap(name, orig, pairs):
        """The CIO of one estimand: its original (q, v) against the combined
        synthetic (q, v) of each dataset."""
        level = settings.ci_level
        syn = combine(pairs, settings.rule)
        syn_ci = normal_interval(syn.q_bar, syn.total_variance, level)
        return cio(normal_interval(*orig, level), syn_ci, estimand_id=name)

    def roll_up(avg_metric, apo_metric, scope, overlaps):
        """The average CIO and the APO of ``overlaps``, both under ``scope``."""
        return [
            (avg_metric, scope, mean(overlaps)),
            (apo_metric, scope, apo(overlaps, thr, inclusive=inc)),
        ]

    def mean_point_rows():
        estimands = [
            (c.name, once(("mean_point", c.name), lambda: mean_point_estimand(original, c.name)),
             [mean_point_estimand(ds, c.name) for ds in sset.datasets])
            for c in original.schema.columns
            if c.kind.is_numeric
        ]

        def roll(m):
            overlaps = [overlap(name, orig, pairs[:m]) for name, orig, pairs in estimands]
            if not overlaps:
                return []
            out = [("mpe_cio", f"var:{name}", o) for (name, _, _), o in zip(estimands, overlaps)]
            return out + roll_up("mpe_avg_cio", "mpe_apo", "", overlaps)

        return roll

    def fit_rows(fit):
        """The roll-up of one fit: its rows and its overlaps."""
        orig = once(("fit", fit), lambda: regression_estimands(original, fit))
        per_ds = [regression_estimands(ds, fit) for ds in sset.datasets]
        if any(coefs.keys() != orig.keys() for coefs in per_ds):
            raise MetricError("synthetic fit produced a different coefficient set")

        def roll(m):
            overlaps = [overlap(name, qv, [coefs[name] for coefs in per_ds[:m]])
                        for name, qv in orig.items()]
            out = [("rf_cio", f"fit:{fit.id}:coef:{name}", o) for name, o in zip(orig, overlaps)]
            out += roll_up("rf_fit_avg_cio", "rf_fit_apo", f"fit:{fit.id}", overlaps)
            return out, overlaps

        return roll

    def kl_rows():
        kl = partial(kl_divergence, bins=settings.kl_bins, smoothing=settings.kl_smoothing,
                     direction=settings.kl_direction)
        raws = [
            (c.name, [kl(original.column(c.name), ds.column(c.name), c.kind)
                      for ds in sset.datasets])
            for c in original.schema.columns
        ]
        return lambda m: [("kl_raw", f"var:{name}", mean(r, m)) for name, r in raws]

    def classification_rows():
        baseline = once(("classification",), lambda: classifier_baseline(
            original, settings.classification_target,
            test_fraction=settings.classification_test_fraction,
        ))
        accuracies, agreements = classify_compare(baseline, sset)
        acc_orig = float(baseline.correct.mean())
        return lambda m: [
            ("clf_acc_orig", "", acc_orig),
            ("clf_acc_syn", "", mean(accuracies, m)),
            ("clf_acc_dev", "", abs(acc_orig - mean(accuracies, m))),
            ("clf_agreement", "", mean(agreements, m)),
        ]

    def adhoc_rows(pred):
        p_orig = adhoc_proportion(original, pred)
        p_syn = [adhoc_proportion(ds, pred) for ds in sset.datasets]
        return lambda m: [
            ("adhoc_orig", f"pred:{pred.id}", p_orig),
            ("adhoc_syn", f"pred:{pred.id}", mean(p_syn, m)),
            ("adhoc_dev", f"pred:{pred.id}", abs(p_orig - mean(p_syn, m))),
        ]

    if settings.mean_point:
        add("mean_point", mean_point_rows)

    if settings.regression and fits:
        per_fit = [got for fit in fits if (got := family(f"fit:{fit.id}", lambda: fit_rows(fit)))]
        for m in ms if per_fit else ():
            overlaps = [got[m][1] for got in per_fit]
            rows[m] += [row for got in per_fit for row in got[m][0]]
            # the average of the fits' averages, and the APO of all their overlaps
            rows[m].append(("rf_avg_cio", "", math.fsum(map(mean, overlaps)) / len(overlaps)))
            pooled = [o for ov in overlaps for o in ov]
            rows[m].append(("rf_apo", "", apo(pooled, thr, inclusive=inc)))

    if settings.kl:
        add("kl", kl_rows)

    if settings.classification_target is not None:
        add("classification", classification_rows)

    if settings.adhoc and predicates:
        for pred in predicates:
            add(f"adhoc:{pred.id}", lambda: adhoc_rows(pred))

    return rows, errors


@dataclass(frozen=True)
class _Experiment:
    """What the cells of one ``run_experiment`` call share in a process: the
    inputs, the text of the original's numbers, the spec of each (label,
    mode), the non-proper synthesis fits and the original-side values of
    ``metric_rows``."""

    cfg: ExperimentConfig
    fingerprint: str
    original: Dataset
    known: NumberText
    fits: tuple[FitSpec, ...]
    predicates: tuple[AdhocPredicate, ...]
    specs: dict[tuple[str, str], SynthesizerSpec]
    synth_fits: FitMemo
    original_side: dict


_experiment: _Experiment | None = None


def _start_experiment(exp: _Experiment) -> None:
    """Make ``exp`` this process's experiment. ``run_experiment`` calls it
    with a new value, so no run reuses another run's fits, and each pool
    worker calls it as its initializer, with the parent's value as it
    stands when the pool starts."""
    global _experiment
    _experiment = exp


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step, so an interrupted run
    leaves either the old file or the new one, never a truncated file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _finished_cell(path: Path, fingerprint: str) -> dict | None:
    """The saved result of a replicate that generated its datasets under
    this fingerprint, or None when the file is absent, unreadable, belongs
    to another run or records a replicate that failed as a whole."""
    try:
        result = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    ok = isinstance(result, dict) and result.get("fingerprint") == fingerprint
    return result if ok and result.get("seconds") else None


def _run_cell(replicate: tuple[str, str, int]) -> dict:
    """Run one replicate of the current experiment: synthesize and write
    max(m) datasets, score the first m of them for each m of the grid, and
    save the replicate's cell file. Any exception becomes the replicate's
    error row, so one failing replicate never aborts the grid."""
    label, mode, rep = replicate
    exp = _experiment
    cfg = exp.cfg
    key = _replicate_key(label, mode, rep)
    result = {"key": key, "label": label, "mode": mode, "rep": rep, "fingerprint": exp.fingerprint}
    try:
        spec = replace(exp.specs[label, mode], seed=_replicate_seed(cfg.seed, label, mode, rep))
        sset = synthesize(exp.original, spec, memo=exp.synth_fits)
        seconds = save_synthetic_set(sset, cfg.out / "synth" / key, known=exp.known)
        rows, errors = metric_rows(
            exp.original, sset, cfg.metrics, exp.fits, exp.predicates,
            ms=cfg.m_list, memo=exp.original_side,
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
    memo = _experiment.synth_fits
    fit_trees([(memo, step) for step in steps])
    fitted = []
    for step in steps:
        try:
            fitted.append(memo.fit(step))
        except Exception:
            fitted.append(None)
    return fitted


@contextmanager
def _workers(jobs: int, tasks: int):
    """``map`` over min(jobs, tasks) pool workers, each started with this
    process's experiment, or the builtin ``map`` in this process when that
    is one."""
    workers = min(jobs, tasks)
    if workers < 2:
        yield map
    else:
        with ProcessPoolExecutor(
            workers, initializer=_start_experiment, initargs=(_experiment,)
        ) as pool:
            yield pool.map


def _run_cells(pending, jobs: int) -> list[dict]:
    """Run the ``pending`` replicates over ``jobs`` workers in two phases:
    first fit each distinct non-proper step of their specs once (no fit
    depends on the seed) into this process's memo, leaving a fit that
    raises to the replicates that need it; then run the replicates longest
    first (proper first).

    The donor trees of the first phase grow as at most ``jobs`` forests,
    dealt round-robin, so that every worker has one; every other step is a
    task of its own."""
    specs, memo = _experiment.specs, _experiment.synth_fits
    steps = dict.fromkeys(
        step for label, mode, _ in pending for step in shared_steps(specs[label, mode])
    )
    trees = [step for step in steps if step.grows_tree]
    tasks = [trees[i::jobs] for i in range(min(jobs, len(trees)))]
    tasks += [[step] for step in steps if not step.grows_tree]
    with _workers(jobs, len(tasks)) as fit_map:
        for task, fitted in zip(tasks, fit_map(_fit_shared, tasks)):
            for step, value in zip(task, fitted):
                if value is not None:
                    memo.add(step, value)
    order = sorted(pending, key=lambda replicate: not specs[replicate[:2]].proper)
    with _workers(jobs, len(pending)) as cell_map:
        return list(cell_map(_run_cell, order))


def run_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, resume: bool = False
) -> tuple[UtilityReport, list[TimingRecord]]:
    """Execute the full grid and write report.csv, summary.csv, errors.csv,
    timings.csv and the resume manifest under ``cfg.out``.

    Each replicate's cell file carries the run's fingerprint and is written
    atomically. With ``resume`` every replicate of this grid whose file
    parses, carries the same fingerprint and generated its datasets is
    reused, whether or not the manifest lists it; every other replicate runs
    again. A manifest with another fingerprint refuses the resume.

    The spec of each (label, mode) is built once, before anything is
    written; one that cannot be built is a ``ConfigError``. Every non-proper
    synthesis step is fitted once per call, before any replicate, and every
    original-side estimand once per call and process; a replicate that finds
    them already computed only draws and scores."""
    global _experiment
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    original = load_original(cfg)
    fits, predicates = load_metric_inputs(cfg)
    specs = grid_specs(cfg, original.schema, cfg.predictor_modes, m=max(cfg.m_list), seed=0)
    replicates = sorted((label, mode, rep) for label, mode in specs for rep in range(cfg.k))

    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    fingerprint = cfg.fingerprint()
    done: dict[str, dict] = {}
    if resume:
        try:
            manifest = json.loads(manifest_path.read_text())
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
    _start_experiment(_Experiment(
        cfg, fingerprint, original, NumberText.of(original), fits, predicates, specs,
        FitMemo(original), {},
    ))
    try:
        fresh = _run_cells(pending, jobs)
    finally:
        _experiment = None
    results = {**done, **{r["key"]: r for r in fresh}}

    report = UtilityReport()
    timings: list[TimingRecord] = []
    cells = sorted((label, mode, m, rep) for label, mode, rep in replicates for m in cfg.m_list)
    for label, mode, m, rep in cells:
        r = results[_replicate_key(label, mode, rep)]
        for mtr, scope, val in r["rows"].get(str(m), ()):
            report.add(label, mode, m, rep, mtr, scope, val)
        for stage, msg in r["errors"]:
            report.add_error(label, mode, m, rep, stage, msg)
        if r["seconds"]:
            timings.append(TimingRecord(label, mode, m, rep, tuple(r["seconds"][:m])))

    if cfg.metrics.kl and cfg.metrics.kl_normalize:
        _add_normalized_kl(report, cells)

    write_report(report, out)
    _write_table(
        out / "timings.csv",
        ["label", "mode", "m", "rep", "dataset", "seconds"],
        ([t.label, t.mode, t.m, t.rep, i, repr(s)]
         for t in timings for i, s in enumerate(t.seconds)),
    )

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


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_table(path: Path, header: list[str], rows) -> None:
    """Write one CSV file: the header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_report(report: UtilityReport, out: Path) -> None:
    """Write report.csv, summary.csv and, when ``report`` holds errors,
    errors.csv under ``out``."""
    _write_table(
        out / "report.csv",
        ["label", "mode", "m", "k", "metric", "scope", "value"],
        (
            [r.label, r.mode, r.m, r.k, r.metric, r.scope, _fmt(r.value)]
            for r in report.sorted_rows()
        ),
    )
    _write_table(
        out / "summary.csv",
        ["label", "mode", "m", "metric", "scope", "value"],
        ([r.label, r.mode, r.m, r.metric, r.scope, _fmt(r.value)] for r in report.summary()),
    )
    errors = sorted(report.errors, key=lambda e: e.key())
    if errors:
        _write_table(
            out / "errors.csv",
            ["label", "mode", "m", "k", "stage", "message"],
            ([e.label, e.mode, e.m, e.k, e.stage, e.message] for e in errors),
        )


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


def read_timings(out: Path) -> list[TimingRecord]:
    """Rebuild the timing records from timings.csv in ``out``, in file order;
    none when the file is absent."""
    path = out / "timings.csv"
    if not path.exists():
        return []
    seconds: dict[tuple, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["label"], row["mode"], int(row["m"]), int(row["rep"]))
            seconds.setdefault(key, []).append(float(row["seconds"]))
    return [TimingRecord(*key, tuple(secs)) for key, secs in seconds.items()]


# A table builder takes the summary values ``{metric: {(label, mode, m,
# scope): value}}`` and the timing records. It returns its table's files,
# ``{file stem: (header, rows)}``, or what the table needs and lacks.


def _mpe_apo_table(by_metric, timings):
    if "mpe_apo" not in by_metric:
        return "metric 'mpe_apo' in the report"
    avg = by_metric.get("mpe_avg_cio", {})
    rows = []
    for (label, mode, m, _), v in sorted(by_metric["mpe_apo"].items()):
        a = avg.get((label, mode, m, ""))
        rows.append([label, mode, m, _fmt(v), "" if a is None else _fmt(a)])
    return {"mpe_apo": (["label", "mode", "m", "mpe_apo", "mpe_avg_cio"], rows)}


def _series_by_m_table(table: str, metric: str, by_metric, timings):
    """A ``series, m, value`` table of ``metric``; a series is a label, with
    its predictor mode appended unless that is simple."""
    if metric not in by_metric:
        return f"metric {metric!r} in the report"
    rows = [
        [label if mode == "simple" else f"{label}/{mode}", m, _fmt(v)]
        for (label, mode, m, _), v in sorted(by_metric[metric].items())
    ]
    return {table: (["series", "m", "value"], rows)}


def _kl_norm_table(by_metric, timings):
    if "kl_norm" not in by_metric:
        return "metric 'kl_norm' in the report"
    rows = [
        [label, mode, m, scope.removeprefix("var:"), _fmt(v)]
        for (label, mode, m, scope), v in sorted(by_metric["kl_norm"].items())
    ]
    rows += [
        [label, mode, m, "all", _fmt(v)]
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
            label, m, _fmt(apo_[(label, "simple", m, "")]), _fmt(apo_[(label, "selective", m, "")]),
            _fmt(wins), _fmt(len(shares) - wins), len(shares),
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
        totals.setdefault((t.label, t.mode, t.m), []).append(t.total / max(t.m, 1))
    rows = [
        [label, mode, m, repr(math.fsum(secs) / len(secs)), _fmt(apo_[(label, mode, m, "")])]
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
                rows.append([a, b, repr(pearson(xs, ys)), len(keys)])
    if not rows and not skipped:
        return "at least two alignable series"
    files = {"correlations": (["series_x", "series_y", "r", "n"], rows)}
    if skipped:
        files["correlations_skipped"] = (["series_x", "series_y", "reason"], skipped)
    return files


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
    timings: list[TimingRecord] | None = None,
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
        for stem, (header, rows) in files.items():
            _write_table(tables_dir / f"{stem}.csv", header, rows)
        written[table] = tables_dir / f"{table}.csv"
    return written
