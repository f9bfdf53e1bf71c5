"""Experiment harness: run a synthesizer grid.

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
them; a process keeps neither. Neither changes a draw. ``config`` reads the
grid's settings, and ``tables`` writes the results files and plot tables.
"""

from __future__ import annotations

import json
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import (
    AdhocPredicate, adhoc_proportion, check_classifier, check_predicate, classifier_baseline,
    classify_compare, load_adhoc,
)
from .config import ExperimentConfig, MetricSettings
from .dataset import (
    Dataset, NumberText, Schema, coarsen_levels, drop_column, head_n, load_csv, load_schema,
    replace_missing,
)
from .errors import ConfigError, DataError, MetricError, SchemaError, SynthbenchError
from .estimands import (
    FitSpec, check_fit, combine, load_fitspecs, mean_point_estimand, normal_interval,
    regression_estimands,
)
from .metrics import ReportError, UtilityReport, apo, cio, kl_divergence
from .synthesis import SynthesizerSpec, SyntheticSet, build_spec, fit_steps, save_synthetic_set, synthesize
from .tables import TimingRow, _write_atomic, _write_table, write_report

# benchmarks/grid.py calls these two through this module, and its tracer wraps emit_tables here.
from .config import load_config
from .tables import emit_tables


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
    for m in ms:  # the fits that scored, taken together
        averages = [v for metric, _, v in rows[m] if metric == "rf_fit_avg_cio"]
        if averages:
            overlaps = [v for metric, _, v in rows[m] if metric == "rf_cio"]
            share = apo(overlaps, settings.apo_threshold, inclusive=settings.apo_inclusive)
            rows[m] += [("rf_avg_cio", "", _mean(averages)), ("rf_apo", "", share)]
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
    max(m) datasets, fitting only the steps that ``fitted`` lacks (a proper
    replicate's), score the first m of them for each m of the grid, and
    save the replicate's cell file. A step whose value in ``fitted`` is an
    exception raises it. Any exception becomes the replicate's error row,
    so one failing replicate never aborts the grid."""
    label, mode, rep = replicate
    exp = _experiment
    cfg = exp.cfg
    key = _replicate_key(label, mode, rep)
    result = {"key": key, "label": label, "mode": mode, "rep": rep, "fingerprint": exp.fingerprint}
    try:
        spec = replace(exp.specs[label, mode], seed=_replicate_seed(cfg.seed, label, mode, rep))
        sset = synthesize(exp.original, spec, fitted=fitted)
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
    """What ``fit_steps`` returns for each shared step on the original: its
    fitted value, or the exception that its fit raised. The donor trees
    among the steps grow as one forest."""
    return fit_steps((step, _experiment.original) for step in steps)


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
    are fitted, so proper ones first, and carries what ``fit_steps``
    returned for each, a step whose fit raised as that exception, so a
    non-proper replicate fits nothing."""
    specs = _experiment.specs
    needs = {r: () if specs[r[:2]].proper else [s for _, s in specs[r[:2]].steps] for r in pending}
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
                shipped = {s: fitted[s] for s in needs.pop(replicate)}
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

