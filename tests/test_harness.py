import ast
import concurrent.futures
import csv
import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_fixture_a, output_bytes, write_schema
import synthbench
import synthbench.harness as harness
import synthbench.synthesis as synthesis
from synthbench.cli import main
from synthbench.config import ExperimentConfig, MetricSettings, SynthesizerEntry, load_config
from synthbench.dataset import Column, ColumnKind, Dataset, LevelMapping, Schema, write_csv
from synthbench.analysis import load_adhoc
from synthbench.errors import (
    AnalysisError, ConfigError, DataError, EstimandError, MetricError, SchemaError,
    SpecError, SynthesisError,
)
from synthbench.estimands import FitSpec, load_fitspecs, normal_interval
from synthbench.metrics import ReportError, UtilityReport, cio, kl_divergence
from synthbench.synthesis import (
    Method, SyntheticSet, build_spec, load_synthetic_set, synthesize,
)
from synthbench.harness import (
    _replicate_seed,
    load_metric_inputs,
    load_original,
    metric_rows,
    original_side,
    run_experiment,
)
from synthbench.tables import emit_tables, read_report, read_timings, write_report


def write_project(root, *, seed_value=3, grid=None, metrics=None, k=2):
    """Lay out a miniature project: data, schema, fitspecs, adhoc, config."""
    rng = np.random.default_rng(17)
    n = 100
    x = rng.uniform(0, 1, n)
    y = 1.2 * x + rng.normal(0, 0.25, n)
    c = (x > 0.5).astype(int)
    lines = ["x,y,c"]
    for i in range(n):
        lines.append(f"{float(x[i])!r},{float(y[i])!r},{'hi' if c[i] else 'lo'}")
    (root / "data.csv").write_text("\n".join(lines) + "\n")
    (root / "schema.json").write_text(
        json.dumps(
            {
                "columns": [
                    {"name": "x", "kind": "numeric"},
                    {"name": "y", "kind": "numeric"},
                    {"name": "c", "kind": "categorical", "levels": ["lo", "hi"]},
                ]
            }
        )
    )
    (root / "fits.json").write_text(
        json.dumps(
            {"fits": [{"id": "f1", "family": "linear", "target": "y", "predictors": ["x"]}]}
        )
    )
    (root / "adhoc.json").write_text(
        json.dumps(
            {
                "analyses": [
                    {"id": "hi_rate", "conditions": [{"column": "c", "op": "eq", "value": "hi"}]}
                ]
            }
        )
    )
    doc = {
        "dataset": "data.csv",
        "schema": "schema.json",
        "fitspecs": "fits.json",
        "adhoc": "adhoc.json",
        "grid": grid
        or {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1, 2]},
        "k": k,
        "seed": seed_value,
        "out": "results",
        "metrics": metrics
        or {"classification": {"target": "c"}, "adhoc": True},
    }
    (root / "config.json").write_text(json.dumps(doc))
    return root / "config.json"


def test_load_config_resolves_relative_paths(tmp_path):
    cfg_path = write_project(tmp_path)
    cfg = load_config(cfg_path)
    assert cfg.dataset == tmp_path / "data.csv"
    assert cfg.out == tmp_path / "results"
    assert cfg.seed == 3 and cfg.k == 2
    assert cfg.m_list == (1, 2)
    assert [e.base for e in cfg.synthesizers] == ["S", "D"]
    assert cfg.metrics.classification_target == "c"
    cfg2 = load_config(cfg_path, seed=99, out=tmp_path / "elsewhere")
    assert cfg2.seed == 99 and cfg2.out == tmp_path / "elsewhere"
    assert cfg2.fingerprint() != cfg.fingerprint()  # seed participates


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError):
        load_config(bad)

    def write_cfg(mutate):
        cfg_path = write_project(tmp_path)
        doc = json.loads(cfg_path.read_text())
        mutate(doc)
        cfg_path.write_text(json.dumps(doc))
        return cfg_path

    with pytest.raises(ConfigError, match="unknown synthesizer base"):
        load_config(write_cfg(lambda d: d["grid"]["synthesizers"].append({"base": "Q"})))
    with pytest.raises(ConfigError, match="own_order"):
        load_config(
            write_cfg(lambda d: d["grid"]["synthesizers"].append({"base": "D", "order": "own"}))
        )
    with pytest.raises(ConfigError, match="duplicate synthesizer label"):
        load_config(write_cfg(lambda d: d["grid"]["synthesizers"].append({"base": "S"})))
    with pytest.raises(ConfigError, match="Tp needs every m"):
        load_config(write_cfg(lambda d: d["metrics"].update(rule="Tp")))
    with pytest.raises(ConfigError, match="selective"):
        load_config(
            write_cfg(lambda d: d["grid"].update(predictor_modes=["simple", "selective"]))
        )
    with pytest.raises(ConfigError, match="baseline"):
        load_config(
            write_cfg(lambda d: d["grid"].update(synthesizers=[{"base": "D"}]))
        )
    with pytest.raises(ConfigError, match="k must be"):
        load_config(write_cfg(lambda d: d.update(k=0)))
    with pytest.raises(ConfigError, match="grid.m"):
        load_config(write_cfg(lambda d: d["grid"].update(m=[2, 2])))
    with pytest.raises(ConfigError, match="predictor_modes has duplicates"):
        load_config(write_cfg(lambda d: d["grid"].update(predictor_modes=["simple", "simple"])))
    with pytest.raises(ConfigError, match="predictor_modes is empty"):
        load_config(write_cfg(lambda d: d["grid"].update(predictor_modes=[])))
    # JSON types: a string is no boolean, and a boolean is no integer
    with pytest.raises(ConfigError, match="metrics.kl must be true or false, got 'false'"):
        load_config(write_cfg(lambda d: d["metrics"].update(kl="false")))
    with pytest.raises(ConfigError, match="grid.proper must be true or false"):
        load_config(write_cfg(lambda d: d["grid"].update(proper=[False, "false"])))
    with pytest.raises(ConfigError, match="metrics.classification must be an object"):
        load_config(write_cfg(lambda d: d["metrics"].update(classification="c")))
    with pytest.raises(ConfigError, match="metrics.classification must be an object"):
        load_config(write_cfg(lambda d: d["metrics"].update(classification=False)))
    with pytest.raises(ConfigError, match="preprocess.head_n must be an integer"):
        load_config(write_cfg(lambda d: d.update(preprocess={"head_n": False})))
    with pytest.raises(ConfigError, match="preprocess.head_n must be >= 1"):
        load_config(write_cfg(lambda d: d.update(preprocess={"head_n": 0})))
    with pytest.raises(ConfigError, match="metrics.kl_bins must be an integer"):
        load_config(write_cfg(lambda d: d["metrics"].update(kl_bins=True)))
    with pytest.raises(ConfigError, match="k must be an integer"):
        load_config(write_cfg(lambda d: d.update(k=2.5)))
    with pytest.raises(ConfigError, match="grid.m must be an integer"):
        load_config(write_cfg(lambda d: d["grid"].update(m=[1, "2"])))
    with pytest.raises(ConfigError, match="test_fraction must be a number"):
        load_config(write_cfg(lambda d: d["metrics"]["classification"].update(test_fraction="0.3")))
    with pytest.raises(ConfigError, match=r"test_fraction must lie in \(0, 1\)"):
        load_config(write_cfg(lambda d: d["metrics"]["classification"].update(test_fraction=1.5)))
    with pytest.raises(ConfigError, match="metrics.ci_level must be a number"):
        load_config(write_cfg(lambda d: d["metrics"].update(ci_level="0.9")))
    # null or an empty list is no object, and null no path
    with pytest.raises(ConfigError, match="grid.selective must be an object, got \\[\\]"):
        load_config(write_cfg(lambda d: d["grid"].update(selective=[])))
    with pytest.raises(ConfigError, match="fitspecs must be a string, got None"):
        load_config(write_cfg(lambda d: d.update(fitspecs=None)))
    # a lone string is no list: "NA" must not split into the tokens "N" and "A"
    for mutate, where in (
        (lambda d: d.update(missing_tokens="NA"), "missing_tokens"),
        (lambda d: d.update(missing_tokens=["", 0]), "missing_tokens"),
        (lambda d: d.update(preprocess={"drop": "c1"}), "preprocess.drop"),
        (lambda d: d["grid"].update(predictor_modes="simple"), "grid.predictor_modes"),
        (lambda d: d["grid"].update(selective={"y": "x"}), "grid.selective.y"),
        (
            lambda d: d["grid"]["synthesizers"].append(
                {"base": "D", "order": "own", "own_order": "xy"}
            ),
            "own_order",
        ),
    ):
        with pytest.raises(ConfigError, match=f"{where} must be a list of strings"):
            load_config(write_cfg(mutate))
    # a misspelt key in any section is an error, not a setting left at its default
    coarsen = {"column": "c", "mapping": {"lo": "lo", "hi": "hi"}}
    for mutate, where in (
        (lambda d: d.update(pmmk=3), "'pmmk' in the config"),
        (lambda d: d["grid"].update(predictor_mode=["selective"]), "'predictor_mode' in grid"),
        (
            lambda d: d["grid"]["synthesizers"][1].update(ordr="opposite"),
            r"'ordr' in grid.synthesizers\[1\]",
        ),
        (lambda d: d["metrics"].update(kl_bin=10), "'kl_bin' in metrics"),
        (
            lambda d: d["metrics"]["classification"].update(targt="c"),
            "'targt' in metrics.classification",
        ),
        (lambda d: d.update(preprocess={"head": 50}), "'head' in preprocess"),
        (
            lambda d: d.update(preprocess={"coarsen": [{**coarsen, "maping": {}}]}),
            r"'maping' in preprocess.coarsen\[0\]",
        ),
    ):
        with pytest.raises(ConfigError, match=f"unknown key {where}$"):
            load_config(write_cfg(mutate))
    # a whole number is a valid float setting
    assert (
        load_config(write_cfg(lambda d: d["metrics"].update(kl_smoothing=1))).metrics.kl_smoothing
        == 1.0
    )


@pytest.mark.parametrize(
    "section, setting, value, message",
    [
        ("metrics", "ci_level", 1.5, r"ci_level must lie in \(0, 1\)"),
        ("metrics", "ci_level", 1, r"ci_level must lie in \(0, 1\)"),
        ("metrics", "ci_level", 0, r"ci_level must lie in \(0, 1\)"),
        ("metrics", "apo_threshold", 2.0, r"apo_threshold must lie in \[0, 1\]"),
        ("metrics", "apo_threshold", -0.1, r"apo_threshold must lie in \[0, 1\]"),
        ("metrics", "kl_bins", 1, "kl_bins must be >= 2"),
        ("metrics", "kl_smoothing", -1, "kl_smoothing must be >= 0"),
        ("metrics", "kl_direction", "PQ", "kl_direction must be one of pq, qp, sym, got 'PQ'"),
        ("preprocess", "missing_seed", -1, "missing_seed must be >= 0"),
    ],
)
def test_a_setting_out_of_range_is_a_config_error(tmp_path, section, setting, value, message):
    # Unchecked at load, each would fail every replicate's metric rows, or the
    # preprocessing, only after the grid had synthesized its datasets.
    cfg_path = write_project(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc.setdefault(section, {})[setting] = value
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"{section}.{message}"):
        load_config(cfg_path)


@pytest.mark.parametrize("setting", ["pmm_k", "min_leaf"])
def test_a_synthesis_setting_below_1_is_a_config_error(tmp_path, setting):
    # Unchecked at load, it would fail only when the grid's specs are built,
    # in the name of the first synthesizer, whether or not that one uses it.
    cfg_path = write_project(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc[setting] = 0
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f": {setting} must be >= 1, got 0$"):
        load_config(cfg_path)


def test_settings_at_the_ends_of_their_ranges_load(tmp_path):
    cfg_path = write_project(tmp_path)
    doc = json.loads(cfg_path.read_text())
    for apo_threshold in (0.0, 1.0):
        doc["metrics"].update(apo_threshold=apo_threshold, kl_bins=2, kl_smoothing=0)
        doc["preprocess"] = {"missing_seed": 0}
        cfg_path.write_text(json.dumps(doc))
        settings = load_config(cfg_path).metrics
        assert (settings.apo_threshold, settings.kl_bins, settings.kl_smoothing) == (
            apo_threshold, 2, 0.0
        )


def test_coarsen_column_and_mapping_must_be_strings(tmp_path):
    # Coarse labels become levels: integer ones would be written to the
    # synthetic CSVs as 0 and 1, which no longer load as declared levels.
    cfg_path = write_project(tmp_path)
    doc = json.loads(cfg_path.read_text())
    for coarsen, where in (
        ({"column": "c", "mapping": {"lo": 0, "hi": 1}}, "preprocess.coarsen.mapping"),
        ({"column": "c", "mapping": {"lo": "any", "hi": None}}, "preprocess.coarsen.mapping"),
        ({"column": "c", "mapping": ["lo", "hi"]}, "preprocess.coarsen.mapping"),
        ({"column": 2, "mapping": {"lo": "any", "hi": "any"}}, "preprocess.coarsen.column"),
    ):
        doc["preprocess"] = {"coarsen": [coarsen]}
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=where):
            load_config(cfg_path)
    doc["preprocess"] = {"coarsen": [{"column": "c", "mapping": {"lo": "any", "hi": "any"}}]}
    cfg_path.write_text(json.dumps(doc))
    assert load_config(cfg_path).coarsen == (LevelMapping("c", {"lo": "any", "hi": "any"}),)


def test_a_coarsened_column_loads_merged_and_runs_a_grid(tmp_path):
    # Every third row of c reads "mid", a level that the config merges into "lo".
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    header, *lines = (tmp_path / "data.csv").read_text().splitlines()
    lines = [line.rsplit(",", 1)[0] + ",mid" if i % 3 == 0 else line
             for i, line in enumerate(lines)]
    (tmp_path / "data.csv").write_text("\n".join([header, *lines]) + "\n")
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["columns"][2]["levels"] = ["lo", "mid", "hi"]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    merge = {"lo": "lo", "mid": "lo", "hi": "hi"}
    doc = json.loads(cfg_path.read_text())
    doc["preprocess"] = {"coarsen": [{"column": "c", "mapping": merge}]}
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    assert cfg.coarsen == (LevelMapping("c", merge),)
    original = load_original(cfg)
    assert original.schema.kind("c").levels == ("lo", "hi")
    raw = [line.rsplit(",", 1)[1] for line in lines]
    assert raw.count("mid") == 34 and raw.count("hi") > 0
    assert original.column("c").tolist() == [int(label == "hi") for label in raw]
    report, _ = run_experiment(cfg)
    assert report.errors == []
    assert {row.metric for row in report.rows} >= {"mpe_apo", "rf_apo", "clf_acc_dev", "adhoc_dev"}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["grid"]["synthesizers"].append({"base": "D", "order": "sideways"}),
         "unknown synthesis order 'sideways'"),
        (lambda d: d["grid"].update(proper=[]), "grid.proper is empty"),
        (lambda d: d["grid"].update(predictor_modes=["clever"]), "unknown predictor mode 'clever'"),
        (lambda d: d["metrics"].update(rule="Tq"), "unknown combining rule 'Tq'"),
        (lambda d: d.pop("fitspecs"), "regression metrics need a fitspecs file"),
        (lambda d: d.pop("adhoc"), "adhoc metrics need an adhoc file"),
    ],
)
def test_a_config_that_the_grid_cannot_run_is_refused_at_load(tmp_path, mutate, message):
    cfg_path = write_project(tmp_path)
    doc = json.loads(cfg_path.read_text())
    mutate(doc)
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"config.json: {message}$"):
        load_config(cfg_path)


def test_every_setting_but_out_enters_the_fingerprint(tmp_path):
    cfg = load_config(write_project(tmp_path))
    moved = {}
    for name in ("dataset", "schema", "fitspecs"):
        # the same bytes under another name: only the path differs
        path = getattr(cfg, name)
        moved[name] = path.with_name("moved_" + path.name)
        moved[name].write_bytes(path.read_bytes())
    changes = {
        **moved,
        "synthesizers": cfg.synthesizers + (SynthesizerEntry("P"),),
        "m_list": (1, 3),
        "proper_variants": (False, True),
        "predictor_modes": ("simple", "selective"),
        "selective": {"y": ("x",)},
        "k": 3,
        "seed": 4,
        "adhoc": None,
        "missing_tokens": ("NA",),
        "drop": ("c",),
        "coarsen": (LevelMapping("c", {"lo": "any", "hi": "any"}),),
        "head": 50,
        "missing_seed": 1,
        "pmm_k": 3,
        "min_leaf": 7,
    }
    metric_changes = {
        "mean_point": False,
        "regression": False,
        "kl": False,
        "kl_normalize": False,
        "classification_target": None,
        "classification_test_fraction": 0.25,
        "adhoc": False,
        "rule": "Tp",
        "ci_level": 0.9,
        "apo_threshold": 0.8,
        "apo_inclusive": True,
        "kl_bins": 10,
        "kl_smoothing": 1.0,
        "kl_direction": "qp",
    }
    # every field is changed, so a new field must join one of the two lists
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(changes) == names - {"out", "metrics"}
    assert set(metric_changes) == {f.name for f in dataclasses.fields(MetricSettings)}

    base = cfg.fingerprint()
    for name, value in changes.items():
        assert getattr(cfg, name) != value, name
        assert dataclasses.replace(cfg, **{name: value}).fingerprint() != base, name
    for name, value in metric_changes.items():
        assert getattr(cfg.metrics, name) != value, name
        metrics = dataclasses.replace(cfg.metrics, **{name: value})
        assert dataclasses.replace(cfg, metrics=metrics).fingerprint() != base, name
    assert dataclasses.replace(cfg, out=tmp_path / "elsewhere").fingerprint() == base


def test_every_traced_name_resolves(tmp_path, monkeypatch):
    """The benchmark's tracer replaces each name in WRAPS in the module that
    looks it up; a moved or renamed name, or one that the run no longer
    calls through that module, must fail here, not in a traced run."""
    path = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    for module_name, attr, span, _ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), span))
    # every base, proper and not, as the benchmark's grids run them
    grid = {"synthesizers": [{"base": b} for b in ("P", "D", "CP", "CC", "S")],
            "proper": [False, True], "m": [1]}
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    fits = json.loads((tmp_path / "fits.json").read_text())
    fits["fits"].append({"id": "l1", "family": "logistic", "target": "c", "predictors": ["x"]})
    (tmp_path / "fits.json").write_text(json.dumps(fits))
    cfg = load_config(cfg_path)
    report, timings = harness.run_experiment(cfg)
    harness.emit_tables(report, cfg.out, timings)
    assert report.errors == []
    for workload in ("grid-2k-all", "eval-2k-m20"):
        tracer.check_hits(workload)
    # the tracer's _after read each traced fit's leaves, iterations and convergence
    assert tracer.cart_leaves >= 1 and tracer.newton_iters >= 1


@pytest.mark.parametrize("name", ["config", "tables"])
def test_config_and_tables_never_import_the_harness(name):
    # harness imports them; the other way round would tie them to the run
    tree = ast.parse(Path(synthbench.__file__).with_name(f"{name}.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [n for n in imported if "harness" in n.split(".")] == []


def test_cell_seed_streams_are_distinct_and_stable():
    # every cell of a replicate draws from the replicate's seed
    a = _replicate_seed(7, "D", "simple", 0)
    assert a == _replicate_seed(7, "D", "simple", 0)
    others = {
        _replicate_seed(7, "D", "simple", 1),
        _replicate_seed(7, "D", "selective", 0),
        _replicate_seed(7, "DT", "simple", 0),
        _replicate_seed(8, "D", "simple", 0),
    }
    assert a not in others and len(others) == 4


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    cfg = load_config(write_project(root))
    report, timings = run_experiment(cfg)
    return root, cfg, report, timings


def test_run_experiment_outputs(mini_run):
    root, cfg, report, timings = mini_run
    out = cfg.out
    for name in ("report.csv", "summary.csv", "timings.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    # labels {S, D} x 1 mode x k 2 -> 4 replicates of max(m) = 2 datasets,
    # which serve the 8 cells of m {1, 2}
    assert len(manifest["replicates"]) == 4
    assert manifest["datasets_generated"] == 2 * 2 * 2
    assert manifest["generated_last_run"] == manifest["datasets_generated"]
    assert len(list((out / "cells").glob("*.json"))) == 4
    assert len(list((out / "synth").glob("*/ds*.csv"))) == 8
    assert not report.errors
    metrics_present = {r.metric for r in report.rows}
    assert {
        "mpe_cio", "mpe_avg_cio", "mpe_apo",
        "rf_cio", "rf_fit_avg_cio", "rf_fit_apo", "rf_avg_cio", "rf_apo",
        "kl_raw", "kl_norm", "kl_norm_avg",
        "clf_acc_orig", "clf_acc_syn", "clf_acc_dev", "clf_agreement",
        "adhoc_orig", "adhoc_syn", "adhoc_dev",
    } <= metrics_present
    # normalized divergence exists for D but not for the baseline itself
    norm_keys = report.values("kl_norm_avg")
    assert {k[0] for k in norm_keys} == {"D"}
    assert len(timings) == 2 * (1 + 2) * 2  # one row per dataset: labels x sum(m) x k


def test_resume_is_idempotent(mini_run):
    root, cfg, report, _ = mini_run
    before = (cfg.out / "report.csv").read_bytes()
    report2, timings2 = run_experiment(cfg, resume=True)
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    assert manifest["generated_last_run"] == 0
    assert (cfg.out / "report.csv").read_bytes() == before
    assert sorted(report2.rows) == sorted(report.rows)


def test_resume_rejects_different_config(mini_run, tmp_path):
    root, cfg, _, _ = mini_run
    altered = load_config(root / "config.json", seed=12345)
    with pytest.raises(ConfigError, match="fresh output directory"):
        run_experiment(altered, resume=True)


def test_resume_refuses_a_directory_written_by_another_version(tmp_path, monkeypatch):
    # 0.3.0 breaks PMM distance ties at random, so the CP and CPT cells of
    # an unchanged config differ from those 0.2.0 wrote.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert f'\nversion = "{synthbench.__version__}"\n' in pyproject
    cfg = load_config(write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1))
    monkeypatch.setattr(synthbench, "__version__", "0.2.0")
    run_experiment(cfg)
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="fresh output directory"):
        run_experiment(cfg, resume=True)


def test_resume_rejects_an_edited_input_file(tmp_path):
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    run_experiment(load_config(cfg_path))
    data = tmp_path / "data.csv"
    lines = data.read_text().splitlines()
    x, y, c = lines[1].split(",")
    lines[1] = ",".join([x, repr(float(y) + 1.0), c])
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="fresh output directory"):
        run_experiment(load_config(cfg_path), resume=True)


def test_resume_reruns_only_cells_without_a_valid_file(tmp_path):
    cfg = load_config(write_project(tmp_path))
    run_experiment(cfg)
    fresh = (cfg.out / "report.csv").read_bytes()
    # An interrupted run: no manifest yet, and one cell file cut short. Its
    # replicate draws its max(m) = 2 datasets again.
    (cfg.out / "manifest.json").unlink()
    cut = cfg.out / "cells" / "D_simple_r0.json"
    cut.write_text(cut.read_text()[:40])
    run_experiment(cfg, resume=True)
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    assert manifest["generated_last_run"] == 2
    assert (cfg.out / "report.csv").read_bytes() == fresh
    # A truncated manifest does not stop a resume either. A cell file of
    # another run, and a replicate that failed as a whole, run again.
    manifest_path = cfg.out / "manifest.json"
    manifest_path.write_text(manifest_path.read_text()[:25])
    other = cfg.out / "cells" / "D_simple_r1.json"
    other.write_text(other.read_text().replace(cfg.fingerprint(), "0" * 64))
    failed = cfg.out / "cells" / "S_simple_r0.json"
    result = json.loads(failed.read_text())
    result.update(rows={}, errors=[["cell", "interrupted"]], seconds=[])
    failed.write_text(json.dumps(result))
    run_experiment(cfg, resume=True)
    assert json.loads(manifest_path.read_text())["generated_last_run"] == 4
    assert (cfg.out / "report.csv").read_bytes() == fresh


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_resume_after_a_killed_run_matches_an_uninterrupted_one(tmp_path):
    # 48 replicates of 3 datasets: the run is killed once its first cell
    # file appears, long before its last.
    grid = {
        "synthesizers": [{"base": "S"}, {"base": "D"}, {"base": "CC"}],
        "proper": [False, True],
        "m": [1, 3],
    }
    cfg_path = write_project(tmp_path, grid=grid, k=8)
    whole = load_config(cfg_path, out=tmp_path / "whole")
    run_experiment(whole)
    out = tmp_path / "killed"
    command, env = _experiment_command(cfg_path, out)
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while proc.poll() is None and not any((out / "cells").glob("*.json")):
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=300)
    assert proc.returncode == -signal.SIGKILL
    kept = [json.loads(path.read_text()) for path in (out / "cells").glob("*.json")]
    assert 0 < len(kept) < 48 and not (out / "manifest.json").exists()

    subprocess.run(command + ["--resume"], check=True, env=env, capture_output=True, timeout=300)
    assert (out / "report.csv").read_bytes() == (whole.out / "report.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    total = json.loads((whole.out / "manifest.json").read_text())["datasets_generated"]
    assert manifest["generated_last_run"] == total - sum(len(cell["seconds"]) for cell in kept)


def test_non_proper_fits_are_made_once_per_experiment(tmp_path, monkeypatch):
    fitted, per_call = [], []
    real_fit_cart = synthesis.fit_cart

    def counting_fit_cart(problems):
        fitted.extend(p.X.names for p in problems)
        per_call.append(len(problems))
        return real_fit_cart(problems)

    monkeypatch.setattr(synthesis, "fit_cart", counting_fit_cart)
    # D on (x, y, c): x is drawn marginally, y and c from trees on (x) and
    # (x, y). The grid has m in {1, 3} and k = 2: two replicates of 3
    # datasets. The shared phase grows the two non-proper trees as one
    # forest; a proper replicate grows the trees of all its datasets as one.
    for proper, expected, calls in (
        (False, [("x",), ("x", "y")], [2]),
        (True, [("x",), ("x", "y")] * 6, [6, 6]),
    ):
        root = tmp_path / f"proper_{proper}"
        root.mkdir()
        grid = {"synthesizers": [{"base": "D"}], "proper": [proper], "m": [1, 3]}
        cfg = load_config(write_project(root, grid=grid, metrics={"kl_normalize": False}))
        fitted.clear()
        per_call.clear()
        report, _ = run_experiment(cfg)
        assert not report.errors
        assert fitted == expected
        assert per_call == calls


def test_s_fits_each_column_once_in_both_modes(tmp_path, monkeypatch):
    # S's steps carry no predictors, so its selective steps equal its simple
    # ones whatever the map: one fit per column of fixture-A, not one more
    # for each column whose predictor set the map changes.
    sampled = []
    real_fit_step = synthesis.fit_step

    def counting_fit_step(step, fit_ds):
        if step.method is Method.SAMPLE:
            sampled.append(step)
        return real_fit_step(step, fit_ds)

    monkeypatch.setattr(synthesis, "fit_step", counting_fit_step)
    ds = make_fixture_a(n=200)
    write_csv(ds, tmp_path / "data.csv")
    write_schema(ds.schema, tmp_path / "schema.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": "data.csv",
        "schema": "schema.json",
        "grid": {
            "synthesizers": [{"base": "S"}],
            "m": [1],
            "predictor_modes": ["simple", "selective"],
            "selective": {"y": ["x"], "c2": ["c1"]},
        },
        "k": 1,
        "metrics": {"regression": False},
    }))
    report, _ = run_experiment(load_config(tmp_path / "config.json"))
    assert not report.errors
    assert len(sampled) == len(ds.schema) == 5


@pytest.fixture(scope="module")
def replicate_run(tmp_path_factory):
    """Proper and non-proper labels at m in {1, 2, 3}, two replicates each."""
    root = tmp_path_factory.mktemp("replicates")
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}], "proper": [False, True], "m": [1, 2, 3]}
    cfg = load_config(write_project(root, grid=grid, k=2))
    report, timings = run_experiment(cfg)
    assert not report.errors
    return cfg, report, timings


def _replicate_sets(cfg):
    """Each replicate's synthetic set as written, by (label, mode, rep)."""
    schema = load_original(cfg).schema
    sets = {}
    for path in sorted((cfg.out / "synth").iterdir()):
        label, mode, rep = path.name.split("_")
        sets[(label, mode, int(rep.removeprefix("r")))] = load_synthetic_set(path, schema)
    return sets


def test_each_cell_scores_the_first_m_datasets_of_its_replicate(replicate_run):
    cfg, report, _ = replicate_run
    original = load_original(cfg)
    fits, predicates = load_fitspecs(cfg.fitspecs), load_adhoc(cfg.adhoc)
    side = original_side(original, cfg.metrics, fits, predicates)
    sets = _replicate_sets(cfg)
    assert sorted(sets) == [(label, "simple", rep) for label in ("D", "DT", "S", "ST") for rep in (0, 1)]
    for (label, mode, rep), sset in sets.items():
        assert sset.m == 3
        for m in (1, 2, 3):
            first = dataclasses.replace(
                sset, datasets=sset.datasets[:m], wall_times=sset.wall_times[:m]
            )
            rows, errors = metric_rows(original, first, cfg.metrics, fits, predicates, side=side)
            assert not errors and list(rows) == [m]
            cell = {
                (r.metric, r.scope): r.value
                for r in report.rows
                if (r.label, r.mode, r.m, r.k) == (label, mode, m, rep)
                and not r.metric.startswith("kl_norm")
            }
            assert cell == {(metric, scope): value for metric, scope, value in rows[m]}


def test_the_kl_baseline_counts_each_distinct_s_dataset_once(replicate_run):
    cfg, report, _ = replicate_run
    original = load_original(cfg)
    s_sets = [sset for (label, _, _), sset in _replicate_sets(cfg).items() if label == "S"]
    assert len(s_sets) == 2
    raw = report.values("kl_raw")
    for col in original.schema.columns:
        scores = [
            kl_divergence(original.column(col.name), ds.column(col.name), col.kind)
            for sset in s_sets
            for ds in sset.datasets
        ]
        baseline = math.fsum(scores) / len(scores)
        for (label, mode, m, rep, scope), v in report.values("kl_norm").items():
            if scope == f"var:{col.name}":
                assert v == pytest.approx(raw[(label, mode, m, rep, scope)] / baseline, rel=1e-12)


def test_timings_hold_the_first_m_dataset_seconds_of_each_cell(replicate_run):
    cfg, _, timings = replicate_run
    with open(cfg.out / "timings.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(timings) == 4 * (1 + 2 + 3) * 2  # labels x sum(m) x k
    assert read_timings(cfg.out) == timings
    for row in rows:
        key = f"{row['label']}_{row['mode']}_r{row['rep']}"
        manifest = json.loads((cfg.out / "synth" / key / "manifest.json").read_text())
        assert int(row["dataset"]) < int(row["m"])
        assert float(row["seconds"]) == manifest["wall_times"][int(row["dataset"])]


def _experiment_command(cfg_path, out):
    """The ``synthbench experiment`` command line of a fresh process that
    imports this source tree, and its environment."""
    src = str(Path(synthbench.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "synthbench.cli", "experiment",
               "--config", str(cfg_path), "--out", str(out)]
    return command, {**os.environ, "PYTHONPATH": path}


def _run_in_fresh_process(cfg_path, out):
    command, env = _experiment_command(cfg_path, out)
    subprocess.run(command, check=True, env=env, capture_output=True, timeout=300)
    return (out / "report.csv").read_bytes()


def test_back_to_back_experiments_match_fresh_processes(tmp_path):
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}, {"base": "CC"}], "m": [2]}
    first, second = [tmp_path / name for name in ("first", "second")]
    for root in (first, second):
        root.mkdir()
        write_project(root, grid=grid, k=1)
    # Same schema and grid, other values: every fit key of the first run
    # recurs in the second.
    data = second / "data.csv"
    lines = data.read_text().splitlines()
    for i in range(1, len(lines)):
        x, y, c = lines[i].split(",")
        lines[i] = ",".join([x, repr(-2.0 * float(y)), c])
    data.write_text("\n".join(lines) + "\n")

    in_process = []
    for root in (first, second):
        cfg = load_config(root / "config.json")
        run_experiment(cfg)
        in_process.append((cfg.out / "report.csv").read_bytes())
    fresh = [_run_in_fresh_process(root / "config.json", root / "fresh") for root in (first, second)]
    assert in_process[0] != in_process[1]
    assert in_process == fresh


def test_jobs_do_not_change_report_bytes(mini_run, tmp_path):
    root, cfg, _, _ = mini_run
    serial = (cfg.out / "report.csv").read_bytes()
    cfg_par = load_config(root / "config.json", out=tmp_path / "par")
    run_experiment(cfg_par, jobs=4)
    assert (tmp_path / "par" / "report.csv").read_bytes() == serial


def _fit_log(monkeypatch, log):
    """Append a line to ``log`` for each synthesis fit, a donor tree grown
    in a forest included, made by this process or by a worker forked from
    it: the label of the replicate that made it inside ``_run_cell``,
    otherwise "shared"."""
    real_fit_step, real_fit_cart, real_run_cell = (
        synthesis.fit_step, synthesis.fit_cart, harness._run_cell
    )
    inside = ["shared"]

    def note(count):
        with open(log, "a") as fh:
            fh.write(f"{inside[0]}\n" * count)

    def counting_fit_step(step, fit_ds):
        if not step.grows_tree:  # a tree counts where it grows
            note(1)
        return real_fit_step(step, fit_ds)

    def counting_fit_cart(problems):
        note(len(problems))
        return real_fit_cart(problems)

    @functools.wraps(real_run_cell)
    def marking_run_cell(replicate, *args):
        inside[0] = replicate[0]
        try:
            return real_run_cell(replicate, *args)
        finally:
            inside[0] = "shared"

    monkeypatch.setattr(synthesis, "fit_step", counting_fit_step)
    monkeypatch.setattr(synthesis, "fit_cart", counting_fit_cart)
    monkeypatch.setattr(harness, "_run_cell", marking_run_cell)


def _fits_since_last_call(log):
    """Where each fit logged since the last call was made."""
    made = log.read_text().splitlines() if log.exists() else []
    log.unlink(missing_ok=True)
    return made


def _start_method():
    """The start method of new pools, without fixing it as asking the
    default context would."""
    method = multiprocessing.get_start_method(allow_none=True)
    return method or multiprocessing.get_all_start_methods()[0]


def _failing_cp_project(tmp_path):
    """20 rows cannot serve 25 predictive-mean-matching donors: the shared
    CP fits of x and y raise, each once, in the fit phase only; every CP
    cell is sent their errors and raises x's."""
    grid = {"synthesizers": [{"base": "S"}, {"base": "CP"}], "m": [1, 2]}
    cfg_path = write_project(tmp_path, grid=grid)
    doc = json.loads(cfg_path.read_text())
    doc.update(pmm_k=25, preprocess={"head_n": 20})
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


@pytest.mark.skipif(
    _start_method() != "fork", reason="the workers must inherit the counting fit_step"
)
@pytest.mark.parametrize("failing", [False, True], ids=["fits-succeed", "a-fit-raises"])
def test_the_pool_fits_as_often_as_one_process(tmp_path, monkeypatch, failing):
    log = tmp_path / "fits.log"
    _fit_log(monkeypatch, log)
    grid = {
        "synthesizers": [{"base": "S"}, {"base": "D"}, {"base": "CC"}],
        "proper": [False, True],
        "m": [1, 2],
    }
    cfg_path = _failing_cp_project(tmp_path) if failing else write_project(tmp_path, grid=grid, k=2)
    fits, outputs = {}, {}
    for jobs in (1, 2):
        cfg = load_config(cfg_path, out=tmp_path / f"jobs{jobs}")
        report, _ = run_experiment(cfg, jobs=jobs)
        assert bool(report.errors) == failing
        fits[jobs] = _fits_since_last_call(log)
        outputs[jobs] = output_bytes(cfg.out)
        # a non-proper replicate draws from the shared fits it was given
        non_proper = {label for _, proper, label in cfg.labels() if not proper}
        assert non_proper.isdisjoint(fits[jobs])
    assert fits[1] and len(fits[2]) == len(fits[1])
    assert outputs[2] == outputs[1]


def _log_baselines(monkeypatch, log):
    """Append the id of the calling process to ``log`` for each classifier
    baseline that ``harness`` computes, in this process or a forked one."""
    real = harness.classifier_baseline

    def logging_baseline(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "classifier_baseline", logging_baseline)


@pytest.mark.skipif(
    _start_method() != "fork", reason="the workers must inherit the logging classifier_baseline"
)
def test_no_pool_worker_computes_an_original_side_value(tmp_path, monkeypatch):
    log = tmp_path / "baselines.log"
    _log_baselines(monkeypatch, log)
    report, _ = run_experiment(load_config(write_project(tmp_path)), jobs=2)
    assert not report.errors
    assert log.read_text().split() == [str(os.getpid())]


def _add_a_fit_that_fails_on_the_original(root):
    """Give the project at ``root`` a numeric column named "intercept" and
    the fit "own" of y on it, which repeats the intercept's coefficient name,
    so that its estimands raise on the original. Returns the fits document
    as it was."""
    header, *lines = (root / "data.csv").read_text().splitlines()
    noise = np.random.default_rng(5).normal(size=len(lines))
    rows = [f"{header},intercept"] + [f"{ln},{float(v)!r}" for ln, v in zip(lines, noise)]
    (root / "data.csv").write_text("\n".join(rows) + "\n")
    schema = json.loads((root / "schema.json").read_text())
    schema["columns"].append({"name": "intercept", "kind": "numeric"})
    (root / "schema.json").write_text(json.dumps(schema))
    good = (root / "fits.json").read_text()
    own = {"id": "own", "family": "linear", "target": "y", "predictors": ["intercept"]}
    (root / "fits.json").write_text(json.dumps({"fits": json.loads(good)["fits"] + [own]}))
    return good


def test_a_family_that_fails_on_the_original_fails_alone_in_every_cell(tmp_path):
    # Fit "own"'s estimands raise on the original, once, in the parent.
    # Every cell, in this process or a worker, must still record that error
    # and keep the rows of every other family: its report equals that of a
    # run without the fit.
    cfg_path = write_project(tmp_path)
    good = _add_a_fit_that_fails_on_the_original(tmp_path)
    outputs = {}
    for jobs in (1, 2):
        cfg = load_config(cfg_path, out=tmp_path / f"jobs{jobs}")
        report, _ = run_experiment(cfg, jobs=jobs)
        cells = sorted({(r.label, r.mode, r.m, r.k) for r in report.rows})
        assert len(cells) == 8  # S and D, m in {1, 2}, k = 2
        assert [tuple(e[:4]) for e in sorted(report.errors)] == cells
        assert {(e.stage, e.message) for e in report.errors} == {
            ("fit:own", "fit 'own': coefficient name 'intercept' repeats")
        }
        outputs[jobs] = output_bytes(cfg.out)
    assert outputs[2] == outputs[1]
    (tmp_path / "fits.json").write_text(good)
    reference = load_config(cfg_path, out=tmp_path / "without")
    run_experiment(reference)
    assert (reference.out / "report.csv").read_bytes() == outputs[1][Path("report.csv")]
    assert not (reference.out / "errors.csv").exists()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_jobs_do_not_change_the_outputs_under_any_start_method(tmp_path, method):
    # A worker that does not fork gets the experiment, the original-side
    # values and the exception that fit "own" stored among them, pickled.
    # On the failing CP project a worker sends back the errors of the shared
    # PMM fits, and each CP replicate's worker gets them, pickled again.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no start method {method!r} on this platform")
    grid = {
        "synthesizers": [{"base": b} for b in ("S", "D", "CC", "P")],
        "proper": [False, True],
        "m": [1, 2],
    }
    for name in ("fit-own", "failing-cp"):
        (tmp_path / name).mkdir()
    fit_own = write_project(tmp_path / "fit-own", grid=grid, k=1)
    _add_a_fit_that_fails_on_the_original(tmp_path / "fit-own")
    script = (
        "import multiprocessing, sys\n"
        "from synthbench.cli import main\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    failing_cp = _failing_cp_project(tmp_path / "failing-cp")
    for cfg_path, stage in [(fit_own, "fit:own"), (failing_cp, "cell")]:
        serial = load_config(cfg_path, out=cfg_path.parent / "jobs1")
        report, _ = run_experiment(serial)
        assert {e.stage for e in report.errors} == {stage}
        command, env = _experiment_command(cfg_path, cfg_path.parent / "jobs2")
        argv = [sys.executable, "-c", script, method, *command[3:], "--jobs", "2"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 2, done.stderr  # a failed fit, not a crash
        assert output_bytes(cfg_path.parent / "jobs2") == output_bytes(serial.out)


@pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 1)])
def test_a_run_starts_at_most_one_pool(tmp_path, monkeypatch, jobs, pools):
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}, {"base": "CC"}], "m": [1, 2]}
    report, _ = run_experiment(load_config(write_project(tmp_path, grid=grid)), jobs=jobs)
    assert not report.errors
    assert len(started) == pools


def test_a_shared_fit_that_raises_fails_its_cells_alike_at_any_jobs(tmp_path):
    cfg_path = _failing_cp_project(tmp_path)
    outputs = {}
    for jobs in (1, 2):
        cfg = load_config(cfg_path, out=tmp_path / f"jobs{jobs}")
        report, _ = run_experiment(cfg, jobs=jobs)
        assert {(e.label, e.stage) for e in report.errors} >= {("CP", "cell")}
        assert all("pmm_k=25" in e.message for e in report.errors if e.label == "CP")
        outputs[jobs] = output_bytes(cfg.out)
    assert outputs[2] == outputs[1]


def test_resume_of_a_finished_grid_fits_nothing(mini_run, tmp_path, monkeypatch):
    root, cfg, _, _ = mini_run
    before = output_bytes(cfg.out)
    log = tmp_path / "fits.log"
    _fit_log(monkeypatch, log)
    _log_baselines(monkeypatch, tmp_path / "baselines.log")
    run_experiment(cfg, jobs=2, resume=True)
    assert _fits_since_last_call(log) == []
    assert not (tmp_path / "baselines.log").exists()  # nor an original-side value
    assert json.loads((cfg.out / "manifest.json").read_text())["generated_last_run"] == 0
    assert output_bytes(cfg.out) == before


def test_results_files_are_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale without UTF-8 mode, the locale's encoding is ASCII:
    # experiment ran every replicate, then failed writing report.csv.
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    fits = json.loads((tmp_path / "fits.json").read_text())
    fits["fits"][0]["id"] = "a\u00f1o"
    (tmp_path / "fits.json").write_text(json.dumps(fits))
    out = tmp_path / "results"
    command, env = _experiment_command(cfg_path, out)
    env.update(LC_ALL="C", PYTHONUTF8="0")
    for argv in (command, command[:3] + ["report", "--out", str(out)]):
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert "fit:a\u00f1o" in (out / "report.csv").read_bytes().decode("utf-8")


def test_a_table_whose_rows_raise_leaves_the_old_file(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"label,value\r\nS,1.0\r\n")

    def rows():
        yield ("D", 2.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        synthbench.tables._write_table(path, ("label", "value"), rows())
    assert path.read_bytes() == b"label,value\r\nS,1.0\r\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_byte_order_mark_at_the_start_of_an_input_file_is_ignored(mini_run, tmp_path):
    # Excel's "CSV UTF-8" starts a file with one; RFC 8259 lets a JSON
    # parser ignore it.
    root, cfg, _, _ = mini_run
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("data.csv", "schema.json", "config.json", "fits.json", "adhoc.json"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (root / name).read_bytes())
    marked_cfg = load_config(bom / "config.json")
    assert marked_cfg == dataclasses.replace(
        cfg, dataset=bom / "data.csv", schema=bom / "schema.json", fitspecs=bom / "fits.json",
        adhoc=bom / "adhoc.json", out=bom / "results",
    )
    plain, marked = load_original(cfg), load_original(marked_cfg)
    assert marked.schema == plain.schema
    assert all(np.array_equal(a, b) for a, b in zip(marked.columns, plain.columns))
    assert load_metric_inputs(marked_cfg, marked.schema) == load_metric_inputs(cfg, plain.schema)
    results = tmp_path / "results"
    results.mkdir()
    for name in ("report.csv", "timings.csv"):
        (results / name).write_bytes(b"\xef\xbb\xbf" + (cfg.out / name).read_bytes())
    assert read_report(results) == read_report(cfg.out)
    assert read_timings(results) == read_timings(cfg.out)


def test_read_report_round_trip(mini_run):
    root, cfg, report, _ = mini_run
    back = read_report(cfg.out)
    assert sorted(back.rows) == sorted(report.rows)
    with pytest.raises(ConfigError):
        read_report(cfg.out / "nowhere")


def _replace_last_field(line, text):
    return line.rsplit(",", 1)[0] + text


@pytest.mark.parametrize(
    "table, row, edit, problem",
    [
        ("report.csv", 1, lambda line: _replace_last_field(line, ",abc"),
         "row 2, field 'value': cannot parse 'abc' as a number"),
        ("report.csv", 2, lambda line: _replace_last_field(line, ""),
         "row 3 lacks the field 'value'"),
        ("report.csv", 1, lambda line: line + ",7", "row 2 has more fields than the header"),
        ("timings.csv", 2, lambda line: _replace_last_field(line, ",1.5s"),
         "row 3, field 'seconds': cannot parse '1.5s' as a number"),
        ("timings.csv", 1, lambda line: _replace_last_field(line, ""),
         "row 2 lacks the field 'seconds'"),
        ("errors.csv", 1, lambda line: line.replace(",1,", ",one,", 1),
         "row 2, field 'm': cannot parse 'one' as an integer"),
    ],
    ids=[
        "report-value-not-a-number",
        "report-row-lacks-value",
        "report-row-too-wide",
        "timings-seconds-not-a-number",
        "timings-row-lacks-seconds",
        "errors-m-not-an-integer",
    ],
)
def test_a_malformed_results_row_is_an_input_error(
    mini_run, tmp_path, capsys, table, row, edit, problem
):
    _, cfg, _, _ = mini_run
    out = tmp_path / "results"
    out.mkdir()
    for name in ("report.csv", "timings.csv"):
        shutil.copy(cfg.out / name, out / name)
    (out / "errors.csv").write_text("label,mode,m,k,stage,message\nS,simple,1,1,cell,boom\n")
    lines = (out / table).read_text().splitlines()
    lines[row] = edit(lines[row])
    (out / table).write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out / table}: {problem}\n"


def test_a_results_table_that_does_not_decode_is_an_input_error(mini_run, tmp_path, capsys):
    _, cfg, _, _ = mini_run
    out = tmp_path / "results"
    out.mkdir()
    shutil.copy(cfg.out / "report.csv", out / "report.csv")
    (out / "timings.csv").write_bytes((cfg.out / "timings.csv").read_bytes() + b"\xff\n")
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'timings.csv'}: not ") and "Traceback" not in err


def test_emit_tables(mini_run):
    root, cfg, report, timings = mini_run
    written = emit_tables(report, cfg.out, timings)
    for t in ("mpe_apo", "cio_vs_m", "apo_vs_m", "kl_norm", "apo_vs_time"):
        assert t in written and written[t].exists(), t
    # single predictor mode: the mode table is skipped quietly in auto mode
    assert "mode_compare" not in written
    with pytest.raises(MetricError):
        emit_tables(report, cfg.out, timings, requested=("mode_compare",))
    with pytest.raises(ConfigError):
        emit_tables(report, cfg.out, timings, requested=("nonsense",))
    lines = (cfg.out / "tables" / "cio_vs_m.csv").read_text().splitlines()
    assert lines[0] == "series,m,value"
    assert len(lines) == 1 + 4  # {S, D} x m {1, 2}


def test_correlations_tables_bytes(tmp_path):
    # Series share only some (label, mode, m) cells; a pair is correlated on
    # the cells both hold, and kept only when it shares at least three.
    report = UtilityReport()
    cells = [("D", "simple", 1), ("D", "simple", 5), ("P", "simple", 1), ("P", "simple", 5)]
    for cell, v in zip(cells, (0.1, 0.4, 0.2, 0.9)):
        report.add(*cell, 0, "rf_apo", "", v)
    report.add("D", "selective", 1, 0, "rf_apo", "", 0.3)
    report.add("D", "simple", 1, 0, "rf_apo", "fit:f1", 0.7)  # a scoped row is no series value
    # D/simple/1 averages two repetitions: 0.5 and 0.75.
    for k, v in enumerate((0.5, 0.75)):
        report.add("D", "simple", 1, k, "rf_avg_cio", "", v)
    for cell, v in zip([cells[1], cells[2], ("S", "simple", 1)], (0.5, 0.25, 0.9)):
        report.add(*cell, 0, "rf_avg_cio", "", v)
    for cell in cells:
        report.add(*cell, 0, "kl_norm_avg", "", 2.0)  # constant
    for cell in cells[:3]:
        report.add(*cell, 0, "mpe_apo", "", 0.5)  # constant
    for cell, v in zip(cells[1:] + [("D", "selective", 1)], (3.0, 1.0, 2.0, 5.0)):
        report.add(*cell, 0, "adhoc_dev", "pred:p1", v)
    for cell, v in zip(cells[:2], (0.1, 0.2)):
        report.add(*cell, 0, "clf_acc_dev", "", v)  # shares two cells at most
    written = emit_tables(report, tmp_path, requested=("correlations",))
    tables = tmp_path / "tables"
    assert written == {"correlations": tables / "correlations.csv"}
    assert sorted(p.name for p in tables.iterdir()) == [
        "correlations.csv", "correlations_skipped.csv"
    ]
    # By hand: r = -0.25 / sqrt(8.75 * 0.29) on the four cells adhoc_dev:p1
    # and rf_apo share, and -1/7 on the three rf_apo and rf_avg_cio share.
    # A constant series is named, the x series when both are constant.
    assert (tables / "correlations.csv").read_bytes() == (
        b"series_x,series_y,r,n\r\n"
        b"adhoc_dev:p1,rf_apo,-0.1569412051435861,4\r\n"
        b"rf_apo,rf_avg_cio,-0.14285714285714285,3\r\n"
    )
    assert (tables / "correlations_skipped.csv").read_bytes() == (
        b"series_x,series_y,reason\r\n"
        b"adhoc_dev:p1,kl_norm_avg,series 'kl_norm_avg' is constant\r\n"
        b"kl_norm_avg,mpe_apo,series 'kl_norm_avg' is constant\r\n"
        b"kl_norm_avg,rf_apo,series 'kl_norm_avg' is constant\r\n"
        b"kl_norm_avg,rf_avg_cio,series 'kl_norm_avg' is constant\r\n"
        b"mpe_apo,rf_apo,series 'mpe_apo' is constant\r\n"
        b"mpe_apo,rf_avg_cio,series 'mpe_apo' is constant\r\n"
    )


def test_a_clean_rewrite_removes_the_files_that_only_failures_write(tmp_path):
    # errors.csv and correlations_skipped.csv are written only when they have
    # rows, so results rewritten without any must not keep the old ones.
    failed, clean = UtilityReport(), UtilityReport()
    for m, v in zip((1, 2, 3), (0.1, 0.4, 0.2)):
        for report in (failed, clean):
            report.add("D", "simple", m, 0, "rf_apo", "", v)
        failed.add("D", "simple", m, 0, "kl_norm_avg", "", 2.0)  # constant
        clean.add("D", "simple", m, 0, "kl_norm_avg", "", v * v)
    failed.errors.append(ReportError("S", "simple", 2, 0, "kl", "ValueError: boom"))
    tables = tmp_path / "tables"
    write_report(failed, tmp_path)
    emit_tables(failed, tmp_path, requested=("correlations",))
    assert (tmp_path / "errors.csv").exists() and (tables / "correlations_skipped.csv").exists()
    write_report(clean, tmp_path)
    emit_tables(clean, tmp_path, requested=("correlations",))
    assert not (tmp_path / "errors.csv").exists()
    assert read_report(tmp_path).errors == []
    assert sorted(p.name for p in tables.iterdir()) == ["correlations.csv"]


def test_a_table_without_inputs_removes_its_files_of_an_earlier_run(tmp_path):
    # A simple-only rerun into the same out kept the first run's mode_compare
    # and correlations tables, which no longer matched report.csv.
    grid = {"synthesizers": [{"base": "S"}, {"base": "P"}], "m": [2],
            "predictor_modes": ["simple", "selective"], "selective": {"y": ["x"]}}
    both = load_config(write_project(tmp_path, grid=grid, k=1))
    tables = both.out / "tables"
    report, timings = run_experiment(both)
    assert {"mode_compare", "correlations"} <= set(emit_tables(report, both.out, timings))
    before = {p.name: p.read_bytes() for p in tables.iterdir()}
    simple = dataclasses.replace(both, predictor_modes=("simple",))
    report, timings = run_experiment(simple)
    # a table asked for by name that lacks its inputs is an error that removes nothing
    with pytest.raises(MetricError, match="mode_compare"):
        emit_tables(report, both.out, timings, requested=("mode_compare",))
    assert {p.name: p.read_bytes() for p in tables.iterdir()} == before
    written = emit_tables(report, both.out, timings)
    assert not {"mode_compare", "correlations"} & set(written)
    assert sorted(p.name for p in tables.iterdir()) == sorted(f"{t}.csv" for t in written)
    assert {r.mode for r in read_report(both.out).rows} == {"simple"}


def test_metric_rows_isolates_failing_fits(mini_run, monkeypatch):
    root, cfg, _, _ = mini_run
    original = load_original(cfg)
    from synthbench.estimands import load_fitspecs
    from synthbench.synthesis import build_spec, synthesize

    fits = load_fitspecs(cfg.fitspecs)
    sset = synthesize(original, build_spec(original.schema, "S", m=2, seed=1))

    def broken(ds, fit):
        raise MetricError(f"forced failure for {fit.id}")

    monkeypatch.setattr(harness, "regression_estimands", broken)
    side = original_side(original, cfg.metrics, fits, ())
    rows, errors = metric_rows(original, sset, cfg.metrics, fits, (), side=side)
    assert errors == [("fit:f1", "forced failure for f1")]
    names = {r[0] for r in rows[2]}
    assert "rf_cio" not in names and "mpe_apo" in names  # other metrics intact


def test_both_sides_of_a_family_use_one_scorer(tmp_path):
    # The original, scored as a synthetic set of two copies of itself,
    # matches itself exactly in every family.
    cfg = load_config(write_project(tmp_path))
    original = load_original(cfg)
    fits = (*load_fitspecs(cfg.fitspecs), FitSpec("lg", "logistic", "c", ("y",)))
    predicates = load_adhoc(cfg.adhoc)
    side = original_side(original, cfg.metrics, fits, predicates)
    sset = SyntheticSet("S", 0, (original, original), (0.0, 0.0))
    rows, errors = metric_rows(original, sset, cfg.metrics, fits, predicates, side=side)
    assert errors == []
    estimands = {f"var:{name}": qv for name, qv in side["mean_point"].items()}
    for fit in fits:
        coefs = side[f"fit:{fit.id}"]
        estimands.update((f"fit:{fit.id}:coef:{name}", qv) for name, qv in coefs.items())
    assert any(scope.startswith("fit:lg:coef:") for scope in estimands)
    scored = {"kl_raw": 0, "adhoc_dev": 0, "clf_acc_dev": 0, "clf_agreement": 0}
    for metric, scope, value in rows[2]:
        if metric in ("mpe_cio", "rf_cio"):
            q, v = estimands.pop(scope)
            # Ts at m = 2 is (1 + 1/2) v
            assert value == cio(normal_interval(q, v), normal_interval(q, 1.5 * v)), scope
        elif metric in scored:
            scored[metric] += 1
            assert value == (1.0 if metric == "clf_agreement" else 0.0), (metric, scope)
    assert estimands == {}
    assert scored == {"kl_raw": 3, "adhoc_dev": 1, "clf_acc_dev": 1, "clf_agreement": 1}


def test_a_dataset_whose_fit_has_other_classes_is_named_with_its_coefficients():
    rng = np.random.default_rng(5)
    schema = Schema((Column("x", ColumnKind.numeric()),
                     Column("z", ColumnKind.categorical(("a", "b", "c")))))
    original = Dataset(schema, (rng.uniform(0, 1, 60), np.arange(60) % 3))
    two_classes = Dataset(schema, (rng.uniform(0, 1, 60), np.arange(60) % 2))
    sset = SyntheticSet("S", 0, (original, two_classes), (0.0, 0.0))
    settings = MetricSettings(kl=False)
    fits = (FitSpec("lg", "logistic", "z", ("x",)),)
    side = original_side(original, settings, fits, ())
    assert list(side["fit:lg"]) == ["b:intercept", "b:x", "c:intercept", "c:x"]
    rows, errors = metric_rows(original, sset, settings, fits, (), ms=(1, 2), side=side)
    assert errors == [(
        "fit:lg",
        "synthetic dataset 1 fit a different coefficient set: it lacks ['c:intercept', 'c:x']",
    )]
    # the fit is dropped at every m, while the mean points are kept
    for m in (1, 2):
        assert {metric for metric, _, _ in rows[m]} == {"mpe_cio", "mpe_avg_cio", "mpe_apo"}
    # the other way round, dataset 1 has the coefficients of a class the original lacks
    sset = SyntheticSet("S", 0, (two_classes, original), (0.0, 0.0))
    side = original_side(two_classes, settings, fits, ())
    _, errors = metric_rows(two_classes, sset, settings, fits, (), side=side)
    assert errors == [(
        "fit:lg",
        "synthetic dataset 1 fit a different coefficient set: "
        "it lacks [] and has the extra ['c:intercept', 'c:x']",
    )]


def test_cli_experiment_and_report(tmp_path, capsys):
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1, 2]}
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    out = tmp_path / "results"
    assert (out / "report.csv").exists()
    tables = {p.name: p.read_bytes() for p in (out / "tables").iterdir()}
    assert "apo_vs_time.csv" in tables
    shutil.rmtree(out / "tables")
    assert main(["report", "--out", str(out), "--tables", "mpe_apo", "apo_vs_time"]) == 0
    assert sorted(p.name for p in (out / "tables").iterdir()) == ["apo_vs_time.csv", "mpe_apo.csv"]
    # every table, apo_vs_time too, comes back byte for byte
    assert main(["report", "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in (out / "tables").iterdir()} == tables
    capsys.readouterr()


def test_cli_generate_and_evaluate(tmp_path, capsys):
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    gen_dir = tmp_path / "gen"
    assert main([
        "generate", "--config", str(cfg_path), "--spec", "S", "--m", "2",
        "--out", str(gen_dir),
    ]) == 0
    assert (gen_dir / "ds000.csv").exists() and (gen_dir / "ds001.csv").exists()
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--config", str(cfg_path), "--syn", str(gen_dir),
        "--out", str(eval_out),
    ]) == 0
    assert (eval_out / "report.csv").exists()
    capsys.readouterr()


def test_cli_generate_with_an_ordered_label(tmp_path, capsys):
    grid = {
        "synthesizers": [{"base": "S"}, {"base": "D", "order": "opposite"}],
        "proper": [False, True],
        "m": [1],
    }
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    gen_dir = tmp_path / "gen"
    assert main([
        "generate", "--config", str(cfg_path), "--spec", "DOT", "--m", "2",
        "--out", str(gen_dir),
    ]) == 0
    # the fit + draw + write seconds of each dataset, their total and mean
    printed = capsys.readouterr().out
    assert printed.startswith(f"wrote 2 datasets to {gen_dir} in ")
    assert printed.rstrip().endswith("s per dataset: fit, draw and write)")
    wall_times = json.loads((gen_dir / "manifest.json").read_text())["wall_times"]
    assert len(wall_times) == 2 and all(t >= 0.0 for t in wall_times)
    total = float(printed.split(" in ")[1].split("s ")[0])
    assert total == pytest.approx(sum(wall_times), abs=1e-3)
    cfg = load_config(cfg_path)
    original = load_original(cfg)
    spec = build_spec(
        original.schema, "D", order="opposite", proper=True, m=2, seed=cfg.seed,
        pmm_k=cfg.pmm_k, min_leaf=cfg.min_leaf,
    )
    expected = synthesize(original, spec)
    written = load_synthetic_set(gen_dir, original.schema)
    assert written.label == "DOT"
    for got, want in zip(written.datasets, expected.datasets, strict=True):
        for a, b in zip(got.columns, want.columns, strict=True):
            assert np.array_equal(a, b)
    # a label outside the grid is a configuration error
    assert main(["generate", "--config", str(cfg_path), "--spec", "P", "--m", "2"]) == 1
    capsys.readouterr()


def test_cli_generate_builds_the_simple_spec_of_a_selective_only_grid(tmp_path, capsys):
    grid = {
        "synthesizers": [{"base": "S"}, {"base": "D"}],
        "m": [1],
        "predictor_modes": ["selective"],
        # simple mode draws c, which x fixes, from x and y
        "selective": {"c": ["y"]},
    }
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    gen_dir = tmp_path / "gen"
    assert main([
        "generate", "--config", str(cfg_path), "--spec", "D", "--m", "2",
        "--out", str(gen_dir),
    ]) == 0
    cfg = load_config(cfg_path)
    original = load_original(cfg)
    spec = build_spec(
        original.schema, "D", m=2, seed=cfg.seed, pmm_k=cfg.pmm_k, min_leaf=cfg.min_leaf,
        selective=None,
    )
    expected = synthesize(original, spec)
    written = load_synthetic_set(gen_dir, original.schema)
    for got, want in zip(written.datasets, expected.datasets, strict=True):
        for a, b in zip(got.columns, want.columns, strict=True):
            assert np.array_equal(a, b)
    capsys.readouterr()
    # the error names the option, not the first spec of the grid
    assert main(["generate", "--config", str(cfg_path), "--spec", "D", "--m", "0"]) == 1
    assert capsys.readouterr().err == "error: --m must be >= 1, got 0\n"


def test_kl_normalization_by_baseline():
    report = UtilityReport()
    raws = {
        ("S", 2, 0): (0.2, 0.3, 0.0),
        ("S", 2, 1): (0.0, 0.3, 0.0),  # a zero baseline repetition is no error
        ("S", 1, 0): (0.5, 0.0, 0.0),
        ("D", 2, 0): (0.36, 0.72, 0.4),
        ("D", 2, 1): (0.18, 0.24, 0.4),
    }
    for (label, m, rep), values in raws.items():
        for scope, v in zip(("var:x", "var:y", "var:z"), values):
            report.add(label, "simple", m, rep, "kl_raw", scope, v)
    cells = sorted((label, "simple", m, rep) for label, m, rep in raws)
    harness._add_normalized_kl(report, cells)
    # Pooled over the S cells at the largest m, which hold every distinct S
    # dataset (the m = 1 cell scores the first dataset of rep 0 again):
    # x (0.2 + 0.0) / 2 = 0.1, y (0.3 + 0.3) / 2 = 0.3, z 0 (undefined, so
    # no kl_norm).
    assert report.values("kl_norm") == {
        ("D", "simple", 2, 0, "var:x"): pytest.approx(3.6),
        ("D", "simple", 2, 0, "var:y"): pytest.approx(2.4),
        ("D", "simple", 2, 1, "var:x"): pytest.approx(1.8),
        ("D", "simple", 2, 1, "var:y"): pytest.approx(0.8),
    }
    assert report.values("kl_norm_avg") == {
        ("D", "simple", 2, 0, ""): pytest.approx(3.0),
        ("D", "simple", 2, 1, ""): pytest.approx(1.3),
    }
    assert report.errors == []

    # With no defined scope there is nothing to average.
    report = UtilityReport()
    for label in ("S", "D"):
        report.add(label, "simple", 1, 0, "kl_raw", "var:z", 0.0)
    harness._add_normalized_kl(report, [("D", "simple", 1, 0), ("S", "simple", 1, 0)])
    assert not report.values("kl_norm") and not report.values("kl_norm_avg")
    assert report.errors == []


def test_a_constant_column_has_no_normalized_kl(tmp_path):
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1, 2]}
    cfg_path = write_project(tmp_path, grid=grid)
    data = (tmp_path / "data.csv").read_text().splitlines()
    (tmp_path / "data.csv").write_text(
        "\n".join([data[0] + ",k"] + [line + ",only" for line in data[1:]]) + "\n"
    )
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["columns"].append({"name": "k", "kind": "categorical", "levels": ["only", "other"]})
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    cfg = load_config(cfg_path)
    report, _ = run_experiment(cfg)
    assert not report.errors
    assert not (cfg.out / "errors.csv").exists()
    raw = report.values("kl_raw")
    assert all(v == 0.0 for key, v in raw.items() if key[-1] == "var:k")
    norm = report.values("kl_norm")
    avg = report.values("kl_norm_avg")
    assert avg and set(avg) == {key[:4] + ("",) for key in norm}
    for key, v in avg.items():
        scopes = {s: n for (*cell, s), n in norm.items() if tuple(cell) == key[:4]}
        assert set(scopes) == {"var:x", "var:y", "var:c"}
        assert v == pytest.approx(sum(scopes.values()) / 3)


def _huge_x_project(tmp_path, n, bases):
    """fixture-A's first n rows with x scaled by 1e300, and fit f1, y ~ x."""
    ds = make_fixture_a(n=n)
    ds = Dataset(ds.schema, (ds.columns[0] * 1e300,) + ds.columns[1:])
    write_csv(ds, tmp_path / "data.csv")
    cols = [
        {"name": c.name, "kind": "categorical", "levels": list(c.kind.levels)}
        if c.kind.is_categorical else {"name": c.name, "kind": "numeric"}
        for c in ds.schema.columns
    ]
    (tmp_path / "schema.json").write_text(json.dumps({"columns": cols}))
    (tmp_path / "fits.json").write_text(json.dumps(
        {"fits": [{"id": "f1", "family": "linear", "target": "y", "predictors": ["x"]}]}
    ))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": "data.csv",
        "schema": "schema.json",
        "fitspecs": "fits.json",
        "grid": {"synthesizers": [{"base": b} for b in bases], "m": [2]},
        "k": 1,
        "seed": 3,
        "out": "results",
        "metrics": {"classification": {"target": "c3"}},
    }))
    return cfg_path, ds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_any_exception_in_a_cell_becomes_an_error_row(tmp_path, capsys):
    # x of magnitude 1e300 overflows the variance of its mean in the
    # mean-point family, and the design sums of the fit; the other families
    # of the cell still report.
    cfg_path, ds = _huge_x_project(tmp_path, 300, ("S", "D"))
    cfg = load_config(cfg_path)
    report, _ = run_experiment(cfg)
    assert {(e.label, e.stage) for e in report.errors} == {
        (label, stage) for label in ("S", "D") for stage in ("mean_point", "fit:f1")
    }
    for e in report.errors:
        assert e.message.startswith(
            "the mean of column 'x'" if e.stage == "mean_point" else "fit 'f1': "
        ), e
    lines = (cfg.out / "errors.csv").read_text().splitlines()
    assert lines[1].startswith("D,simple,2,0,fit:f1,")
    assert lines[2].startswith("D,simple,2,0,mean_point,")
    assert lines[3].startswith("S,simple,2,0,fit:f1,")
    def values(metric, label):
        return [key for key in report.values(metric) if key[0] == label]

    for label in ("S", "D"):
        kl = values("kl_raw", label)
        assert {key[-1] for key in kl} == {f"var:{c.name}" for c in ds.schema.columns}
        for metric in ("clf_acc_orig", "clf_acc_syn", "clf_acc_dev", "clf_agreement"):
            assert len(values(metric, label)) == 1, (label, metric)
        assert not values("mpe_cio", label)
        assert not values("rf_cio", label)
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_parametric_fits_fail_their_cells_without_nan(tmp_path, capfd):
    # P fits y on x near 1e300: the fit raises before LAPACK sees an
    # infinite matrix, so no dataset with a nan y is written and LAPACK
    # prints nothing.
    cfg_path, _ = _huge_x_project(tmp_path, 50, ("S", "P"))
    doc = json.loads(cfg_path.read_text())
    doc.update(preprocess={"drop": ["c1", "c2", "c3"]}, metrics={"kl": True})
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    report, _ = run_experiment(cfg)
    assert ("P", "cell") in {(e.label, e.stage) for e in report.errors}
    assert all(e.message.startswith("variable ") for e in report.errors if e.label == "P")
    tables = sorted(cfg.out.rglob("*.csv"))
    assert cfg.out / "synth" / "S_simple_r0" / "ds000.csv" in tables
    for path in tables:
        with open(path, newline="") as fh:
            assert not any(cell.lower() == "nan" for row in csv.reader(fh) for cell in row), path
    captured = capfd.readouterr()
    assert "DLASCL" not in captured.out + captured.err


@pytest.mark.parametrize(
    "grid, drop, label, mode, reason",
    [
        (
            {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1, 2],
             "predictor_modes": ["simple", "selective"], "selective": {"x": ["y"]}},
            [], "S", "selective", "predictor 'y' of column 'x' is visited after it",
        ),
        (
            {"synthesizers": [{"base": "S"}, {"base": "D", "order": "largest_cat_first"}],
             "m": [1, 2]},
            ["c"], "DH", "simple", "order 'largest_cat_first' needs at least one categorical column",
        ),
        (
            {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1, 2],
             "predictor_modes": ["simple", "selective"], "selective": {"x": ["x"]}},
            [], "S", "selective", "column 'x' cannot predict itself",
        ),
    ],
    ids=[
        "selective-predictor-after-its-target",
        "largest-cat-first-without-a-categorical",
        "selective-column-predicts-itself",
    ],
)
def test_a_spec_that_cannot_be_built_is_a_config_error(
    tmp_path, capsys, grid, drop, label, mode, reason
):
    # Each (label, mode) spec is built once, before any replicate runs.
    cfg_path = write_project(tmp_path, grid=grid, metrics={"kl": True})
    doc = json.loads(cfg_path.read_text())
    doc["preprocess"] = {"drop": drop}
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    message = f"synthesizer {label!r} in predictor mode {mode!r}: {reason}"
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert str(err.value) == message
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not cfg.out.exists()


@pytest.mark.parametrize("modes", [None, ["simple", "selective"]], ids=["default-modes", "both-modes"])
@pytest.mark.parametrize(
    "selective", [{"zz": ["x"]}, {"y": ["x", "zz"]}], ids=["unknown-target", "unknown-predictor"]
)
def test_a_selective_name_that_is_not_a_column_is_a_config_error_in_any_mode(
    tmp_path, capsys, selective, modes
):
    # Without selective mode, experiment and generate never read the map:
    # both exited 0 and left it unused.
    grid = {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [1], "selective": selective}
    if modes is not None:
        grid["predictor_modes"] = modes
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    out = tmp_path / "results"
    for argv in (
        ["experiment", "--config", str(cfg_path)],
        ["generate", "--config", str(cfg_path), "--spec", "D", "--m", "1"],
    ):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == "error: grid.selective: unknown column 'zz'\n", argv[0]
        assert not out.exists(), argv[0]


def test_own_order_without_order_own_is_an_input_error(tmp_path, capsys):
    # The entry ran the original order and left own_order unused.
    grid = {"synthesizers": [{"base": "S"}, {"base": "D", "own_order": ["y", "x", "c"]}], "m": [1]}
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    reason = "own_order needs order 'own', got 'original'"
    schema = load_original(load_config(cfg_path)).schema
    with pytest.raises(SpecError, match=reason):
        build_spec(schema, "D", own_order=("y", "x", "c"))
    for argv in (
        ["experiment", "--config", str(cfg_path)],
        ["generate", "--config", str(cfg_path), "--spec", "D", "--m", "1"],
    ):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: synthesizer 'D' in predictor mode 'simple': {reason}\n"
        ), argv[0]
        assert not (tmp_path / "results").exists(), argv[0]


def test_a_test_fraction_without_a_target_is_an_input_error(tmp_path, capsys):
    # The classifier stayed off and the fraction went unused.
    metrics = {"classification": {"test_fraction": 0.3}, "adhoc": True}
    cfg_path = write_project(tmp_path, metrics=metrics, k=1)
    message = "metrics.classification.test_fraction needs metrics.classification.target"
    with pytest.raises(ConfigError, match=message):
        load_config(cfg_path)
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: config file {cfg_path}: {message}\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "own_order, mode, reason",
    [
        (["x", "x", "y"], "simple", "visit sequence must be a permutation of the columns"),
        (["x", "y"], "simple", "visit sequence must be a permutation of the columns"),
        (["y", "c"], "selective", "visit sequence must be a permutation of the columns"),
        (["x", "y"], "selective", "visit sequence must be a permutation of the columns"),
    ],
    ids=[
        "repeats-a-column",
        "leaves-out-a-column",
        "selective-leaves-out-a-column",
        "selective-leaves-out-the-last-column",
    ],
)
def test_an_own_order_that_is_not_a_permutation_is_a_config_error(
    tmp_path, capsys, own_order, mode, reason
):
    grid = {
        "synthesizers": [{"base": "S"}, {"base": "D", "order": "own", "own_order": own_order}],
        "m": [1],
        "predictor_modes": [mode],
        "selective": {"c": ["x"]},
    }
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: synthesizer 'DV' in predictor mode {mode!r}: {reason}\n"
    )
    assert not (tmp_path / "results" / "cells").exists()
    assert not (tmp_path / "results" / "report.csv").exists()


def test_an_exception_outside_the_metrics_costs_the_whole_cell(tmp_path, monkeypatch):
    cfg = load_config(write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1))

    def broken(sset, out_dir, *, known=None):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "save_synthetic_set", broken)
    report, timings = run_experiment(cfg)
    assert [(e.label, e.stage, e.message) for e in report.errors] == [
        ("S", "cell", "OSError: disk full")
    ]
    assert not report.rows and not timings


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_config_error_before_any_output(tmp_path, capsys, jobs):
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_experiment(load_config(cfg_path), jobs=jobs)
    assert main(["experiment", "--config", str(cfg_path), "--jobs", str(jobs)]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "results" / "cells").exists()
    assert not (tmp_path / "results").exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1
    capsys.readouterr()


def test_cli_names_a_missing_or_malformed_input(tmp_path, capsys):
    # Each of these ended in a raw FileNotFoundError, JSONDecodeError,
    # UnicodeDecodeError or ValueError traceback, or named the file's role
    # but not its path; a manifest seed "7" was taken for 7.
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)

    def fails_naming(path, *argv):
        assert main(list(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err

    fails_naming(tmp_path, "experiment", "--config", str(tmp_path))  # a directory
    for name in ("schema.json", "data.csv", "fits.json", "adhoc.json"):
        path = tmp_path / name
        kept = path.read_bytes()
        path.unlink()
        fails_naming(path, "experiment", "--config", str(cfg_path))
        path.write_bytes(b"\xff\xfe" + kept)  # not UTF-8
        fails_naming(path, "experiment", "--config", str(cfg_path))
        path.write_bytes(kept)

    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    evaluate = ("evaluate", "--config", str(cfg_path), "--syn", str(gen), "--out",
                str(tmp_path / "eval"))
    manifest = gen / "manifest.json"
    doc = json.loads(manifest.read_text())
    for text in (
        "{not json", "[1]",
        *(json.dumps({k: v for k, v in doc.items() if k != key})
          for key in ("m", "label", "seed", "wall_times")),
        *(json.dumps({**doc, key: value})
          for key, value in (
              ("m", "abc"), ("wall_times", ["x"]), ("seed", "7"), ("m", 0),
              ("wall_times", [0.1, 0.2]),
          )),
    ):
        manifest.write_text(text)
        fails_naming(manifest, *evaluate)
    manifest.write_text(json.dumps(doc))
    (gen / "ds000.csv").unlink()
    fails_naming(gen / "ds000.csv", *evaluate)


def test_a_classification_target_outside_the_data_fails_every_command_at_load(
    tmp_path, capsys
):
    # evaluate took a target that is not a column and failed its
    # classification family (exit 2, "unknown column 'zz'" in errors.csv);
    # experiment refused it. A numeric target, or a test_fraction that
    # leaves no training row, failed the classification family of every
    # cell (exit 2) in both.
    grid = {"synthesizers": [{"base": "S"}], "m": [1]}
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    for case, (classification, problem) in enumerate((
        ({"target": "zz"}, "classification target 'zz' is not a column of the preprocessed data"),
        ({"target": "x"}, "classification target 'x' is not categorical"),
        ({"target": "c", "test_fraction": 0.9999},
         "test_fraction 0.9999 leaves no training row of 100"),
    )):
        root = tmp_path / f"bad{case}"
        root.mkdir()
        bad = write_project(
            root, grid=grid, k=1, metrics={"classification": classification, "adhoc": True}
        )
        capsys.readouterr()
        for argv, out in (
            (("experiment", "--config", str(bad)), root / "results"),
            (("generate", "--config", str(bad), "--spec", "S", "--m", "1", "--out",
              str(root / "gen")), root / "gen"),
            (("evaluate", "--config", str(bad), "--syn", str(gen), "--out",
              str(root / "eval")), root / "eval"),
        ):
            assert main(list(argv)) == 1, (argv[0], problem)
            assert capsys.readouterr().err == f"error: {problem}\n", argv[0]
            assert not out.exists(), (argv[0], problem)


@pytest.mark.parametrize(
    "edit, problem",
    [
        ({"fits": {"predictors": ["zz"]}}, "fit 'f1': unknown column 'zz'"),
        ({"fits": {"target": "c"}}, "fit 'f1': target 'c' is not numeric"),
        ({"fits": {"family": "logistic"}}, "fit 'f1': target 'y' is not categorical"),
        ({"config": {"preprocess": {"drop": ["x"]}}}, "fit 'f1': unknown column 'x'"),
        ({"adhoc": {"column": "zz"}}, "adhoc 'hi_rate': unknown column 'zz'"),
        ({"adhoc": {"value": "mid"}}, "adhoc 'hi_rate': 'mid' is not a level of column 'c'"),
        ({"adhoc": {"op": "le"}},
         "adhoc 'hi_rate': operator 'le' is not valid for categorical 'c'"),
        ({"adhoc": {"column": "x", "op": "ge", "value": "abc"}},
         "adhoc 'hi_rate': condition on numeric column 'x' needs a number"),
    ],
    ids=["unknown-predictor", "linear-on-categorical", "logistic-on-numeric",
         "dropped-predictor", "predicate-unknown-column", "undeclared-level",
         "le-on-categorical", "text-on-numeric"],
)
def test_a_fit_or_predicate_that_does_not_suit_the_data_fails_at_load(
    tmp_path, capsys, edit, problem
):
    # Each ran the whole grid, left one error row per cell and exited 2.
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    for name, change in edit.items():
        path = tmp_path / f"{name}.json"
        doc = json.loads(path.read_text())
        if name == "fits":
            doc["fits"][0].update(change)
        elif name == "adhoc":
            doc["analyses"][0]["conditions"][0].update(change)
        else:
            doc.update(change)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv, out in (
        (("experiment", "--config", str(cfg_path)), tmp_path / "results"),
        (("evaluate", "--config", str(cfg_path), "--syn", str(gen), "--out",
          str(tmp_path / "eval")), tmp_path / "eval"),
    ):
        assert main(list(argv)) == 1, argv[0]
        assert capsys.readouterr().err == f"error: {problem}\n", argv[0]
        assert not out.exists(), argv[0]


@pytest.mark.parametrize(
    "cells, problem",
    [
        ({(4, 0): "nan", (9, 1): "inf"}, "row 6, column 'x': nan is not a finite number"),
        ({(0, 1): "-inf"}, "row 2, column 'y': -inf is not a finite number"),
        (None, "the data has no rows"),
    ],
    ids=["nan-and-inf", "minus-inf", "header-only"],
)
def test_original_data_that_is_empty_or_not_finite_fails_every_command_at_load(
    tmp_path, capsys, cells, problem
):
    # experiment scored such data: error rows such as kl "ValueError: math
    # domain error", nan cells in the synthetic sets and nan in report.csv.
    grid = {"synthesizers": [{"base": "S"}], "m": [1]}
    cfg_path = write_project(tmp_path, grid=grid, k=1)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    data = tmp_path / "data.csv"
    lines = data.read_text().splitlines()
    if cells is None:
        lines = lines[:1]
    for (row, col), text in (cells or {}).items():
        fields = lines[row + 1].split(",")
        fields[col] = text
        lines[row + 1] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for argv, out in (
        (("experiment", "--config", str(cfg_path)), tmp_path / "results"),
        (("generate", "--config", str(cfg_path), "--spec", "S", "--m", "1", "--out",
          str(tmp_path / "gen_bad")), tmp_path / "gen_bad"),
        (("evaluate", "--config", str(cfg_path), "--syn", str(gen), "--out",
          str(tmp_path / "eval")), tmp_path / "eval"),
    ):
        assert main(list(argv)) == 1, argv[0]
        assert capsys.readouterr().err == f"error: {data}: {problem}\n", argv[0]
        assert not out.exists(), argv[0]


def test_evaluate_under_rule_tp_refuses_a_one_dataset_set(tmp_path, capsys):
    # evaluate failed each family of such a set (exit 2, six error rows
    # "rule Tp needs at least two datasets"); experiment refuses m = 1 at load.
    metrics = {"classification": {"target": "c"}, "adhoc": True, "rule": "Tp"}
    cfg_path = write_project(
        tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [2]}, metrics=metrics, k=1
    )
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path), "--syn", str(gen), "--out",
                 str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rule Tp needs at least two datasets") and "m = 1" in err, err
    assert not (tmp_path / "eval").exists()


def _retyped(doc: dict, *route, value) -> dict:
    """A copy of ``doc`` with ``value`` at ``route``, which may end in a new key."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in route[:-1]:
        target = target[step]
    target[route[-1]] = value
    return doc


def test_cli_names_the_path_of_every_faulty_json_input(tmp_path, capsys):
    # Every JSON input document is read under one rule: a fault is an input
    # error (exit 1) naming the file's path, and the key when there is one.
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    experiment = ("experiment", "--config", str(cfg_path))
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg_path), "--spec", "S", "--m", "1",
                 "--out", str(gen)]) == 0
    capsys.readouterr()
    evaluate = ("evaluate", "--config", str(cfg_path), "--syn", str(gen), "--out",
                str(tmp_path / "eval"))
    cases = (
        (cfg_path, experiment, ("grid", "synthesizers", 0), ("pmm_k",), "5"),
        (tmp_path / "schema.json", experiment, ("columns", 2), ("columns", 0, "name"), 1),
        (tmp_path / "fits.json", experiment, ("fits", 0), ("fits", 0, "target"), ["y"]),
        (
            tmp_path / "adhoc.json", experiment, ("analyses", 0, "conditions", 0),
            ("analyses", 0, "conditions", 0, "op"), 1,
        ),
        (gen / "manifest.json", evaluate, (), ("m",), "abc"),
    )
    for path, argv, stray_at, retype_at, value in cases:
        kept = path.read_bytes()
        doc = json.loads(kept)
        faults = (
            ("missing", None, ""),
            ("a directory", None, ""),
            ("not UTF-8", b"\xff\xfe" + kept, "not UTF-8"),
            ("not JSON", b"{not json", "not valid JSON"),
            (
                "unknown key", json.dumps(_retyped(doc, *stray_at, "note", value="x")).encode(),
                "'note'",
            ),
            (
                "wrong type", json.dumps(_retyped(doc, *retype_at, value=value)).encode(),
                str(retype_at[-1]),
            ),
        )
        for fault, data, says in faults:
            path.unlink()
            if fault == "a directory":
                path.mkdir()
            elif data is not None:
                path.write_bytes(data)
            assert main(list(argv)) == 1, (path.name, fault)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err and says in err, (fault, err)
            if path.is_dir():
                path.rmdir()
            path.write_bytes(kept)


@pytest.mark.parametrize("name", ["config", "schema", "fits", "adhoc", "manifest"])
def test_a_json_field_of_any_type_loads_or_is_the_readers_error(tmp_path, name):
    # Each leaf of each input document takes a value of every JSON type in
    # turn; the document loads or its reader raises its own error, never a
    # raw TypeError, KeyError or ValueError.
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    original = make_fixture_a(20, seed=1)
    synthesis.save_synthetic_set(
        synthesize(original, build_spec(original.schema, "S", m=1, seed=1)), tmp_path / "gen"
    )
    path, load, error = {
        "config": (cfg_path, load_config, ConfigError),
        "schema": (tmp_path / "schema.json", harness.load_schema, SchemaError),
        "fits": (tmp_path / "fits.json", load_fitspecs, EstimandError),
        "adhoc": (tmp_path / "adhoc.json", load_adhoc, AnalysisError),
        "manifest": (
            tmp_path / "gen" / "manifest.json",
            # a changed m names a dataset file that is not there
            lambda p: load_synthetic_set(p.parent, original.schema), (SynthesisError, DataError),
        ),
    }[name]
    doc = json.loads(path.read_text())

    def leaves(node, route=()):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (dict, list)) and value:
                yield from leaves(value, (*route, key))
            yield (*route, key)

    for route in leaves(doc):
        for value in (None, True, 2, 0.5, "s", [], {}):
            path.write_text(json.dumps(_retyped(doc, *route, value=value)))
            try:
                load(path)
            except error:
                pass
