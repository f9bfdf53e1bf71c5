import json

import numpy as np
import pytest

from conftest import make_fixture_a
import synthbench.harness as harness
from synthbench.cli import main
from synthbench.dataset import Dataset, write_csv
from synthbench.errors import ConfigError, MetricError
from synthbench.metrics import UtilityReport
from synthbench.synthesis import build_spec, load_synthetic_set, synthesize
from synthbench.harness import (
    _cell_seed,
    benchmark_generation,
    emit_tables,
    load_config,
    load_original,
    metric_rows,
    read_report,
    run_experiment,
)


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


def test_cell_seed_streams_are_distinct_and_stable():
    a = _cell_seed(7, "D", "simple", 3, 0)
    assert a == _cell_seed(7, "D", "simple", 3, 0)
    others = {
        _cell_seed(7, "D", "simple", 3, 1),
        _cell_seed(7, "D", "selective", 3, 0),
        _cell_seed(7, "DT", "simple", 3, 0),
        _cell_seed(8, "D", "simple", 3, 0),
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
    # labels {S, D} x 1 mode x m {1, 2} x k 2 -> 8 cells, 12 datasets
    assert len(manifest["cells"]) == 8
    assert manifest["datasets_generated"] == 2 * (1 + 2) * 2
    assert manifest["generated_last_run"] == manifest["datasets_generated"]
    assert len(list((out / "cells").glob("*.json"))) == 8
    assert not report.errors
    metrics_present = {r.metric for r in report.sorted_rows()}
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
    assert len(timings) == 8


def test_resume_is_idempotent(mini_run):
    root, cfg, report, _ = mini_run
    before = (cfg.out / "report.csv").read_bytes()
    report2, timings2 = run_experiment(cfg, resume=True)
    manifest = json.loads((cfg.out / "manifest.json").read_text())
    assert manifest["generated_last_run"] == 0
    assert (cfg.out / "report.csv").read_bytes() == before
    assert [r for r in report2.sorted_rows()] == [r for r in report.sorted_rows()]


def test_resume_rejects_different_config(mini_run, tmp_path):
    root, cfg, _, _ = mini_run
    altered = load_config(root / "config.json", seed=12345)
    with pytest.raises(ConfigError, match="fresh output directory"):
        run_experiment(altered, resume=True)


def test_jobs_do_not_change_report_bytes(mini_run, tmp_path):
    root, cfg, _, _ = mini_run
    serial = (cfg.out / "report.csv").read_bytes()
    cfg_par = load_config(root / "config.json", out=tmp_path / "par")
    run_experiment(cfg_par, jobs=4)
    assert (tmp_path / "par" / "report.csv").read_bytes() == serial


def test_read_report_round_trip(mini_run):
    root, cfg, report, _ = mini_run
    back = read_report(cfg.out)
    assert back.sorted_rows() == report.sorted_rows()
    with pytest.raises(ConfigError):
        read_report(cfg.out / "nowhere")


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
    rows, errors = metric_rows(original, sset, cfg.metrics, fits, ())
    assert errors == [("fit:f1", "forced failure for f1")]
    names = {r[0] for r in rows}
    assert "rf_cio" not in names and "mpe_apo" in names  # other metrics intact


def test_benchmark_generation(mini_run):
    root, cfg, _, _ = mini_run
    record = benchmark_generation(cfg, "D", count=3)
    assert record.m == 3 and len(record.seconds) == 3
    assert (cfg.out / "bench_D.json").exists()
    doc = json.loads((cfg.out / "bench_D.json").read_text())
    assert doc["label"] == "D" and len(doc["seconds"]) == 3
    with pytest.raises(ConfigError):
        benchmark_generation(cfg, "CC", count=3)
    with pytest.raises(ConfigError):
        benchmark_generation(cfg, "D", count=0)


def test_cli_experiment_and_report(tmp_path, capsys):
    cfg_path = write_project(tmp_path, grid={"synthesizers": [{"base": "S"}], "m": [1]}, k=1)
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    out = tmp_path / "results"
    assert (out / "report.csv").exists()
    assert main(["report", "--out", str(out), "--tables", "mpe_apo"]) == 0
    assert (out / "tables" / "mpe_apo.csv").exists()
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


def test_cli_generate_and_bench_with_an_ordered_label(tmp_path, capsys):
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
    assert main(["bench", "--config", str(cfg_path), "--spec", "DO", "--count", "2"]) == 0
    assert json.loads((cfg.out / "bench_DO.json").read_text())["label"] == "DO"
    assert main(["bench", "--config", str(cfg_path), "--spec", "P", "--count", "2"]) == 1
    capsys.readouterr()


def test_kl_normalization_by_baseline():
    report = UtilityReport()
    raws = {("S", 0): (0.2, 0.3), ("D", 0): (0.4, 0.9), ("S", 1): (0.0, 0.3), ("D", 1): (0.4, 0.9)}
    for (label, rep), (x, y) in raws.items():
        report.add(label, "simple", 2, rep, "kl_raw", "var:x", x)
        report.add(label, "simple", 2, rep, "kl_raw", "var:y", y)
    cells = sorted((label, "simple", 2, rep) for label, rep in raws)
    harness._add_normalized_kl(report, cells)
    assert report.values("kl_norm") == {
        ("D", "simple", 2, 0, "var:x"): pytest.approx(2.0),
        ("D", "simple", 2, 0, "var:y"): pytest.approx(3.0),
    }
    # A zero baseline divergence in repetition 1 cannot normalize anything.
    assert report.values("kl_norm_avg") == {("D", "simple", 2, 0, ""): pytest.approx(2.5)}
    assert [(e.label, e.k, e.stage) for e in report.errors] == [("D", 1, "kl_normalize")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_any_exception_in_a_cell_becomes_an_error_row(tmp_path, capsys):
    # x of magnitude 1e300 overflows the combining rule's between-variance sum.
    ds = make_fixture_a(n=300)
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
        "grid": {"synthesizers": [{"base": "S"}, {"base": "D"}], "m": [2]},
        "k": 1,
        "seed": 3,
        "out": "results",
    }))
    cfg = load_config(cfg_path)
    report, _ = run_experiment(cfg)
    assert {(e.label, e.stage) for e in report.errors} == {("S", "cell"), ("D", "cell")}
    assert all(e.message.startswith("OverflowError: ") for e in report.errors)
    lines = (cfg.out / "errors.csv").read_text().splitlines()
    assert lines[1].startswith("D,simple,2,0,cell,") and lines[2].startswith("S,simple,2,0,cell,")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
    capsys.readouterr()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1
    capsys.readouterr()
