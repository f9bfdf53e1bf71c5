"""Golden digest of a small fixed-seed grid.

The grid covers all five bases, proper and non-proper variants, both
predictor modes, m in {1, 3} and every metric family (mean CIs, linear and
logistic regression estimands, KL with S-normalisation, the classifier
comparison and ad-hoc proportions). The sha256 digests of ``report.csv`` and
``summary.csv`` are stored below, and so are those of every plot table
``emit_tables`` writes from the run, so any change to what the grid produces,
however small, fails here. The ``apo_vs_time`` digest leaves out its
measured seconds column. One more digest covers the bytes of every synthetic
dataset the run writes; each set's ``manifest.json`` holds wall times and is
left out. A change that alters results on purpose updates
the digests and says so in CHANGES.md.

The digests depend on floating-point results of numpy's linear algebra; they
were recorded with numpy's bundled OpenBLAS on x86-64.
"""

import csv
import hashlib
import io
import json

import pytest

from conftest import make_fixture_a
from synthbench.dataset import write_csv
from synthbench.harness import emit_tables, load_config, run_experiment

GOLDEN = {
    "report.csv": "295afaf517f54126ba84d80206735e76819bc5dd10f44d452a0426a43328b300",
    "summary.csv": "d43c5426eeafe8a3cac5582d1c0d74faae59112a2955dae768952aacb65710d6",
}

GOLDEN_TABLES = {
    "mpe_apo": "39826974320412a6956c23ea15258009b4a6a094d0c78614d5dd35f214aa91ad",
    "cio_vs_m": "7b747de02587f2a2100bce3e4c36be284bbe385e54a7b92584c303a759d5d120",
    "apo_vs_m": "c74840eefcb91ea33d26e4f2227059bf222de5d999285ce254907630169b07f0",
    "kl_norm": "22b3a3f800676d1b61bf3a32fe5c9eea677e4e6570f3967d5871db2de4f45ecd",
    "mode_compare": "af06ebb34ac374118b91ec46a8b6d0bda15e49d7991db95fdfba95a5d26d217c",
    "correlations": "81582627e0bcfbe5dd0f2d82a4109690dad19743628660e3819a35f724960729",
    "apo_vs_time": "3608ff3fad348c994205ef1f1441b1f0dd293d252807fd1955d09fc5824bcf88",
}

GOLDEN_SYNTHETIC = "26c58c5d9fa0c6097eade389b4ddb93995b9a83d4e7d522b85c31ef66e13e233"


def _write_project(root):
    ds = make_fixture_a(n=1000, seed=42)
    write_csv(ds, root / "data.csv")
    cols = []
    for c in ds.schema.columns:
        if c.kind.is_categorical:
            cols.append({"name": c.name, "kind": "categorical", "levels": list(c.kind.levels)})
        else:
            cols.append({"name": c.name, "kind": "numeric"})
    (root / "schema.json").write_text(json.dumps({"columns": cols}))
    fits = [
        {"id": "f1", "family": "linear", "target": "y", "predictors": ["x"]},
        {"id": "f4", "family": "linear", "target": "y", "predictors": ["x", "c1", "c2"]},
        {"id": "l1", "family": "logistic", "target": "c1", "predictors": ["x", "y"]},
    ]
    (root / "fits.json").write_text(json.dumps({"fits": fits}))
    adhoc = [
        {
            "id": "low_x_yes",
            "conditions": [
                {"column": "x", "op": "le", "value": 0.5},
                {"column": "c3", "op": "eq", "value": "yes"},
            ],
        }
    ]
    (root / "adhoc.json").write_text(json.dumps({"analyses": adhoc}))
    config = {
        "dataset": "data.csv",
        "schema": "schema.json",
        "fitspecs": "fits.json",
        "adhoc": "adhoc.json",
        "grid": {
            "synthesizers": [{"base": b} for b in ("P", "D", "CP", "CC", "S")],
            "proper": [False, True],
            "m": [1, 3],
            "predictor_modes": ["simple", "selective"],
            "selective": {"y": ["x"]},
        },
        "k": 1,
        "seed": 7,
        "out": "results",
        "metrics": {
            "mean_point": True,
            "regression": True,
            "kl": True,
            "kl_normalize": True,
            "classification": {"target": "c3"},
            "adhoc": True,
        },
    }
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    cfg = load_config(_write_project(tmp_path_factory.mktemp("golden")))
    report, timings = run_experiment(cfg)
    return cfg, report, timings


def _without_column(data: bytes, name: str) -> bytes:
    """The CSV ``data`` re-written without its column ``name``."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    drop = rows[0].index(name)
    buf = io.StringIO()
    csv.writer(buf).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return buf.getvalue().encode()


def test_grid_report_digests_are_golden(golden_run):
    cfg, report, _ = golden_run
    assert not report.errors, report.errors
    assert not (cfg.out / "errors.csv").exists()
    digests = {
        name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


def test_table_digests_are_golden(golden_run):
    cfg, report, timings = golden_run
    written = emit_tables(report, cfg.out, timings)
    assert set(written) == set(GOLDEN_TABLES)
    digests = {}
    for name, path in written.items():
        data = path.read_bytes()
        if name == "apo_vs_time":
            data = _without_column(data, "seconds_per_dataset")
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN_TABLES


def test_synthetic_csv_digests_are_golden(golden_run):
    cfg, _, _ = golden_run
    synth = cfg.out / "synth"
    paths = sorted(synth.glob("*/ds*.csv"))
    assert paths
    h = hashlib.sha256()
    for path in paths:
        h.update(path.relative_to(synth).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == GOLDEN_SYNTHETIC
