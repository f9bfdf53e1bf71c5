"""Golden digest of a small fixed-seed grid.

The grid covers all five bases, proper and non-proper variants, both
predictor modes, m in {1, 3} and every metric family (mean CIs, linear and
logistic regression estimands, KL with S-normalisation, the classifier
comparison and ad-hoc proportions). The sha256 digests of ``report.csv`` and
``summary.csv`` are stored below, so any change to what the grid produces,
however small, fails here. A change that alters results on purpose updates
the digests and says so in CHANGES.md.

The digests depend on floating-point results of numpy's linear algebra; they
were recorded with numpy's bundled OpenBLAS on x86-64.
"""

import hashlib
import json

from conftest import make_fixture_a
from synthbench.dataset import write_csv
from synthbench.harness import load_config, run_experiment

GOLDEN = {
    "report.csv": "bdf972653fabb836db7e68ea9b2230e9b5ed871c9895a603fb44ee41cb879bcc",
    "summary.csv": "cf0981d7462b1db5acc5ffe5800cf5c5e25c7dd41a92ec747461963b3d7d9768",
}


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


def test_grid_report_digests_are_golden(tmp_path):
    cfg = load_config(_write_project(tmp_path))
    report, _ = run_experiment(cfg)
    assert not report.errors, report.errors
    assert not (cfg.out / "errors.csv").exists()
    digests = {
        name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
