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
    "report.csv": "bdf972653fabb836db7e68ea9b2230e9b5ed871c9895a603fb44ee41cb879bcc",
    "summary.csv": "cf0981d7462b1db5acc5ffe5800cf5c5e25c7dd41a92ec747461963b3d7d9768",
}

GOLDEN_TABLES = {
    "mpe_apo": "34d29d78cd4859cc7220a7da7e36149077f39d994ac63467f523673c1e140040",
    "cio_vs_m": "53c34c1196bfcc292bdbee334e5e33332f54950095690c62b42d6c0b8adc9be1",
    "apo_vs_m": "925738bfc24540902ffcc355cc0f6a50b21d07309c95f4d00001fa7a64c3a032",
    "kl_norm": "e879da891e3ad8151437f82db01f657be9d42e72aedb75ded8e927344c63a4df",
    "mode_compare": "641477d88203e38308d2e8c2690cdb7185c576de06c554f3d4c784fe6c2fa274",
    "correlations": "246e364cf0b3513163711055e72e3b4c36365612de412f217a99ce6de42bec0a",
    "apo_vs_time": "817befb08df7d5209ebb199aa892b44c79dc00d5e1f1d09a10ec526a6bec39c3",
}

GOLDEN_SYNTHETIC = "e40bbdfa0ae3adaa4a84d19de2f5d9b31b8b1d911582b2ce008b923ffc53964d"


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
