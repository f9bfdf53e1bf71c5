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
    "report.csv": "5b9d65c4dc126610b68cd0088b09480a9ca6884fcd333552443dbb080dcc2c43",
    "summary.csv": "0e4da43b66e5e2a2ec15085b7b16565b6f3ce9381fe50aee4f4e6f60b55b0a42",
}

GOLDEN_TABLES = {
    "mpe_apo": "d1fffef5104c9aa060c035fd5a6d133576b85cee1982f8cb0899e94c1c6783dd",
    "cio_vs_m": "f29be73aa6b4477fd004a42fe00b14e45eeb9b99b59597603f64dd661d0ea12b",
    "apo_vs_m": "92ba8fe2b3cc849d26dfa3e4173663cb614252f598825722f971bc150dc2710d",
    "kl_norm": "a4f937a896a5f4f0f70cd37cb999ebb5af8f6abc93886786fa0cb888088ddd54",
    "mode_compare": "e5a7952726c1e5aae7ba17bd66ab9bd6bdf5f2e13e6b6f62d98feb97a55bac06",
    "correlations": "932ac64d9de100a00fc9bf29fcba1466c1b6f4690ae2befc781c452d8b7fedb7",
    "apo_vs_time": "ef51cb21ee5b495014ede723da922c0aba0337b006e1bb3661ea132d176d9c63",
}

GOLDEN_SYNTHETIC = "de990d214a8ac449c35a6b0981a9805fa04d96c262c3393ddd04b7673eb508a8"


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
