"""Grid-level properties of ``run_experiment`` over many small inputs.

Hypothesis draws small projects: 1-3 numeric and 0-3 categorical columns,
1-12 declared levels per categorical column (some never observed), constant
columns, n from 6 to 60 rows, a random fit battery, ad-hoc predicates and a
subset of the grid. Whatever the input, a run must finish, record each
failure as an ``errors.csv`` row, keep every value in the ranges that the
benchmark's output checks enforce, write synthetic sets that round-trip
through ``load_synthetic_set``, and give the same bytes when resumed after
losing cell files or when run with two workers.
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import output_bytes
from synthbench.config import load_config
from synthbench.dataset import write_csv
from synthbench.harness import load_original, run_experiment
from synthbench.synthesis import BASES, load_synthetic_set

NUMERIC_STYLES = ("normal", "integers", "constant", "huge")
OPS = ("eq", "le", "ge", "lt", "gt")


def _benchmark_checks():
    """``benchmarks/checks.py``, whose value ranges the report must keep."""
    bench = str(Path(__file__).parents[1] / "benchmarks")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(bench)


CHECKS = _benchmark_checks()


@dataclass(frozen=True)
class Project:
    """One drawn input: the data, the fit battery, the predicates and the
    grid, plus which cell files a resume test deletes."""

    n: int
    data_seed: int
    numeric: tuple[str, ...]  # one style per numeric column
    categorical: tuple[tuple[int, int], ...]  # (declared, observed) levels
    fits: tuple[tuple[str, tuple[str, ...]], ...]  # (target, predictors)
    predicates: tuple[tuple[tuple[str, str, object], ...], ...]
    bases: tuple[str, ...]
    proper: tuple[bool, ...]
    m: tuple[int, ...]
    modes: tuple[str, ...]
    k: int
    seed: int
    kl_normalize: bool
    classify: bool
    delete: tuple[bool, ...] = (True,)

    @property
    def names(self) -> list[str]:
        return [f"x{i}" for i in range(len(self.numeric))] + [
            f"c{i}" for i in range(len(self.categorical))
        ]


def _numeric_column(style: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if style == "normal":
        return rng.normal(0.0, 1.0, n)
    if style == "integers":
        return rng.integers(-2, 3, n).astype(np.float64)
    if style == "constant":
        return np.full(n, 2.5)
    return 1e300 * (1.0 + rng.uniform(-1e-3, 1e-3, n))


def write_project(project: Project, root: Path) -> Path:
    """Write data, schema, fits, predicates and config under ``root``."""
    rng = np.random.default_rng(project.data_seed)
    n = project.n
    columns = [_numeric_column(style, n, rng) for style in project.numeric]
    schema = [{"name": f"x{i}", "kind": "numeric"} for i in range(len(project.numeric))]
    for i, (declared, observed) in enumerate(project.categorical):
        codes = rng.permutation(declared)[:observed]
        columns.append(codes[rng.integers(0, observed, n)])
        levels = [f"L{j}" for j in range(declared)]
        schema.append({"name": f"c{i}", "kind": "categorical", "levels": levels})
    lines = [",".join(project.names)]
    for r in range(n):
        cells = [
            f"L{int(col[r])}" if spec["kind"] == "categorical" else repr(float(col[r]))
            for spec, col in zip(schema, columns)
        ]
        lines.append(",".join(cells))
    (root / "data.csv").write_text("\n".join(lines) + "\n")
    (root / "schema.json").write_text(json.dumps({"columns": schema}))
    fits = [
        {
            "id": f"f{i}",
            "family": "logistic" if target.startswith("c") else "linear",
            "target": target,
            "predictors": list(preds),
        }
        for i, (target, preds) in enumerate(project.fits)
    ]
    (root / "fits.json").write_text(json.dumps({"fits": fits}))
    analyses = [
        {
            "id": f"p{i}",
            "conditions": [{"column": c, "op": op, "value": v} for c, op, v in conds],
        }
        for i, conds in enumerate(project.predicates)
    ]
    (root / "adhoc.json").write_text(json.dumps({"analyses": analyses}))
    cats = [name for name in project.names if name.startswith("c")]
    first, target = project.names[0], f"x{len(project.numeric) - 1}"
    config = {
        "dataset": "data.csv",
        "schema": "schema.json",
        "fitspecs": "fits.json",
        "adhoc": "adhoc.json",
        "grid": {
            "synthesizers": [{"base": b} for b in project.bases],
            "proper": list(project.proper),
            "m": list(project.m),
            "predictor_modes": list(project.modes),
            # the last numeric column from the first column, which every
            # visit order of the grid's bases puts before it
            "selective": {target: [first] if first != target else []},
        },
        "k": project.k,
        "seed": project.seed,
        "out": "results",
        "metrics": {
            "regression": bool(fits),
            "kl_normalize": project.kl_normalize,
            "classification": {"target": cats[0]} if project.classify and cats else {},
            "adhoc": bool(analyses),
        },
    }
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


@st.composite
def projects(draw) -> Project:
    numeric = tuple(draw(st.lists(st.sampled_from(NUMERIC_STYLES), min_size=1, max_size=3)))
    categorical = []
    for _ in range(draw(st.integers(0, 3))):
        declared = draw(st.integers(1, 12))
        categorical.append((declared, draw(st.integers(1, declared))))
    names = [f"x{i}" for i in range(len(numeric))] + [f"c{i}" for i in range(len(categorical))]
    levels = dict(zip(names[len(numeric):], (d for d, _ in categorical)))

    fits = []
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(names))
        others = [c for c in names if c != target]
        if others:
            # At most two predictors: a logistic fit between many-level
            # columns at n <= 60 runs its Newton steps to the limit, and a
            # wider design makes one example take seconds.
            preds = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
            fits.append((target, tuple(preds)))

    predicates = []
    for _ in range(draw(st.integers(0, 2))):
        conds = []
        for column in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
            if column in levels:
                conds.append((column, "eq", f"L{draw(st.integers(0, levels[column] - 1))}"))
            else:
                value = draw(st.floats(-3.0, 3.0, allow_nan=False))
                conds.append((column, draw(st.sampled_from(OPS)), value))
        predicates.append(tuple(conds))

    bases = draw(st.lists(st.sampled_from(BASES), min_size=1, max_size=3, unique=True))
    proper = draw(st.sampled_from([(False,), (True,), (False, True)]))
    kl_normalize = draw(st.booleans()) and False in proper
    if kl_normalize and "S" not in bases:
        bases.append("S")
    modes = draw(st.sampled_from([("simple",), ("selective",), ("simple", "selective")]))
    return Project(
        n=draw(st.integers(6, 60)),
        data_seed=draw(st.integers(0, 2**16)),
        numeric=numeric,
        categorical=tuple(categorical),
        fits=tuple(fits),
        predicates=tuple(predicates),
        bases=tuple(bases),
        proper=proper,
        m=tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=2, unique=True))),
        modes=modes,
        k=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 1000)),
        kl_normalize=kl_normalize,
        classify=draw(st.booleans()),
        delete=tuple(draw(st.lists(st.booleans(), min_size=1, max_size=6))),
    )


# A target with one declared level, and values near 1e300.
ONE_LEVEL_LOGISTIC = Project(
    n=30, data_seed=1, numeric=("normal",), categorical=((1, 1),),
    fits=(("c0", ("x0",)), ("x0", ("c0",))), predicates=((("c0", "eq", "L0"),),),
    bases=("P", "D", "S"), proper=(False, True), m=(1, 2), modes=("simple",), k=1, seed=3,
    kl_normalize=True, classify=True, delete=(True, False),
)
HUGE_VALUES = replace(
    ONE_LEVEL_LOGISTIC, numeric=("huge", "normal"), categorical=((3, 2),),
    fits=(("x0", ("x1", "c0")), ("c0", ("x0",))), bases=("CP", "CC", "S"),
)


def _read(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_run(cfg, project: Project) -> None:
    out = cfg.out
    cells = {
        (label, mode, str(m), str(rep))
        for label in {b + ("T" if p else "") for b in project.bases for p in project.proper}
        for mode in project.modes
        for m in project.m
        for rep in range(project.k)
    }
    rows = _read(out / "report.csv")
    errors = _read(out / "errors.csv")
    # every failure is an error row with a stage and a message, and every
    # cell of the grid reports rows, errors or both
    for e in errors:
        assert e["stage"] and e["message"], e
    keys = {(r["label"], r["mode"], r["m"], r["k"]) for r in rows + errors}
    assert keys == cells
    for r in rows:
        v = float(r["value"])
        if r["metric"] in CHECKS.UNIT_INTERVAL:
            assert 0.0 <= v <= 1.0, r
        else:
            assert r["metric"] in CHECKS.DIVERGENCES, r
            assert np.isfinite(v) and v >= 0.0, r

    schema = load_original(cfg).schema
    with tempfile.TemporaryDirectory() as tmp:
        for set_dir in sorted((out / "synth").glob("*")):
            sset = load_synthetic_set(set_dir, schema)
            assert sset.m == len(list(set_dir.glob("ds*.csv")))
            for i, ds in enumerate(sset.datasets):
                again = Path(tmp) / f"{set_dir.name}_{i}.csv"
                write_csv(ds, again)
                assert again.read_bytes() == (set_dir / f"ds{i:03d}.csv").read_bytes()


@settings(
    max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(projects())
@example(ONE_LEVEL_LOGISTIC)
@example(HUGE_VALUES)
def test_any_small_grid_runs_checks_and_resumes(project):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = load_config(write_project(project, root))
        run_experiment(cfg)
        _check_run(cfg, project)
        whole = output_bytes(cfg.out)

        cell_files = sorted((cfg.out / "cells").glob("*.json"))
        for i, path in enumerate(cell_files):
            if project.delete[i % len(project.delete)]:
                path.unlink()
        run_experiment(cfg, resume=True)
        assert output_bytes(cfg.out) == whole


@settings(
    max_examples=4, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(projects())
@example(HUGE_VALUES)
def test_two_workers_write_what_one_writes(project):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = write_project(project, root)
        outputs = []
        for jobs in (1, 2):
            cfg = load_config(config, out=root / f"jobs{jobs}")
            run_experiment(cfg, jobs=jobs)
            outputs.append(output_bytes(cfg.out))
        assert outputs[0] == outputs[1]
