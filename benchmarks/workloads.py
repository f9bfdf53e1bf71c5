"""Benchmark workloads and their inputs.

Every workload runs on fixture-A (columns x, y, c1, c2, c3) generated from
the workload seed, with the same metric configuration: mean CIs, the f1-f4
OLS battery plus one logistic fit, KL with S-normalisation, the classifier on
c3 and two ad-hoc predicates. The workloads differ in row count, grid shape
and worker count; README.md says why each one was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMNS = ("x", "y", "c1", "c2", "c3")
LEVELS = {"c1": ("low", "mid", "high"), "c2": ("a", "b", "c"), "c3": ("no", "yes")}

FITS = (
    {"id": "f1", "family": "linear", "target": "y", "predictors": ["x"]},
    {"id": "f2", "family": "linear", "target": "y", "predictors": ["x", "c1"]},
    {"id": "f3", "family": "linear", "target": "x", "predictors": ["y", "c2"]},
    {"id": "f4", "family": "linear", "target": "y", "predictors": ["x", "c1", "c2"]},
    {"id": "l1", "family": "logistic", "target": "c1", "predictors": ["x", "y"]},
)

ADHOC = (
    {"id": "c1_high", "conditions": [{"column": "c1", "op": "eq", "value": "high"}]},
    {
        "id": "low_x_yes",
        "conditions": [
            {"column": "x", "op": "le", "value": 0.5},
            {"column": "c3", "op": "eq", "value": "yes"},
        ],
    },
)

CLASSIFICATION_TARGET = "c3"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    bases: tuple[str, ...]
    proper: tuple[bool, ...]
    m: tuple[int, ...]
    k: int
    jobs: int
    # Grid seconds on the reference machine (see README.md). A run repeats
    # the grid int(--seconds // nominal_s) times, so the repeat count, and
    # with it the tail percentile, depends only on --seconds.
    nominal_s: float

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b + ("T" if p else "") for b in self.bases for p in self.proper)

    @property
    def cells(self) -> int:
        return len(self.labels) * len(self.m) * self.k

    @property
    def datasets(self) -> int:
        return len(self.labels) * sum(self.m) * self.k


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-2k-all", 2000, ("P", "D", "CP", "CC", "S"), (False, True), (1, 5), 1, 1, 10.0),
        Workload("grid-8k-trees-j2", 8000, ("S", "P", "D", "CC"), (False,), (1, 3), 2, 2, 6.5),
        Workload("eval-2k-m20", 2000, ("S",), (False,), (20,), 4, 1, 2.5),
    )
}


def fixture_a_columns(n: int, seed: int) -> tuple[np.ndarray, ...]:
    """fixture-A as (x, y, c1, c2, c3) arrays; categorical columns are level
    codes. Draws in the same order as the test suite's ``make_fixture_a``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 * x + rng.normal(0.0, 0.3, n)
    c1 = np.digitize(x + rng.normal(0.0, 0.25, n), (1.0 / 3.0, 2.0 / 3.0)).astype(np.int64)
    flip = rng.random(n) < 0.25
    c2 = np.where(flip, (c1 + 1) % 3, c1).astype(np.int64)
    c3 = (x > 0.15).astype(np.int64)
    return x, y, c1, c2, c3


def schema_doc() -> dict:
    cols = []
    for name in COLUMNS:
        if name in LEVELS:
            cols.append({"name": name, "kind": "categorical", "levels": list(LEVELS[name])})
        else:
            cols.append({"name": name, "kind": "numeric"})
    return {"columns": cols}


def write_inputs(workload: Workload, seed: int, root: Path) -> Path:
    """Write data, schema, fits, ad-hoc predicates and the experiment config
    under ``root``; return the config path."""
    root.mkdir(parents=True, exist_ok=True)
    cols = fixture_a_columns(workload.n, seed)
    lines = [",".join(COLUMNS)]
    for row in zip(*cols):
        cells = []
        for name, v in zip(COLUMNS, row):
            cells.append(LEVELS[name][int(v)] if name in LEVELS else repr(float(v)))
        lines.append(",".join(cells))
    (root / "data.csv").write_text("\n".join(lines) + "\n")
    (root / "schema.json").write_text(json.dumps(schema_doc(), indent=2) + "\n")
    (root / "fits.json").write_text(json.dumps({"fits": list(FITS)}, indent=2) + "\n")
    (root / "adhoc.json").write_text(json.dumps({"analyses": list(ADHOC)}, indent=2) + "\n")
    config = {
        "dataset": "data.csv",
        "schema": "schema.json",
        "fitspecs": "fits.json",
        "adhoc": "adhoc.json",
        "grid": {
            "synthesizers": [{"base": b} for b in workload.bases],
            "proper": list(workload.proper),
            "m": list(workload.m),
        },
        "k": workload.k,
        "seed": seed,
        "out": "results",
        "metrics": {
            "mean_point": True,
            "regression": True,
            "kl": True,
            "kl_normalize": True,
            "classification": {"target": CLASSIFICATION_TARGET},
            "adhoc": True,
        },
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
