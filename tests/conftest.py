"""Shared fixtures and the acceptance summary hook.

fixture-A is the frozen evaluation dataset every directional test runs on:
n = 2000, seed 42, with x uniform, y linear in x with noise, a three-level
categorical driven by x, a second categorical strongly tied to the first,
and a binary label that is a deterministic threshold of x (majority share
about 0.85).
"""

from __future__ import annotations

import numpy as np
import pytest

from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.estimands import FitSpec

FIXTURE_SEED = 42
MASTER_SEED = 7


def make_fixture_a(n: int = 2000, seed: int = FIXTURE_SEED) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 * x + rng.normal(0.0, 0.3, n)
    c1 = np.digitize(x + rng.normal(0.0, 0.25, n), (1.0 / 3.0, 2.0 / 3.0)).astype(np.int64)
    flip = rng.random(n) < 0.25
    c2 = np.where(flip, (c1 + 1) % 3, c1).astype(np.int64)
    c3 = (x > 0.15).astype(np.int64)
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("y", ColumnKind.numeric()),
            Column("c1", ColumnKind.categorical(("low", "mid", "high"))),
            Column("c2", ColumnKind.categorical(("a", "b", "c"))),
            Column("c3", ColumnKind.categorical(("no", "yes"))),
        )
    )
    return Dataset(schema, (x, y, c1, c2, c3))


def fit_battery() -> tuple[FitSpec, ...]:
    return (
        FitSpec("f1", "linear", "y", ("x",)),
        FitSpec("f2", "linear", "y", ("x", "c1")),
        FitSpec("f3", "linear", "x", ("y", "c2")),
        FitSpec("f4", "linear", "y", ("x", "c1", "c2")),
    )


def output_bytes(out) -> dict:
    """Every file of an experiment run in ``out`` that must not depend on
    ``--jobs`` or on a resume: the report files and the synthetic CSVs."""
    paths = [out / "report.csv", out / "summary.csv", out / "errors.csv"]
    paths += sorted((out / "synth").rglob("*.csv"))
    return {p.relative_to(out): p.read_bytes() for p in paths if p.exists()}


@pytest.fixture(scope="session")
def fixture_a() -> Dataset:
    return make_fixture_a()


@pytest.fixture(scope="session")
def battery() -> tuple[FitSpec, ...]:
    return fit_battery()


_CRITERIA: dict[int, str] = {}
_OUTCOMES: dict[int, set[str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): tags a test as one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, title = mark.args
    _CRITERIA[num] = title
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _OUTCOMES.setdefault(num, set()).add(report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_OUTCOMES):
        outcomes = _OUTCOMES[num]
        if "failed" in outcomes:
            word = "FAIL"
        elif "skipped" in outcomes:
            word = "SKIP"
        else:
            word = "PASS"
        terminalreporter.write_line(f"criterion {num:>2}: {word}  {_CRITERIA[num]}")
