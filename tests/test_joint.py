import numpy as np
import pytest

from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.errors import FitError
from synthbench.models import draw_tuples, fit_joint_table


def two_cat_dataset():
    schema = Schema(
        (
            Column("a", ColumnKind.categorical(("a0", "a1"))),
            Column("b", ColumnKind.categorical(("b0", "b1", "b2"))),
        )
    )
    a = np.asarray([0, 0, 0, 1, 1, 0], dtype=np.int64)
    b = np.asarray([0, 0, 1, 2, 2, 2], dtype=np.int64)
    return Dataset(schema, (a, b))


def test_counts_match_manual_tabulation():
    ds = two_cat_dataset()
    table = fit_joint_table(ds, ("a", "b"))
    got = {tuple(cell): int(cnt) for cell, cnt in zip(table.cells, table.counts)}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 2): 2}
    assert table.total == 6
    assert (table.counts / table.counts.sum()).sum() == pytest.approx(1.0, abs=1e-15)


def test_only_observed_cells_are_drawn():
    ds = two_cat_dataset()
    table = fit_joint_table(ds, ("a", "b"))
    rng = np.random.default_rng(0)
    draws = draw_tuples(table, 20_000, rng)
    observed = {tuple(c) for c in table.cells}
    assert {tuple(row) for row in draws} <= observed
    # (1, 0), (1, 1) never appear in the original and must never be drawn
    assert (1, 0) not in {tuple(row) for row in draws}


def test_draw_frequencies_track_proportions():
    ds = two_cat_dataset()
    table = fit_joint_table(ds, ("a", "b"))
    rng = np.random.default_rng(1)
    draws = draw_tuples(table, 60_000, rng)
    for cell, cnt in zip(table.cells, table.counts):
        freq = np.all(draws == cell, axis=1).mean()
        assert freq == pytest.approx(cnt / table.total, abs=0.01)


def test_single_variable_table():
    ds = two_cat_dataset()
    table = fit_joint_table(ds, ("b",))
    got = {tuple(cell): int(cnt) for cell, cnt in zip(table.cells, table.counts)}
    assert got == {(0,): 2, (1,): 1, (2,): 3}


def test_numeric_variable_rejected():
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("b", ColumnKind.categorical(("u", "v"))),
        )
    )
    ds = Dataset(schema, (np.ones(3), np.zeros(3, dtype=np.int64)))
    with pytest.raises(FitError):
        fit_joint_table(ds, ("x", "b"))
