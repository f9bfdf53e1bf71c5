"""Joint contingency tables over categorical columns, with tuple draws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import FitError


@dataclass(frozen=True)
class JointTable:
    """Observed level-tuple counts for a set of categorical columns.

    ``cells`` holds the distinct tuples in lexicographic order, ``counts``
    the matching positive counts; ``total`` equals the fitted row count.
    """

    cells: np.ndarray   # (n_cells, n_vars) level codes
    counts: np.ndarray  # (n_cells,) positive ints

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_cells(self) -> int:
        return int(self.counts.shape[0])


def fit_joint_table(ds: Dataset, variables) -> JointTable:
    """Cross-tabulate the named categorical columns of ``ds``."""
    variables = tuple(variables)
    if not variables:
        raise FitError("joint table needs at least one variable")
    for name in variables:
        if not ds.schema.kind(name).is_categorical:
            raise FitError(f"column {name!r} is not categorical")
    stacked = np.stack([ds.column(name) for name in variables], axis=1)
    cells, counts = np.unique(stacked, axis=0, return_counts=True)
    return JointTable(cells=cells.astype(np.int64), counts=counts.astype(np.int64))


def draw_tuples(table: JointTable, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` level tuples according to the table's proportions.

    Only observed cells can be drawn, so results never contain a level
    combination absent from the fitted data.
    """
    if size < 0:
        raise FitError("draw size must be non-negative")
    cum = np.cumsum(table.counts)
    u = rng.random(size) * table.total
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, table.n_cells - 1)
    return table.cells[idx]
