"""Predictor bundles and the dummy-coded design matrix shared by the
regression-style models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import ColumnKind, Dataset
from ..errors import FitError


@dataclass(frozen=True)
class Predictors:
    """A set of predictor columns with their kinds, detached from any dataset.

    Numeric columns are float arrays; categorical columns are level-code
    arrays. All columns must share one row count.
    """

    names: tuple[str, ...]
    kinds: tuple[ColumnKind, ...]
    cols: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.kinds) == len(self.cols)):
            raise FitError("predictor names, kinds and columns must align")
        lengths = {arr.shape[0] for arr in self.cols}
        if len(lengths) > 1:
            raise FitError("predictor columns differ in length")

    @property
    def n_rows(self) -> int:
        if not self.cols:
            return 0
        return int(self.cols[0].shape[0])

    @property
    def n_predictors(self) -> int:
        return len(self.names)

    @staticmethod
    def from_dataset(ds: Dataset, names) -> Predictors:
        names = tuple(names)
        kinds = tuple(ds.schema.kind(n) for n in names)
        cols = tuple(ds.column(n) for n in names)
        return Predictors(names, kinds, cols)


@dataclass(frozen=True)
class DesignEncoding:
    """Maps predictor columns to a design matrix with an intercept.

    Each categorical predictor with L levels contributes L-1 indicator
    columns; the first level is the reference and is absorbed into the
    intercept.
    """

    names: tuple[str, ...]
    kinds: tuple[ColumnKind, ...]
    coef_names: tuple[str, ...]

    @staticmethod
    def build(names, kinds) -> DesignEncoding:
        coef_names = ["intercept"]
        for name, kind in zip(names, kinds):
            if kind.is_numeric:
                coef_names.append(name)
            else:
                assert kind.levels is not None
                coef_names.extend(f"{name}={lvl}" for lvl in kind.levels[1:])
        return DesignEncoding(tuple(names), tuple(kinds), tuple(coef_names))

    @property
    def n_coefficients(self) -> int:
        return len(self.coef_names)

    def encode(self, cols) -> np.ndarray:
        """Stack columns (ordered as ``names``) into an (n, p) design matrix."""
        cols = tuple(np.asarray(c) for c in cols)
        if len(cols) != len(self.names):
            raise FitError(
                f"expected {len(self.names)} predictor columns, got {len(cols)}"
            )
        n = int(cols[0].shape[0]) if cols else 0
        out = np.empty((n, self.n_coefficients), dtype=np.float64)
        out[:, 0] = 1.0
        j = 1
        for kind, arr in zip(self.kinds, cols):
            if arr.shape[0] != n:
                raise FitError("predictor columns differ in length")
            if kind.is_numeric:
                out[:, j] = arr
                j += 1
            else:
                codes = arr.astype(np.int64, copy=False)
                if codes.size and (codes.min() < 0 or codes.max() >= kind.n_levels):
                    raise FitError("categorical code outside the declared level set")
                for lvl in range(1, kind.n_levels):
                    out[:, j] = codes == lvl
                    j += 1
        return out


def encode_from_predictors(X: Predictors) -> tuple[DesignEncoding, np.ndarray]:
    enc = DesignEncoding.build(X.names, X.kinds)
    return enc, enc.encode(X.cols)
