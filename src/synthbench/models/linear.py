"""Ordinary least squares with dummy-coded categorical predictors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .design import DesignEncoding, Predictors, encode_from_predictors

_RIDGE = 1e-8


@dataclass(frozen=True)
class LinearModel:
    encoding: DesignEncoding
    coef: np.ndarray
    se: np.ndarray
    residual_sd: float
    ridged: bool

    @property
    def coef_names(self) -> tuple[str, ...]:
        return self.encoding.coef_names

    def predict(self, cols) -> np.ndarray:
        return self.encoding.encode(cols) @ self.coef


def _rank(M: np.ndarray) -> int:
    """``np.linalg.matrix_rank(M)`` for a tall ``M``, from the singular values
    of its p x p R factor, which are those of ``M``, with the same tolerance."""
    S = np.linalg.svd(np.linalg.qr(M, mode="r"), compute_uv=False)
    return int(np.count_nonzero(S > S.max() * max(M.shape) * np.finfo(M.dtype).eps))


def fit_ols(X: Predictors, y: np.ndarray) -> LinearModel:
    """Least-squares fit of ``y`` on an intercept plus the encoded predictors.

    Residual sd is sqrt(RSS / (n - p)) with p counting every coefficient
    including the intercept; standard errors come from the diagonal of
    sigma^2 (X'X)^-1. A rank-deficient design falls back to a small ridge
    (1e-8 on the normal-equation diagonal) and flags the model. Sums that
    overflow (values near 1e300) raise before any LAPACK call, and so does a
    residual sum of squares that overflows after it.
    """
    y = np.asarray(y, dtype=np.float64)
    enc, M = encode_from_predictors(X)
    n, p = M.shape
    if y.shape[0] != n:
        raise FitError("predictors and target differ in row count")
    if n <= p:
        raise FitError(f"need more rows ({n}) than coefficients ({p})")

    # Overflow is expected here and reported as a FitError just below.
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = M.T @ M
        xty = M.T @ y
    if not (np.isfinite(xtx).all() and np.isfinite(xty).all()):
        raise FitError("the design sums X'X and X'y are not finite")
    ridged = _rank(M) < p
    if ridged:
        xtx = xtx + _RIDGE * np.eye(p)
    coef = np.linalg.solve(xtx, xty)

    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - M @ coef
        rss = float(resid @ resid)
    if not np.isfinite(rss):
        raise FitError("the residual sum of squares is not finite")
    sigma2 = max(rss, 0.0) / (n - p)
    cov = sigma2 * np.linalg.inv(xtx)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return LinearModel(
        encoding=enc,
        coef=coef,
        se=se,
        residual_sd=float(np.sqrt(sigma2)),
        ridged=ridged,
    )


def draw_linear_many(model: LinearModel, cols, rng: np.random.Generator) -> np.ndarray:
    """Predicted mean at every row of ``cols`` plus one normal residual draw
    each."""
    mu = model.predict(cols)
    return mu + rng.normal(0.0, model.residual_sd, size=mu.shape[0])
