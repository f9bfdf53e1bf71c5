"""Multinomial logistic regression fitted by Newton's method.

The first observed class is the reference and its coefficient row is pinned
at zero, so the parameter matrix has one row per remaining class. Iterations
maximise the softmax log-likelihood with step-halving. A fit has converged
when the score's largest component falls below ``tol``, or when no halving
of the Newton step raises the log-likelihood and the Newton decrement
g'H^-1g is at most ``tol`` (Boyd & Vandenberghe, *Convex Optimization*,
2004, §9.5.1): near the optimum the score, a sum over n rows, can stay above
an absolute bound while no step can still gain anything. Standard errors
come from the inverse of the observed information at the optimum.

Complete separation pushes coefficients towards infinity; any coefficient
exceeding the cap (30 in absolute value per encoded predictor) stops the
solver, clips the matrix, and flags the model as separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .design import DesignEncoding, Predictors, encode_from_predictors

_COEF_CAP = 30.0
_MAX_HALVINGS = 30


def _log_probs(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    logits = np.empty((n, B.shape[0] + 1), dtype=np.float64)
    logits[:, 0] = 0.0
    logits[:, 1:] = M @ B.T
    shift = logits.max(axis=1, keepdims=True)
    logits -= shift
    lse = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits - lse


def _one_hot(y_pos: np.ndarray, k: int) -> np.ndarray:
    """Indicators of the non-reference classes, shape (n, K-1)."""
    return (y_pos[:, None] == np.arange(1, k)[None, :]).astype(np.float64)


def _loglik(lp: np.ndarray, y_pos: np.ndarray) -> float:
    return float(lp[np.arange(lp.shape[0]), y_pos].sum())


def _score(M: np.ndarray, Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    return (Y - P[:, 1:]).T @ M


def _information(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    km1 = P.shape[1] - 1
    p = M.shape[1]
    info = np.empty((km1 * p, km1 * p), dtype=np.float64)
    for a in range(km1):
        pa = P[:, a + 1]
        for b in range(a, km1):
            w = pa * ((1.0 if a == b else 0.0) - P[:, b + 1])
            block = M.T @ (w[:, None] * M)
            info[a * p:(a + 1) * p, b * p:(b + 1) * p] = block
            if b != a:
                info[b * p:(b + 1) * p, a * p:(a + 1) * p] = block.T
    return info


def _finite_information(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The information matrix, checked before any LAPACK call: sums that
    overflow (values near 1e300) would reach the solvers as inf or nan."""
    info = _information(M, P)
    if not np.isfinite(info).all():
        raise FitError("the information matrix is not finite")
    return info


def softmax_loglik(M: np.ndarray, y_pos: np.ndarray, B: np.ndarray) -> float:
    return _loglik(_log_probs(M, B), y_pos)


def softmax_score(M: np.ndarray, y_pos: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood wrt B, shape (K-1, p)."""
    return _score(M, _one_hot(y_pos, B.shape[0] + 1), np.exp(_log_probs(M, B)))


def softmax_information(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Observed information (negative Hessian), shape ((K-1)p, (K-1)p)."""
    return _information(M, np.exp(_log_probs(M, B)))


@dataclass(frozen=True)
class LogisticModel:
    encoding: DesignEncoding
    classes: tuple[int, ...]
    coef: np.ndarray
    se: np.ndarray
    n: int
    n_iter: int
    converged: bool
    separated: bool
    loglik: float

    @property
    def coef_names(self) -> tuple[str, ...]:
        return self.encoding.coef_names

    def predict_proba(self, cols) -> np.ndarray:
        M = self.encoding.encode(cols)
        return np.exp(_log_probs(M, self.coef))


def fit_logistic(
    X: Predictors,
    y: np.ndarray,
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> LogisticModel:
    y = np.asarray(y, dtype=np.int64)
    enc, M = encode_from_predictors(X)
    n, p = M.shape
    if y.shape[0] != n:
        raise FitError("predictors and target differ in row count")
    classes = tuple(int(c) for c in np.unique(y))
    k = len(classes)
    if k < 2:
        raise FitError("target has a single observed class")
    if n <= p:
        raise FitError(f"need more rows ({n}) than encoded predictors ({p})")
    y_pos = np.searchsorted(np.asarray(classes, dtype=np.int64), y)
    Y = _one_hot(y_pos, k)

    # lp holds the log-probabilities at the current B; each iterate is
    # evaluated once, and its score and information reuse them.
    B = np.zeros((k - 1, p), dtype=np.float64)
    lp = _log_probs(M, B)
    ll = _loglik(lp, y_pos)
    converged = False
    separated = False
    it = 0
    for it in range(1, max_iter + 1):
        P = np.exp(lp)
        G = _score(M, Y, P)
        if float(np.abs(G).max()) < tol:
            converged = True
            it -= 1
            break
        info = _finite_information(M, P)
        g = G.reshape(-1)
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, g, rcond=None)[0]
        if not np.isfinite(step).all():
            step = np.linalg.pinv(info) @ g
        decrement = float(g @ step)
        step = step.reshape(k - 1, p)

        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = B + t * step
            lp_new = _log_probs(M, cand)
            ll_new = _loglik(lp_new, y_pos)
            if np.isfinite(ll_new) and ll_new > ll:
                B, lp, ll = cand, lp_new, ll_new
                accepted = True
                break
            t /= 2.0
        if not accepted:
            # No step raises the log-likelihood. B is optimal when the
            # Newton decrement g'H^-1g, twice the rise a full Newton step
            # would predict, is negligible.
            converged = decrement <= tol
            break
        if float(np.abs(B).max()) > _COEF_CAP:
            B = np.clip(B, -_COEF_CAP, _COEF_CAP)
            lp = _log_probs(M, B)
            ll = _loglik(lp, y_pos)
            separated = True
            break

    info = _finite_information(M, np.exp(lp))
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None)).reshape(k - 1, p)

    return LogisticModel(
        encoding=enc,
        classes=classes,
        coef=B,
        se=se,
        n=n,
        n_iter=it,
        converged=converged,
        separated=separated,
        loglik=ll,
    )


def _validated_probs(P: np.ndarray) -> np.ndarray:
    sums = P.sum(axis=1)
    drift = float(np.abs(sums - 1.0).max()) if P.shape[0] else 0.0
    if drift > 1e-9:
        raise FitError(f"class probabilities drift from 1 by {drift:.3e}")
    return P / sums[:, None]


def draw_class_many(model: LogisticModel, cols, rng: np.random.Generator) -> np.ndarray:
    """Draw one class per row of ``cols`` from the model's probabilities.

    Probabilities are renormalised when they are off by at most 1e-9; larger
    drift raises.
    """
    P = _validated_probs(model.predict_proba(cols))
    cum = np.cumsum(P, axis=1)
    u = rng.random(P.shape[0])
    picks = (cum <= u[:, None]).sum(axis=1)
    picks = np.minimum(picks, len(model.classes) - 1)
    return np.asarray(model.classes, dtype=np.int64)[picks]
