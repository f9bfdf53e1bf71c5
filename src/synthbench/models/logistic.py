"""Multinomial logistic regression fitted by Newton's method.

The first observed class is the reference and its coefficient row is pinned
at zero, so the parameter matrix has one row per remaining class. Iterations
maximise the softmax log-likelihood with step-halving. A fit has converged
when the score's largest component falls below ``_TOL``, or when no halving
of the Newton step raises the log-likelihood and the Newton decrement
g'H^-1g is at most ``_TOL`` (Boyd & Vandenberghe, *Convex Optimization*,
2004, §9.5.1): near the optimum the score, a sum over n rows, can stay above
an absolute bound while no step can still gain anything. Standard errors
come from the inverse of the observed information at the optimum. Only the
analysis side reads them (``estimands``); synthesis fits pass
``standard_errors=False``, because a draw reads only ``coef``.

The softmax's rows hold K entries, and numpy pays a fixed cost per row when
it reduces or broadcasts along so short an axis. So the log-probabilities
are held as a (K, n) array, one contiguous row per class, and the shift, the
normalising sums, the score's residuals and a draw's cumulative sums run
over whole length-n columns. The shift is a maximum, exact in any order.
The normalising sums and a draw's cumulative sums add the classes in class
order, one column at a time, so no result depends on how numpy blocks a
reduction. The golden digests pin the fits and draws. The BLAS products
receive the operands and layouts they always have, because a product may
round differently for another layout.

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
_MAX_ITER = 50
_MAX_HALVINGS = 30
_TOL = 1e-8


def _class_sums(P: np.ndarray) -> np.ndarray:
    """Column sums of a (K, n) array, adding the class rows in class order."""
    out = P[0].copy()
    for row in P[1:]:
        out += row
    return out


def _log_probs(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Log-probabilities of the K classes, shape (K, n): one contiguous row
    per class."""
    L = np.empty((B.shape[0] + 1, M.shape[0]), dtype=np.float64)
    L[0] = 0.0
    L[1:] = (M @ B.T).T
    L -= L.max(axis=0)
    L -= np.log(_class_sums(np.exp(L)))
    return L


def _one_hot(y_pos: np.ndarray, k: int) -> np.ndarray:
    """Indicators of the non-reference classes, shape (K-1, n)."""
    return (y_pos == np.arange(1, k)[:, None]).astype(np.float64)


def _picks(y_pos: np.ndarray) -> np.ndarray:
    """Flat indices of each row's observed class in a (K, n) array."""
    n = y_pos.shape[0]
    return y_pos * n + np.arange(n)


def _loglik(lp: np.ndarray, picks: np.ndarray) -> float:
    return float(lp.take(picks).sum())


def _score(M: np.ndarray, Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood wrt B, shape (K-1, p)."""
    # Y - P over the non-reference classes, laid out (n, K-1) as the BLAS
    # product has always received it.
    resid = np.empty((Y.shape[1], Y.shape[0]), dtype=np.float64)
    np.subtract(Y, P[1:], out=resid.T)
    return resid.T @ M


def _information(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Observed information (negative Hessian), shape ((K-1)p, (K-1)p)."""
    km1 = P.shape[0] - 1
    p = M.shape[1]
    info = np.empty((km1 * p, km1 * p), dtype=np.float64)
    for a in range(km1):
        pa = P[a + 1]
        for b in range(a, km1):
            w = pa * ((1.0 if a == b else 0.0) - P[b + 1])
            block = M.T @ (w[:, None] * M)
            info[a * p:(a + 1) * p, b * p:(b + 1) * p] = block
            if b != a:
                info[b * p:(b + 1) * p, a * p:(a + 1) * p] = block.T
    return info


def _finite_information(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The information matrix, checked before any LAPACK call: sums that
    overflow (values near 1e300) would reach the solvers as inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        info = _information(M, P)
    if not np.isfinite(info).all():
        raise FitError("the information matrix is not finite")
    return info


@dataclass(frozen=True)
class LogisticModel:
    encoding: DesignEncoding
    classes: tuple[int, ...]
    coef: np.ndarray
    se: np.ndarray | None
    n_iter: int
    converged: bool
    separated: bool
    loglik: float

    @property
    def coef_names(self) -> tuple[str, ...]:
        return self.encoding.coef_names


def fit_logistic(
    X: Predictors,
    y: np.ndarray,
    *,
    standard_errors: bool = True,
) -> LogisticModel:
    """With ``standard_errors=False`` the model's ``se`` is None, and the
    last information build and its inverse are skipped."""
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
    picks = _picks(y_pos)

    # lp holds the log-probabilities at the current B; each iterate is
    # evaluated once, and its score and information reuse them.
    B = np.zeros((k - 1, p), dtype=np.float64)
    lp = _log_probs(M, B)
    ll = _loglik(lp, picks)
    converged = False
    separated = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        P = np.exp(lp)
        G = _score(M, Y, P)
        if float(np.abs(G).max()) < _TOL:
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
            ll_new = _loglik(lp_new, picks)
            if np.isfinite(ll_new) and ll_new > ll:
                B, lp, ll = cand, lp_new, ll_new
                accepted = True
                break
            t /= 2.0
        if not accepted:
            # No step raises the log-likelihood. B is optimal when the
            # Newton decrement g'H^-1g, twice the rise a full Newton step
            # would predict, is negligible.
            converged = decrement <= _TOL
            break
        if float(np.abs(B).max()) > _COEF_CAP:
            B = np.clip(B, -_COEF_CAP, _COEF_CAP)
            lp = _log_probs(M, B)
            ll = _loglik(lp, picks)
            separated = True
            break

    se = None
    if standard_errors:
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
        n_iter=it,
        converged=converged,
        separated=separated,
        loglik=ll,
    )


def _validated_probs(P: np.ndarray) -> np.ndarray:
    """Class probabilities of shape (K, n), each column rescaled to sum to 1."""
    sums = _class_sums(P)
    drift = float(np.abs(sums - 1.0).max()) if P.shape[1] else 0.0
    if drift > 1e-9:
        raise FitError(f"class probabilities drift from 1 by {drift:.3e}")
    return P / sums


def draw_class_many(model: LogisticModel, cols, rng: np.random.Generator) -> np.ndarray:
    """Draw one class per row of ``cols`` from the model's probabilities.

    Probabilities are renormalised when they are off by at most 1e-9; larger
    drift raises. A row draws the first class whose cumulative probability,
    summed in class order, exceeds its uniform draw.
    """
    P = _validated_probs(np.exp(_log_probs(model.encoding.encode(cols), model.coef)))
    u = rng.random(P.shape[1])
    picks = np.minimum((np.cumsum(P, axis=0) <= u).sum(axis=0), len(model.classes) - 1)
    return np.asarray(model.classes, dtype=np.int64)[picks]
