"""Analysis-level comparisons: classification, ad-hoc predicates, correlation.

``classify_compare`` mirrors how an analyst would use a released dataset:
train a classifier on each synthetic dataset, train the same classifier on
the original, and evaluate everything on the original records. Besides
accuracies it reports record-level agreement: the share of records on which
the synthetic-trained and original-trained models are either both correct or
both wrong, averaged over the synthetic models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import AnalysisError
from .models.cart import CartProblem, CartTree, fit_cart
from .models.design import Predictors
from .synthesis import SyntheticSet

ADHOC_OPS = ("eq", "le", "ge", "lt", "gt")


@dataclass(frozen=True)
class ClassificationResult:
    label: str
    target: str
    baseline_accuracy: float
    accuracies: tuple[float, ...]
    mean_accuracy: float
    agreement: float

    @property
    def accuracy_deviation(self) -> float:
        return abs(self.baseline_accuracy - self.mean_accuracy)


def _classifier_problem(train: Dataset, target: str) -> CartProblem:
    """The donor tree of ``target`` on every other column of ``train``."""
    names = [n for n in train.schema.names if n != target]
    X = Predictors.from_dataset(train, names)
    # Stability floor. A deeply overfit tree trained on label-independent
    # data scores systematically below the majority rate (greedy noise
    # splits concentrate minority rows), so the comparison would punish a
    # synthesizer beyond the information it destroyed. sqrt(n) leaves keep
    # noise-trained trees close to a majority vote while leaving real
    # structure easy to pick up.
    min_leaf = max(5, math.isqrt(train.n_rows))
    return CartProblem(X, train.column(target), train.schema.kind(target), min_leaf)


def _predict(tree: CartTree, train: Dataset, evaluate: Dataset, target: str) -> np.ndarray:
    """The class ``tree``, fitted on ``train``, predicts for each record of
    ``evaluate``."""
    return tree.predict_class([evaluate.column(n) for n in tree.names], train.column(target))


@dataclass(frozen=True)
class ClassifierBaseline:
    """The original-trained side of a classifier comparison: the original
    records it is scored on, their labels, and which of them it gets right.
    ``target``, ``seed`` and ``test_fraction`` say which labels and records
    those are; ``seed`` is None when no holdout split uses it."""

    eval_ds: Dataset
    y_true: np.ndarray
    correct: np.ndarray
    target: str
    seed: int | None
    test_fraction: float | None


def _split_seed(seed: int | None, test_fraction: float | None) -> int | None:
    """The seed the holdout split draws from, or None without a split."""
    return None if test_fraction is None else (0 if seed is None else seed)


def classifier_baseline(
    original: Dataset,
    target: str,
    *,
    seed: int | None = None,
    test_fraction: float | None = None,
) -> ClassifierBaseline:
    """Train the donor-tree classifier on the original data and score it on
    the original records (arguments as in ``classify_compare``)."""
    if not original.schema.kind(target).is_categorical:
        raise AnalysisError(f"target {target!r} is not categorical")
    if len(original.schema) < 2:
        raise AnalysisError("classification needs at least one predictor column")

    seed = _split_seed(seed, test_fraction)
    if test_fraction is None:
        train_orig = original
        eval_ds = original
    else:
        if not (0.0 < test_fraction < 1.0):
            raise AnalysisError("test_fraction must lie in (0, 1)")
        rng = np.random.default_rng(seed)
        n = original.n_rows
        perm = rng.permutation(n)
        n_test = max(1, int(round(test_fraction * n)))
        test_rows = np.sort(perm[:n_test])
        train_rows = np.sort(perm[n_test:])
        if train_rows.size == 0:
            raise AnalysisError("test_fraction leaves no training rows")
        train_orig = original.take(train_rows)
        eval_ds = original.take(test_rows)

    y_true = eval_ds.column(target)
    (tree,) = fit_cart([_classifier_problem(train_orig, target)]).trees
    correct = _predict(tree, train_orig, eval_ds, target) == y_true
    correct.flags.writeable = False
    return ClassifierBaseline(eval_ds, y_true, correct, target, seed, test_fraction)


def classify_compare(
    original: Dataset,
    synthetic: SyntheticSet,
    target: str,
    *,
    seed: int | None = None,
    test_fraction: float | None = None,
    baseline: ClassifierBaseline | None = None,
) -> ClassificationResult:
    """Train a donor-tree classifier per synthetic dataset and on the
    original; evaluate all of them on the original records.

    Each tree's leaves hold at least max(5, sqrt(n)) of its n training rows,
    so that a classifier trained on label-independent data degrades to
    roughly majority-vote accuracy instead of below it.

    ``test_fraction`` switches on a holdout split (off by default): models
    train as before but are scored only on the held-out original rows, and
    the original-trained model sees only the training rows.

    ``baseline`` is the original-trained side, from ``classifier_baseline``
    with the same arguments; it is computed here when not given, and one
    built for another target, seed or holdout fraction is an error.

    The synthetic-trained trees grow together as one forest.
    """
    if synthetic.m < 1:
        raise AnalysisError("no synthetic datasets to evaluate")
    if baseline is None:
        baseline = classifier_baseline(original, target, seed=seed, test_fraction=test_fraction)
    asked = (target, _split_seed(seed, test_fraction), test_fraction)
    if (baseline.target, baseline.seed, baseline.test_fraction) != asked:
        raise AnalysisError(
            f"the classifier baseline was built for target {baseline.target!r}, seed "
            f"{baseline.seed}, test_fraction {baseline.test_fraction}; this comparison "
            f"asks for target {asked[0]!r}, seed {asked[1]}, test_fraction {asked[2]}"
        )

    accuracies = []
    agreements = []
    forest = fit_cart([_classifier_problem(ds, target) for ds in synthetic.datasets])
    for ds, tree in zip(synthetic.datasets, forest.trees):
        pred = _predict(tree, ds, baseline.eval_ds, target)
        correct = pred == baseline.y_true
        accuracies.append(float(correct.mean()))
        agreements.append(float((correct == baseline.correct).mean()))

    return ClassificationResult(
        label=synthetic.label,
        target=target,
        baseline_accuracy=float(baseline.correct.mean()),
        accuracies=tuple(accuracies),
        mean_accuracy=math.fsum(accuracies) / len(accuracies),
        agreement=math.fsum(agreements) / len(agreements),
    )


@dataclass(frozen=True)
class Condition:
    column: str
    op: str
    value: float | str

    def __post_init__(self) -> None:
        if self.op not in ADHOC_OPS:
            raise AnalysisError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class AdhocPredicate:
    id: str
    conditions: tuple[Condition, ...]


def load_adhoc(path: str | Path) -> tuple[AdhocPredicate, ...]:
    """Read ad-hoc predicates from a JSON document (see README grammar)."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise AnalysisError(f"adhoc file is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or "analyses" not in doc:
        raise AnalysisError("adhoc document must be an object with an 'analyses' list")
    out = []
    for entry in doc["analyses"]:
        try:
            conds = tuple(
                Condition(c["column"], c["op"], c["value"]) for c in entry["conditions"]
            )
            out.append(AdhocPredicate(entry["id"], conds))
        except (KeyError, TypeError) as err:
            raise AnalysisError(f"bad adhoc entry {entry!r}: {err}") from err
    ids = [a.id for a in out]
    if len(set(ids)) != len(ids):
        raise AnalysisError("duplicate adhoc ids")
    return tuple(out)


def adhoc_proportion(ds: Dataset, predicate: AdhocPredicate) -> float:
    """Fraction of rows satisfying the conjunction of the conditions."""
    keep = np.ones(ds.n_rows, dtype=bool)
    for cond in predicate.conditions:
        kind = ds.schema.kind(cond.column)
        col = ds.column(cond.column)
        if kind.is_categorical:
            if cond.op != "eq":
                raise AnalysisError(
                    f"operator {cond.op!r} is not valid for categorical {cond.column!r}"
                )
            levels = kind.levels
            assert levels is not None
            if cond.value not in levels:
                raise AnalysisError(
                    f"{cond.value!r} is not a level of column {cond.column!r}"
                )
            keep &= col == levels.index(cond.value)
        else:
            try:
                v = float(cond.value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise AnalysisError(
                    f"condition on numeric column {cond.column!r} needs a number"
                ) from None
            if cond.op == "eq":
                keep &= col == v
            elif cond.op == "le":
                keep &= col <= v
            elif cond.op == "ge":
                keep &= col >= v
            elif cond.op == "lt":
                keep &= col < v
            else:
                keep &= col > v
    return float(keep.mean())


@dataclass(frozen=True)
class CorrelationResult:
    series_x: str
    series_y: str
    r: float
    n: int


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; needs n >= 3 and non-constant series."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise AnalysisError("series differ in length")
    if x.shape[0] < 3:
        raise AnalysisError("correlation needs at least three points")
    if x.max() == x.min() or y.max() == y.min():
        raise AnalysisError("correlation is undefined for a constant series")
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx @ dy) / math.sqrt((dx @ dx) * (dy @ dy)))


def correlation_battery(
    series: Mapping[str, Mapping[tuple, float]],
    pairs: Sequence[tuple[str, str]],
) -> tuple[tuple[CorrelationResult, ...], tuple[tuple[str, str, str], ...]]:
    """Correlate metric series across synthesizer combinations.

    ``series`` maps a metric name to {combination key: value}. For each
    requested pair the values are aligned on the shared keys. Pairs whose
    aligned series are constant are skipped with a reason instead of failing;
    fewer than three aligned combinations is an error.
    """
    results = []
    skipped = []
    for name_x, name_y in pairs:
        if name_x not in series or name_y not in series:
            missing = name_x if name_x not in series else name_y
            skipped.append((name_x, name_y, f"no series {missing!r}"))
            continue
        sx, sy = series[name_x], series[name_y]
        keys = sorted(set(sx) & set(sy))
        if len(keys) < 3:
            raise AnalysisError(
                f"pair ({name_x!r}, {name_y!r}) has only {len(keys)} aligned combinations"
            )
        xs = [sx[k] for k in keys]
        ys = [sy[k] for k in keys]
        if max(xs) == min(xs) or max(ys) == min(ys):
            which = name_x if max(xs) == min(xs) else name_y
            skipped.append((name_x, name_y, f"series {which!r} is constant"))
            continue
        results.append(CorrelationResult(name_x, name_y, pearson(xs, ys), len(keys)))
    return tuple(results), tuple(skipped)
