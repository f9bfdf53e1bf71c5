"""Sequential and joint synthesis of fully synthetic datasets.

A synthesizer walks the columns in a visit sequence. Each visit step has two
parts. The fit step (``fit_step``) fits the model of a ``Step`` (method,
targets, preds, min_leaf, pmm_k) on the fitting set: the original data, or a
with-replacement bootstrap resample of it when the spec is "proper". It uses
no randomness and returns a plain fitted value (``Marginal``, ``Donors``,
``Normal``, ``Softmax``, ``MeanMatch`` or ``Tuples``). The draw step, that
value's ``draw(X_syn, n, rng)``, then draws the whole synthetic column at
once, conditioning on the predictor columns already synthesized. A variable
with no predictors is drawn marginally, by resampling the fitting column.
Columns covered by the joint-categorical method form one step at the first
visit position the group occupies, and are drawn together as whole level
tuples from their contingency table.

Every (dataset index, visited column) pair consumes its own derived random
stream, so dataset i is a pure function of (seed, i) no matter how many
datasets are generated or in what order. For the same reason a fitted value
can be drawn from any number of times: a non-proper spec fits each step once
(``FitMemo``, keyed by the ``Step``) and draws all m datasets from those
fits, and specs that visit in other orders share the steps they have in
common. No fit uses randomness, so the donor trees of many steps, and of many
datasets' bootstrap resamples, can grow together as one forest before any
draw.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .dataset import Dataset, NumberText, Schema, load_csv, write_csv
from .errors import DataError, FitError, SpecError, SynthesisError
from .models.cart import CartProblem, CartTree, draw_donor_rows, fit_cart
from .models.contingency import JointTable, draw_tuples, fit_joint_table
from .models.design import Predictors
from .models.linear import LinearModel, draw_linear_many, fit_ols
from .models.logistic import LogisticModel, draw_class_many, fit_logistic


class Method(Enum):
    SAMPLE = "sample"
    PARAMETRIC_NUMERIC = "parametric_numeric"
    PARAMETRIC_CATEGORICAL = "parametric_categorical"
    CART = "cart"
    PMM = "pmm"
    JOINT_CATEGORICAL = "joint_categorical"


BASES = ("P", "D", "CP", "CC", "S")

ORDER_KINDS = ("original", "opposite", "own", "largest_cat_first", "largest_cat_last")

_ORDER_SUFFIX = {
    "original": "",
    "opposite": "O",
    "own": "V",
    "largest_cat_first": "H",
    "largest_cat_last": "L",
}


def synthesizer_label(base: str, order: str, proper: bool) -> str:
    """The grid label of a synthesizer: "DOT" is proper D in opposite order."""
    return base + _ORDER_SUFFIX[order] + ("T" if proper else "")


@dataclass(frozen=True)
class VisitSequence:
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise SpecError("visit sequence must be a permutation of the columns")


def make_order(
    schema: Schema,
    kind: str,
    own: tuple[str, ...] | None = None,
) -> VisitSequence:
    """Build a visit sequence over the schema's columns.

    ``largest_cat_first``/``largest_cat_last`` move the categorical column
    with the most levels (ties broken by original column order) to the front
    or back; everything else keeps its original relative order. ``own`` takes
    an explicit permutation of column names.
    """
    p = len(schema)
    if kind not in ORDER_KINDS:
        raise SpecError(f"unknown order kind {kind!r}")
    if kind == "original":
        return VisitSequence(tuple(range(p)))
    if kind == "opposite":
        return VisitSequence(tuple(reversed(range(p))))
    if kind == "own":
        if own is None:
            raise SpecError("own order requires the column permutation")
        idx = tuple(schema.index(name) for name in own)
        return VisitSequence(idx)
    cat_sizes = [
        (c.kind.n_levels, i)
        for i, c in enumerate(schema.columns)
        if c.kind.is_categorical
    ]
    if not cat_sizes:
        raise SpecError(f"order {kind!r} needs at least one categorical column")
    best = max(cat_sizes, key=lambda t: (t[0], -t[1]))[1]
    rest = [i for i in range(p) if i != best]
    if kind == "largest_cat_first":
        return VisitSequence(tuple([best] + rest))
    return VisitSequence(tuple(rest + [best]))


def make_predictors(
    visit: VisitSequence,
    selective: dict[int, tuple[int, ...]] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Each column's predictors, ascending. Simple mode: every
    earlier-visited column predicts every later one. Selective mode
    overrides listed targets with exactly the given subsets; unlisted
    targets keep the simple default."""
    p = len(visit.order)
    preds = [()] * p
    for k, col in enumerate(visit.order):
        preds[col] = tuple(sorted(visit.order[:k]))
    for target, chosen in (selective or {}).items():
        for q in (target, *chosen):
            if q < 0 or q >= p:
                raise SpecError(f"selective column {q} out of range")
        preds[target] = tuple(sorted(set(chosen)))
    return tuple(preds)


@dataclass(frozen=True)
class SynthesizerSpec:
    """Complete recipe for one synthesizer: per-column methods, visit order,
    predictor sets (column i's predictors, ascending), proper flag, dataset
    count and master seed."""

    label: str
    methods: tuple[Method, ...]
    visit: VisitSequence
    predictors: tuple[tuple[int, ...], ...]
    proper: bool
    m: int
    seed: int
    pmm_k: int = 5
    min_leaf: int = 5

    def __post_init__(self) -> None:
        p = len(self.methods)
        if len(self.visit.order) != p or len(self.predictors) != p:
            raise SpecError("methods, visit sequence and predictor sets disagree")
        if self.m < 1:
            raise SpecError(f"m must be >= 1, got {self.m}")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
        if self.pmm_k < 1 or self.min_leaf < 1:
            raise SpecError("pmm_k and min_leaf must be >= 1")
        pos = {c: k for k, c in enumerate(self.visit.order)}
        for i, preds in enumerate(self.predictors):
            for j in preds:
                if j == i:
                    raise SpecError(f"column {i} cannot predict itself")
                if pos.get(j, p) >= pos[i]:
                    raise SpecError(
                        f"predictor {j} of column {i} does not precede it in the visit"
                    )
        group_pos = sorted(
            pos[i] for i, mth in enumerate(self.methods) if mth is Method.JOINT_CATEGORICAL
        )
        if group_pos and group_pos != list(range(group_pos[0], group_pos[0] + len(group_pos))):
            raise SpecError("joint-categorical columns must be contiguous in the visit sequence")

    def validate_against(self, schema: Schema) -> None:
        if len(self.methods) != len(schema):
            raise SpecError("spec does not match the schema's column count")
        for i, (col, mth) in enumerate(zip(schema.columns, self.methods)):
            if mth in (Method.PARAMETRIC_NUMERIC, Method.PMM) and not col.kind.is_numeric:
                raise SpecError(f"{mth.value} requires a numeric column, got {col.name!r}")
            if mth in (Method.PARAMETRIC_CATEGORICAL, Method.JOINT_CATEGORICAL):
                if not col.kind.is_categorical:
                    raise SpecError(
                        f"{mth.value} requires a categorical column, got {col.name!r}"
                    )


def build_spec(
    schema: Schema,
    base: str,
    *,
    order: str = "original",
    own_order: tuple[str, ...] | None = None,
    proper: bool = False,
    m: int = 1,
    seed: int = 0,
    selective: dict[int, tuple[int, ...]] | None = None,
    pmm_k: int = 5,
    min_leaf: int = 5,
) -> SynthesizerSpec:
    """Assemble a spec from a base synthesizer name and an ordering choice.

    Bases: S resamples every column independently; P fits linear models to
    numeric columns and logistic models to categorical ones; D fits a donor
    tree to every column; CP and CC draw all categorical columns jointly from
    their contingency table and handle numeric columns with predictive mean
    matching (CP) or donor trees (CC). For CP/CC the categorical block is
    visited first.
    """
    if base not in BASES:
        raise SpecError(f"unknown base synthesizer {base!r}")
    base_order = make_order(schema, order, own_order)
    if base in ("CP", "CC"):
        cats = [i for i in base_order.order if schema.columns[i].kind.is_categorical]
        nums = [i for i in base_order.order if schema.columns[i].kind.is_numeric]
        visit = VisitSequence(tuple(cats + nums))
    else:
        visit = base_order

    methods: list[Method] = []
    for col in schema.columns:
        if base == "S":
            methods.append(Method.SAMPLE)
        elif base == "P":
            methods.append(
                Method.PARAMETRIC_NUMERIC if col.kind.is_numeric else Method.PARAMETRIC_CATEGORICAL
            )
        elif base == "D":
            methods.append(Method.CART)
        elif base == "CP":
            methods.append(Method.PMM if col.kind.is_numeric else Method.JOINT_CATEGORICAL)
        else:  # CC
            methods.append(Method.CART if col.kind.is_numeric else Method.JOINT_CATEGORICAL)

    return SynthesizerSpec(
        label=synthesizer_label(base, order, proper),
        methods=tuple(methods),
        visit=visit,
        predictors=make_predictors(visit, selective),
        proper=proper,
        m=m,
        seed=seed,
        pmm_k=pmm_k,
        min_leaf=min_leaf,
    )


@dataclass(frozen=True)
class SyntheticSet:
    """The m generated datasets plus per-dataset generation seconds
    (model fitting and drawing; excludes any file writing)."""

    label: str
    seed: int
    datasets: tuple[Dataset, ...]
    wall_times: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.datasets)


# A batch of proper datasets holds at most this many bootstrap rows, so
# memory stays bounded at any m.
_BATCH_ROWS = 1 << 15


def _stream(seed: int, dataset_index: int, tag: int) -> np.random.Generator:
    """Independent child stream for (seed, dataset, variable-or-bootstrap)."""
    return np.random.default_rng(np.random.SeedSequence((seed, dataset_index, tag)))


def _bootstrap_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def _pmm_pick(
    fit_preds: np.ndarray,
    fitting_y: np.ndarray,
    query_preds: np.ndarray,
    k: int,
    u: np.ndarray,
) -> np.ndarray:
    """For each query, rank the fitting rows by (|prediction - query|, row id),
    keep the first ``k`` and return the observed value of the one chosen by
    ``u`` (uniform on [0, 1)): index ``min(floor(u * k), k - 1)``.

    The predictions are sorted once, ascending by value with ties by row id
    ascending (the rows at or above a query, nearest first) and with ties by
    row id descending (the rows below it, walked back nearest first).
    Rounded distance is monotone in the prediction on each side, so the
    first ``k`` rows of each side hold that side's ``k`` nearest, and the
    2k candidates hold the overall ``k`` nearest, unless rows with different
    predictions round to one distance across the k-th place. A query is
    redone by ``_pmm_pick_exhaustive`` when, on either side, the distinct
    prediction just beyond the k-th row's rounds to the k-th distance, or the
    one just before it does while the (k+1)-th row ties the k-th. Equal
    predictions alone never cause this. Calls with non-finite values or
    fewer than ``k`` fitting rows go to it whole; the result always equals
    it bit for bit.

    Cost is O((n + q) log n + q k log k) for n fitting rows and q queries.
    """
    nf = fit_preds.shape[0]
    nq = query_preds.shape[0]
    if nf < k or not (np.isfinite(fit_preds).all() and np.isfinite(query_preds).all()):
        return _pmm_pick_exhaustive(fit_preds, fitting_y, query_preds, k, u)

    up = np.argsort(fit_preds, kind="stable")
    down = nf - 1 - np.argsort(fit_preds[::-1], kind="stable")
    sv = fit_preds[up]
    q = query_preds[:, None]
    pos = np.searchsorted(sv, q)

    # Sorted place i is looked up at i + pad. Places off either end read a
    # NaN prediction, which equals no distance and sorts after every real
    # one, and row id nf.
    pad = k + 1
    nan_pad = np.full(pad, np.nan)
    id_pad = np.full(pad, nf)
    svp = np.concatenate([nan_pad, sv, nan_pad])
    upp = np.concatenate([id_pad, up, id_pad])
    downp = np.concatenate([id_pad, down, id_pad])

    # The window: places pos .. pos+k-1 above the query (rows in `up` order)
    # and pos-k .. pos-1 below it (rows in `down` order).
    step = np.arange(-k, k)
    at = pos + step + pad
    cand = np.where(step >= 0, upp[at], downp[at])
    order = np.lexsort((cand, np.abs(svp[at] - q)), axis=1)
    choice = np.minimum(np.floor(u * k).astype(np.int64), k - 1)
    rows = np.arange(nq)
    out = fitting_y[cand[rows, order[rows, choice]]].astype(np.float64)

    # Column 0 is the side above the query, column 1 the side below. A k-th
    # place off the end has a NaN distance, which ties nothing.
    above = np.array([True, False])
    away = np.array([1, -1])
    kth = pos + np.array([k - 1, -k])
    vk = svp[kth + pad]
    dk = np.abs(vk - q)

    def ties_kth(i):
        return np.abs(svp[i + pad] - q) == dk

    # The distinct prediction values next to the k-th one.
    before = np.searchsorted(sv, vk, side="left") - 1
    after = np.searchsorted(sv, vk, side="right")
    farther = np.where(above, after, before)
    nearer = np.where(above, before, after)
    redo = (
        ties_kth(farther)
        | (ties_kth(kth + away) & ((nearer >= pos) == above) & ties_kth(nearer))
    ).any(axis=1)
    if redo.any():
        out[redo] = _pmm_pick_exhaustive(
            fit_preds, fitting_y, query_preds[redo], k, u[redo]
        )
    return out


def _pmm_pick_exhaustive(
    fit_preds: np.ndarray,
    fitting_y: np.ndarray,
    query_preds: np.ndarray,
    k: int,
    u: np.ndarray,
) -> np.ndarray:
    """Reference donor search: lexsort every (query, fitting row) distance.
    Quadratic in the row count; ``_pmm_pick`` uses it only where its window
    could be wrong."""
    nf = fit_preds.shape[0]
    nq = query_preds.shape[0]
    out = np.empty(nq, dtype=np.float64)
    row_ids = np.arange(nf)
    block = max(1, 2_000_000 // max(nf, 1))
    choice = np.minimum(np.floor(u * k).astype(np.int64), k - 1)
    for s in range(0, nq, block):
        q = query_preds[s:s + block]
        d = np.abs(fit_preds[None, :] - q[:, None])
        ids = np.broadcast_to(row_ids, d.shape)
        order = np.lexsort((ids, d), axis=1)[:, :k]
        pick = order[np.arange(q.shape[0]), choice[s:s + block]]
        out[s:s + block] = fitting_y[pick]
    return out


@dataclass(frozen=True)
class Marginal:
    """Resample the fitting column, ignoring every predictor."""

    y: np.ndarray

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.y[rng.integers(0, self.y.shape[0], size=n)]


@dataclass(frozen=True)
class Donors:
    """A donor tree: each row takes a random donor's value from its leaf."""

    tree: CartTree
    y: np.ndarray

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.y[draw_donor_rows(self.tree, X_syn, rng)]


@dataclass(frozen=True)
class Normal:
    """Linear prediction plus a normal residual draw."""

    model: LinearModel

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        return draw_linear_many(self.model, X_syn, rng)


@dataclass(frozen=True)
class Softmax:
    """A class drawn from the logistic model's probabilities."""

    model: LogisticModel

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        return draw_class_many(self.model, X_syn, rng)


@dataclass(frozen=True)
class MeanMatch:
    """Predictive mean matching over the ``k`` nearest fitting predictions."""

    model: LinearModel
    fit_preds: np.ndarray
    y: np.ndarray
    k: int

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        query_preds = self.model.predict(X_syn)
        return _pmm_pick(self.fit_preds, self.y, query_preds, self.k, rng.random(n))


@dataclass(frozen=True)
class Tuples:
    """Level tuples of the joint-categorical group from its contingency table."""

    table: JointTable

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        return draw_tuples(self.table, n, rng)


Fitted = Marginal | Donors | Normal | Softmax | MeanMatch | Tuples


class Step(NamedTuple):
    """One fit of a synthesizer: the model of ``method`` that draws
    ``targets`` (one column, or the whole joint-categorical group in column
    order) from the columns ``preds``. With the fitting set it fixes the
    fitted value, so it is the ``FitMemo`` key."""

    method: Method
    targets: tuple[int, ...]
    preds: tuple[int, ...]
    min_leaf: int
    pmm_k: int

    @property
    def grows_tree(self) -> bool:
        """Whether the step fits a donor tree; a CART step without
        predictors resamples its column instead."""
        return self.method is Method.CART and bool(self.preds)

    def cart_problem(self, fit_ds: Dataset) -> CartProblem:
        """The donor-tree problem of this CART step on ``fit_ds``."""
        schema = fit_ds.schema
        (j,) = self.targets
        X = Predictors.from_dataset(fit_ds, (schema.columns[q].name for q in self.preds))
        return CartProblem(X, fit_ds.columns[j], schema.columns[j].kind, self.min_leaf)


def fit_step(step: Step, fit_ds: Dataset) -> Fitted:
    """Fit the model of ``step`` on ``fit_ds``. Uses no randomness: the
    returned value's ``draw`` takes every draw."""
    method, targets, preds = step.method, step.targets, step.preds
    schema = fit_ds.schema
    if method is Method.JOINT_CATEGORICAL:
        return Tuples(fit_joint_table(fit_ds, tuple(schema.columns[g].name for g in targets)))
    (j,) = targets
    y_fit = fit_ds.columns[j]
    # A single observed class needs no model: resampling repeats it.
    if method is Method.SAMPLE or not preds or (
        method is Method.PARAMETRIC_CATEGORICAL and np.unique(y_fit).size == 1
    ):
        return Marginal(y_fit)
    if method is Method.CART:
        return _fit_donors([step.cart_problem(fit_ds)])[0]

    X_fit = Predictors.from_dataset(fit_ds, (schema.columns[q].name for q in preds))
    if method is Method.PARAMETRIC_NUMERIC:
        return Normal(fit_ols(X_fit, y_fit))
    if method is Method.PARAMETRIC_CATEGORICAL:
        return Softmax(fit_logistic(X_fit, y_fit, standard_errors=False))
    if method is Method.PMM:
        if fit_ds.n_rows < step.pmm_k:
            raise FitError(f"need at least pmm_k={step.pmm_k} fitting rows, got {fit_ds.n_rows}")
        lm = fit_ols(X_fit, y_fit)
        return MeanMatch(lm, lm.predict(X_fit.cols), y_fit.astype(np.float64), step.pmm_k)
    raise SpecError(f"unhandled method {method}")


def _fit_donors(problems: list[CartProblem]) -> list[Donors]:
    """One donor tree per problem, grown together as one forest."""
    return [Donors(tree, p.y) for p, tree in zip(problems, fit_cart(problems).trees)]


def visit_steps(spec: SynthesizerSpec) -> Iterator[tuple[int, Step]]:
    """Every (visited column, step) of ``spec``, in visit order. The column
    picks the step's random stream; the fit is the step's alone, so specs
    that visit in other orders can share it. The joint-categorical group is
    one step, without predictors, at its first visit position."""
    group = tuple(j for j, mth in enumerate(spec.methods) if mth is Method.JOINT_CATEGORICAL)
    first = next((j for j in spec.visit.order if j in group), None)
    for j in spec.visit.order:
        if j == first:
            yield j, Step(Method.JOINT_CATEGORICAL, group, (), spec.min_leaf, spec.pmm_k)
        elif j not in group:
            yield j, Step(spec.methods[j], (j,), spec.predictors[j], spec.min_leaf, spec.pmm_k)


class FitMemo:
    """The fitted steps of one fitting set, keyed by ``Step``.

    A fitted value is a pure function of its fitting set and its step, and
    its ``draw`` takes every random number, so one value can serve every
    dataset of every spec that fits on the same data, and no draw changes."""

    def __init__(self, fit_ds: Dataset) -> None:
        self.fit_ds = fit_ds
        self._fitted: dict[Step, Fitted] = {}

    def fit(self, step: Step) -> Fitted:
        fitted = self._fitted.get(step)
        if fitted is None:
            fitted = self._fitted[step] = fit_step(step, self.fit_ds)
        return fitted

    def add(self, step: Step, fitted: Fitted) -> None:
        """Store ``fitted`` for ``step``: a value that ``fit`` made for the
        same step on an equal fitting set, in this or another process."""
        self._fitted[step] = fitted

    def __contains__(self, step: Step) -> bool:
        return step in self._fitted


def fit_trees(pairs) -> None:
    """Grow, as one forest, the donor trees of ``pairs``, each a memo and a
    step that it lacks, and add each tree to its memo. Other steps are left
    alone. A forest that raises adds nothing, so each of its steps is fitted
    alone, and raises alone, where ``FitMemo.fit`` asks for it."""
    todo = [(memo, step) for memo, step in pairs if step.grows_tree and step not in memo]
    if not todo:
        return
    try:
        fitted = _fit_donors([step.cart_problem(memo.fit_ds) for memo, step in todo])
    except Exception:  # whatever it is, the step that meets it alone reports it
        return
    for (memo, step), donors in zip(todo, fitted):
        memo.add(step, donors)


def shared_steps(spec: SynthesizerSpec) -> list[Step]:
    """The steps that a non-proper ``spec`` fits through a memo; none for a
    proper spec, whose fits no other dataset shares."""
    return [] if spec.proper else [step for _, step in visit_steps(spec)]


def _fitting_memos(spec: SynthesizerSpec, indices, memo: FitMemo) -> list[FitMemo]:
    """The memo that each dataset of ``indices`` fits through, with the
    donor trees of all of them grown as one forest. A non-proper spec fits
    through ``memo``, whose fitting set is the original data; a proper one
    fits each dataset's own bootstrap resample of it, drawn from the
    dataset's stream 0, which no other dataset shares."""
    if spec.proper:
        original = memo.fit_ds
        n = original.n_rows
        memos = [
            FitMemo(original.take(_bootstrap_indices(_stream(spec.seed, idx, 0), n)))
            for idx in indices
        ]
    else:
        memos = [memo] * len(indices)
    fit_trees([(fits, step) for fits in dict.fromkeys(memos) for _, step in visit_steps(spec)])
    return memos


def _synthesize_one(spec: SynthesizerSpec, idx: int, memo: FitMemo) -> Dataset:
    """Dataset ``idx``, fitting each step through ``memo`` (see
    ``_fitting_memos``) and drawing it from the dataset's own streams."""
    schema = memo.fit_ds.schema
    n = memo.fit_ds.n_rows

    syn: dict[int, np.ndarray] = {}
    for j, step in visit_steps(spec):
        name = schema.columns[j].name
        try:
            fitted = memo.fit(step)
            drawn = fitted.draw([syn[q] for q in step.preds], n, _stream(spec.seed, idx, 1 + j))
        except Exception as err:
            raise SynthesisError(
                f"variable {name!r}, dataset {idx}: {err}", variable=name, dataset_index=idx
            ) from err
        if drawn.ndim == 2:  # the joint group's tuples
            syn.update(zip(step.targets, drawn.T))
        else:
            syn[j] = drawn
    return Dataset(schema, tuple(syn[j] for j in range(len(schema))))


def synthesize(
    original: Dataset,
    spec: SynthesizerSpec,
    *,
    memo: FitMemo | None = None,
) -> SyntheticSet:
    """Generate ``spec.m`` synthetic datasets from ``original``.

    A non-proper spec fits each step once and draws every dataset from that
    fit. ``memo`` carries those fits across calls on the same ``original``;
    by default they are shared within this call only. A proper spec fits
    each dataset's bootstrap resample, in batches of at most ``_BATCH_ROWS``
    bootstrap rows; a non-proper spec's datasets form one batch. The donor
    trees that a batch lacks grow together as one forest before its first
    draw.

    A dataset's seconds are an equal share of its batch's forest, plus the
    other fits it made and its draws. A dataset that finds all its fits in
    the memo costs only its draws.

    Results are identical for any memo and batch: every tree depends only
    on its own fitting set, and every dataset only touches its own derived
    random streams.
    """
    spec.validate_against(original.schema)
    if original.has_missing:
        raise SynthesisError("original data still has missing cells; preprocess first")
    if memo is None:
        memo = FitMemo(original)
    elif memo.fit_ds is not original:
        raise SynthesisError("the fit memo belongs to a different original dataset")
    datasets, seconds = [], []
    per_batch = max(1, _BATCH_ROWS // max(1, original.n_rows)) if spec.proper else spec.m
    for first in range(0, spec.m, per_batch):
        batch = range(first, min(spec.m, first + per_batch))
        t0 = time.perf_counter()
        memos = _fitting_memos(spec, batch, memo)
        share = (time.perf_counter() - t0) / len(batch)
        for idx, fits in zip(batch, memos):
            t0 = time.perf_counter()
            datasets.append(_synthesize_one(spec, idx, fits))
            seconds.append(share + time.perf_counter() - t0)
    return SyntheticSet(
        label=spec.label, seed=spec.seed, datasets=tuple(datasets), wall_times=tuple(seconds)
    )


def save_synthetic_set(
    sset: SyntheticSet, out_dir: str | Path, *, known: NumberText | None = None
) -> list[float]:
    """Write one CSV per dataset plus a manifest. The manifest's wall times
    add each dataset's write seconds to its generation seconds; the combined
    list is returned. ``known`` goes to every ``write_csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    combined = []
    for i, ds in enumerate(sset.datasets):
        t0 = time.perf_counter()
        write_csv(ds, out / f"ds{i:03d}.csv", known=known)
        combined.append(sset.wall_times[i] + time.perf_counter() - t0)
    manifest = {
        "label": sset.label,
        "seed": sset.seed,
        "m": sset.m,
        "wall_times": combined,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return combined


def load_synthetic_set(in_dir: str | Path, schema: Schema) -> SyntheticSet:
    src = Path(in_dir)
    manifest_path = src / "manifest.json"
    if not manifest_path.exists():
        raise SynthesisError(f"{src} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as err:
        raise SynthesisError(f"cannot read manifest {manifest_path}: {err}") from err
    if not (isinstance(manifest, dict) and {"m", "label", "seed", "wall_times"} <= manifest.keys()):
        raise SynthesisError(f"{manifest_path} lacks one of m, label, seed and wall_times")
    datasets = []
    for i in range(int(manifest["m"])):
        # No missing tokens: every written cell is a value, even a level
        # spelled "NA" or "". Only a field absent from a row is missing.
        path = src / f"ds{i:03d}.csv"
        ds, _ = load_csv(path, schema, missing_tokens=())
        if ds.has_missing:
            raise DataError(f"{path}: a synthetic dataset has missing cells")
        datasets.append(ds)
    return SyntheticSet(
        label=manifest["label"],
        seed=int(manifest["seed"]),
        datasets=tuple(datasets),
        wall_times=tuple(float(t) for t in manifest["wall_times"]),
    )
