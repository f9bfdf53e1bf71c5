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

from .dataset import Dataset, JsonFields, NumberText, Schema, load_csv, read_json, write_csv
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


# Each base's (numeric method, categorical method).
_BASE_METHODS = {
    "P": (Method.PARAMETRIC_NUMERIC, Method.PARAMETRIC_CATEGORICAL),
    "D": (Method.CART, Method.CART),
    "CP": (Method.PMM, Method.JOINT_CATEGORICAL),
    "CC": (Method.CART, Method.JOINT_CATEGORICAL),
    "S": (Method.SAMPLE, Method.SAMPLE),
}
BASES = tuple(_BASE_METHODS)

# Each order kind's suffix in a synthesizer label.
_ORDER_SUFFIX = {
    "original": "",
    "opposite": "O",
    "own": "V",
    "largest_cat_first": "H",
    "largest_cat_last": "L",
}
ORDER_KINDS = tuple(_ORDER_SUFFIX)


def synthesizer_label(base: str, order: str, proper: bool) -> str:
    """The grid label of a synthesizer: "DOT" is proper D in opposite order."""
    return base + _ORDER_SUFFIX[order] + ("T" if proper else "")


def make_order(
    schema: Schema,
    kind: str,
    own: tuple[str, ...] | None = None,
) -> tuple[int, ...]:
    """Build a visit sequence (column indices) over the schema's columns.

    ``largest_cat_first``/``largest_cat_last`` move the categorical column
    with the most levels (ties broken by original column order) to the front
    or back; everything else keeps its original relative order. ``own`` takes
    an explicit permutation of column names, which ``SynthesizerSpec``
    checks.
    """
    p = len(schema)
    if kind not in ORDER_KINDS:
        raise SpecError(f"unknown order kind {kind!r}")
    if kind == "original":
        return tuple(range(p))
    if kind == "opposite":
        return tuple(reversed(range(p)))
    if kind == "own":
        if own is None:
            raise SpecError("own order requires the column permutation")
        return tuple(schema.index(name) for name in own)
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
        return tuple([best] + rest)
    return tuple(rest + [best])


def _check_permutation(visit: tuple[int, ...]) -> None:
    if sorted(visit) != list(range(len(visit))):
        raise SpecError("visit sequence must be a permutation of the columns")


def make_predictors(
    visit: tuple[int, ...],
    selective: dict[int, tuple[int, ...]] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Each column's predictors, ascending. Simple mode: every
    earlier-visited column predicts every later one. Selective mode
    overrides listed targets with exactly the given subsets; unlisted
    targets keep the simple default. A visit that is not a permutation is
    refused before the selective map is checked against it."""
    _check_permutation(visit)
    p = len(visit)
    preds = [()] * p
    for k, col in enumerate(visit):
        preds[col] = tuple(sorted(visit[:k]))
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
    visit: tuple[int, ...]
    predictors: tuple[tuple[int, ...], ...]
    proper: bool
    m: int
    seed: int
    pmm_k: int = 5
    min_leaf: int = 5

    def __post_init__(self) -> None:
        _check_permutation(self.visit)
        p = len(self.methods)
        if len(self.visit) != p or len(self.predictors) != p:
            raise SpecError("methods, visit sequence and predictor sets disagree")
        if self.m < 1:
            raise SpecError(f"m must be >= 1, got {self.m}")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
        if self.pmm_k < 1 or self.min_leaf < 1:
            raise SpecError("pmm_k and min_leaf must be >= 1")
        pos = {c: k for k, c in enumerate(self.visit)}
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
    matching (CP) or donor trees (CC). A joint categorical block is visited
    first, each part keeping the order's relative order.
    """
    if base not in BASES:
        raise SpecError(f"unknown base synthesizer {base!r}")
    numeric, categorical = _BASE_METHODS[base]
    visit = make_order(schema, order, own_order)
    if categorical is Method.JOINT_CATEGORICAL:
        visit = tuple(sorted(visit, key=lambda i: not schema.columns[i].kind.is_categorical))

    return SynthesizerSpec(
        label=synthesizer_label(base, order, proper),
        methods=tuple(numeric if col.kind.is_numeric else categorical for col in schema.columns),
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
    """The m generated datasets plus per-dataset seconds: model fitting and
    drawing for a set from ``synthesize``, plus the CSV write for a set
    read back by ``load_synthetic_set`` (its manifest's combined times)."""

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


def _first_place(holds, lo: np.ndarray, hi) -> np.ndarray:
    """For each query, the first place in [lo, hi) where ``holds`` is true,
    or hi. ``holds`` must be true on a suffix of the range. All queries are
    bisected together."""
    hi = np.broadcast_to(hi, lo.shape)
    while (live := lo < hi).any():
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = np.where(live & ~ok, mid + 1, lo), np.where(live & ok, mid, hi)
    return lo


def _donor_places(sv: np.ndarray, q: np.ndarray, k: int):
    """The candidate donors of each query ``q`` among the finite, ascending
    fitting predictions ``sv`` (at least ``k`` of them), as sorted places
    ``lo <= a <= b <= hi``. With d the k-th smallest rounded distance
    ``|sv - q|``, S = [a, b) holds the s < k places strictly nearer than d
    and T = [lo, a) + [b, hi) the t places at exactly d. Rounded distance
    is monotone on each side of the query, so each set is contiguous on
    each side. An infinite query is at one distance from every place, and
    a NaN query is taken to be, so all places are in T."""
    n = sv.shape[0]
    q = np.where(np.isnan(q), np.inf, q)
    pos = np.searchsorted(sv, q)
    # The k places on each side hold the k nearest. Places off either end
    # read NaN, which sorts after every distance and compares false.
    pad = np.full(k, np.nan)
    dist = np.abs(np.concatenate([pad, sv, pad])[pos[:, None] + np.arange(2 * k)] - q[:, None])
    d = np.sort(dist, axis=1)[:, k - 1]
    nearer = dist < d[:, None]
    a = pos - nearer[:, :k].sum(axis=1)
    b = pos + nearer[:, k:].sum(axis=1)

    def at_d(i):
        return np.abs(sv[np.minimum(i, n - 1)] - q) <= d

    lo = _first_place(at_d, np.zeros_like(a), a)
    hi = _first_place(lambda i: ~at_d(i), b, n)
    return lo, a, b, hi


def _pmm_pick(sv: np.ndarray, q: np.ndarray, k: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sorted place of each query's donor: with c = min(floor(u * k),
    k - 1), the c-th place of S when c < s, and otherwise the place of T
    chosen by ``v`` (see ``_donor_places``). So each of the s places of S is
    drawn with chance 1/k, and each of the t places of T with (k - s)/(k t):
    the k nearest, with distance ties broken at random."""
    lo, a, b, hi = _donor_places(sv, q, k)
    c = np.minimum(np.floor(u * k).astype(np.int64), k - 1)
    below, t = a - lo, a - lo + hi - b
    j = np.minimum(np.floor(v * t).astype(np.int64), t - 1)
    return np.where(c < b - a, a + c, np.where(j < below, lo + j, b + j - below))


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
    """Predictive mean matching: each row takes the observed value of one of
    the ``k`` fitting rows whose predictions are nearest its own, ties at
    the k-th distance broken at random. ``preds`` holds the fitting
    predictions in ascending order (ties by row id), and ``y`` the observed
    values in the same order."""

    model: LinearModel
    preds: np.ndarray
    y: np.ndarray
    k: int

    def draw(self, X_syn, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        v = rng.random(n)
        return self.y[_pmm_pick(self.preds, self.model.predict(X_syn), self.k, u, v)]


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
        preds = lm.predict(X_fit.cols)
        order = np.argsort(preds, kind="stable")
        return MeanMatch(lm, preds[order], y_fit[order].astype(np.float64), step.pmm_k)
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
    first = next((j for j in spec.visit if j in group), None)
    for j in spec.visit:
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
            raise SynthesisError(f"variable {name!r}, dataset {idx}: {err}") from err
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
    label, seed, m, times = read_json(src / "manifest.json", "manifest", SynthesisError, _manifest)
    datasets = []
    for i in range(m):
        # No missing tokens: every written cell is a value, even a level
        # spelled "NA" or "". Only a field absent from a row is missing.
        path = src / f"ds{i:03d}.csv"
        ds = load_csv(path, schema, missing_tokens=())
        if ds.has_missing:
            raise DataError(f"{path}: a synthetic dataset has missing cells")
        datasets.append(ds)
    return SyntheticSet(label, seed, tuple(datasets), times)


def _manifest(doc) -> tuple[str, int, int, tuple[float, ...]]:
    """The label, seed, m and wall times of a synthetic set's manifest."""
    check = JsonFields(SynthesisError)
    doc = check.object(doc, "the manifest", ("label", "seed", "m", "wall_times"))
    label = check.typed(doc["label"], str, "label")
    seed, m = check.typed(doc["seed"], int, "seed"), check.typed(doc["m"], int, "m")
    times = check.typed(doc["wall_times"], list, "wall_times")
    if m < 1 or len(times) != m:
        raise SynthesisError(f"m must be >= 1 and match wall_times, got {m} and {len(times)}")
    return label, seed, m, tuple(check.typed(t, float, "wall_times") for t in times)
