"""Sequential and joint synthesis of fully synthetic datasets.

A synthesizer spec is its steps in visit order, each a ``Step`` (method,
targets, preds, min_leaf, pmm_k) paired with the visited column whose random
stream it draws from. ``build_spec`` makes them and
``SynthesizerSpec.validate_against`` checks them against the data's schema.
Each step has two parts. The fit (``fit_step``) fits the step's model on the
fitting set: the original data, or a with-replacement bootstrap resample of
it when the spec is "proper". It uses no randomness and returns a plain
fitted value (``Marginal``, ``Donors``, ``Normal``, ``Softmax``,
``MeanMatch`` or ``Tuples``). The draw, that value's ``draw(X_syn, n,
rng)``, then draws the whole synthetic column at once, conditioning on the
predictor columns already synthesized. A variable with no predictors is
drawn marginally, by resampling the fitting column. The columns of the
joint-categorical method form one step, visited first, and are drawn
together as whole level tuples from their contingency table.

Every (dataset index, visited column) pair consumes its own derived random
stream, so dataset i is a pure function of (seed, i) no matter how many
datasets are generated or in what order. For the same reason a fitted value
can be drawn from any number of times: a non-proper spec fits each step once
and draws all m datasets from those fits, and specs that visit in other
orders share the steps they have in common (a fit is keyed by its ``Step``).
No fit uses randomness, so ``fit_steps`` fits all the steps of a batch of
datasets, their bootstrap resamples included, in one call before any draw,
growing the donor trees together as one forest.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

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
    an explicit permutation of column names: each column once, and only for
    the kind ``own``.
    """
    p = len(schema)
    if kind not in ORDER_KINDS:
        raise SpecError(f"unknown order kind {kind!r}")
    if own is not None and kind != "own":
        raise SpecError(f"own_order needs order 'own', got {kind!r}")
    if kind == "original":
        return tuple(range(p))
    if kind == "opposite":
        return tuple(reversed(range(p)))
    if kind == "own":
        if own is None:
            raise SpecError("own order requires the column permutation")
        visit = tuple(schema.index(name) for name in own)
        if sorted(visit) != list(range(p)):
            raise SpecError("visit sequence must be a permutation of the columns")
        return visit
    cat_sizes = [(c.kind.n_levels, i) for i, c in enumerate(schema.columns) if c.kind.is_categorical]
    if not cat_sizes:
        raise SpecError(f"order {kind!r} needs at least one categorical column")
    best = max(cat_sizes, key=lambda t: (t[0], -t[1]))[1]
    rest = [i for i in range(p) if i != best]
    if kind == "largest_cat_first":
        return tuple([best] + rest)
    return tuple(rest + [best])


class Step(NamedTuple):
    """One fit of a synthesizer: the model of ``method`` that draws
    ``targets`` (one column, or the whole joint-categorical group in column
    order) from the columns ``preds``, which earlier steps draw. With the
    fitting set it fixes the fitted value, so it keys a fit, and specs
    with an equal step share its fit."""

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


@dataclass(frozen=True)
class SynthesizerSpec:
    """Complete recipe for one synthesizer: its fit steps in visit order
    and the proper flag. Each step is paired with the visited column whose
    random stream its draws take. ``build_spec`` makes the steps;
    ``validate_against`` checks them. The dataset count and the seed are
    arguments of ``synthesize``, not parts of the recipe."""

    label: str
    steps: tuple[tuple[int, Step], ...]
    proper: bool

    def validate_against(self, schema: Schema) -> None:
        """Refuse a spec that does not fit ``schema``: each column must be
        drawn exactly once, by a step visited at one of its targets, after
        every predictor the step reads, and a sample step reads none; each
        step's ``pmm_k`` and ``min_leaf`` must be >= 1, its method suit its targets' kind."""
        names = schema.names
        drawn: set[int] = set()
        for k, (j, step) in enumerate(self.steps):
            method, targets = step.method, step.targets
            alone = len(targets) == 1 or method is Method.JOINT_CATEGORICAL
            known = set(targets + step.preds) <= set(range(len(names)))
            if not (alone and known and j in targets):
                raise SpecError(f"step {k} of {self.label!r} does not fit the schema's columns")
            for q in step.preds:
                if q not in drawn:
                    raise SpecError(f"predictor {names[q]!r} of column {names[j]!r} is drawn after it")
            for t in targets:
                if t in drawn:
                    raise SpecError(f"column {names[t]!r} is drawn twice")
                drawn.add(t)
            if step.pmm_k < 1 or step.min_leaf < 1:
                raise SpecError(f"pmm_k and min_leaf of column {names[j]!r} must be >= 1")
            if method is Method.SAMPLE and step.preds:
                raise SpecError(f"sample step of column {names[j]!r} lists predictors")
            for t in targets:
                numeric = schema.columns[t].kind.is_numeric
                if not numeric and method in (Method.PARAMETRIC_NUMERIC, Method.PMM):
                    raise SpecError(f"{method.value} requires a numeric column, got {names[t]!r}")
                if numeric and method in (Method.PARAMETRIC_CATEGORICAL, Method.JOINT_CATEGORICAL):
                    raise SpecError(f"{method.value} requires a categorical column, got {names[t]!r}")
        missing = [name for i, name in enumerate(names) if i not in drawn]
        if missing:
            raise SpecError(f"column {missing[0]!r} is never drawn")


def build_spec(
    schema: Schema,
    base: str,
    *,
    order: str = "original",
    own_order: tuple[str, ...] | None = None,
    proper: bool = False,
    selective: dict[str, tuple[str, ...]] | None = None,
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

    A column is predicted by all columns visited before it (under S by none),
    unless ``selective`` maps its name to exactly the names that predict it. An
    unknown name is a ``SchemaError``; a column that predicts itself or a
    predictor visited after its target is a ``SpecError`` naming both.
    """
    if base not in BASES:
        raise SpecError(f"unknown base synthesizer {base!r}")
    numeric, categorical = _BASE_METHODS[base]
    cols = schema.columns
    joint = categorical is Method.JOINT_CATEGORICAL
    group = tuple(i for i, c in enumerate(cols) if joint and c.kind.is_categorical)
    visit = tuple(sorted(make_order(schema, order, own_order), key=lambda i: i not in group))
    pos = {c: k for k, c in enumerate(visit)}
    predictors = [tuple(sorted(visit[:pos[i]])) for i in range(len(visit))]
    for target, names in (selective or {}).items():
        t = schema.index(target)
        chosen = {schema.index(name): name for name in names}
        for q, name in chosen.items():
            if q == t:
                raise SpecError(f"column {target!r} cannot predict itself")
            if pos[q] > pos[t]:
                raise SpecError(f"predictor {name!r} of column {target!r} is visited after it")
        predictors[t] = tuple(sorted(chosen))
    steps = [(visit[0], Step(Method.JOINT_CATEGORICAL, group, (), min_leaf, pmm_k))] if group else []
    for j in visit:
        if j not in group:
            method = numeric if cols[j].kind.is_numeric else categorical
            preds = () if method is Method.SAMPLE else predictors[j]
            steps.append((j, Step(method, (j,), preds, min_leaf, pmm_k)))
    return SynthesizerSpec(synthesizer_label(base, order, proper), tuple(steps), proper)


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
    if not preds or (method is Method.PARAMETRIC_CATEGORICAL and np.unique(y_fit).size == 1):
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


def _fit_donors(problems: list[CartProblem]) -> list[Donors]:
    """One donor tree per problem, grown together as one forest."""
    return [Donors(tree, p.y) for p, tree in zip(problems, fit_cart(problems).trees)]


def fit_steps(pairs) -> list[Fitted | Exception]:
    """The fitted value of each (step, fitting set) pair, or the exception
    its fit raised. The donor trees grow as one forest; if that forest
    raises, each tree is fitted alone, so each keeps its own error."""
    pairs = list(pairs)
    fits: list[Fitted | Exception | None] = [None] * len(pairs)
    trees = [k for k, (step, _) in enumerate(pairs) if step.grows_tree]
    if trees:
        try:
            grown = _fit_donors([pairs[k][0].cart_problem(pairs[k][1]) for k in trees])
        except Exception:  # whatever it is, the tree that meets it alone reports it
            grown = [None] * len(trees)
        for k, donors in zip(trees, grown):
            fits[k] = donors
    for k, (step, fit_ds) in enumerate(pairs):
        if fits[k] is None:
            try:
                fits[k] = fit_step(step, fit_ds)
            except Exception as err:
                fits[k] = err
    return fits


def _synthesize_one(
    spec: SynthesizerSpec, seed: int, idx: int, fits: dict[Step, Fitted | Exception],
    schema: Schema, n: int,
) -> Dataset:
    """Dataset ``idx`` of ``n`` rows, each step drawn from its value in
    ``fits`` with the dataset's own streams under ``seed``. A step whose
    value is the exception its fit raised raises it here."""
    syn: dict[int, np.ndarray] = {}
    for j, step in spec.steps:
        name = schema.columns[j].name
        try:
            fitted = fits[step]
            if isinstance(fitted, Exception):
                raise fitted.with_traceback(None)  # without the frames of earlier raises
            drawn = fitted.draw([syn[q] for q in step.preds], n, _stream(seed, idx, 1 + j))
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
    m: int,
    seed: int,
    fitted: dict[Step, Fitted | Exception] | None = None,
) -> SyntheticSet:
    """Generate ``m`` synthetic datasets from ``original`` under ``seed``;
    ``m`` below 1 or a negative ``seed`` is a ``SpecError``.

    A non-proper spec fits each step once, on ``original``, and draws every
    dataset from that fit; ``fitted`` holds what ``fit_steps`` returned for
    steps on ``original`` earlier, which it reads and does not refit: a
    fitted value, or the exception that its fit raised, which a dataset
    raises at that step as it raises its own fits' errors. A proper spec
    fits every step on each dataset's bootstrap resample, in batches of at
    most ``_BATCH_ROWS`` bootstrap rows; a non-proper spec's datasets form
    one batch. Each batch's steps are fitted in one ``fit_steps`` call, its
    donor trees as one forest, before its first draw, so a dataset fits
    every step, then raises at the first failing step in visit order.

    A dataset's seconds are an equal share of its batch's fits, plus its
    draws.

    Results are identical for any ``fitted`` and batch: every fit depends
    only on its own fitting set, and every dataset only touches its own
    derived random streams.
    """
    if m < 1:
        raise SpecError(f"m must be >= 1, got {m}")
    if seed < 0:
        raise SpecError("seed must be non-negative")
    spec.validate_against(original.schema)
    if original.has_missing:
        raise SynthesisError("original data still has missing cells; preprocess first")
    fitted = fitted or {}
    schema, n = original.schema, original.n_rows
    steps = [step for _, step in spec.steps]
    datasets, seconds = [], []
    per_batch = max(1, _BATCH_ROWS // max(1, n)) if spec.proper else m
    for first in range(0, m, per_batch):
        batch = range(first, min(m, first + per_batch))
        t0 = time.perf_counter()
        if spec.proper:
            # Each dataset's bootstrap is drawn from its stream 0, which no
            # other dataset shares.
            boots = [original.take(_bootstrap_indices(_stream(seed, idx, 0), n)) for idx in batch]
            values = iter(fit_steps((step, boot) for boot in boots for step in steps))
            fits = [{step: next(values) for step in steps} for _ in batch]
        else:
            missing = [step for step in steps if step not in fitted]
            shared = dict(fitted)
            shared.update(zip(missing, fit_steps((step, original) for step in missing)))
            fits = [shared] * len(batch)
        share = (time.perf_counter() - t0) / len(batch)
        for idx, fit in zip(batch, fits):
            t0 = time.perf_counter()
            datasets.append(_synthesize_one(spec, seed, idx, fit, schema, n))
            seconds.append(share + time.perf_counter() - t0)
    return SyntheticSet(spec.label, seed, tuple(datasets), tuple(seconds))


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
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
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
