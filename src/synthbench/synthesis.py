"""Sequential and joint synthesis of fully synthetic datasets.

A synthesizer walks the columns in a visit sequence. Each variable is fitted
on the fitting set (the original data, or a with-replacement bootstrap
resample of it when the spec is "proper") and then drawn for every synthetic
row conditioning on the values already synthesized. A variable with no
predictors is drawn marginally, by resampling the fitting column. Columns
covered by the joint-categorical method are drawn together, as whole level
tuples from their contingency table, at the first visit position the group
occupies.

Every (dataset index, variable) pair consumes its own derived random stream,
so dataset i is a pure function of (seed, i) no matter how many datasets are
generated or in what order.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, load_csv, write_csv
from .errors import FitError, SpecError, SynthesisError
from .models.cart import draw_donor_rows, fit_cart
from .models.contingency import draw_tuples, fit_joint_table
from .models.design import Predictors
from .models.linear import LinearModel, draw_linear_many, fit_ols
from .models.logistic import draw_class_many, fit_logistic


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

_LABEL_RE = re.compile(r"^(CP|CC|P|D|S)(O|V|H|L)?(T)?$")


def parse_label(label: str) -> tuple[str, str, bool]:
    """Split a label into (base, order suffix, proper flag)."""
    m = _LABEL_RE.match(label)
    if not m:
        raise SpecError(f"label {label!r} does not match the grammar")
    return m.group(1), m.group(2) or "", m.group(3) == "T"


@dataclass(frozen=True)
class VisitSequence:
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise SpecError("visit sequence must be a permutation of the columns")

    def position(self, col: int) -> int:
        return self.order.index(col)


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


@dataclass(frozen=True)
class PredictorMatrix:
    """mask[i, j] says column j is a predictor when synthesizing column i."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpecError("predictor matrix must be square")
        object.__setattr__(self, "mask", m)

    def predictors_of(self, i: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.nonzero(self.mask[i])[0])


def make_predictors(
    visit: VisitSequence,
    selective: dict[int, tuple[int, ...]] | None = None,
) -> PredictorMatrix:
    """Simple mode: every earlier-visited column predicts every later one.
    Selective mode overrides listed targets with exactly the given subsets;
    unlisted targets keep the simple default."""
    p = len(visit.order)
    mask = np.zeros((p, p), dtype=bool)
    seen: list[int] = []
    for col in visit.order:
        mask[col, seen] = True
        seen.append(col)
    if selective:
        pos = {c: k for k, c in enumerate(visit.order)}
        for target, preds in selective.items():
            if target < 0 or target >= p:
                raise SpecError(f"selective target {target} out of range")
            row = np.zeros(p, dtype=bool)
            for q in preds:
                if q == target:
                    raise SpecError("a column cannot predict itself")
                if q < 0 or q >= p:
                    raise SpecError(f"selective predictor {q} out of range")
                if pos[q] >= pos[target]:
                    raise SpecError(
                        f"predictor {q} does not precede target {target} in the visit sequence"
                    )
                row[q] = True
            mask[target] = row
    return PredictorMatrix(mask)


@dataclass(frozen=True)
class SynthesizerSpec:
    """Complete recipe for one synthesizer: per-column methods, visit order,
    predictor sets, proper flag, dataset count and master seed."""

    label: str
    methods: tuple[Method, ...]
    visit: VisitSequence
    predictors: PredictorMatrix
    proper: bool
    m: int
    seed: int
    pmm_k: int = 5
    min_leaf: int = 5

    def __post_init__(self) -> None:
        parse_label(self.label)
        p = len(self.methods)
        if len(self.visit.order) != p or self.predictors.mask.shape != (p, p):
            raise SpecError("methods, visit sequence and predictor matrix disagree")
        if self.m < 1:
            raise SpecError(f"m must be >= 1, got {self.m}")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
        if self.pmm_k < 1 or self.min_leaf < 1:
            raise SpecError("pmm_k and min_leaf must be >= 1")
        pos = {c: k for k, c in enumerate(self.visit.order)}
        for i in range(p):
            for j in self.predictors.predictors_of(i):
                if pos[j] >= pos[i]:
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

    label = base + _ORDER_SUFFIX[order] + ("T" if proper else "")
    spec = SynthesizerSpec(
        label=label,
        methods=tuple(methods),
        visit=visit,
        predictors=make_predictors(visit, selective),
        proper=proper,
        m=m,
        seed=seed,
        pmm_k=pmm_k,
        min_leaf=min_leaf,
    )
    spec.validate_against(schema)
    return spec


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


def _stream(seed: int, dataset_index: int, tag: int) -> np.random.Generator:
    """Independent child stream for (seed, dataset, variable-or-bootstrap)."""
    return np.random.default_rng(np.random.SeedSequence((seed, dataset_index, tag)))


def _bootstrap_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def pmm_draw(
    model: LinearModel,
    fitting_X: Predictors,
    fitting_y: np.ndarray,
    x_row,
    k_donors: int,
    rng: np.random.Generator,
) -> float:
    """Predictive mean matching for one row: predict at ``x_row``, find the
    ``k_donors`` fitting rows with the nearest predictions (ties broken by
    row index), and return a uniformly chosen donor's observed value."""
    fitting_y = np.asarray(fitting_y, dtype=np.float64)
    if fitting_y.shape[0] < k_donors:
        raise FitError(
            f"need at least k_donors={k_donors} fitting rows, got {fitting_y.shape[0]}"
        )
    if k_donors < 1:
        raise FitError("k_donors must be >= 1")
    fit_preds = model.predict(fitting_X.cols)
    q = model.predict_row(x_row)
    return float(
        _pmm_pick(fit_preds, fitting_y, np.asarray([q]), k_donors, rng.random(1))[0]
    )


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


def _draw_variable(
    j: int,
    method: Method,
    schema: Schema,
    fit_ds: Dataset,
    syn: dict[int, np.ndarray],
    preds: tuple[int, ...],
    n: int,
    rng: np.random.Generator,
    spec: SynthesizerSpec,
) -> np.ndarray:
    kind = schema.columns[j].kind
    y_fit = fit_ds.columns[j]
    n_fit = fit_ds.n_rows

    if method is Method.SAMPLE or not preds:
        return y_fit[rng.integers(0, n_fit, size=n)]

    names = tuple(schema.columns[q].name for q in preds)
    kinds = tuple(schema.columns[q].kind for q in preds)
    X_fit = Predictors(names, kinds, tuple(fit_ds.columns[q] for q in preds))
    X_syn = [syn[q] for q in preds]

    if method is Method.CART:
        tree = fit_cart(X_fit, y_fit, kind, min_leaf=spec.min_leaf)
        donor_rows = draw_donor_rows(tree, X_syn, rng)
        return y_fit[donor_rows]
    if method is Method.PARAMETRIC_NUMERIC:
        lm = fit_ols(X_fit, y_fit)
        return draw_linear_many(lm, X_syn, rng)
    if method is Method.PARAMETRIC_CATEGORICAL:
        observed = np.unique(y_fit)
        if observed.size == 1:
            return np.full(n, observed[0], dtype=np.int64)
        model = fit_logistic(X_fit, y_fit)
        return draw_class_many(model, X_syn, rng)
    if method is Method.PMM:
        lm = fit_ols(X_fit, y_fit)
        fit_preds = lm.predict(X_fit.cols)
        query_preds = lm.predict(X_syn)
        u = rng.random(n)
        return _pmm_pick(fit_preds, y_fit.astype(np.float64), query_preds, spec.pmm_k, u)
    raise SpecError(f"unhandled method {method}")


def _synthesize_one(original: Dataset, spec: SynthesizerSpec, idx: int) -> Dataset:
    schema = original.schema
    n = original.n_rows
    if spec.proper:
        rows = _bootstrap_indices(_stream(spec.seed, idx, 0), n)
        fit_ds = original.take(rows)
    else:
        fit_ds = original

    group = [j for j, mth in enumerate(spec.methods) if mth is Method.JOINT_CATEGORICAL]
    group_first = None
    if group:
        pos = {c: k for k, c in enumerate(spec.visit.order)}
        group_first = min(group, key=lambda j: pos[j])

    syn: dict[int, np.ndarray] = {}
    for j in spec.visit.order:
        method = spec.methods[j]
        name = schema.columns[j].name
        try:
            if method is Method.JOINT_CATEGORICAL:
                if j != group_first:
                    continue
                rng = _stream(spec.seed, idx, 1 + j)
                ordered = sorted(group)
                table = fit_joint_table(fit_ds, tuple(schema.columns[g].name for g in ordered))
                tuples = draw_tuples(table, n, rng)
                for gi, g in enumerate(ordered):
                    syn[g] = tuples[:, gi]
                continue
            rng = _stream(spec.seed, idx, 1 + j)
            preds = spec.predictors.predictors_of(j)
            syn[j] = _draw_variable(j, method, schema, fit_ds, syn, preds, n, rng, spec)
        except Exception as err:
            if isinstance(err, SynthesisError):
                raise
            raise SynthesisError(
                f"variable {name!r}, dataset {idx}: {err}", variable=name, dataset_index=idx
            ) from err
    return Dataset(schema, tuple(syn[j] for j in range(len(schema))))


def _one_timed(args) -> tuple[int, Dataset, float]:
    original, spec, idx = args
    t0 = time.perf_counter()
    ds = _synthesize_one(original, spec, idx)
    return idx, ds, time.perf_counter() - t0


def synthesize(original: Dataset, spec: SynthesizerSpec, *, jobs: int = 1) -> SyntheticSet:
    """Generate ``spec.m`` synthetic datasets from ``original``.

    Results are identical for any ``jobs`` value: every dataset only touches
    its own derived random streams.
    """
    spec.validate_against(original.schema)
    if original.has_missing:
        raise SynthesisError("original data still has missing cells; preprocess first")
    tasks = [(original, spec, i) for i in range(spec.m)]
    if jobs > 1 and spec.m > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, spec.m)) as pool:
            results = list(pool.map(_one_timed, tasks))
    else:
        results = [_one_timed(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    return SyntheticSet(
        label=spec.label,
        seed=spec.seed,
        datasets=tuple(r[1] for r in results),
        wall_times=tuple(r[2] for r in results),
    )


def save_synthetic_set(sset: SyntheticSet, out_dir: str | Path) -> list[float]:
    """Write one CSV per dataset plus a manifest. The manifest's wall times
    add each dataset's write seconds to its generation seconds; the combined
    list is returned."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    combined = []
    for i, ds in enumerate(sset.datasets):
        t0 = time.perf_counter()
        write_csv(ds, out / f"ds{i:03d}.csv")
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
    manifest = json.loads(manifest_path.read_text())
    datasets = []
    for i in range(int(manifest["m"])):
        ds, _ = load_csv(src / f"ds{i:03d}.csv", schema)
        datasets.append(ds)
    return SyntheticSet(
        label=manifest["label"],
        seed=int(manifest["seed"]),
        datasets=tuple(datasets),
        wall_times=tuple(float(t) for t in manifest["wall_times"]),
    )
