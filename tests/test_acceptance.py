"""Acceptance battery.

One test per numbered criterion; the conftest hook prints a PASS/FAIL line
for each number at the end of the run. Every stochastic check runs at a seed
that was fixed before the first evaluation (fixture seed 42, master seed 7,
per-criterion streams derived below) and is never tuned to the outcome.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import MASTER_SEED
from synthbench.analysis import classify_compare
from synthbench.cli import main
from synthbench.dataset import ColumnKind, write_csv
from synthbench.estimands import (
    ci,
    combine,
    estimate_set_from,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from synthbench.metrics import apo, cio, kl_divergence
from synthbench.models import fit_cart, fit_logistic, fit_ols
from synthbench.models.cart import draw_leaf
from synthbench.models.contingency import draw_tuples, fit_joint_table
from synthbench.models.design import Predictors
from synthbench.models.logistic import draw_class, softmax_loglik, softmax_score
from synthbench.synthesis import SyntheticSet, build_spec, pmm_draw, synthesize


def _stream(*tags) -> int:
    """Per-criterion seed: derived from the master seed and fixed tags only."""
    ss = np.random.SeedSequence((MASTER_SEED,) + tags)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _interval(lo, hi):
    from synthbench.estimands import ConfidenceInterval

    return ConfidenceInterval(lo, hi, 0.95)


@pytest.mark.criterion(1, "metric oracles")
def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()
    assert abs(cio(_interval(0.0, 2.0), _interval(0.0, 2.0)).value - 1.0) < 1e-12
    assert abs(cio(_interval(0.0, 1.0), _interval(2.0, 3.0)).value - 0.0) < 1e-12
    assert abs(cio(_interval(0.0, 2.0), _interval(1.0, 3.0)).value - 0.5) < 1e-12

    comb = combine(estimate_set_from("q", [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]), "Tp")
    assert comb.b is not None and abs(comb.b - 1.0) < 1e-12
    assert comb.t_p is not None and abs(comb.t_p - 1.0 / 3.0) < 1e-12

    single = combine(estimate_set_from("q", [(1.0, 0.7)]), "Ts")
    assert single.t_s == 2.0 * 0.7

    p_col = np.asarray([0, 1], dtype=np.int64)            # (0.5, 0.5)
    q_col = np.asarray([0, 1, 1, 1], dtype=np.int64)      # (0.25, 0.75)
    score = kl_divergence(
        p_col, q_col, ColumnKind.categorical(("a", "b")), smoothing=0.0
    )
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(score.raw - expect) < 1e-9
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "combining rule properties")
def test_criterion_2_combining_rules():
    t0 = time.perf_counter()
    rng = np.random.default_rng(_stream(2))
    pairs = [(float(q), float(v)) for q, v in zip(rng.normal(0, 3, 9), rng.uniform(0.1, 2, 9))]
    base = combine(estimate_set_from("e", pairs), "Tp")
    for _ in range(25):
        perm = list(pairs)
        rng.shuffle(perm)
        other = combine(estimate_set_from("e", perm), "Tp")
        assert other.q_bar == base.q_bar and other.v_bar == base.v_bar
        assert other.b == base.b and other.t_p == base.t_p and other.t_s == base.t_s

    equal = combine(estimate_set_from("e", [(1.3, 0.5)] * 6), "Tp")
    assert equal.b == 0.0
    nudged = [(1.3, 0.5)] * 5 + [(float(np.nextafter(1.3, 2.0)), 0.5)]
    assert combine(estimate_set_from("e", nudged), "Tp").b > 0.0

    for m in (1, 2, 5, 10, 50):
        vals = [(float(v), float(v) / 3.0) for v in range(1, m + 1)]
        comb = combine(estimate_set_from("e", vals), "Ts")
        assert comb.t_s == (1.0 + 1.0 / m) * comb.v_bar
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(3, "synthesizer correctness on the fixture")
def test_criterion_3_synthesizer_correctness(fixture_a):
    t0 = time.perf_counter()
    x0, y0 = fixture_a.column("x"), fixture_a.column("y")
    r_orig = float(np.corrcoef(x0, y0)[0, 1])

    def corr_of(base):
        sset = synthesize(fixture_a, build_spec(fixture_a.schema, base, m=1, seed=7))
        ds = sset.datasets[0]
        return float(np.corrcoef(ds.column("x"), ds.column("y"))[0, 1])

    r_s = corr_of("S")
    assert abs(r_s) < 0.1, f"independent resampling kept r={r_s:.3f}"
    for base in ("D", "P"):
        r = corr_of(base)
        assert abs(r - r_orig) < 0.1, f"{base}: r={r:.3f} vs original {r_orig:.3f}"

    observed_triples = {
        t for t in zip(fixture_a.column("c1"), fixture_a.column("c2"), fixture_a.column("c3"))
    }
    cc = synthesize(fixture_a, build_spec(fixture_a.schema, "CC", m=10, seed=7))
    violations = 0
    for ds in cc.datasets:
        triples = set(zip(ds.column("c1"), ds.column("c2"), ds.column("c3")))
        violations += len(triples - observed_triples)
    assert violations == 0

    for base in ("S", "P", "D", "CP", "CC"):
        sset = synthesize(fixture_a, build_spec(fixture_a.schema, base, m=1, seed=7))
        ds = sset.datasets[0]
        for name in ("c1", "c2", "c3"):
            observed = set(fixture_a.column(name).tolist())
            assert set(ds.column(name).tolist()) <= observed, f"{base}:{name}"
    assert time.perf_counter() - t0 < 30.0


def _crit4_synthesize(original, m, rep):
    seed = _stream(4, m, rep)
    return synthesize(original, build_spec(original.schema, "D", m=m, seed=seed))


def battery_apo(original, fits, sset, threshold=0.9):
    """Fraction of battery coefficient overlaps above the threshold."""
    overlaps = []
    for fit in fits:
        orig = regression_estimands(original, fit)
        per = [regression_estimands(ds, fit) for ds in sset.datasets]
        for i, coef in enumerate(orig):
            est = estimate_set_from(coef.name, [(p[i].q, p[i].v) for p in per])
            overlaps.append(
                cio(normal_interval(coef.q, coef.v), ci(combine(est)), estimand_id=coef.name)
            )
    return apo(overlaps, threshold)


def mean_point_apo(original, sset, threshold=0.9):
    overlaps = []
    for name in ("x", "y"):
        q0, v0 = mean_point_estimand(original, name)
        pairs = [mean_point_estimand(ds, name) for ds in sset.datasets]
        comb = combine(estimate_set_from(name, pairs))
        overlaps.append(cio(normal_interval(q0, v0), ci(comb), estimand_id=name))
    return apo(overlaps, threshold)


def mean_point_apo_at(original, m, reps=5, master=MASTER_SEED):
    """Average over reps of the mean-point APO at the given m (donor trees)."""
    vals = []
    for rep in range(reps):
        seed = int(
            np.random.SeedSequence((master, 4, m, rep)).generate_state(1, dtype=np.uint64)[0]
        )
        sset = synthesize(original, build_spec(original.schema, "D", m=m, seed=seed))
        vals.append(mean_point_apo(original, sset))
    return math.fsum(vals) / reps


@pytest.mark.criterion(4, "utility rises with m")
def test_criterion_4_effect_of_m_on_battery(fixture_a, battery):
    t0 = time.perf_counter()
    k = 5
    apo_by_m = {}
    for m in (1, 10):
        vals = [
            battery_apo(fixture_a, battery, _crit4_synthesize(fixture_a, m, rep))
            for rep in range(k)
        ]
        apo_by_m[m] = math.fsum(vals) / k
    assert apo_by_m[10] >= apo_by_m[1], (
        f"battery APO fell with m: m=1 {apo_by_m[1]:.3f}, m=10 {apo_by_m[10]:.3f}"
    )
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(4, "utility rises with m")
def test_criterion_4_mean_point_apo_reaches_bar(fixture_a):
    t0 = time.perf_counter()
    trajectory = {m: mean_point_apo_at(fixture_a, m) for m in (1, 2, 3)}
    best = max(trajectory.values())
    assert best >= 0.9, (
        "mean-point APO stayed below 0.9 through m=3 at the committed seed: "
        + ", ".join(f"m={m}: {v:.2f}" for m, v in trajectory.items())
        + " (structural analysis in the decision log: with the variance-based "
        "interval the expected pass rate at m=3 is a few percent per seed)"
    )
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(5, "bootstrap-refit variant trails at m=1")
def test_criterion_5_proper_vs_nonproper(fixture_a, battery):
    t0 = time.perf_counter()

    def avg_cio(proper):
        values = []
        for rep in range(10):
            seed = _stream(5, rep)  # shared by both variants: paired comparison
            spec = build_spec(fixture_a.schema, "D", proper=proper, m=1, seed=seed)
            sset = synthesize(fixture_a, spec)
            for fit in battery:
                orig = regression_estimands(fixture_a, fit)
                per = [regression_estimands(ds, fit) for ds in sset.datasets]
                for i, coef in enumerate(orig):
                    est = estimate_set_from(coef.name, [(p[i].q, p[i].v) for p in per])
                    values.append(cio(normal_interval(coef.q, coef.v), ci(combine(est))).value)
        return math.fsum(values) / len(values)

    plain = avg_cio(False)
    proper = avg_cio(True)
    assert plain >= proper, f"D {plain:.4f} < DT {proper:.4f}"
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(6, "joint table draws match the fitted proportions")
def test_criterion_6_joint_draw_distribution(fixture_a):
    t0 = time.perf_counter()
    table = fit_joint_table(fixture_a, ("c1", "c2", "c3"))
    rng = np.random.default_rng(_stream(6))
    draws = draw_tuples(table, 100_000, rng)
    keys = [tuple(row) for row in table.cells]
    counts = dict.fromkeys(keys, 0)
    for row in draws:
        counts[tuple(row)] += 1
    emp = np.asarray([counts[k] for k in keys], dtype=np.float64) / draws.shape[0]
    tv = 0.5 * float(np.abs(emp - table.proportions()).sum())
    assert tv < 0.02, f"total variation {tv:.4f}"
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(7, "draw primitives hit their target frequencies")
def test_criterion_7_draw_oracles():
    n_draws = 100_000

    # uniform leaf donors: a constant predictor keeps the tree at its root
    donors = np.arange(8, dtype=np.float64)
    X = Predictors(("z",), (ColumnKind.numeric(),), (np.zeros(8),))
    tree = fit_cart(X, donors, ColumnKind.numeric(), min_leaf=8)
    rng = np.random.default_rng(_stream(7, 0))
    picks = np.asarray([draw_leaf(tree, (0.0,), donors, rng) for _ in range(n_draws)])
    for v in donors:
        assert abs((picks == v).mean() - 1.0 / 8.0) < 0.01

    # class draws against the model's own probabilities
    rng_fit = np.random.default_rng(_stream(7, 1))
    x = rng_fit.normal(0, 1, 600)
    yc = np.clip(np.digitize(x + rng_fit.normal(0, 1, 600), (-0.5, 0.5)), 0, 2).astype(np.int64)
    Xc = Predictors(("x",), (ColumnKind.numeric(),), (x,))
    model = fit_logistic(Xc, yc)
    probs = model.predict_proba((np.asarray([0.3]),))[0]
    rng = np.random.default_rng(_stream(7, 2))
    drawn = np.asarray([draw_class(model, (0.3,), rng) for _ in range(n_draws)])
    for cls, p in zip(model.classes, probs):
        assert abs((drawn == cls).mean() - p) < 0.01

    # mean matching: five nearest donors, drawn uniformly
    xs = np.linspace(0.0, 10.0, 50)
    ys = xs.copy()
    Xr = Predictors(("x",), (ColumnKind.numeric(),), (xs,))
    ols = fit_ols(Xr, ys)
    rng = np.random.default_rng(_stream(7, 3))
    vals = np.asarray([pmm_draw(ols, Xr, ys, (5.0,), 5, rng) for _ in range(n_draws)])
    uniq, freq = np.unique(vals, return_counts=True)
    assert uniq.shape[0] == 5
    for f in freq / n_draws:
        assert abs(f - 0.2) < 0.01


@pytest.mark.criterion(8, "logistic gradient and probability checks")
def test_criterion_8_logistic_gradient(fixture_a):
    x, y = fixture_a.column("x"), fixture_a.column("y")
    c1 = fixture_a.column("c1")
    X = Predictors(("x", "y"), (ColumnKind.numeric(), ColumnKind.numeric()), (x, y))
    model = fit_logistic(X, c1)
    assert model.converged

    M = model.encoding.encode((x, y))
    pos_of = {c: i for i, c in enumerate(model.classes)}
    y_pos = np.asarray([pos_of[int(v)] for v in c1], dtype=np.int64)

    def fd_gradient(B, step=1e-5):
        out = np.empty_like(B)
        for i in range(B.shape[0]):
            for j in range(B.shape[1]):
                up, down = B.copy(), B.copy()
                up[i, j] += step
                down[i, j] -= step
                out[i, j] = (
                    softmax_loglik(M, y_pos, up) - softmax_loglik(M, y_pos, down)
                ) / (2 * step)
        return out

    # away from the optimum the entries are large and the plain ratio applies
    B0 = np.zeros_like(model.coef)
    g0, f0 = softmax_score(M, y_pos, B0), fd_gradient(B0)
    assert float(np.max(np.abs(g0 - f0) / np.abs(g0))) < 1e-4

    # at the optimum both gradients collapse toward zero, so the error is
    # taken relative to max(1, |gradient|)
    g1, f1 = softmax_score(M, y_pos, model.coef), fd_gradient(model.coef)
    denom = max(1.0, float(np.max(np.abs(g1))), float(np.max(np.abs(f1))))
    assert float(np.max(np.abs(g1 - f1))) / denom < 1e-4

    drift = np.abs(model.predict_proba((x, y)).sum(axis=1) - 1.0).max()
    assert drift < 1e-9


@pytest.mark.criterion(9, "classifier comparison behaves on copies and noise")
def test_criterion_9_classification(fixture_a):
    t0 = time.perf_counter()
    copies = SyntheticSet("copy", 0, (fixture_a,) * 3, (0.0,) * 3)
    res = classify_compare(fixture_a, copies, "c3", seed=1)
    assert res.agreement == 1.0
    assert res.mean_accuracy == res.baseline_accuracy

    c3 = fixture_a.column("c3")
    majority = max(float((c3 == code).mean()) for code in np.unique(c3))
    sset = synthesize(fixture_a, build_spec(fixture_a.schema, "S", m=5, seed=_stream(9)))
    res_s = classify_compare(fixture_a, sset, "c3", seed=1)
    assert abs(res_s.mean_accuracy - majority) <= 0.05, (
        f"sampled-data classifier accuracy {res_s.mean_accuracy:.3f} "
        f"vs majority rate {majority:.3f}"
    )
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(10, "parallel and serial grid runs are byte-identical")
def test_criterion_10_end_to_end_determinism(tmp_path, fixture_a, battery, capsys):
    write_csv(fixture_a, tmp_path / "data.csv")
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {
                "columns": [
                    {"name": "x", "kind": "numeric"},
                    {"name": "y", "kind": "numeric"},
                    {"name": "c1", "kind": "categorical", "levels": ["low", "mid", "high"]},
                    {"name": "c2", "kind": "categorical", "levels": ["a", "b", "c"]},
                    {"name": "c3", "kind": "categorical", "levels": ["no", "yes"]},
                ]
            }
        )
    )
    (tmp_path / "fits.json").write_text(
        json.dumps(
            {
                "fits": [
                    {
                        "id": f.id,
                        "family": f.family,
                        "target": f.target,
                        "predictors": list(f.predictors),
                    }
                    for f in battery
                ]
            }
        )
    )
    (tmp_path / "config.json").write_text(
        json.dumps(
            {
                "dataset": "data.csv",
                "schema": "schema.json",
                "fitspecs": "fits.json",
                "grid": {
                    "synthesizers": [
                        {"base": "S"}, {"base": "P"}, {"base": "D"}, {"base": "CP"},
                        {"base": "CC"},
                    ],
                    "m": [1, 5],
                },
                "k": 2,
                "seed": 7,
                "out": "serial",
                "metrics": {"classification": {"target": "c3"}},
            }
        )
    )
    cfg = str(tmp_path / "config.json")
    assert main(["experiment", "--config", cfg, "--jobs", "1"]) == 0
    assert main(
        ["experiment", "--config", cfg, "--jobs", "8", "--out", str(tmp_path / "par")]
    ) == 0
    capsys.readouterr()
    for name in ("report.csv", "summary.csv"):
        serial = (tmp_path / "serial" / name).read_bytes()
        parallel = (tmp_path / "par" / name).read_bytes()
        assert serial == parallel, f"{name} differs between --jobs 1 and --jobs 8"
