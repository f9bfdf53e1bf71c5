import hashlib
import traceback
from dataclasses import replace

import numpy as np
import pytest

import synthbench.synthesis as synthesis
from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.errors import DataError, FitError, SchemaError, SpecError, SynthesisError
from synthbench.models import fit_logistic
from synthbench.models.design import Predictors
from synthbench.synthesis import (
    Method,
    Step,
    SyntheticSet,
    build_spec,
    fit_step,
    fit_steps,
    load_synthetic_set,
    make_order,
    save_synthetic_set,
    synthesize,
)


def small_dataset(n=250, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = 1.5 * x + rng.normal(0, 0.2, n)
    c1 = rng.integers(0, 3, n)
    c2 = ((c1 + (rng.random(n) < 0.3)) % 3).astype(np.int64)
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("y", ColumnKind.numeric()),
            Column("c1", ColumnKind.categorical(("p", "q", "r"))),
            Column("c2", ColumnKind.categorical(("u", "v", "w"))),
        )
    )
    return Dataset(schema, (x, y, c1, c2))


def test_make_order_variants():
    ds = small_dataset()
    assert make_order(ds.schema, "original") == (0, 1, 2, 3)
    assert make_order(ds.schema, "opposite") == (3, 2, 1, 0)
    assert make_order(ds.schema, "own", ("c2", "x", "y", "c1")) == (3, 0, 1, 2)
    # both categoricals have 3 levels; the tie goes to the earlier column c1
    assert make_order(ds.schema, "largest_cat_first") == (2, 0, 1, 3)
    assert make_order(ds.schema, "largest_cat_last") == (0, 1, 3, 2)
    with pytest.raises(SpecError, match="must be a permutation"):
        build_spec(ds.schema, "D", order="own", own_order=("x", "x", "y", "c1"))
    # An own order is checked against the schema, so leaving out the last column fails too.
    with pytest.raises(SpecError, match="^visit sequence must be a permutation of the columns$"):
        make_order(ds.schema, "own", ("x", "y", "c1"))
    # Only the kind "own" reads a permutation; any other kind refuses one.
    with pytest.raises(SpecError, match="^own_order needs order 'own', got 'opposite'$"):
        make_order(ds.schema, "opposite", ("c2", "x", "y", "c1"))
    schema_num = Schema((Column("x", ColumnKind.numeric()),))
    with pytest.raises(SpecError):
        make_order(schema_num, "largest_cat_first")


def test_largest_cat_picks_widest_level_set():
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("c1", ColumnKind.categorical(("a", "b"))),
            Column("c2", ColumnKind.categorical(("a", "b", "c", "d"))),
        )
    )
    assert make_order(schema, "largest_cat_first") == (2, 0, 1)
    assert make_order(schema, "largest_cat_last") == (0, 1, 2)


def cart_steps(*visit_preds):
    """The (column, step) pairs of D steps, each a column and its predictors."""
    return tuple((j, Step(Method.CART, (j,), preds, 5, 5)) for j, preds in visit_preds)


def test_build_spec_simple_and_selective_predictors():
    ds = small_dataset()
    simple = build_spec(ds.schema, "D").steps
    assert simple == cart_steps((0, ()), (1, (0,)), (2, (0, 1)), (3, (0, 1, 2)))
    assert build_spec(ds.schema, "D", order="opposite").steps == cart_steps(
        (3, ()), (2, (3,)), (1, (2, 3)), (0, (1, 2, 3))
    )
    sel = build_spec(ds.schema, "D", selective={"c1": ("x", "x")}).steps
    assert sel[2] == cart_steps((2, (0,)))[0]
    assert sel[:2] + sel[3:] == simple[:2] + simple[3:]  # unlisted targets keep the default
    with pytest.raises(SpecError, match="^predictor 'y' of column 'x' is visited after it$"):
        build_spec(ds.schema, "D", selective={"x": ("y",)})
    # The visit is checked before the selective map is checked against it.
    with pytest.raises(SpecError, match="^visit sequence must be a permutation of the columns$"):
        build_spec(ds.schema, "D", order="own", own_order=("y", "c1", "c2"), selective={"zz": ("x",)})
    with pytest.raises(SpecError, match="^column 'y' cannot predict itself$"):
        build_spec(ds.schema, "D", selective={"y": ("y",)})
    for selective in ({"zz": ("x",)}, {"y": ("x", "zz")}):
        with pytest.raises(SchemaError, match="^unknown column 'zz'$"):
            build_spec(ds.schema, "D", selective=selective)


def test_a_selective_predictor_visited_after_its_target_is_named(fixture_a):
    # CP visits its categorical block first, so x comes after c3.
    schema = fixture_a.schema
    with pytest.raises(SpecError, match="^predictor 'x' of column 'c3' is visited after it$"):
        build_spec(schema, "CP", selective={"c3": ("x",)})
    # A spec whose steps are edited directly is checked when it is synthesized.
    spec = build_spec(schema, "D")
    (x, step), *rest = spec.steps
    late = replace(spec, steps=((x, step._replace(preds=(schema.index("y"),))), *rest))
    with pytest.raises(SpecError, match="^predictor 'y' of column 'x' is drawn after it$"):
        synthesize(fixture_a, late, m=1, seed=0)


def test_a_spec_that_does_not_fit_the_data_is_refused(fixture_a):
    # P on a schema that declares x categorical draws x with a logistic model.
    x_categorical = Schema(
        (Column("x", ColumnKind.categorical(("a",))), *fixture_a.schema.columns[1:])
    )
    spec = build_spec(x_categorical, "P")
    with pytest.raises(SpecError, match="^parametric_categorical requires a categorical column, got 'x'$"):
        synthesize(fixture_a, spec, m=1, seed=0)
    spec = build_spec(fixture_a.schema, "D")
    (x, step), *rest = spec.steps
    for steps, message in (
        (((x, step._replace(min_leaf=0)), *rest), "^pmm_k and min_leaf of column 'x' must be >= 1$"),
        (spec.steps[:-1], "^column 'c3' is never drawn$"),
        (spec.steps + spec.steps[-1:], "^column 'c3' is drawn twice$"),
        (((x, step._replace(targets=(x, x + 1))), *rest), "^step 0 of 'D' does not fit"),
    ):
        with pytest.raises(SpecError, match=message):
            replace(spec, steps=steps).validate_against(fixture_a.schema)
    # S resamples each column alone, so a sample step may list no predictor.
    spec = build_spec(fixture_a.schema, "S", selective={"y": ("x",)})
    assert all(step.preds == () for _, step in spec.steps)
    x, (y, step), *rest = spec.steps
    late = (x, (y, step._replace(preds=(x[0],))), *rest)
    with pytest.raises(SpecError, match="^sample step of column 'y' lists predictors$"):
        replace(spec, steps=late).validate_against(fixture_a.schema)


def test_build_spec_methods_by_base():
    ds = small_dataset()

    def methods(base):
        return [(j, step.method) for j, step in build_spec(ds.schema, base).steps]

    num, cat = Method.PARAMETRIC_NUMERIC, Method.PARAMETRIC_CATEGORICAL
    assert methods("P") == [(0, num), (1, num), (2, cat), (3, cat)]
    assert methods("D") == [(j, Method.CART) for j in range(4)]
    assert methods("S") == [(j, Method.SAMPLE) for j in range(4)]
    # Joint bases draw all categoricals first, as one step on the stream of
    # the first of them, without predictors.
    joint = (2, Step(Method.JOINT_CATEGORICAL, (2, 3), (), 5, 5))
    assert build_spec(ds.schema, "CP").steps == (
        joint,
        (0, Step(Method.PMM, (0,), (2, 3), 5, 5)),
        (1, Step(Method.PMM, (1,), (0, 2, 3), 5, 5)),
    )
    assert methods("CC") == [(2, Method.JOINT_CATEGORICAL), (0, Method.CART), (1, Method.CART)]


def test_label_construction():
    ds = small_dataset()
    assert build_spec(ds.schema, "D").label == "D"
    assert build_spec(ds.schema, "D", order="opposite", proper=True).label == "DOT"
    assert build_spec(ds.schema, "CC", order="largest_cat_first").label == "CCH"
    assert (
        build_spec(ds.schema, "P", order="own", own_order=("c1", "x", "y", "c2")).label
        == "PV"
    )


def test_sample_base_resamples_observed_values():
    ds = small_dataset()
    sset = synthesize(ds, build_spec(ds.schema, "S"), m=2, seed=3)
    for out in sset.datasets:
        assert out.n_rows == ds.n_rows
        for name in ("x", "y"):
            assert set(out.column(name)) <= set(ds.column(name))
        # independent resampling: x and y pairs break apart
        r = np.corrcoef(out.column("x"), out.column("y"))[0, 1]
        assert abs(r) < 0.2


def test_every_base_emits_observed_levels(fixture_a):
    for base in ("S", "P", "D", "CP", "CC"):
        sset = synthesize(fixture_a, build_spec(fixture_a.schema, base), m=1, seed=8)
        out = sset.datasets[0]
        for name in ("c1", "c2", "c3"):
            observed = set(fixture_a.column(name).tolist())
            assert set(out.column(name).tolist()) <= observed, f"{base}:{name}"


def test_synthesis_is_deterministic():
    ds = small_dataset()
    spec = build_spec(ds.schema, "D")
    a = synthesize(ds, spec, m=2, seed=42)
    b = synthesize(ds, spec, m=2, seed=42)
    for da, db in zip(a.datasets, b.datasets):
        for name in ds.schema.names:
            assert np.array_equal(da.column(name), db.column(name))


def test_dataset_streams_are_independent_of_m():
    ds = small_dataset()
    first = synthesize(ds, build_spec(ds.schema, "D"), m=1, seed=11).datasets[0]
    both = synthesize(ds, build_spec(ds.schema, "D"), m=3, seed=11).datasets
    for name in ds.schema.names:
        assert np.array_equal(first.column(name), both[0].column(name))


def _separate_fits(spec, fit_ds):
    """Each step of ``spec`` fitted alone on ``fit_ds``."""
    return {step: fit_step(step, fit_ds) for _, step in spec.steps}


@pytest.mark.parametrize("base", synthesis.BASES)
def test_shared_fits_draw_the_bytes_of_separate_fits(base):
    ds = small_dataset()
    spec = build_spec(ds.schema, base)
    shared = synthesize(ds, spec, m=3, seed=23).datasets
    for i, got in enumerate(shared):
        want = synthesis._synthesize_one(spec, 23, i, _separate_fits(spec, ds), ds.schema, ds.n_rows)
        assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in want.columns]


@pytest.mark.parametrize("base", synthesis.BASES)
def test_proper_forests_draw_the_bytes_of_separate_fits(base):
    # synthesize grows the trees of all three bootstraps as one forest
    ds = small_dataset()
    spec = build_spec(ds.schema, base, proper=True)
    for i, got in enumerate(synthesize(ds, spec, m=3, seed=23).datasets):
        boot = ds.take(synthesis._bootstrap_indices(synthesis._stream(23, i, 0), ds.n_rows))
        want = synthesis._synthesize_one(spec, 23, i, _separate_fits(spec, boot), ds.schema, ds.n_rows)
        assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in want.columns]


def test_passed_fits_draw_the_same_bytes_and_fit_nothing(monkeypatch):
    ds = small_dataset()
    spec = build_spec(ds.schema, "D")
    want = synthesize(ds, spec, m=3, seed=5).datasets
    steps = [step for _, step in spec.steps]
    fitted = dict(zip(steps, fit_steps((step, ds) for step in steps)))
    calls = []
    for name in ("fit_step", "fit_cart"):
        real = getattr(synthesis, name)
        monkeypatch.setattr(
            synthesis, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    got = synthesize(ds, spec, m=3, seed=5, fitted=fitted).datasets
    assert calls == []
    assert [[c.tobytes() for c in d.columns] for d in got] == [
        [c.tobytes() for c in d.columns] for d in want
    ]


def test_a_passed_fit_error_raises_without_the_frames_of_earlier_raises():
    # 250 rows cannot serve 251 donors, so x's PMM fit fails. Every call
    # raises that one stored error; each raise starts a new traceback.
    ds = small_dataset()
    spec = build_spec(ds.schema, "CP", pmm_k=ds.n_rows + 1)
    steps = [step for _, step in spec.steps]
    fitted = dict(zip(steps, fit_steps((step, ds) for step in steps)))
    depths = []
    for _ in range(4):
        with pytest.raises(SynthesisError, match=r"^variable 'x', .*pmm_k=251") as raised:
            synthesize(ds, spec, m=2, seed=5, fitted=fitted)
        err = raised.value.__cause__
        assert any(err is value for value in fitted.values())
        depths.append(len(traceback.extract_tb(err.__traceback__)))
    assert depths == [1] * 4


def test_a_forest_that_raises_fits_each_tree_alone(monkeypatch):
    # y's tree on 250 rows fits; the same step on 4 rows is short of
    # min_leaf=5, which sinks the forest, so each tree is refitted alone
    ds = small_dataset()
    short = ds.take(np.arange(4))
    step = Step(Method.CART, (1,), (0,), min_leaf=5, pmm_k=5)
    calls = []
    real = synthesis.fit_cart
    monkeypatch.setattr(
        synthesis, "fit_cart", lambda problems: calls.append(len(problems)) or real(problems)
    )
    got, failed = fit_steps([(step, ds), (step, short)])
    assert calls == [2, 1, 1]
    want = fit_step(step, ds)
    fields = ("feature", "threshold", "left", "sends_left", "donor_start", "donor_rows")
    assert [getattr(got.tree, f).tobytes() for f in fields] == [
        getattr(want.tree, f).tobytes() for f in fields
    ]
    assert got.y.tobytes() == want.y.tobytes()
    with pytest.raises(FitError) as alone:
        fit_step(step, short)
    assert type(failed) is FitError
    assert str(failed) == str(alone.value) == "need at least min_leaf=5 rows, got 4"


@pytest.mark.parametrize("proper", [False, True])
def test_every_fit_comes_before_the_first_draw(monkeypatch, proper):
    # P fits no donor tree, so at m = 3 one batch fits its four steps once
    # (non-proper) or on each of three bootstraps (proper), then draws
    ds = small_dataset()
    log = []
    real_fit_step, real_stream = synthesis.fit_step, synthesis._stream

    def logging_fit_step(step, fit_ds):
        log.append("fit")
        return real_fit_step(step, fit_ds)

    def logging_stream(seed, idx, tag):
        if tag >= 1:
            log.append("draw")
        return real_stream(seed, idx, tag)

    monkeypatch.setattr(synthesis, "fit_step", logging_fit_step)
    monkeypatch.setattr(synthesis, "_stream", logging_stream)
    synthesize(ds, build_spec(ds.schema, "P", proper=proper), m=3, seed=3)
    fits = 4 * (3 if proper else 1)
    assert log == ["fit"] * fits + ["draw"] * 12


def test_proper_with_identity_bootstrap_equals_nonproper(monkeypatch):
    ds = small_dataset()
    monkeypatch.setattr(
        synthesis, "_bootstrap_indices", lambda rng, n: np.arange(n, dtype=np.int64)
    )
    plain = synthesize(ds, build_spec(ds.schema, "D"), m=2, seed=13)
    proper = synthesize(ds, build_spec(ds.schema, "D", proper=True), m=2, seed=13)
    for da, db in zip(plain.datasets, proper.datasets):
        for name in ds.schema.names:
            assert np.array_equal(da.column(name), db.column(name))


def test_proper_bootstrap_changes_fits():
    ds = small_dataset()
    plain = synthesize(ds, build_spec(ds.schema, "D"), m=1, seed=13)
    proper = synthesize(ds, build_spec(ds.schema, "D", proper=True), m=1, seed=13)
    assert proper.label == "DT"
    diff = any(
        not np.array_equal(plain.datasets[0].column(n), proper.datasets[0].column(n))
        for n in ds.schema.names
    )
    assert diff


def test_joint_base_never_invents_combinations():
    ds = small_dataset()
    sset = synthesize(ds, build_spec(ds.schema, "CC"), m=2, seed=21)
    observed = {(a, b) for a, b in zip(ds.column("c1"), ds.column("c2"))}
    for out in sset.datasets:
        got = {(a, b) for a, b in zip(out.column("c1"), out.column("c2"))}
        assert got <= observed


def test_selective_empty_predictor_set_falls_back_to_sampling():
    ds = small_dataset()
    spec = build_spec(ds.schema, "P", selective={"y": ()})
    out = synthesize(ds, spec, m=1, seed=2).datasets[0]
    assert set(out.column("y")) <= set(ds.column("y"))


def test_missing_data_is_rejected():
    schema = Schema((Column("x", ColumnKind.numeric()),))
    ds = Dataset(
        schema,
        (np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),),
        (np.asarray([True, False, False, False, False, False]),),
    )
    with pytest.raises(SynthesisError, match="^original data still has missing cells"):
        synthesize(ds, build_spec(schema, "S"), m=1, seed=0)


def test_fit_errors_carry_variable_and_dataset_context(monkeypatch):
    ds = small_dataset()

    def boom(*args, **kwargs):
        raise ValueError("forced failure")

    monkeypatch.setattr(synthesis, "fit_cart", boom)
    with pytest.raises(SynthesisError) as err:
        synthesize(ds, build_spec(ds.schema, "D"), m=1, seed=1)
    msg = str(err.value)
    # x has no predictors and is sampled marginally, so the first fit is at y
    assert "'y'" in msg and "dataset 0" in msg


@pytest.mark.parametrize("base, variable", [("D", "y"), ("CC", "x")])
def test_unfittable_proper_tree_names_its_variable_and_dataset(base, variable):
    # every bootstrap has 250 rows, one short of min_leaf: the first donor
    # tree of dataset 0 fails (D draws x marginally; CC draws c1 and c2
    # jointly before x)
    ds = small_dataset()
    spec = build_spec(ds.schema, base, proper=True, min_leaf=251)
    with pytest.raises(SynthesisError) as err:
        synthesize(ds, spec, m=3, seed=5)
    assert str(err.value) == (
        f"variable {variable!r}, dataset 0: need at least min_leaf=251 rows, got 250"
    )


def numeric_pair(x, y):
    num = ColumnKind.numeric()
    return Dataset(Schema((Column("x", num), Column("y", num))), (x, y))


def test_pmm_draw_returns_nearby_observed_value():
    rng = np.random.default_rng(3)
    x = np.linspace(0, 10, 200)
    ds = numeric_pair(x, x.copy())
    pmm = fit_step(Step(Method.PMM, (1,), (0,), min_leaf=5, pmm_k=5), ds)
    draws = set(pmm.draw((np.full(300, 5.0),), 300, rng).tolist())
    assert draws <= set(x.tolist())
    assert all(abs(v - 5.0) < 0.2 for v in draws)


@pytest.mark.parametrize("seed", range(8))
def test_pmm_with_fewer_rows_than_donors_is_an_error(seed):
    # 4 fitting rows cannot supply 5 donors to any synthetic row.
    ds = numeric_pair(np.asarray([0.0, 1.0, 2.0, 3.0]), np.asarray([0.5, 1.5, 1.0, 3.5]))
    with pytest.raises(SynthesisError, match=r"variable 'y'.*pmm_k=5"):
        synthesize(ds, build_spec(ds.schema, "CP", pmm_k=5), m=1, seed=seed)


def test_save_and_load_round_trip(tmp_path):
    ds = small_dataset()
    sset = synthesize(ds, build_spec(ds.schema, "D"), m=2, seed=4)
    save_synthetic_set(sset, tmp_path / "out")
    back = load_synthetic_set(tmp_path / "out", ds.schema)
    assert back.label == sset.label and back.m == 2
    for da, db in zip(sset.datasets, back.datasets):
        for name in ds.schema.names:
            assert np.array_equal(da.column(name), db.column(name))


def test_levels_spelled_like_missing_tokens_round_trip(tmp_path):
    schema = Schema(
        (
            Column("a", ColumnKind.numeric()),
            Column("c", ColumnKind.categorical(("NA", "", "x"))),
        )
    )
    ds = Dataset(schema, (np.asarray([1.0, 2.0, 3.0]), np.asarray([0, 1, 2])))
    save_synthetic_set(SyntheticSet("S", 0, (ds,), (0.0,)), tmp_path)
    back = load_synthetic_set(tmp_path, schema)
    assert back.datasets[0].column("c").tolist() == [0, 1, 2]
    # A row cut short lacks a cell, which no synthetic dataset may.
    path = tmp_path / "ds000.csv"
    path.write_text(path.read_text() + "4.0\n")
    with pytest.raises(DataError, match="missing cells"):
        load_synthetic_set(tmp_path, schema)


def test_spec_validation():
    ds = small_dataset()
    with pytest.raises(SpecError):
        build_spec(ds.schema, "Q")
    with pytest.raises(SpecError, match="^m must be >= 1, got 0$"):
        synthesize(ds, build_spec(ds.schema, "D"), m=0, seed=0)
    with pytest.raises(SpecError, match="^seed must be non-negative$"):
        synthesize(ds, build_spec(ds.schema, "D"), m=1, seed=-1)
    schema_cats_only = Schema((Column("c", ColumnKind.categorical(("a", "b"))),))
    spec = build_spec(schema_cats_only, "CP")  # no numerics is fine
    assert spec.steps == ((0, Step(Method.JOINT_CATEGORICAL, (0,), (), 5, 5)),)
    schema_num_only = Schema((Column("x", ColumnKind.numeric()),))
    # joint base with no categoricals degrades to donor trees on the numerics
    spec_num = build_spec(schema_num_only, "CC")
    assert spec_num.steps == cart_steps((0, ()))


# Orders the golden grid does not cover. CPO and CCL first visit the joint
# group at c3 and c2, so its stream is not that of its first target, c1. DV
# and DOT visit the columns out of column order. Each digest covers both
# datasets (m = 2) on fixture-A.
ORDER_DIGESTS = {
    "CPO": "4c9e1c3218ea746d1a55c203453093ea87d302685bdf9b238870fd305295b056",
    "CCL": "e088fd1acec4bac199bb57050bfe272f2c0f0d2ca995eba5b4fc67c6020afc1d",
    "DV": "c32a7744bcb3244631ae16fcdbe407307000291010a2ea391bcb10d9bf1e676f",
    "DOT": "c15c8699660a5bddc712cd4ab5b4ef508151631f86c13f6cc074bdfe6db86722",
}

_ORDER_SPECS = {
    "CPO": dict(base="CP", order="opposite"),
    "CCL": dict(base="CC", order="largest_cat_last"),
    "DV": dict(base="D", order="own", own_order=("c2", "y", "c3", "x", "c1")),
    "DOT": dict(base="D", order="opposite", proper=True),
}


def _order_spec(schema, label):
    kwargs = dict(_ORDER_SPECS[label])
    return build_spec(schema, kwargs.pop("base"), **kwargs)


def _datasets_digest(datasets):
    h = hashlib.sha256()
    for ds in datasets:
        for col in ds.columns:
            h.update(col.dtype.str.encode() + np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def test_order_digests_are_golden(fixture_a):
    digests = {}
    for label in ORDER_DIGESTS:
        sset = synthesize(fixture_a, _order_spec(fixture_a.schema, label), m=2, seed=31)
        digests[label] = _datasets_digest(sset.datasets)
    assert digests == ORDER_DIGESTS


def test_cp_and_cpo_share_one_joint_table(fixture_a, monkeypatch):
    # CP visits c1 first and CPO visits c3 first, but the joint group is the
    # same fit, and each spec draws the bytes that it draws alone.
    fits = []
    real = synthesis.fit_joint_table
    monkeypatch.setattr(
        synthesis, "fit_joint_table", lambda *a, **k: fits.append(a[1]) or real(*a, **k)
    )
    cp = build_spec(fixture_a.schema, "CP")
    cpo = _order_spec(fixture_a.schema, "CPO")
    steps = list(dict.fromkeys(step for spec in (cp, cpo) for _, step in spec.steps))
    fitted = dict(zip(steps, fit_steps((step, fixture_a) for step in steps)))
    shared = [synthesize(fixture_a, spec, m=2, seed=31, fitted=fitted).datasets for spec in (cp, cpo)]
    assert fits == [("c1", "c2", "c3")]
    for spec, got in zip((cp, cpo), shared):
        want = synthesize(fixture_a, spec, m=2, seed=31).datasets
        assert _datasets_digest(got) == _datasets_digest(want)


@pytest.mark.parametrize("bootstrap", [False, True])
def test_a_softmax_step_skips_only_the_standard_errors(fixture_a, bootstrap):
    ds = fixture_a
    if bootstrap:
        ds = ds.take(np.random.default_rng(11).integers(0, ds.n_rows, ds.n_rows))
    idx = ds.schema.index
    step = Step(Method.PARAMETRIC_CATEGORICAL, (idx("c1"),), (idx("x"), idx("y")), min_leaf=5, pmm_k=5)
    model = fit_step(step, ds).model
    full = fit_logistic(Predictors.from_dataset(ds, ("x", "y")), ds.column("c1"))
    assert model.se is None and full.se is not None
    assert model.coef.tobytes() == full.coef.tobytes()
    assert np.float64(model.loglik).tobytes() == np.float64(full.loglik).tobytes()
    assert (model.n_iter, model.converged, model.separated) == (full.n_iter, full.converged, full.separated)
