import json
import operator

import numpy as np
import pytest

from synthbench.analysis import (
    ADHOC_OPS,
    AdhocPredicate,
    Condition,
    adhoc_proportion,
    classifier_baseline,
    classify_compare,
    correlation_battery,
    load_adhoc,
    pearson,
)
from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.errors import AnalysisError
from synthbench.synthesis import SyntheticSet


def labeled_dataset(n=400, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    z = rng.uniform(0, 1, n)
    y = (x > 0).astype(np.int64)
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("z", ColumnKind.numeric()),
            Column("y", ColumnKind.categorical(("neg", "pos"))),
        )
    )
    return Dataset(schema, (x, z, y))


def as_set(label, *datasets):
    return SyntheticSet(label, 0, tuple(datasets), tuple(0.0 for _ in datasets))


def test_pearson_hand_value():
    # ranks (1,2,3) vs (1,3,2): classic half-agreement
    assert pearson((1, 2, 3), (1, 3, 2)) == pytest.approx(0.5, abs=1e-15)
    assert pearson((1, 2, 3), (2, 4, 6)) == pytest.approx(1.0, abs=1e-12)
    assert pearson((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_validation():
    with pytest.raises(AnalysisError):
        pearson((1, 2), (3, 4))
    with pytest.raises(AnalysisError):
        pearson((1, 1, 1), (1, 2, 3))
    with pytest.raises(AnalysisError):
        pearson((1, 2, 3), (1, 2))


def test_classify_copies_agree_perfectly():
    ds = labeled_dataset()
    baseline = classifier_baseline(ds, "y")
    accuracies, agreements = classify_compare(baseline, as_set("copy", ds, ds))
    assert agreements == (1.0, 1.0)
    assert accuracies == (float(baseline.correct.mean()),) * 2
    # x > 0 is perfectly learnable by an overfit tree evaluated in-sample
    assert baseline.correct.mean() > 0.95


def test_classify_holdout_split():
    ds = labeled_dataset(n=600)
    baseline = classifier_baseline(ds, "y", test_fraction=0.25)
    assert baseline.eval_ds.n_rows == 150
    _, (agreement,) = classify_compare(baseline, as_set("copy", ds))
    # held-out scoring loses the resubstitution advantage but the signal
    # is deterministic, so accuracy stays high
    assert 0.8 <= baseline.correct.mean() <= 1.0
    assert 0.0 <= agreement <= 1.0
    with pytest.raises(AnalysisError):
        classifier_baseline(ds, "y", test_fraction=1.5)


def test_classify_validation():
    ds = labeled_dataset()
    with pytest.raises(AnalysisError):
        classifier_baseline(ds, "x")  # numeric target
    schema = Schema((Column("y", ColumnKind.categorical(("a", "b"))),))
    lone = Dataset(schema, (np.zeros(10, dtype=np.int64),))
    with pytest.raises(AnalysisError):
        classifier_baseline(lone, "y")
    with pytest.raises(AnalysisError, match="no synthetic datasets"):
        classify_compare(classifier_baseline(ds, "y"), as_set("none"))


def test_adhoc_proportion_hand_values():
    ds = labeled_dataset(n=8, seed=0)
    x = ds.column("x")
    compare = {"eq": operator.eq, "le": operator.le, "ge": operator.ge,
               "lt": operator.lt, "gt": operator.gt}
    assert tuple(compare) == ADHOC_OPS
    # at a value that x takes, every operator's share differs from its strict twin's
    for op, numpy_compare in compare.items():
        for v in (float(x[3]), 0.0):
            pred = AdhocPredicate("p0", (Condition("x", op, v),))
            assert adhoc_proportion(ds, pred) == numpy_compare(x, v).mean(), (op, v)
    pred = AdhocPredicate("p1", (Condition("x", "gt", 0.0),))
    assert adhoc_proportion(ds, pred) == (x > 0).mean()
    both = AdhocPredicate(
        "p2", (Condition("x", "gt", 0.0), Condition("y", "eq", "pos"))
    )
    assert adhoc_proportion(ds, both) == (x > 0).mean()  # y is determined by x
    nothing = AdhocPredicate("p3", (Condition("x", "gt", 1e9),))
    assert adhoc_proportion(ds, nothing) == 0.0


def test_adhoc_validation():
    ds = labeled_dataset(n=10)
    with pytest.raises(AnalysisError):
        adhoc_proportion(ds, AdhocPredicate("b", (Condition("y", "le", "pos"),)))
    with pytest.raises(AnalysisError):
        adhoc_proportion(ds, AdhocPredicate("b", (Condition("y", "eq", "missing"),)))
    with pytest.raises(AnalysisError):
        adhoc_proportion(ds, AdhocPredicate("b", (Condition("x", "ge", "abc"),)))
    with pytest.raises(AnalysisError):
        Condition("x", "between", 1.0)


def test_load_adhoc_round_trip(tmp_path):
    doc = {
        "analyses": [
            {
                "id": "older_half",
                "conditions": [{"column": "x", "op": "ge", "value": 0.5}],
            },
            {
                "id": "pos_rate",
                "conditions": [{"column": "y", "op": "eq", "value": "pos"}],
            },
        ]
    }
    path = tmp_path / "adhoc.json"
    path.write_text(json.dumps(doc))
    preds = load_adhoc(path)
    assert [p.id for p in preds] == ["older_half", "pos_rate"]
    assert preds[0].conditions[0].op == "ge"

    path.write_text("{not json")
    with pytest.raises(AnalysisError):
        load_adhoc(path)
    path.write_text(json.dumps({"analyses": [{"id": "a", "conditions": []}, {"id": "a", "conditions": []}]}))
    with pytest.raises(AnalysisError):
        load_adhoc(path)
    path.write_text(json.dumps({"analyses": [{"conditions": []}]}))
    with pytest.raises(AnalysisError):
        load_adhoc(path)
    # a key outside the grammar is an error naming it, not a note left unread
    doc["analyses"][0]["conditions"][0]["note"] = "upper half"
    path.write_text(json.dumps(doc))
    with pytest.raises(
        AnalysisError, match=r"adhoc\.json: unknown key 'note' in analyses\[0\]\.conditions\[0\]$"
    ):
        load_adhoc(path)


def test_adhoc_ids_must_be_strings(tmp_path):
    # 7 and "7" would pass the duplicate check and share the scope pred:7.
    path = tmp_path / "adhoc.json"
    for ids in ([7, "7"], [7], [None]):
        path.write_text(json.dumps({"analyses": [{"id": i, "conditions": []} for i in ids]}))
        with pytest.raises(AnalysisError, match="id must be a string"):
            load_adhoc(path)


def test_correlation_battery_alignment_and_skips():
    series = {
        "a": {("D", 1): 1.0, ("D", 5): 2.0, ("P", 1): 3.0, ("P", 5): 4.0},
        "b": {("D", 1): 2.0, ("D", 5): 4.0, ("P", 1): 6.0, ("P", 5): 8.0},
        "flat": {("D", 1): 1.0, ("D", 5): 1.0, ("P", 1): 1.0},
    }
    results, skipped = correlation_battery(
        series, [("a", "b"), ("a", "flat"), ("a", "ghost")]
    )
    assert len(results) == 1
    assert results[0].r == pytest.approx(1.0, abs=1e-12)
    assert results[0].n == 4
    reasons = {(s[0], s[1]): s[2] for s in skipped}
    assert "constant" in reasons[("a", "flat")]
    assert "ghost" in reasons[("a", "ghost")]
    with pytest.raises(AnalysisError):
        correlation_battery({"a": {("D", 1): 1.0}, "b": {("D", 1): 2.0}}, [("a", "b")])
