import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbench.dataset import ColumnKind
from synthbench.errors import MetricError
from synthbench.metrics import (
    UtilityReport,
    apo,
    cio,
    kl_divergence,
)

CAT2 = ColumnKind.categorical(("a", "b"))
NUM = ColumnKind.numeric()


def test_cio_worked_examples():
    assert abs(cio((0, 2), (0, 2)) - 1.0) < 1e-12
    assert abs(cio((0, 1), (2, 3)) - 0.0) < 1e-12
    assert abs(cio((0, 2), (1, 3)) - 0.5) < 1e-12


def test_cio_degenerate_intervals():
    assert cio((1, 1), (1, 1)) == 1.0
    assert cio((1, 1), (2, 2)) == 0.0
    assert cio((1, 1), (0, 2)) == 0.0


def test_cio_of_an_interval_with_a_non_finite_bound_is_an_error():
    # An infinite variance (values near 1e300) gave an overlap of nan.
    for bad in ((-math.inf, math.inf), (math.nan, math.nan), (0, math.inf)):
        with pytest.raises(MetricError, match="not finite"):
            cio(bad, (0, 1), estimand_id="x")
        with pytest.raises(MetricError, match="not finite"):
            cio((0, 1), bad, estimand_id="x")


def test_cio_nested_intervals():
    # synthetic twice as wide, centered: 0.5 * (1 + 1/2)
    got = cio((-1, 1), (-2, 2))
    assert got == pytest.approx(0.75, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    lo1=st.floats(-100, 100),
    w1=st.floats(0.001, 50),
    lo2=st.floats(-100, 100),
    w2=st.floats(0.001, 50),
    shift=st.floats(-10, 10),
    scale=st.floats(0.01, 10),
)
def test_cio_symmetry_range_and_affine_invariance(lo1, w1, lo2, w2, shift, scale):
    a = (lo1, lo1 + w1)
    b = (lo2, lo2 + w2)
    v1 = cio(a, b)
    v2 = cio(b, a)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert 0.0 <= v1 <= 1.0
    at = (scale * lo1 + shift, scale * (lo1 + w1) + shift)
    bt = (scale * lo2 + shift, scale * (lo2 + w2) + shift)
    assert cio(at, bt) == pytest.approx(v1, abs=1e-9)


def test_apo_threshold_strict_and_inclusive():
    vals = [0.95, 0.9, 0.2]
    assert apo(vals) == pytest.approx(1.0 / 3.0)
    assert apo(vals, inclusive=True) == pytest.approx(2.0 / 3.0)
    assert apo([0.91, 0.89]) == 0.5
    with pytest.raises(MetricError):
        apo([])
    with pytest.raises(MetricError):
        apo(vals, threshold=1.5)


def test_kl_hand_value_without_smoothing():
    orig = np.asarray([0, 1, 0, 1])       # (0.5, 0.5)
    synth = np.asarray([0, 1, 1, 1])      # (0.25, 0.75)
    score = kl_divergence(orig, synth, CAT2, smoothing=0.0)
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert score == pytest.approx(expect, abs=1e-9)


def test_kl_zero_synthetic_cell_is_infinite_without_smoothing():
    orig = np.asarray([0, 1, 0, 1])
    synth = np.asarray([1, 1, 1, 1])
    assert math.isinf(kl_divergence(orig, synth, CAT2, smoothing=0.0))
    assert math.isfinite(kl_divergence(orig, synth, CAT2, smoothing=0.5))


def test_kl_smoothed_hand_value():
    orig = np.asarray([0, 0, 0, 1])   # counts (3,1), smoothed (3.5, 1.5)/5
    synth = np.asarray([0, 0, 0, 0])  # counts (4,0), smoothed (4.5, 0.5)/5
    p = (3.5 / 5.0, 1.5 / 5.0)
    q = (4.5 / 5.0, 0.5 / 5.0)
    expect = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
    got = kl_divergence(orig, synth, CAT2, smoothing=0.5)
    assert got == pytest.approx(expect, abs=1e-12)


def test_kl_directions():
    orig = np.asarray([0, 0, 0, 1])
    synth = np.asarray([0, 1, 1, 1])
    pq = kl_divergence(orig, synth, CAT2, direction="pq")
    qp = kl_divergence(orig, synth, CAT2, direction="qp")
    sym = kl_divergence(orig, synth, CAT2, direction="sym")
    assert sym == pytest.approx(0.5 * (pq + qp), abs=1e-12)
    with pytest.raises(MetricError):
        kl_divergence(orig, synth, CAT2, direction="bad")


def test_kl_numeric_binning_hand_value():
    # pooled range [0, 4) with 2 bins: [0,2) and [2,4]
    orig = np.asarray([0.0, 1.0, 3.0, 4.0])   # counts (2, 2)
    synth = np.asarray([0.5, 0.5, 0.5, 3.5])  # counts (3, 1)
    got = kl_divergence(orig, synth, NUM, bins=2, smoothing=0.0)
    expect = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert got == pytest.approx(expect, abs=1e-12)


def test_kl_constant_columns_share_single_cell():
    orig = np.full(10, 2.5)
    synth = np.full(8, 2.5)
    assert kl_divergence(orig, synth, NUM) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    c_o=st.lists(st.integers(0, 3), min_size=1, max_size=60),
    c_s=st.lists(st.integers(0, 3), min_size=1, max_size=60),
)
def test_kl_nonnegative(c_o, c_s):
    kind = ColumnKind.categorical(("w", "x", "y", "z"))
    raw = kl_divergence(np.asarray(c_o), np.asarray(c_s), kind)
    assert raw >= 0.0


def test_report_summary_and_values():
    rep = UtilityReport()
    rep.add("D", "simple", 3, 0, "rf_apo", "", 0.5)
    rep.add("D", "simple", 3, 1, "rf_apo", "", 1.0)
    rep.add("S", "simple", 3, 0, "rf_apo", "", 0.0)
    summary = {(r.label, r.metric): r.value for r in rep.summary()}
    assert summary[("D", "rf_apo")] == pytest.approx(0.75)
    assert summary[("S", "rf_apo")] == 0.0
    got = {key: v for key, v in rep.values("rf_apo").items() if key[0] == "D"}
    assert got == {("D", "simple", 3, 0, ""): 0.5, ("D", "simple", 3, 1, ""): 1.0}
    assert all(r.k == -1 for r in rep.summary())
