"""Outside-in tracing of synthbench for the benchmark's traced run.

``install`` replaces public names with timing wrappers in the module that
looks each name up, so nothing under ``src/`` changes: ``fit_cart`` is
patched in ``synthesis`` (synthesis-side fits) and in ``analysis``
(evaluation-side fits) separately. Spans (name, start, end, parent) stay in
memory; ``layer_metrics`` turns them into the per-layer numbers at the end.

Fit wrappers also count content keys (function, input bytes, arguments):
a key seen before marks a fit that repeats earlier work in the run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import os
import time

import numpy as np

GRIDS = ("grid-2k-all", "grid-8k-trees-j2")
ALL = GRIDS + ("eval-2k-m20",)

# (module that looks the name up, name, span name, workloads that must hit it)
WRAPS = (
    ("synthbench.harness", "load_csv", "dataset.load_csv", ALL),
    ("synthbench.synthesis", "write_csv", "dataset.write_csv", ALL),
    ("synthbench.harness", "synthesize", "synthesis.synthesize", ALL),
    ("synthbench.harness", "save_synthetic_set", "synthesis.save", ALL),
    ("synthbench.synthesis", "fit_cart", "models.cart.fit.synth", GRIDS),
    ("synthbench.analysis", "fit_cart", "models.cart.fit.eval", ALL),
    ("synthbench.synthesis", "draw_donor_rows", "models.cart.draw", GRIDS),
    ("synthbench.synthesis", "fit_ols", "models.linear.fit.synth", GRIDS),
    ("synthbench.estimands", "fit_ols", "models.linear.fit.eval", ALL),
    ("synthbench.synthesis", "draw_linear_many", "models.linear.draw", GRIDS),
    ("synthbench.synthesis", "fit_logistic", "models.logistic.fit.synth", GRIDS),
    ("synthbench.estimands", "fit_logistic", "models.logistic.fit.eval", ALL),
    ("synthbench.synthesis", "draw_class_many", "models.logistic.draw", GRIDS),
    ("synthbench.synthesis", "fit_joint_table", "models.contingency.fit", GRIDS),
    ("synthbench.synthesis", "draw_tuples", "models.contingency.draw", GRIDS),
    ("synthbench.harness", "regression_estimands", "estimands.regression", ALL),
    ("synthbench.harness", "mean_point_estimand", "estimands.mean_point", ALL),
    ("synthbench.harness", "kl_divergence", "metrics.kl", ALL),
    ("synthbench.harness", "classify_compare", "analysis.classify", ALL),
    ("synthbench.harness", "adhoc_proportion", "analysis.adhoc", ALL),
    ("synthbench.harness", "_run_cell", "harness.run_cell", ALL),
    ("synthbench.harness", "metric_rows", "harness.metric_rows", ALL),
    ("synthbench.harness", "run_experiment", "harness.run_experiment", ALL),
    ("synthbench.harness", "emit_tables", "harness.emit_tables", ALL),
)

# Spans of model fits, and which side's repeat ratio each one feeds.
FIT_SIDE = {
    "models.cart.fit.synth": "synth",
    "models.linear.fit.synth": "synth",
    "models.logistic.fit.synth": "synth",
    "models.contingency.fit": "synth",
    "models.cart.fit.eval": "eval",
    "models.linear.fit.eval": "eval",
    "models.logistic.fit.eval": "eval",
}


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer the workload needs was never hit."""


def _digest(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _digest(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _digest(h, item)
    elif isinstance(obj, dict):
        h.update(f"map{len(obj)}".encode())
        for k in sorted(obj):
            h.update(repr(k).encode())
            _digest(h, obj[k])
    elif obj is None or isinstance(obj, (bool, int, float, str, np.generic)):
        h.update(repr(obj).encode())
    else:
        raise TraceError(f"cannot build a content key from {type(obj).__name__}")


def content_key(fn_name: str, args: tuple, kwargs: dict) -> bytes:
    h = hashlib.sha256(fn_name.encode())
    _digest(h, args)
    _digest(h, kwargs)
    return h.digest()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.excluded: list[float] = []
        self._stack: list[int] = []
        self.fit_keys: dict[str, set[bytes]] = {"synth": set(), "eval": set()}
        self.fit_counts: dict[str, list[int]] = {"synth": [0, 0], "eval": [0, 0]}  # fits, repeats
        self.cart_leaves = 0
        self.newton_iters = 0
        self.nonconverged = 0
        self.write_bytes = 0

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self.excluded.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _exclude(self, t0: float) -> None:
        """Keep the tracer's own bookkeeping since ``t0`` out of every open span."""
        spent = time.perf_counter() - t0
        for idx in self._stack:
            self.excluded[idx] += spent

    def _count_fit(self, side: str, fn_name: str, args: tuple, kwargs: dict) -> None:
        key = content_key(fn_name, args, kwargs)
        counts = self.fit_counts[side]
        counts[0] += 1
        if key in self.fit_keys[side]:
            counts[1] += 1
        else:
            self.fit_keys[side].add(key)

    def _after(self, span: str, args: tuple, result) -> None:
        if span.startswith("models.cart.fit."):
            self.cart_leaves += result.n_leaves
        elif span.startswith("models.logistic.fit."):
            self.newton_iters += result.n_iter
            self.nonconverged += int(not result.converged)
        elif span == "dataset.write_csv":
            self.write_bytes += os.path.getsize(args[1])

    def wrap(self, fn, span: str):
        side = FIT_SIDE.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if side is not None:
                t0 = time.perf_counter()
                self._count_fit(side, fn.__name__, args, kwargs)
                self._exclude(t0)
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            t0 = time.perf_counter()
            self._after(span, args, result)
            self._exclude(t0)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, _ in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"{module_name}.{attr} no longer exists; cannot trace {span}")
            setattr(module, attr, self.wrap(fn, span))

    def check_hits(self, workload: str) -> None:
        hit = set(self.names)
        missed = [
            f"{span} ({module}.{attr})"
            for module, attr, span, expected in WRAPS
            if workload in expected and span not in hit
        ]
        if missed:
            raise TraceError(f"layers never hit on {workload}: {', '.join(missed)}")

    def totals(self) -> dict[str, list[float]]:
        """span name -> [calls, seconds, self seconds]."""
        dur = [e - s - x for s, e, x in zip(self.starts, self.ends, self.excluded)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += dur[i]
            t[2] += dur[i] - child[i]
        return out

    def layer_metrics(self, t: dict[str, list[float]]) -> dict[str, float]:
        """Per-layer numbers from ``totals()`` and the counters (no pool or
        overhead figures: those need the untraced run)."""

        def calls(name: str) -> int:
            return int(t.get(name, (0, 0.0, 0.0))[0])

        def secs(name: str) -> float:
            return t.get(name, (0, 0.0, 0.0))[1]

        def self_secs(name: str) -> float:
            return t.get(name, (0, 0.0, 0.0))[2]

        # synthesize's only children are model spans, so its self time is
        # synthesize minus the model spans under it.
        out: dict[str, float] = {"synthesis.self_s": self_secs("synthesis.synthesize")}
        for model in ("cart", "linear", "logistic"):
            for side in ("synth", "eval"):
                out[f"models.{model}.fit.{side}.calls"] = calls(f"models.{model}.fit.{side}")
                out[f"models.{model}.fit.{side}.s"] = secs(f"models.{model}.fit.{side}")
            out[f"models.{model}.draw.s"] = secs(f"models.{model}.draw")
        out["models.cart.leaves"] = self.cart_leaves
        out["models.logistic.newton_iters"] = self.newton_iters
        out["models.logistic.nonconverged"] = self.nonconverged
        out["models.contingency.fit.calls"] = calls("models.contingency.fit")
        out["models.contingency.fit.s"] = secs("models.contingency.fit")
        out["models.contingency.draw.s"] = secs("models.contingency.draw")
        for side, (fits, repeats) in self.fit_counts.items():
            out[f"models.fit.{side}.repeat_ratio"] = repeats / fits if fits else 0.0
        out["estimands.regression.calls"] = calls("estimands.regression")
        out["estimands.regression.s"] = secs("estimands.regression")
        out["estimands.mean_point.s"] = secs("estimands.mean_point")
        out["metrics.kl.calls"] = calls("metrics.kl")
        out["metrics.kl.s"] = secs("metrics.kl")
        out["analysis.classify.calls"] = calls("analysis.classify")
        out["analysis.classify.s"] = secs("analysis.classify")
        out["analysis.adhoc.s"] = secs("analysis.adhoc")
        out["dataset.write_csv.calls"] = calls("dataset.write_csv")
        out["dataset.write_csv.s"] = secs("dataset.write_csv")
        out["dataset.write_csv.mb"] = self.write_bytes / 1e6
        out["dataset.load_csv.s"] = secs("dataset.load_csv")
        out["harness.run_cell.calls"] = calls("harness.run_cell")
        out["harness.metric_rows.s"] = secs("harness.metric_rows")
        out["harness.metric_rows.self_s"] = self_secs("harness.metric_rows")
        out["harness.assemble.s"] = secs("harness.run_experiment") - secs("harness.run_cell")
        out["harness.emit_tables.s"] = secs("harness.emit_tables")
        return out
