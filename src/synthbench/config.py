"""Experiment configuration: the config grammar, its checks and its fingerprint.

``load_config`` reads one JSON document (grammar in the README) into an
``ExperimentConfig``, checking every key and value, so a run that starts
has settings it can use.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .dataset import DEFAULT_MISSING_TOKENS, JsonFields, LevelMapping, read_json
from .errors import ConfigError
from .estimands import RULES
from .metrics import KL_DIRECTIONS
from .synthesis import BASES, ORDER_KINDS, synthesizer_label

PREDICTOR_MODES = ("simple", "selective")


@dataclass(frozen=True)
class SynthesizerEntry:
    base: str
    order: str = "original"
    own_order: tuple[str, ...] | None = None


@dataclass(frozen=True)
class MetricSettings:
    mean_point: bool = True
    regression: bool = True
    kl: bool = True
    kl_normalize: bool = True
    classification_target: str | None = None
    classification_test_fraction: float | None = None
    adhoc: bool = False
    rule: str = "Ts"
    ci_level: float = 0.95
    apo_threshold: float = 0.9
    apo_inclusive: bool = False
    kl_bins: int = 20
    kl_smoothing: float = 0.5
    kl_direction: str = "pq"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path
    schema: Path
    synthesizers: tuple[SynthesizerEntry, ...]
    m_list: tuple[int, ...]
    proper_variants: tuple[bool, ...]
    predictor_modes: tuple[str, ...]
    selective: dict[str, tuple[str, ...]] | None
    k: int
    seed: int
    out: Path
    fitspecs: Path | None = None
    adhoc: Path | None = None
    metrics: MetricSettings = field(default_factory=MetricSettings)
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    drop: tuple[str, ...] = ()
    coarsen: tuple[LevelMapping, ...] = ()
    head: int | None = None
    missing_seed: int = 0
    pmm_k: int = 5
    min_leaf: int = 5

    def labels(self) -> list[tuple[SynthesizerEntry, bool, str]]:
        """Expanded (entry, proper, label) triples; labels must be unique."""
        out = []
        seen = set()
        for entry in self.synthesizers:
            for proper in self.proper_variants:
                label = synthesizer_label(entry.base, entry.order, proper)
                if label in seen:
                    raise ConfigError(f"duplicate synthesizer label {label!r} in grid")
                seen.add(label)
                out.append((entry, proper, label))
        return out

    def fingerprint(self) -> str:
        """sha256 over every setting except ``out``, the bytes of every input
        file and the package version, so a resumed run never mixes two
        inputs."""
        from . import __version__

        settings = asdict(self)
        del settings["out"]
        doc = {
            "version": __version__,
            "contents": {
                name: _file_sha256(path)
                for name in ("dataset", "schema", "fitspecs", "adhoc")
                if (path := getattr(self, name)) is not None
            },
            "settings": settings,
        }
        blob = json.dumps(doc, sort_keys=True, default=os.fspath).encode()
        return hashlib.sha256(blob).hexdigest()


def _file_sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as err:
        raise ConfigError(f"cannot read input file {path}: {err}") from err


# The keys of each object of a config document (README shows them all): the
# ones it must have, then the others. Each flat metrics key is the
# MetricSettings field of the same name.
_TOP_KEYS = ("dataset", "schema", "grid"), (
    "fitspecs", "adhoc", "k", "seed", "out", "metrics", "preprocess", "missing_tokens", "pmm_k",
    "min_leaf",
)
_GRID_KEYS = ("synthesizers", "m"), ("proper", "predictor_modes", "selective")
_ENTRY_KEYS = ("base",), ("order", "own_order")
_METRICS_KEYS = (), ("classification", *(
    f.name for f in fields(MetricSettings) if not f.name.startswith("classification_")
))
_CLF_KEYS = (), ("target", "test_fraction")
_PREPROCESS_KEYS = (), ("drop", "coarsen", "head_n", "missing_seed")
_COARSEN_KEYS = ("column", "mapping"), ()


def load_config(path: str | Path, *, seed: int | None = None, out: str | Path | None = None) -> ExperimentConfig:
    """Read an experiment configuration (JSON; grammar in the README).

    Relative paths inside the file resolve against the file's directory.
    ``seed``/``out`` override the file's values.
    """
    path, check = Path(path), JsonFields(ConfigError)

    def resolve(p, where: str) -> Path:
        p = Path(check.typed(p, str, where))
        return p if p.is_absolute() else path.parent / p

    def parse(doc) -> ExperimentConfig:
        doc = check.object(doc, "the config", *_TOP_KEYS)
        grid = check.object(doc["grid"], "grid", *_GRID_KEYS)
        met = check.object(doc.get("metrics", {}), "metrics", *_METRICS_KEYS)
        clf = check.object(met.get("classification", {}), "metrics.classification", *_CLF_KEYS)
        target, fraction = clf.get("target"), clf.get("test_fraction")
        pre = check.object(doc.get("preprocess", {}), "preprocess", *_PREPROCESS_KEYS)
        sel = check.typed(grid.get("selective", {}), dict, "grid.selective")
        synths = check.objects(grid["synthesizers"], "grid.synthesizers", *_ENTRY_KEYS)
        coarsen = check.objects(pre.get("coarsen", []), "preprocess.coarsen", *_COARSEN_KEYS)
        cfg = ExperimentConfig(
            dataset=resolve(doc["dataset"], "dataset"),
            schema=resolve(doc["schema"], "schema"),
            synthesizers=tuple(
                SynthesizerEntry(
                    check.typed(s["base"], str, f"{at}.base"),
                    check.typed(s.get("order", "original"), str, f"{at}.order"),
                    None if "own_order" not in s
                    else check.strings(s["own_order"], f"{at}.own_order"),
                )
                for at, s in synths
            ),
            m_list=tuple(
                check.typed(m, int, "grid.m") for m in check.typed(grid["m"], list, "grid.m")
            ),
            proper_variants=tuple(
                check.typed(b, bool, "grid.proper")
                for b in check.typed(grid.get("proper", [False]), list, "grid.proper")
            ),
            predictor_modes=check.strings(
                grid.get("predictor_modes", ["simple"]), "grid.predictor_modes"
            ),
            selective={k: check.strings(v, f"grid.selective.{k}") for k, v in sel.items()} or None,
            k=check.typed(doc.get("k", 5), int, "k"),
            seed=int(seed) if seed is not None else check.typed(doc.get("seed", 0), int, "seed"),
            out=Path(out) if out is not None else resolve(doc.get("out", "results"), "out"),
            fitspecs=resolve(doc["fitspecs"], "fitspecs") if "fitspecs" in doc else None,
            adhoc=resolve(doc["adhoc"], "adhoc") if "adhoc" in doc else None,
            metrics=MetricSettings(
                classification_target=None if target is None
                else check.typed(target, str, "metrics.classification.target"),
                classification_test_fraction=None if fraction is None
                else check.typed(fraction, float, "metrics.classification.test_fraction"),
                **{
                    f.name: check.typed(met[f.name], type(f.default), f"metrics.{f.name}")
                    for f in fields(MetricSettings)
                    if f.name in met and not f.name.startswith("classification_")
                },
            ),
            missing_tokens=check.strings(
                doc.get("missing_tokens", list(DEFAULT_MISSING_TOKENS)), "missing_tokens"
            ),
            drop=check.strings(pre.get("drop", []), "preprocess.drop"),
            coarsen=tuple(
                LevelMapping(
                    check.typed(c["column"], str, "preprocess.coarsen.column"),
                    check.string_map(c["mapping"], "preprocess.coarsen.mapping"),
                )
                for _, c in coarsen
            ),
            head=None if pre.get("head_n") is None
            else check.typed(pre["head_n"], int, "preprocess.head_n"),
            missing_seed=check.typed(pre.get("missing_seed", 0), int, "preprocess.missing_seed"),
            pmm_k=check.typed(doc.get("pmm_k", 5), int, "pmm_k"),
            min_leaf=check.typed(doc.get("min_leaf", 5), int, "min_leaf"),
        )
        _validate_config(cfg)
        return cfg

    return read_json(path, "config", ConfigError, parse)


def _validate_config(cfg: ExperimentConfig) -> None:
    for e in cfg.synthesizers:
        if e.base not in BASES:
            raise ConfigError(f"unknown synthesizer base {e.base!r}")
        if e.order not in ORDER_KINDS:
            raise ConfigError(f"unknown synthesis order {e.order!r}")
        if e.order == "own" and not e.own_order:
            raise ConfigError("order 'own' needs own_order")
    if not cfg.m_list or any(m < 1 for m in cfg.m_list):
        raise ConfigError("grid.m must be a non-empty list of integers >= 1")
    if len(set(cfg.m_list)) != len(cfg.m_list):
        raise ConfigError("grid.m has duplicates")
    if not cfg.synthesizers:
        raise ConfigError("grid.synthesizers is empty")
    if not cfg.proper_variants:
        raise ConfigError("grid.proper is empty")
    if not cfg.predictor_modes:
        raise ConfigError("grid.predictor_modes is empty")
    if len(set(cfg.predictor_modes)) != len(cfg.predictor_modes):
        raise ConfigError("grid.predictor_modes has duplicates")
    for mode in cfg.predictor_modes:
        if mode not in PREDICTOR_MODES:
            raise ConfigError(f"unknown predictor mode {mode!r}")
    if "selective" in cfg.predictor_modes and not cfg.selective:
        raise ConfigError("predictor mode 'selective' needs grid.selective")
    if cfg.metrics.rule not in RULES:
        raise ConfigError(f"unknown combining rule {cfg.metrics.rule!r}")
    if cfg.metrics.rule == "Tp" and any(m < 2 for m in cfg.m_list):
        raise ConfigError("rule Tp needs every m >= 2")
    labels = [lbl for _, _, lbl in cfg.labels()]
    if cfg.metrics.kl and cfg.metrics.kl_normalize and "S" not in labels:
        raise ConfigError(
            "kl_normalize needs the independent-sampling baseline: add base 'S' "
            "(non-proper) to the grid"
        )
    met, head = cfg.metrics, cfg.head
    fraction = met.classification_test_fraction
    for where, value, ok, rule in (
        ("k", cfg.k, cfg.k >= 1, "be >= 1"),
        ("seed", cfg.seed, cfg.seed >= 0, "be >= 0"),
        ("pmm_k", cfg.pmm_k, cfg.pmm_k >= 1, "be >= 1"),
        ("min_leaf", cfg.min_leaf, cfg.min_leaf >= 1, "be >= 1"),
        ("preprocess.head_n", head, head is None or head >= 1, "be >= 1"),
        ("metrics.classification.test_fraction", fraction,
         fraction is None or 0.0 < fraction < 1.0, "lie in (0, 1)"),
        ("metrics.ci_level", met.ci_level, 0.0 < met.ci_level < 1.0, "lie in (0, 1)"),
        ("metrics.apo_threshold", met.apo_threshold, 0.0 <= met.apo_threshold <= 1.0, "lie in [0, 1]"),
        ("metrics.kl_bins", met.kl_bins, met.kl_bins >= 2, "be >= 2"),
        ("metrics.kl_smoothing", met.kl_smoothing, met.kl_smoothing >= 0.0, "be >= 0"),
        ("metrics.kl_direction", met.kl_direction, met.kl_direction in KL_DIRECTIONS,
         f"be one of {', '.join(KL_DIRECTIONS)}"),
        ("preprocess.missing_seed", cfg.missing_seed, cfg.missing_seed >= 0, "be >= 0"),
    ):
        if not ok:
            raise ConfigError(f"{where} must {rule}, got {value!r}")
    if fraction is not None and met.classification_target is None:
        raise ConfigError("metrics.classification.test_fraction needs metrics.classification.target")
    if cfg.metrics.regression and cfg.fitspecs is None:
        raise ConfigError("regression metrics need a fitspecs file")
    if cfg.metrics.adhoc and cfg.adhoc is None:
        raise ConfigError("adhoc metrics need an adhoc file")
