"""The README's library example runs as written, and every public name resolves."""

import re
from pathlib import Path

import pytest

import synthbench
import synthbench.models
from conftest import write_schema
from synthbench.dataset import write_csv
from synthbench.config import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys, fixture_a):
    write_schema(fixture_a.schema, tmp_path / "schema.json")
    write_csv(fixture_a, tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    overlap = float(capsys.readouterr().out)
    assert overlap == namespace["overlap"] and 0.0 <= overlap <= 1.0
    assert len(namespace["accuracies"]) == len(namespace["agreements"]) == 5


def test_config_example_loads(tmp_path):
    section = README.read_text().split("## Experiment configuration", 1)[1]
    block = re.search(r"```jsonc\n(.*?)\n```", section, re.DOTALL).group(1)
    (tmp_path / "config.json").write_text(re.sub(r"//[^\n]*", "", block))
    cfg = load_config(tmp_path / "config.json")
    assert [label for _, _, label in cfg.labels()] == [
        "S", "ST", "D", "DT", "PO", "POT", "CCV", "CCVT",
    ]
    assert cfg.predictor_modes == ("simple", "selective") and cfg.head == 2000


@pytest.mark.parametrize("module", [synthbench, synthbench.models], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from synthbench import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(synthbench.__all__)
    assert all(namespace[name] is getattr(synthbench, name) for name in namespace)
