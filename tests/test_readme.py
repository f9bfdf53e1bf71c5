"""The README's library example runs as written."""

import json
import re
from pathlib import Path

from synthbench.dataset import write_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys, fixture_a):
    (tmp_path / "schema.json").write_text(json.dumps(fixture_a.schema.to_dict()))
    write_csv(fixture_a, tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    overlap = float(capsys.readouterr().out)
    assert overlap == namespace["overlap"] and 0.0 <= overlap <= 1.0
    assert len(namespace["accuracies"]) == len(namespace["agreements"]) == 5
