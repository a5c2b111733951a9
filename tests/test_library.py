"""The library contract README's "Library use" states, held against the package root."""

import json
import re
import types
from pathlib import Path

import attn_peaks
from attn_peaks import load_config

README = Path(__file__).parents[1] / "README.md"


def _library_use() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library use\n(.*?)^## ", text, re.M | re.S).group(1)


def test_root_exports_exactly_the_readme_list():
    # The bullet list that follows the first paragraph names one export per backticked word.
    listed = re.search(r"\n\n((?:- .*\n(?:  .*\n)*)+)", _library_use()).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == len(set(names))
    assert set(names) == set(attn_peaks.__all__)
    bound = {
        name
        for name, value in vars(attn_peaks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(names)


def test_readme_library_block_runs(golden_dir, monkeypatch):
    block = re.search(r"```python\n(.*?)```", _library_use(), re.S).group(1)
    config = load_config(golden_dir / "config.ini")
    monkeypatch.chdir(golden_dir)
    scope = {"start": config.start, "end": config.end}
    exec(compile(block, "README.md", "exec"), scope)
    lines = (golden_dir / "expected" / "events.jsonl").read_text(encoding="utf-8").splitlines()
    expected = [e["peak_date"] for e in map(json.loads, lines) if e["hazard"] == "landslide"]
    assert len(expected) == 4
    assert [str(e.peak_date) for e in scope["events"]] == expected
    assert len(scope["measures"]) == len(scope["events"])
