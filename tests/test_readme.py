"""The README's library examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from direns.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_use_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # The second block reads these two files.
    assert main(["simulate", "--preds-out", "preds.csv", "--labels-out", "labels.csv",
                 "--alphas-out", "truth.csv", "--n", "20", "--m", "5", "--k", "3", "--seed", "1",
                 "--scheme", "two-population"]) == 0
    assert main(["fit", "--preds", "preds.csv", "--out", "fits.csv"]) == 0
    blocks = library_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
