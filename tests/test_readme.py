"""The README's code examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README}:Library example", "exec"), {})
    precision, verification_count = map(float, capsys.readouterr().out.split())
    assert 0.0 < precision <= 1.0
    assert verification_count > 0
