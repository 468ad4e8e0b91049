"""The README's code examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from forceknn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README}:Library example", "exec"), {})
    precision, verification_count = map(float, capsys.readouterr().out.split())
    assert 0.0 < precision <= 1.0
    assert verification_count > 0


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    # Each `forceknn ...` command of the CLI section's shell blocks, in order, in one
    # directory; each writes its --out, and a directory holds the files that the prose
    # after its block names.
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for block, prose in re.findall(r"```sh\n(.*?)```(.*?)(?=```|\Z)", section, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["forceknn"]:
                continue
            assert main(argv[1:]) == 0, line
            out = Path(argv[argv.index("--out") + 1])
            if out.is_dir():
                named = set(re.findall(r"`([\w-]+\.(?:csv|jsonl))`", prose))
                assert named and named == {path.name for path in out.iterdir()}, line
            else:
                assert out.is_file(), line
            commands += 1
    assert commands == 4
