"""The README's Python examples run against the package as it is, so a
signature change cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


def test_readme_python_examples_run(capsys):
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
