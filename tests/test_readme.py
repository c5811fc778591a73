"""The README's *Library use* example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_library_use_example_recovers_the_source(capsys):
    exec(compile(_library_use_block(), str(README), "exec"), {})
    error = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert error < 1e-2
