"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "is_indecomposable(e.rep)" in block
    exec(compile(block, f"{README}:Library", "exec"), {})
