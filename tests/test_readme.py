"""The README's Python examples run against the library as it is, so a
renamed or removed API cannot stay in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})
