"""The README's Python examples and ``accelcert`` command lines run against
the library as it is, so a renamed or removed API or flag cannot stay in the
docs."""

import pathlib
import re
import shlex

from accelcert import harness

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def cli_lines(text):
    """The ``accelcert ...`` commands of the sh blocks, continuations joined."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        lines += block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("accelcert ")]


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    lines = cli_lines(README.read_text())
    assert lines, "README.md has no accelcert command line"
    monkeypatch.chdir(tmp_path)  # the lines run in order: certify reads run's trace
    for line in lines:
        assert harness.main(shlex.split(line, comments=True)[1:]) == 0, line
