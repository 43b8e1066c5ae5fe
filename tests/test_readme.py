"""Every python block of README.md runs as written against the library, so
the quick start cannot drift away from the code it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_every_python_block_of_the_readme_runs():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {i}", "exec"), {})
