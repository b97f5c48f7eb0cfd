"""README's Library example runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# (comment in the example, pattern its print must match); "..." in a comment
# stands for the digits it leaves out
STATED = [
    "2072544 2.9099... True",
    "[4243209856, 2072544, 52804, 6990, 242]",
    "4767764401",
]


def library_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README should have exactly one python block"
    return blocks[0]


def test_library_example_prints_the_stated_values():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == code.count("print(")
    for i, stated in enumerate(STATED):
        assert f"# {stated}" in code
        pattern = re.escape(stated).replace(re.escape("..."), r"\d*")
        assert re.fullmatch(pattern, lines[i]), (stated, lines[i])
