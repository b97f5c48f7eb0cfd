"""README's Library example runs and prints the values its comments state,
its export paragraph names what the package root exports, its column tables
name the columns the CLI prints, and its list of JSON keys names every key
of every object the commands write."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import lcgspec
from lcgspec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# (comment in the example, pattern its print must match); "..." in a comment
# stands for the digits it leaves out
STATED = [
    "2072544 2.9099...",
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


def test_export_paragraph_names_the_root_exports():
    # a bare name is exported; one qualified by its module is not
    paragraph = re.search(r"^`import lcgspec` exports (.*?)\n\n", README.read_text(),
                          re.M | re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(lcgspec.__all__)
    kept = re.findall(r"`\w+\.(\w+)`", paragraph)
    assert kept == ["build_single_dimension", "factorize", "FactorizationError"]
    assert not any(hasattr(lcgspec, name) for name in kept)


def column_table(command: str) -> list[tuple[str, str | None]]:
    """(csv name, text name or None) of each row of the column table in
    README's section on `command`."""
    section = re.search(rf"^### {command}\n(.*?)(?=^### )", README.read_text(), re.M | re.S)
    rows = re.findall(r"^\| `([^`]+)` \| (?:`([^`]+)`|—) \|", section.group(1), re.M)
    return [(csv, text or None) for csv, text in rows]


@pytest.mark.parametrize("argv, header_line", [
    (["analyze", "--a", "69069", "--N", "2^32", "--s", "2..3"], 2),
    (["uniformity", "--a", "26", "--N", "625", "--interval", "0:1"], 0),
], ids=["analyze", "uniformity"])
def test_column_tables_match_the_headers(argv, header_line):
    columns = column_table(argv[0])
    outputs = {}
    for fmt in ("csv", "text"):
        out = io.StringIO()
        assert main(argv + ["--format", fmt], out=out) == 0
        outputs[fmt] = out.getvalue().splitlines()
    assert outputs["csv"][0].split(",") == [csv for csv, _ in columns]
    assert (re.split(r" {2,}", outputs["text"][header_line])
            == [text for _, text in columns if text is not None])


GOLDEN = README.parent / "tests" / "golden"


def json_key_list() -> dict[str, dict[str, frozenset[str]]]:
    """README's list of JSON keys: for each command, each object's place in
    its output ("" for the top level) and the keys listed for it."""
    section = re.search(r"^### JSON keys\n(.*?)(?=^##)", README.read_text(), re.M | re.S)
    shapes: dict[str, dict[str, frozenset[str]]] = {}
    for item in re.findall(r"^- (.*?)(?=^- |\Z)", section.group(1), re.M | re.S):
        command, place, keys = re.fullmatch(r"`([\w-]+)`(?: `([\w.\[\]]+)`)?: (.*)", item.strip(),
                                            re.S).groups()
        shapes.setdefault(command, {})[place or ""] = frozenset(re.findall(r"`(\w+)`", keys))
    return shapes


def json_shapes(obj, place: str = "") -> set[tuple[str, frozenset[str]]]:
    """(place, keys) of every JSON object within `obj`, placed as the README list places them."""
    if isinstance(obj, dict):
        found = {(place, frozenset(obj))}
        for key, value in obj.items():
            found |= json_shapes(value, f"{place}.{key}" if place else key)
        return found
    if isinstance(obj, list):
        return set().union(*(json_shapes(value, place + "[]") for value in obj))
    return set()


def test_json_key_list_matches_the_outputs():
    # the JSON goldens, whose first line is the exit code, and one uniformity
    # run with labelled and rendered endpoints
    outputs: dict[str, list] = {}
    for path in sorted(GOLDEN.glob("*_json.out")):
        status, _, text = path.read_text().partition("\n")
        assert status == "exit 0", path.name
        outputs.setdefault(path.name.partition("_")[0], []).append(json.loads(text))
    out = io.StringIO()
    assert main(["uniformity", "--a", "26", "--N", "625", "--interval", "1/pi^2:1-1/e",
                 "--interval", "0.2:0.9", "--format", "json"], out=out) == 0
    outputs["uniformity"].append(json.loads(out.getvalue()))
    listed = json_key_list()
    assert sorted(listed) == sorted(outputs) == ["analyze", "build", "svp", "uniformity"]
    for command, docs in outputs.items():
        seen = set().union(*map(json_shapes, docs))
        assert seen == set(listed[command].items()), command
