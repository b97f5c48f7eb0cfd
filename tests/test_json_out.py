"""The CLI's JSON writer against `json.dumps(obj, indent=2, sort_keys=True)`."""

import io
import json
import random
from fractions import Fraction

import pytest

from lcgspec.cli import _json_out

STRINGS = ["", "a", "v_sq", '"', "\\", '"\\"', "\x00\x01\x1f\x7f", "\n\t\r\b\f",
           "é", "ü€", "  ", "\U0001f600", "\ud800", "\udfff", "a\udbffb"]
FLOATS = [0.0, -0.0, 0.1, 1e300, 5e-324, float("nan"), float("inf"), float("-inf"),
          -2.5, 1e16, 69067.00000000001, 1.3804789075559568e-19]
INTS = [0, 1, -1, -69069, 2**53 + 1, 2**64, 2**64 + 1, -(2**200)]


def random_string(rng):
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    # code points from every range the escaper treats differently,
    # lone surrogates included
    ranges = [(0, 0x1f), (0x20, 0x7e), (0x7f, 0xff), (0x100, 0xd7ff),
              (0xd800, 0xdfff), (0xe000, 0xffff), (0x10000, 0x10ffff)]
    return "".join(chr(rng.randint(*rng.choice(ranges))) for _ in range(rng.randrange(8)))


def random_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-10**25, 10**25)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    return rng.choice([True, False, None])


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return random_scalar(rng)
    size = rng.randrange(5)  # 0 makes an empty container
    kind = rng.randrange(3)
    if kind == 0:
        return {random_string(rng): random_tree(rng, depth - 1) for _ in range(size)}
    items = [random_tree(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def written(obj) -> str:
    buf = io.StringIO()
    _json_out(obj, buf)
    return buf.getvalue()


def test_random_trees_match_json_dumps():
    rng = random.Random("json_out")
    seen = set()

    def walk(obj, depth):
        seen.add(("depth", depth))
        if isinstance(obj, (dict, list, tuple)):
            seen.add((type(obj).__name__, bool(obj)))
            for sub in (obj.values() if isinstance(obj, dict) else obj):
                walk(sub, depth + 1)
        elif isinstance(obj, str):
            seen.update(("char", c) for c in obj)
        else:
            seen.add(("scalar", repr(obj)))

    for _ in range(2000):
        obj = random_tree(rng, 5)
        assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n", repr(obj)
        walk(obj, 0)
    # the trees reach every container kind, empty and not, at depth 5, and
    # every listed scalar and kind of character
    assert {("depth", 5)} | {(t, f) for t in ("dict", "list", "tuple") for f in (False, True)} <= seen
    assert {("char", c) for c in '"\\\x00\x7fé\U0001f600\ud800\udfff'} <= seen
    assert {("scalar", repr(x)) for x in FLOATS + INTS + [True, False, None]} <= seen


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -0.0, float("nan"), True, None,
    {"b": 1, "a": [], "c": {"e": (), "d": [{}]}},
    [[1, [2, [3, [4, [5]]]]], "x"],
])
def test_edge_values_match_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [
    Fraction(1, 3), {1, 2}, {1: "one"}, {"a": 1, 2: "b"},
    [1, {"x": Fraction(1, 2)}], {"s": {"x"}}, {"k": {3: None}},
])
def test_unsupported_values_and_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        written(obj)
