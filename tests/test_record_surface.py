"""Every record keeps the surface of the `collections.namedtuple` subclass it
replaced.

The records are found by scanning `src/` for classes based on
`errors.Record`; each is compared, on a sample, with the named tuple of the
same name, fields and defaults that its `__new__` declares.
"""

import ast
import collections
import copy
import importlib
import pickle
from pathlib import Path

import pytest

from test_records import _every_record

SRC = Path(__file__).resolve().parent.parent / "src"


def record_classes() -> dict[str, tuple[str, tuple[str, ...], tuple]]:
    """Each class in `src/` with `Record` among its bases, by name: its
    module, and the parameters of its `__new__` after `cls` with their
    defaults."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)):
                continue
            new = next(f for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name == "__new__")
            fields = tuple(arg.arg for arg in new.args.args[1:])
            defaults = tuple(ast.literal_eval(d) for d in new.args.defaults)
            found[node.name] = (module, fields, defaults)
    return found


RECORDS = record_classes()
SAMPLES = {type(r).__name__: r for r in _every_record()}


def test_scan_finds_every_record_and_each_has_a_sample():
    assert sorted(RECORDS) == sorted(SAMPLES)


@pytest.fixture(params=sorted(RECORDS))
def pair(request):
    """(a record class's sample, the same values as the named tuple)."""
    module, fields, defaults = RECORDS[request.param]
    cls = getattr(importlib.import_module(module), request.param)
    named = collections.namedtuple(request.param, fields, defaults=defaults or None)
    sample = SAMPLES[request.param]
    assert type(sample) is cls
    return sample, named(*sample)


def test_fields_and_defaults(pair):
    record, named = pair
    assert record._fields == named._fields
    assert type(record).__new__.__defaults__ == named.__new__.__defaults__
    assert tuple(getattr(record, f) for f in record._fields) == named


def test_repr(pair):
    record, named = pair
    assert repr(record) == repr(named)


def test_pickle_and_copy_round_trips(pair):
    record, _ = pair
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is type(record) and other == record


def test_make_and_replace(pair):
    record, named = pair
    made = type(record)._make(iter(record))
    assert type(made) is type(record) and made == type(named)._make(iter(named))
    changes = {f: getattr(record, f) for f in reversed(record._fields)}
    replaced = record._replace(**changes)
    assert type(replaced) is type(record) and replaced == named._replace(**changes)
    with pytest.raises(ValueError) as got:
        record._replace(bogus=1)
    with pytest.raises(ValueError) as want:
        named._replace(bogus=1)
    assert str(got.value) == str(want.value)


def test_equality_hash_and_no_dict(pair):
    record, named = pair
    plain = tuple(record)
    assert record == plain == named and hash(record) == hash(plain) == hash(named)
    assert not hasattr(record, "__dict__")
