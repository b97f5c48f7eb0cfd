"""The package's public names: a star import works and every export resolves."""

import lcgspec


def test_star_import_resolves_all():
    namespace = {}
    exec("from lcgspec import *", namespace)  # raises if a name in __all__ is missing
    assert len(set(lcgspec.__all__)) == len(lcgspec.__all__)
    assert set(lcgspec.__all__) <= set(namespace)
