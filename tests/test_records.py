"""Result records: immutable named tuples, checked parameter records, and the
lattice basis's equality.

`LcgParams` and `MultiplierRecipe` refuse bad values however they are built:
positionally, by keyword, through `_make` or through `_replace`.
"""

import pickle
from fractions import Fraction

import pytest

from lcgspec.builder import MultiplierRecipe, build_single_dimension
from lcgspec.empirical import frequency_test
from lcgspec.errors import InvalidParams
from lcgspec.lattice import LatticeBasis, dual_basis, lll_reduce, shortest_vector
from lcgspec.lcg import LcgParams, check_max_period, compute_potential
from lcgspec.scorecard import CheckResult
from lcgspec.spectral import spectral_test


def test_params_positional_keyword_and_unpacking():
    p = LcgParams(5, 1, 16)
    assert p == LcgParams(a=5, c=1, N=16, x0=0) == LcgParams(5, 1, N=16, x0=0)
    assert (p.a, p.c, p.N, p.x0) == (5, 1, 16, 0)
    a, c, N, x0 = p
    assert (a, c, N, x0) == (5, 1, 16, 0)
    assert pickle.loads(pickle.dumps(p)) == p


def test_params_replace_and_make_are_checked():
    p = LcgParams(5, 1, 16)
    assert p._replace(c=3, x0=7) == LcgParams(5, 3, 16, 7)
    assert type(p._replace(c=3)) is LcgParams
    assert LcgParams._make((5, 3, 16, 7)) == LcgParams(5, 3, 16, 7)
    with pytest.raises(InvalidParams, match="gcd"):
        p._replace(c=2)
    with pytest.raises(InvalidParams, match="gcd"):
        LcgParams._make((5, 2, 16, 0))
    with pytest.raises(InvalidParams, match="need 2 <= a < N"):
        p._replace(N=4)
    with pytest.raises(InvalidParams, match="x0"):
        LcgParams._make([5, 1, 16, 16])
    with pytest.raises(TypeError):
        LcgParams._make((5, 1, 16, 0, 0))
    with pytest.raises(ValueError):
        p._replace(b=3)


def test_recipe_positional_keyword_replace_and_make():
    shaped = MultiplierRecipe(d=3, primes=(2,), exponents=(4,))
    assert shaped == MultiplierRecipe(None, 3, (2,), (4,))
    assert MultiplierRecipe(a=7) == MultiplierRecipe(7) == MultiplierRecipe._make((7, 1, (), ()))
    assert shaped._replace(d=5) == MultiplierRecipe(d=5, primes=(2,), exponents=(4,))
    with pytest.raises(InvalidParams, match="gcd"):
        shaped._replace(d=2)
    with pytest.raises(InvalidParams, match="not prime"):
        MultiplierRecipe._make((None, 1, (9,), (1,)))
    with pytest.raises(InvalidParams, match="need a >= 2"):
        MultiplierRecipe(a=7)._replace(a=1)
    with pytest.raises(InvalidParams, match="differ in length"):
        MultiplierRecipe._make([None, 1, (2, 3), (1,)])


def _every_record():
    params = LcgParams(26, 1, 625)
    gen = build_single_dimension(2, MultiplierRecipe(a=26))
    res = spectral_test(26, 625, 2)
    return [
        params,
        MultiplierRecipe(a=26),
        check_max_period(params),
        compute_potential(26, 625),
        res.bounds,
        res,
        gen,
        frequency_test(params, 0, Fraction(1, 2)),
        shortest_vector(dual_basis(26, 625, 2)),
        CheckResult(1, "title", True, "", 0.0),
    ]


@pytest.mark.parametrize("record", _every_record(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record._replace() == record


def test_lattice_basis_equality_hash_and_repr():
    basis = dual_basis(26, 625, 2)
    same = LatticeBasis(basis.rows)
    assert basis == same and hash(basis) == hash(same)
    lll_reduce(basis)  # the cached reduction is not part of equality
    assert basis._reduced is not None and same._reduced is None
    assert basis == same and hash(basis) == hash(same)
    assert basis != lll_reduce(basis)
    assert basis != basis.rows
    assert repr(same) == "LatticeBasis(rows=((625, 0), (-26, 1)))"
    with pytest.raises(AttributeError):
        basis.rows = ((1, 0), (0, 1))
    with pytest.raises(AttributeError):
        basis.extra = 1
