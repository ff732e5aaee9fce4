"""The cover built from ``multiplier``'s own classes, and the integer table
read off the constants.

``cover_candidate`` skips ``central_extension``'s class check, since
``multiplier`` builds each representative as a nonzero residual modulo B²
and the representatives before it; the extension it builds must equal the
checked one in every field.  ``core._int_table`` reads the table D·c off
``L.constants``; it is compared with the body that scaled the Fraction table
``L._table`` (``reference_core.int_table``), key order included.  Both run on
the invariant cache's algebras (its models and ``corpus(0, 60)``) and on the
class-3 inputs L4 and Cover(Cover(H(2))); the table also on seeded rational
conjugates."""

import pytest

import reference_core as reference
from superlie import cohomology
from superlie.cohomology import central_extension, cover_candidate, multiplier
from superlie.core import _int_table
from test_bracket_table import CLASS_3
from test_invariant_cache import ALGEBRAS, _fresh
from test_multiplier_count import RATIONAL


@pytest.mark.parametrize("L", ALGEBRAS + CLASS_3, ids=lambda L: f"{L.name}-{L.dim}")
def test_cover_candidate_is_the_checked_extension(L):
    got = cover_candidate(L)
    expected = central_extension(L, multiplier(L).cocycle_basis)
    assert got.base is L and expected.base is L
    assert got.algebra == expected.algebra
    assert got.kernel == expected.kernel
    assert got.stem_ok == expected.stem_ok
    assert got.projection.matrix == expected.projection.matrix


def test_cover_candidate_runs_no_class_check(monkeypatch):
    """The classes reach the construction unchecked: ``central_extension``
    is not called."""
    calls = []
    monkeypatch.setattr(cohomology, "central_extension", lambda *a: calls.append(a))
    assert [cover_candidate(L).algebra.dim for L in CLASS_3] == [6, 96]
    assert not calls


@pytest.mark.parametrize("L", ALGEBRAS + CLASS_3 + RATIONAL, ids=lambda L: f"{L.name}-{L.dim}")
def test_int_table_matches_the_scaled_fraction_table(L):
    D, table = _int_table(_fresh(L))
    ref_D, ref_table = reference.int_table(_fresh(L))
    assert D == ref_D
    assert list(table.items()) == list(ref_table.items())
    assert all(type(x) is int for row in table.values() for x in row.values())
