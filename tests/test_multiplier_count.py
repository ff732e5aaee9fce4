"""The counted multiplier ``cohomology.multiplier_sdim`` against the built
one, and the identity it rests on: sdim B² = sdim L², parity by parity, as
the kernel of g -> -g∘[·,·] is the annihilator of L².  Also the choice of
basis it ranks the cocycle equations in: L itself when L² has unit canonical
rows, else its conjugate in a basis adapted to L².  ``superlie multiplier``
without --cocycles prints the same count, Z² and B² included."""

import json
import random
from fractions import Fraction as F

from hypothesis import given, settings
import pytest

from base_change import base_changed
from superlie import cohomology, invariants
from superlie.cli import main
from superlie.cohomology import cover_candidate, multiplier, multiplier_sdim
from superlie.constructions import builtin, free_two_step_cover, model_l4, model_registry
from superlie.core import change_basis, derived_subalgebra
from superlie.corpus import corpus
from superlie.fileformat import emit
from test_invariant_cache import ALGEBRAS, _fresh


def _unitriangular_conjugate(L, seed=1):
    """L under a unitriangular parity-preserving P with entries -2, -1, 1, 2
    at about 30% of the same-parity positions above the diagonal: the
    constants of the conjugate are dense."""
    p, d = L.parities, L.dim
    rng = random.Random(seed)
    P = [[1 if i == j else rng.choice((-2, -1, 1, 2))
          if i < j and p[i] == p[j] and rng.random() < 0.3 else 0
          for j in range(d)] for i in range(d)]
    return change_basis(L, P)


def _rational_conjugate(L, seed):
    """L under an upper triangular parity-preserving P with diagonal entries
    1/2, 2/3 or 3/2 and entries ±1/2, ±1/3 or ±2/3 at about 30% of the
    same-parity positions above it: P has non-unit denominators."""
    p, d = L.parities, L.dim
    rng = random.Random(seed)
    P = [[rng.choice((F(1, 2), F(2, 3), F(3, 2))) if i == j
          else rng.choice((-1, 1)) * rng.choice((F(1, 2), F(1, 3), F(2, 3)))
          if i < j and p[i] == p[j] and rng.random() < 0.3 else 0
          for j in range(d)] for i in range(d)]
    return change_basis(L, P)


def _unit_rows(L):
    L2 = derived_subalgebra(L)
    return all(len(r) == 1 for r in L2.even + L2.odd)


COVERS = [cover_candidate(builtin(name)).algebra for name in ("H(1,0)", "H(2,2)")]
COVERS.append(cover_candidate(model_l4()).algebra)
DENSE = [_unitriangular_conjugate(L) for L in (builtin("H(3,3)"), builtin("H(5,5)"),
                                               builtin("H(6)"), free_two_step_cover(3, 2).K)]
CASES = ALGEBRAS + corpus(0, 200) + model_registry() + COVERS + DENSE


def _check_count(L):
    res = multiplier(L)
    assert res.sdim_B2 == derived_subalgebra(L).sdim
    assert invariants._sdim_M(_fresh(L)) == res.sdim_M
    assert multiplier_sdim(L) == res.sdim_M


@pytest.mark.parametrize("L", CASES, ids=lambda L: f"{L.name}-{L.dim}")
def test_count_matches_multiplier(L):
    _check_count(L)


@settings(max_examples=60)
@given(base_changed(ALGEBRAS))
def test_count_matches_multiplier_after_base_change(L):
    _check_count(L)


# z of H(6) is its first odd basis vector, which P keeps: a unit row of L²
NON_UNIT = [L for L in DENSE if L.name != "H(6)"]
UNIT = COVERS + model_registry() + [builtin("H(3,3)"), DENSE[2]]


def test_which_rows_of_the_derived_subalgebra_are_units():
    assert not any(_unit_rows(L) for L in NON_UNIT) and len(NON_UNIT) == 3
    assert all(_unit_rows(L) for L in UNIT)


def _ranked_on(monkeypatch, L):
    """The algebra whose cocycle equations ``multiplier_sdim(L)`` ranks."""
    equations, seen = cohomology._cocycle_equations, []

    def recorded(A):
        seen.append(A)
        return equations(A)

    monkeypatch.setattr(cohomology, "_cocycle_equations", recorded)
    multiplier_sdim(L)
    [A] = seen
    return A


@pytest.mark.parametrize("L", UNIT, ids=lambda L: f"{L.name}-{L.dim}")
def test_unit_rows_count_on_the_algebra_itself(monkeypatch, L):
    assert _ranked_on(monkeypatch, L) is L


# seeded rational conjugates of the corpus whose L² has a non-unit canonical row
RATIONAL = [C for C in (_rational_conjugate(L, seed) for seed, L in enumerate(corpus(0, 60)))
            if not _unit_rows(C)]


@pytest.mark.parametrize("L", NON_UNIT + RATIONAL, ids=lambda L: f"{L.name}-{L.dim}")
def test_non_unit_rows_count_on_the_adapted_conjugate(monkeypatch, L):
    """The algebra ranked is ``change_basis(L, P)``, P's column at each pivot
    p of L² the canonical row r_p and e_i elsewhere; every bracket lies on
    the pivot columns, and L² has unit rows there."""
    A = _ranked_on(monkeypatch, L)
    rows = derived_subalgebra(L).even + derived_subalgebra(L).odd
    cols = [{i: 1} for i in range(L.dim)]
    for r in rows:
        cols[r[0][0]] = dict(r)
    P = [[col.get(i, 0) for col in cols] for i in range(L.dim)]
    assert A is not L and A.structure_equals(change_basis(L, P))
    assert {k for _, vec in A.constants for k, _ in vec} <= {r[0][0] for r in rows}
    assert derived_subalgebra(A).sdim == derived_subalgebra(L).sdim and _unit_rows(A)


COUNTED = {"algebras": ALGEBRAS, "corpus": [L for s in range(4) for L in corpus(s, 100)],
           "rational": RATIONAL}


@pytest.mark.parametrize("group", COUNTED)
def test_multiplier_command_counts_without_cocycles(tmp_path, capsys, group):
    """``multiplier`` without --cocycles prints the three counted pairs of
    ``_multiplier_count``; they are the ones the built multiplier prints
    with --cocycles, in plain text and in JSON."""
    for n, L in enumerate(COUNTED[group]):
        res = multiplier(L)
        assert cohomology._multiplier_count(L) == (res.sdim_Z2, res.sdim_B2, res.sdim_M)
        f = tmp_path / f"{n}.lsa"
        f.write_text(emit(L))
        out = {}
        for flags in ((), ("--cocycles",), ("--json",), ("--json", "--cocycles")):
            assert main(["multiplier", str(f), *flags]) == 0
            out[flags] = capsys.readouterr().out
        assert out[()] == "".join(out["--cocycles",].splitlines(keepends=True)[:3])
        built = json.loads(out["--json", "--cocycles"])
        assert len(built.pop("cocycles")) == res.sdim_M.total()
        assert json.loads(out["--json",]) == built
