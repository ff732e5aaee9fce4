"""The cocycle system solved on the conjugate adapted to L² and carried back
to L's pairs, against L's own system solved in L's basis
(``reference_core.own_cocycle_basis``) and the per-parity ``multiplier``.

f -> f∘(P×P) maps Z²(L) onto Z²(A), A = ``cohomology._adapted(L) or L``, so
the carried rows span L's own equations: the echelon, the cocycle basis and
every ``MultiplierResult`` field come out the same.  The inputs are seeded
rational conjugates, whose L² mostly has non-unit canonical rows, so most
of them take the carried path, and the class-3 Cover(Cover(H(2))) under the
dense-frontier P."""

import random

import pytest

import reference_core as reference
from superlie import cohomology, linalg
from superlie.cohomology import cover_candidate, multiplier
from superlie.constructions import abelian, builtin, model_l4, model_registry
from superlie.core import change_basis
from superlie.corpus import corpus
from test_multiplier_count import _unitriangular_conjugate
from test_support_triples import _rational_base_change


def _cover(L):
    return cover_candidate(L).algebra


def _conjugates():
    rng = random.Random(21)
    algebras = (model_registry() + corpus(3, 60)
                + [model_l4(), _cover(builtin("H(2)")), _cover(_cover(builtin("H(1,0)"))),
                   _cover(abelian(2, 2))])
    conjugates = [change_basis(L, _rational_base_change(rng, L)) for L in algebras for _ in range(4)]
    return conjugates + [_unitriangular_conjugate(_cover(_cover(builtin("H(2)"))))]


CONJUGATES = _conjugates()


def test_most_conjugates_take_the_carried_path():
    assert sum(cohomology._adapted(C) is not None for C in CONJUGATES) >= 100


@pytest.mark.parametrize("C", CONJUGATES, ids=lambda C: f"{C.name}-{C.dim}")
def test_carried_system_is_the_own_system(C):
    # both pivot on their last pair: reduced echelon form is unique in that order too
    own = linalg.Echelon(cohomology._cocycle_equations(C), last=True)
    assert cohomology._cocycle_system(C).rows() == own.rows()
    assert reference.system_cocycle_basis(C) == reference.own_cocycle_basis(C)
    # the rank per parity, which ``multiplier_sdim`` reads off the pivots of
    # the one count echelon, the last-pivot echelon of A's equations
    parities = [sorted(cohomology._parity(C.parities, q) for q in ech.pivots())
                for ech in (cohomology._adapted_equations(C), own)]
    assert parities[0] == parities[1]


@pytest.mark.parametrize("C", CONJUGATES, ids=lambda C: f"{C.name}-{C.dim}")
def test_carried_multiplier_matches_reference(C):
    res, ref = multiplier(C), reference.multiplier(C)
    assert (res.sdim_Z2, res.sdim_B2, res.sdim_M) == (ref.sdim_Z2, ref.sdim_B2, ref.sdim_M)
    assert res.cocycle_basis == ref.cocycle_basis
