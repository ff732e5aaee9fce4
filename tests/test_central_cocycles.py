"""The cocycle equations of ``cohomology._cocycle_equations`` against the
full walk they replace (``reference_core.full_walk_cocycle_equations``).

Where L² is central and spanned by basis vectors
(``cohomology._central_support``), the triples with an inactive index give
one unit row per pair, and only the triples of active indices are walked;
elsewhere every support triple is.  Either way a repeated unit constraint
is yielded once.  Reduced echelon form is unique, so the first-pivot
echelon, whose rank the count reads, and the last-pivot echelon, whose
kernel is the Z² basis, must equal the full walk's row for row."""

import pytest

import reference_core as reference
from superlie import cohomology, core
from superlie.cohomology import cover_candidate
from superlie.constructions import (
    abelian,
    builtin,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
)
from superlie.corpus import corpus
from superlie.linalg import Echelon
from superlie.superdim import SuperDim, bound
from test_carried_cocycles import CONJUGATES
from test_multiplier_count import _unitriangular_conjugate
from test_support_triples import ALGEBRAS, _walked_by_equations

FREE_COVERS = [free_two_step_cover(m, n).K
               for m, n in ((1, 0), (2, 0), (0, 2), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2), (1, 3))]
# Cover(H(1,0)) has class 3; the covers of the larger H(p,q) and H(k) have class 2
COVERS = [cover_candidate(builtin(name)).algebra for name in ("H(1,0)", "H(2,2)", "H(3)")]
CORPUS = [L for seed in range(4) for L in corpus(seed, 100)]
# conj Cover(H(3,3)) under the CI's unitriangular P and one more, at d = 48:
# their adapted conjugates carry the dense frontier's cocycle systems
ADAPTED = [cohomology._adapted(_unitriangular_conjugate(cover_candidate(builtin("H(3,3)")).algebra,
                                                        seed)) for seed in (1, 2)]
CASES = ALGEBRAS + CORPUS + FREE_COVERS + COVERS + ADAPTED + [model_l4()]


@pytest.mark.parametrize("L", CASES, ids=lambda L: f"{L.name}-{L.dim}")
def test_equations_span_the_full_walk(L):
    equations = list(cohomology._cocycle_equations(L))
    units = [pair for row in equations if len(row) == 1 for pair in row]
    assert len(units) == len(set(units))  # each unit constraint once
    first, last = (Echelon(reference.full_walk_cocycle_equations(L), last=flag)
                   for flag in (False, True))
    assert Echelon(equations).rows() == first.rows()
    assert Echelon(equations, last=True).rows() == last.rows()
    # the count reads the first-pivot rank per parity, the Z² basis the last
    z = list(bound(L.sdim).as_tuple())
    for pair in first.pivots():
        z[cohomology._parity(L.parities, pair)] -= 1
    assert cohomology._multiplier_count(L)[0] == SuperDim(*z)
    assert reference.system_cocycle_basis(L) == last.kernel_basis(core._free_pairs(L.parities))


def test_adapted_cases_are_dense_conjugates():
    assert all(A is not None for A in ADAPTED)
    assert ADAPTED[0].constants != ADAPTED[1].constants


TAKEN = ([builtin(name) for name in ("H(1,0)", "H(2,2)", "H(3,1)", "H(0,3)", "H(1)", "H(2)", "H(5)")]
         + [heisenberg_even(3, 2), heisenberg_odd(4)] + FREE_COVERS + COVERS[1:] + ADAPTED)


@pytest.mark.parametrize("L", TAKEN, ids=lambda L: f"{L.name}-{L.dim}")
def test_central_case_walks_the_active_triples(L):
    assert cohomology._central_support(L) is not None
    _, walked = _walked_by_equations(L)
    assert walked == list(core._support_triples(L, active=True))


@pytest.mark.parametrize("L", [model_l4(), COVERS[0]], ids=lambda L: f"{L.name}-{L.dim}")
def test_class_three_walks_every_support_triple(L):
    assert not core._derived_central(L) and cohomology._central_support(L) is None
    _, walked = _walked_by_equations(L)
    assert walked == list(core._support_triples(L))


# H(1,0) ⊕ Ab(1,0) with z and a replaced by z + a and a: [u, v] = b3 - b4,
# so L² is central but not spanned by the basis vectors it touches
H10_AB10 = core.direct_sum(heisenberg_even(1, 0), abelian(1, 0))
NON_ADAPTED = core.change_basis(H10_AB10, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])


def test_non_adapted_central_square_walks_every_support_triple():
    H, C = H10_AB10, NON_ADAPTED
    assert [vec for _, vec in C.constants] == [((2, 1), (3, -1))]
    assert core._derived_central(C) and cohomology._central_support(C) is None
    _, walked = _walked_by_equations(C)
    assert walked == list(core._support_triples(C))
    assert cohomology.multiplier(C).sdim_M == cohomology.multiplier(H).sdim_M


SUPPORT_CASES = ALGEBRAS + CONJUGATES + ADAPTED + [NON_ADAPTED]


@pytest.mark.parametrize("L", SUPPORT_CASES, ids=lambda L: f"{L.name}-{L.dim}")
def test_central_support_matches_reference(L):
    """S is read off the adapted columns, with no echelon of its own: it is
    the reference's rank test, list for list and None for None."""
    assert cohomology._central_support(L) == reference.central_support(L)


def test_central_support_cases_take_both_answers():
    answers = [reference.central_support(L) for L in SUPPORT_CASES]
    assert sum(S is None for S in answers) > 50 and sum(S is not None for S in answers) > 50
    assert answers[-1] is None  # L² central, but not on basis vectors
