"""The ranks ``invariants`` reads off the conjugate adapted to L².

sdim Z, sdim(L² ∩ Z) and sdim M(L/Z(L)) do not depend on the basis, so
``report``, ``check_bounds`` and the central quotient read them off
A = ``core._adapted(L) or L``, whose table is sparse where a dense L's is
not.  These tests check them against the bodies that solved the center on
L's own table (``reference_core.report``, ``check_bounds`` and
``central_quotient``) on rational and unitriangular conjugates, most of
which have such an A, and that on a dense conjugate the report solves no
ad-map kernel on L and builds L's integer table at most once.  The class
representatives ``multiplier`` builds with no checks pass the public
``Cochain2`` constructor's checks."""

import pytest

import reference_core as reference
import test_carried_cocycles
import test_invariant_cache
import test_jacobi_decision
import test_one_table
from superlie import core, invariants
from superlie.cohomology import Cochain2, multiplier, multiplier_sdim
from superlie.invariants import check_bounds, report
from test_invariant_cache import ALGEBRAS, _fresh

CASES = (test_carried_cocycles.CONJUGATES + test_jacobi_decision.DENSE
         + test_invariant_cache.CONJUGATES)


def test_most_cases_have_an_adapted_conjugate():
    assert sum(core._adapted(L) is not None for L in CASES) >= 100


@pytest.mark.parametrize("L", CASES, ids=lambda L: f"{L.name}-{L.dim}")
def test_ranks_on_the_conjugate_match_reference(L):
    assert vars(report(L)) == vars(reference.report(L))
    assert vars(check_bounds(L)) == vars(reference.check_bounds(L))
    Q = invariants._central_quotient(L)
    assert invariants._sdim_M(Q) == multiplier_sdim(reference.central_quotient(L))
    assert Q.sdim == report(L).sdim_LmodZ


@pytest.mark.parametrize("L", test_jacobi_decision.DENSE, ids=lambda L: f"{L.name}-{L.dim}")
def test_report_solves_no_kernel_on_a_dense_table(monkeypatch, L):
    """``report`` and ``check_bounds`` solve the center once, on A, and
    build L's integer table ``core._int_table`` at most once, the Jacobi
    check at construction included."""
    builds = test_one_table._table_builds(monkeypatch)
    L = _fresh(L)
    solved, ad_kernel = [], core._ad_kernel

    def recorded(A, modulo):
        solved.append(A)
        return ad_kernel(A, modulo)

    monkeypatch.setattr(core, "_ad_kernel", recorded)
    report(L)
    check_bounds(L)
    A = core._adapted(L)
    assert A is not None and solved == [A]
    assert sum(K is L for K in builds) <= 1


def test_representatives_pass_the_public_checks():
    """Each representative, built with no ``__post_init__`` checks, is equal
    to the one the public constructor builds, checks included."""
    for L in ALGEBRAS + test_jacobi_decision.DENSE:
        for f in multiplier(L).cocycle_basis:
            assert Cochain2(L, f.parity, f.values) == f
