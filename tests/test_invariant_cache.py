"""The per-algebra invariant cache and the quotient-free μ of ``lambda_mu``.

Each structural invariant is computed at most once per algebra and kept in
the algebra's instance dict as plain rows and ints; the public functions
wrap the rows in a fresh ``Subspace``.  These tests check that the cached
values are exact, that each invariant really is computed once, and that the
cache forms no reference cycle, so an algebra is freed by reference counting
alone.
"""

import gc
import weakref
from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st
import pytest

import reference_core as reference
from superlie import core, invariants, verification
from superlie.classify import classify_mr_le2
from superlie.cohomology import multiplier
from superlie.constructions import abelian, heisenberg_even, heisenberg_odd, model_l4
from superlie.core import (
    LieSuperalgebra,
    Subspace,
    center,
    change_basis,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    second_center,
    validate,
)
from superlie.corpus import corpus
from superlie.errors import NotInSecondCenterMinusCenter, SingularMatrix
from superlie.invariants import check_bounds, lambda_mu, report

F = Fraction

SO3 = validate([0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, name="so3")
MODELS = [abelian(2, 1), heisenberg_even(2, 1), heisenberg_even(0, 2), heisenberg_odd(2),
          model_l4(), SO3, direct_sum(model_l4(), heisenberg_odd(1))]
ALGEBRAS = MODELS + corpus(0, 60)

rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def base_changed(draw):
    """A model or corpus algebra, conjugated by a random invertible
    parity-preserving matrix."""
    L = draw(st.sampled_from(ALGEBRAS))
    d = L.dim
    P = [[draw(rational) if L.parities[i] == L.parities[j] else F(0) for j in range(d)]
         for i in range(d)]
    try:
        return change_basis(L, P)
    except SingularMatrix:
        assume(False)


def _fresh(L: LieSuperalgebra) -> LieSuperalgebra:
    """An equal-by-value copy of L with an empty cache."""
    return LieSuperalgebra(L.parities, L.constants, L.name, L.labels)


def _prime(L):
    """Fill L's cache the way the CLI and verify-paper do."""
    report(L)
    check_bounds(L)
    second_center(L)


def _check_cache_exact(L):
    _prime(L)
    K = _fresh(L)
    assert not {"_center", "_derived", "_second_center"} & set(vars(K))
    for fn in (center, derived_subalgebra, second_center):
        cached = fn(L)
        assert cached == fn(K)
        again = fn(L)
        assert again == cached and again is not cached and again.parent is L
    assert is_nilpotent(L) == is_nilpotent(K)
    assert invariants._sdim_M(L) == multiplier(K).sdim_M
    assert vars(report(L)) == vars(report(K))
    assert vars(check_bounds(L)) == vars(check_bounds(K))


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: L.name)
def test_cache_is_exact(L):
    _check_cache_exact(L)


@given(base_changed())
def test_cache_is_exact_after_base_change(L):
    _check_cache_exact(L)


@pytest.mark.parametrize("L", [model_l4(), ALGEBRAS[-1], heisenberg_odd(2)],
                         ids=lambda L: L.name)
def test_each_invariant_is_computed_once(monkeypatch, L):
    L = _fresh(L)
    kernels, multipliers = [], []
    ad_kernel, mult = core._ad_kernel, invariants.multiplier

    def counting_ad_kernel(A, targets, modulo):
        if A is L:
            kernels.append(modulo)
        return ad_kernel(A, targets, modulo)

    def counting_multiplier(A):
        if A is L:
            multipliers.append(A)
        return mult(A)

    monkeypatch.setattr(core, "_ad_kernel", counting_ad_kernel)
    monkeypatch.setattr(invariants, "multiplier", counting_multiplier)
    for _ in range(2):
        report(L)
        check_bounds(L)
        classify_mr_le2(L)
        second_center(L)
    # Z(L) is the kernel modulo 0, Z₂(L) the kernel modulo Z(L)
    assert kernels == [Subspace.zero(L), center(L)]
    assert len(multipliers) == 1


def test_no_reference_cycle():
    """With the cyclic collector off, dropping the last reference to an
    algebra frees it, however many invariants it has cached."""
    gc.disable()
    try:
        L = _fresh(corpus(1, 10)[-1])
        Z2 = second_center(L)
        z = next(r for r in Z2.rows if not center(L).contains(r))
        del Z2
        report(L)
        check_bounds(L)
        classify_mr_le2(L)
        lambda_mu(L, z)
        assert {"_center", "_derived", "_second_center", "_nilpotency", "_sdim_M"} <= set(vars(L))
        ref = weakref.ref(L)
        del L
        assert ref() is None
    finally:
        gc.enable()


def _z2_samples():
    """Every (L, z) that verify-paper passes to lambda_mu on corpus seeds 0-3."""
    samples = []

    def record(L, z):
        samples.append((L, z))
        return lambda_mu(L, z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "lambda_mu", record)
        for seed in range(4):
            verification.run_paper_checks(seed, 100)
    return samples


def test_mu_without_quotient_matches_reference():
    samples = _z2_samples()
    assert len(samples) > 800  # 883 on these four corpora
    assert {L.vector_parity(z) for L, z in samples} == {0, 1}
    for L, z in samples:
        assert lambda_mu(L, z) == reference.lambda_mu(L, z)


def test_mu_domain_errors_match_reference():
    L = model_l4()
    for z in (L.basis_vector(3), L.basis_vector(0)):  # central; outside Z₂
        for fn in (lambda_mu, reference.lambda_mu):
            with pytest.raises(NotInSecondCenterMinusCenter):
                fn(L, z)
