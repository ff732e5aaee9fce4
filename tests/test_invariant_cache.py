"""The per-algebra invariant cache, the views read from it, and the
quotient-free μ of ``lambda_mu``.

Each structural invariant is computed at most once per algebra and kept in
the algebra's instance dict as plain rows, ints and the central quotient
L/Z(L); the public functions wrap the rows in a fresh ``Subspace``.  These
tests check that the cached values are exact, that each invariant really is
computed once, and that the cache forms no reference cycle, so an algebra is
freed by reference counting alone.  ``fingerprint``, ``check_bounds`` and the
``verify-paper`` ledger read ``report`` and the cached L/Z(L) instead of
recomputing them; ``direct_sum`` is checked against its earlier index-map
form.
"""

import gc
import weakref

from hypothesis import given
import pytest

from base_change import SO3, base_changed
import reference_core as reference
from superlie import cohomology, core, invariants, verification
from superlie.classify import TableReport, classify_mr_le2, fingerprint
from superlie.cohomology import multiplier
from superlie.constructions import abelian, heisenberg_even, heisenberg_odd, model_l4
from superlie.core import (
    LieSuperalgebra,
    Subspace,
    center,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    second_center,
)
from superlie.corpus import corpus
from superlie.errors import NotInSecondCenterMinusCenter
from superlie.invariants import check_bounds, lambda_mu, report

MODELS = [abelian(2, 1), heisenberg_even(2, 1), heisenberg_even(0, 2), heisenberg_odd(2),
          model_l4(), SO3, direct_sum(model_l4(), heisenberg_odd(1))]
ALGEBRAS = MODELS + corpus(0, 60)


def _fresh(L: LieSuperalgebra) -> LieSuperalgebra:
    """An equal-by-value copy of L with an empty cache.  The Jacobi check
    may fill L² and the conjugate adapted to it at construction; both are
    dropped, so that every value read from the copy is computed afresh."""
    K = LieSuperalgebra(L.parities, L.constants, L.name, L.labels)
    for key in ("_derived", "_adapted"):
        vars(K).pop(key, None)
    return K


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


@given(base_changed(ALGEBRAS))
def test_cache_is_exact_after_base_change(L):
    _check_cache_exact(L)


@pytest.mark.parametrize("L", [model_l4(), ALGEBRAS[-1], heisenberg_odd(2)],
                         ids=lambda L: L.name)
def test_each_invariant_is_computed_once(monkeypatch, L):
    """sdim M is counted once per algebra, L and L/Z(L) among them (the
    classifier may count a table model once per process), and no
    ``multiplier`` runs: ``report`` builds no cocycle space."""
    L = _fresh(L)
    kernels, counted, multipliers = [], [], []
    ad_kernel, count, mult = core._ad_kernel, invariants.multiplier_sdim, cohomology.multiplier

    def counting_ad_kernel(A, brackets, modulo):
        if A is L:
            kernels.append(modulo)
        return ad_kernel(A, brackets, modulo)

    def counting_count(A):
        counted.append(A)
        return count(A)

    def counting_multiplier(A):
        multipliers.append(A)
        return mult(A)

    monkeypatch.setattr(core, "_ad_kernel", counting_ad_kernel)
    monkeypatch.setattr(invariants, "multiplier_sdim", counting_count)
    monkeypatch.setattr(invariants, "multiplier", counting_multiplier)
    monkeypatch.setattr(cohomology, "multiplier", counting_multiplier)
    for _ in range(2):
        report(L)
        check_bounds(L)
        classify_mr_le2(L)
        second_center(L)
    # Z(L) is the kernel modulo 0, Z₂(L) the kernel modulo Z(L)
    assert kernels == [Subspace.zero(L), center(L)]
    assert len({id(A) for A in counted}) == len(counted)
    Q = invariants._central_quotient(L)
    assert [A for A in counted if A is L or A is Q] == [L, Q]
    assert multipliers == []


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
        assert {"_center", "_derived", "_second_center", "_nilpotency", "_sdim_M",
                "_central_quotient"} <= set(vars(L))
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


def _derived_in_center(L):
    """The containment test ``fingerprint`` made before it read the class."""
    return center(L).contains_subspace(derived_subalgebra(L))


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: L.name)
def test_derived_in_center_is_class_at_most_two(L):
    assert fingerprint(L).derived_in_center == _derived_in_center(_fresh(L))


@given(base_changed(ALGEBRAS))
def test_derived_in_center_after_base_change(L):
    assert fingerprint(L).derived_in_center == _derived_in_center(_fresh(L))


def test_derived_in_center_takes_both_values():
    assert {fingerprint(L).derived_in_center for L in ALGEBRAS} == {False, True}


def test_central_quotient_is_built_once():
    L = _fresh(model_l4())
    Q = invariants._central_quotient(L)
    assert invariants._central_quotient(L) is Q
    assert Q.structure_equals(core.quotient(L, center(L))[0])


def test_paper_checks_build_one_quotient_per_algebra(monkeypatch):
    algebras, quotients = [], []
    make_corpus, quotient = verification.corpus, core.quotient

    def recording_corpus(seed, size):
        algebras.extend(make_corpus(seed, size))
        return algebras

    def counting_quotient(L, I):
        quotients.append(L)
        return quotient(L, I)

    monkeypatch.setattr(verification, "corpus", recording_corpus)
    monkeypatch.setattr(core, "quotient", counting_quotient)
    results = verification.run_paper_checks(0, 40)
    assert all(r.passed for r in results.values())
    per_algebra = [sum(Q is L for Q in quotients) for L in algebras]
    assert max(per_algebra) == 1 and sum(per_algebra) == len(algebras)


def test_prop_3_1_fails_without_abelian_rows(monkeypatch):
    table = verification.verify_theorem_table()
    assert sum(row[0].startswith("Ab(") for row in table.rows) == 21
    stripped = TableReport(rows=tuple(r for r in table.rows if not r[0].startswith("Ab(")),
                           fingerprints_distinct=table.fingerprints_distinct)
    monkeypatch.setattr(verification, "verify_theorem_table", lambda: stripped)
    results = verification.run_paper_checks(0, 5)
    assert not results["Prop 3.1"].passed
    assert results["Theorem table"].passed


@pytest.mark.parametrize("algebras", [MODELS, corpus(0, 20)], ids=["models", "corpus"])
def test_direct_sum_matches_reference(algebras):
    """Every ordered pair, a pair of an algebra with itself included, so
    labels collide."""
    for A in algebras:
        for B in algebras:
            got, want = direct_sum(A, B), reference.direct_sum(A, B)
            assert got.structure_equals(want), (A.name, B.name)
            assert (got.labels, got.name) == (want.labels, want.name)


def test_direct_sum_renames_colliding_labels():
    A = heisenberg_odd(1)
    AA = direct_sum(A, A)
    AAA = direct_sum(AA, A)
    assert AAA.labels == reference.direct_sum(AA, A).labels
    assert len(set(AAA.labels)) == AAA.dim
    assert any(lab.endswith("''") for lab in AAA.labels)
