"""The per-algebra invariant cache, the views read from it, and Lemma 4.1's
λ and μ, read from one Z₂-action table per algebra.

Each structural invariant is computed at most once per algebra and kept in
the algebra's instance dict as plain rows, ints and the central quotient
L/Z(L); the public functions wrap the rows in a fresh ``Subspace``.  These
tests check that the cached values are exact, that each invariant really is
computed once, and that the cache forms no reference cycle, so an algebra is
freed by reference counting alone.  ``fingerprint``, ``check_bounds`` and the
``verify-paper`` ledger read ``report`` and the cached L/Z(L) instead of
recomputing them; ``direct_sum`` is checked against its earlier index-map
form.  ``lambda_mu`` and the ledger's samples of Z₂ \\ Z are checked against
their quotient-based and echelon-based references, also on conjugates whose
Z₂ rows are not unit vectors.
"""

import gc
import random
import weakref

from hypothesis import given
import pytest

from base_change import SO3, base_changed
import reference_core as reference
from superlie import cohomology, core, invariants, verification
from superlie.classify import TableReport, classify_mr_le2, fingerprint
from superlie.cohomology import cover_candidate, multiplier
from superlie.constructions import (
    abelian,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
)
from superlie.core import (
    LieSuperalgebra,
    Subspace,
    center,
    change_basis,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    second_center,
)
from superlie.corpus import corpus
from superlie.errors import NotInSecondCenterMinusCenter, SuperlieError
from superlie.invariants import check_bounds, lambda_mu, report

MODELS = [abelian(2, 1), heisenberg_even(2, 1), heisenberg_even(0, 2), heisenberg_odd(2),
          model_l4(), SO3, direct_sum(model_l4(), heisenberg_odd(1))]
ALGEBRAS = MODELS + corpus(0, 60)


def _fresh(L: LieSuperalgebra) -> LieSuperalgebra:
    """An equal-by-value copy of L with an empty cache.  The Jacobi check
    may fill L², the basis adapted to it and the conjugate in that basis at
    construction; all three are dropped, so that every value read from the
    copy is computed afresh."""
    K = LieSuperalgebra(L.parities, L.constants, L.name, L.labels)
    for key in ("_derived", "_adapted_columns", "_adapted"):
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

    def counting_ad_kernel(A, modulo):
        if A is L:
            kernels.append(modulo)
        return ad_kernel(A, modulo)

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
                "_central_quotient", "_z2_action"} <= set(vars(L))
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


def _unitriangular(L, seed):
    """L conjugated by a dense upper unitriangular parity-preserving matrix."""
    rng = random.Random(seed)
    p, d = L.parities, L.dim
    P = [[1 if i == j else rng.choice((-2, -1, 1, 2)) if i < j and p[i] == p[j] else 0
          for j in range(d)] for i in range(d)]
    return change_basis(L, P)


# Z₂ of a class-2 algebra is L, whose canonical rows are the unit vectors; the
# conjugates of L4 and of the class-3 cover of H(1,0) have non-unit Z₂ rows
CONJUGATES = [_unitriangular(L, seed) for seed in range(2) for L in (
    model_l4(), cover_candidate(heisenberg_even(1, 0)).algebra, heisenberg_even(2, 2),
    free_two_step_cover(3, 2).K)]


def _raised(fn, L, z):
    try:
        fn(L, z)
    except SuperlieError as exc:
        return type(exc)
    return None


def _check_lambda_mu_matches_reference(L, seed=0):
    """lambda_mu against the reference on Z₂'s rows outside Z and on mixtures
    of two of them, and the reference's exception type on an element of Z,
    one outside Z₂, a non-homogeneous one and one of the wrong length."""
    rng = random.Random(seed)
    Z, Z2 = center(L), second_center(L)
    for rows in (Z2.even_rows, Z2.odd_rows):
        rows = [r for r in rows if not Z.contains(r)]
        mixes = []
        for _ in range(3 if len(rows) >= 2 else 0):
            (a, b), c = rng.sample(rows, 2), rng.choice((-3, -1, 2, 3))
            mixes.append(tuple(x + c * y for x, y in zip(a, b)))
        for z in rows + mixes:
            if Z.contains(z):
                assert _raised(lambda_mu, L, z) is NotInSecondCenterMinusCenter
            else:
                assert lambda_mu(L, z) == reference.lambda_mu(L, z), (L.name, z)
    outside = [e for e in map(L.basis_vector, range(L.dim)) if not Z2.contains(e)]
    # both parities, or zero where L has one parity only
    mixed = tuple(x + y if L.n_even and L.n_odd else 0
                  for x, y in zip(L.basis_vector(0), L.basis_vector(L.dim - 1)))
    bad = Z.rows[:1] + tuple(outside[:1]) + (mixed, L.basis_vector(0) + (0,))
    for z in bad:
        assert _raised(lambda_mu, L, z) is _raised(reference.lambda_mu, L, z) is not None


def test_conjugates_have_non_unit_z2_rows():
    assert any(len(r) > 1 for L in CONJUGATES
               for r in second_center(L).even + second_center(L).odd)


@pytest.mark.parametrize("L", CONJUGATES, ids=lambda L: f"{L.name}.d{L.dim}")
def test_lambda_mu_on_conjugates_matches_reference(L):
    _check_lambda_mu_matches_reference(L)


@given(base_changed(corpus(0, 60)))
def test_lambda_mu_after_base_change_matches_reference(L):
    _check_lambda_mu_matches_reference(L)


def test_z2_samples_match_reference():
    """The ledger's samples, read from the action table, equal those of the
    former membership tests, and the draws leave rng in the same state."""
    for seed in range(4):
        rng, ref_rng = random.Random(seed + 1), random.Random(seed + 1)
        for L in corpus(seed, 100):
            samples = verification._central_z2_samples(L, rng)
            assert samples == reference.central_z2_samples(L, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


def test_lemma_4_1_reads_one_table_per_algebra(monkeypatch):
    """Lemma 4.1 builds each algebra's Z₂-action table once, while it draws
    the samples, and then solves no ad-map kernel, builds no quotient and
    brackets no subspaces for any z; drawing costs at most the second
    center's one kernel."""
    calls = dict.fromkeys(("_ad_kernel", "quotient", "bracket_subspaces"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(core, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(core, name, counting)

    def counted(fn, log):
        def wrapper(L, *args):
            before = dict(calls)
            out = fn(L, *args)
            log.append({k: calls[k] - before[k] for k in calls})
            return out
        return wrapper

    built, drawn, solved = [], [], []
    build = invariants._z2_action_table
    monkeypatch.setattr(invariants, "_z2_action_table", lambda L: built.append(L) or build(L))
    monkeypatch.setattr(verification, "_central_z2_samples",
                        counted(verification._central_z2_samples, drawn))
    monkeypatch.setattr(verification, "lambda_mu", counted(lambda_mu, solved))
    results = verification.run_paper_checks(0, 100)
    assert results["Lemma 4.1"].passed
    assert len(drawn) == 100 and len(solved) > 150
    assert all(c == {"_ad_kernel": 0, "quotient": 0, "bracket_subspaces": 0} for c in solved)
    assert all(c["_ad_kernel"] <= 1 and c["quotient"] == c["bracket_subspaces"] == 0
               for c in drawn)
    assert len({id(L) for L in built}) == len(built) <= 100


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
