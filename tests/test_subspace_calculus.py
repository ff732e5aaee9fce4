"""The subspace calculus on the echelon kernel against the earlier dense
calculus (``reference_core``) and against sympy ranks.

Subspaces are canonical, so ``==`` compares the exact reduced echelon rows.
The stored rows are sparse; ``rows`` is their dense view, and
``reference_core.even_rows`` and ``odd_rows`` (the retired
``Subspace.even_rows`` and ``odd_rows``) are the per-parity dense views,
which the dense references produce directly.
"""

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
import pytest
from sympy import Matrix, Rational

from base_change import SO3, base_changed, rational
import reference_core as reference
import reference_linalg
from superlie import cohomology, core, invariants, linalg
from superlie.cohomology import cover_candidate
from superlie.constructions import (
    abelian,
    builtin,
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
    lower_central_series,
    quotient,
    second_center,
)
from superlie.corpus import corpus
from superlie.errors import NonHomogeneous, NotAnIdeal, ParityMixing, SingularMatrix
from superlie.fileformat import emit

F = Fraction

MODELS = [abelian(2, 1), heisenberg_even(2, 1), heisenberg_even(0, 2), heisenberg_odd(2),
          model_l4(), SO3, direct_sum(model_l4(), heisenberg_odd(1))]
# nilpotency class >= 3 puts Z(L) < Z₂(L) < L strictly; few of corpus(0, 40) are
DEEP = [L for L in corpus(1, 300) if is_nilpotent(L)[1] >= 3]
ALGEBRAS = MODELS + corpus(0, 40) + DEEP

algebras = st.one_of(st.sampled_from(ALGEBRAS), base_changed(ALGEBRAS))


@given(algebras)
def test_second_center_matches_reference(L):
    assert second_center(L) == reference.second_center(L)


@given(algebras)
def test_derived_subalgebra_matches_reference(L):
    assert derived_subalgebra(L) == reference.derived_subalgebra(L)


def _homogeneous(draw, L, parity, count):
    idx = [i for i in range(L.dim) if L.parities[i] == parity]
    out = []
    for _ in range(count):
        v = [F(0)] * L.dim
        for i in idx:
            v[i] = draw(st.one_of(st.just(F(0)), rational))
        out.append(tuple(v))
    return out


@st.composite
def vector_pairs(draw):
    """An algebra and two coordinate vectors, mixed parity allowed, with
    int or Fraction entries."""
    L = draw(algebras)
    entry = st.one_of(st.just(0), st.integers(-2, 2), rational)
    x, y = (tuple(draw(entry) for _ in range(L.dim)) for _ in range(2))
    return L, x, y


@given(vector_pairs())
def test_bracket_matches_reference(case):
    """The sparse bracket behind ``bracket`` against the earlier dense loop,
    entry types included."""
    L, x, y = case
    got = L.bracket(x, y)
    assert got == reference.bracket(L, x, y)
    assert all(type(c) is Fraction for c in got) and len(got) == L.dim


@given(algebras)
def test_lower_central_series_matches_reference_brackets(L):
    series = lower_central_series(L)
    full = Subspace.full(L)
    for prev, nxt in zip(series, series[1:]):
        assert nxt == Subspace.span(L, [reference.bracket(L, u, w)
                                        for u in full.rows for w in prev.rows])


@st.composite
def subspace_pairs(draw):
    """Two homogeneous subspaces of one algebra that share a random common
    part, so their intersection is often nonzero."""
    L = draw(st.sampled_from([abelian(m, n) for m in range(5) for n in range(5)][1:]))
    spans = []
    common = [_homogeneous(draw, L, p, draw(st.integers(0, 2))) for p in (0, 1)]
    for _ in range(2):
        vectors = []
        for p in (0, 1):
            vectors += common[p] + _homogeneous(draw, L, p, draw(st.integers(0, 3)))
        spans.append(Subspace.span(L, draw(st.permutations(vectors))))
    return spans


@given(subspace_pairs())
def test_intersection_matches_reference(pair):
    U, W = pair
    assert U.intersection(W) == reference.intersection(U, W)
    assert U.intersection(W) == W.intersection(U)


def _rank(rows):
    if not rows:
        return 0
    return Matrix([[Rational(x.numerator, x.denominator) for x in r] for r in rows]).rank()


@given(subspace_pairs())
def test_intersection_dimension_by_sympy_rank(pair):
    """dim(U ∩ W) = dim U + dim W - dim(U + W), per parity, with every
    dimension on the right a sympy rank of the spanning rows."""
    U, W = pair
    cap = U.intersection(W)
    for view in (reference.even_rows, reference.odd_rows):
        u, w = view(U), view(W)
        assert len(view(cap)) == _rank(u) + _rank(w) - _rank(u + w)
    for r in cap.rows:
        assert U.contains(r) and W.contains(r)


def test_intersection_with_zero_and_full():
    L = heisenberg_even(1, 1)
    U = Subspace.span(L, [L.basis_vector(0), L.basis_vector(3)])
    assert U.intersection(Subspace.full(L)) == U
    assert U.intersection(Subspace.zero(L)) == Subspace.zero(L)


def test_span_rejects_mixed_parity():
    L = heisenberg_even(1, 1)
    with pytest.raises(NonHomogeneous):
        Subspace.span(L, [L.basis_vector(0), (F(1), F(0), F(0), F(1))])
    # zero vectors and homogeneous vectors of both parities are fine
    S = Subspace.span(L, [(F(0),) * 4, (F(1), F(2), F(0), F(0)), L.basis_vector(3)])
    assert S.sdim.as_tuple() == (1, 1)


# -- sparse stored rows against the dense-row references ---------------------

BASES = MODELS + corpus(0, 60)


def _sparse_rows(rows):
    return tuple(tuple(linalg.sparse(r).items()) for r in rows)


def _dense_views(S):
    """The dense rows of S per parity."""
    return reference.even_rows(S), reference.odd_rows(S)


def _stores_its_dense_views(S):
    return (S.even, S.odd) == tuple(map(_sparse_rows, _dense_views(S)))


@st.composite
def matrices_for(draw, mixing):
    """An algebra of BASES and a random square matrix that preserves
    parity, or with ``mixing`` may also mix it; many are singular."""
    L = draw(st.sampled_from(BASES))
    d = L.dim
    return L, [[draw(rational) if mixing or L.parities[i] == L.parities[j] else F(0)
                for j in range(d)] for i in range(d)]


def _outcome(change, L, P):
    try:
        return change(L, P)
    except (SingularMatrix, ParityMixing) as exc:
        return type(exc)


@given(st.one_of(matrices_for(False), matrices_for(True)))
def test_change_basis_matches_reference(case):
    L, P = case
    got, want = _outcome(change_basis, L, P), _outcome(reference.change_basis, L, P)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.structure_equals(want) and (got.name, got.labels) == (want.name, want.labels)


def test_change_basis_rejections_match_reference():
    L = heisenberg_even(1, 1)
    singular = [[F(1), F(1), F(0), F(0)], [F(1), F(1), F(0), F(0)],
                [F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]]
    mixing = [[F(int(i == j or (i, j) == (0, 3))) for j in range(4)] for i in range(4)]
    for P, exc in ((singular, SingularMatrix), (mixing, ParityMixing)):
        assert _outcome(change_basis, L, P) is exc is _outcome(reference.change_basis, L, P)


@given(st.one_of(st.sampled_from(BASES), base_changed(ALGEBRAS)))
def test_quotient_matches_reference(L):
    """The center, the derived subalgebra and every lower-central term."""
    for I in [center(L), derived_subalgebra(L), *lower_central_series(L)]:
        (Q, proj), (RQ, rproj) = quotient(L, I), reference.quotient(L, I)
        assert Q.structure_equals(RQ) and (Q.name, Q.labels) == (RQ.name, RQ.labels)
        assert proj.matrix == rproj.matrix
        assert all(type(x) is Fraction for row in proj.matrix for x in row)


@st.composite
def homogeneous_spans(draw):
    """An algebra and random homogeneous vectors of both parities, shuffled."""
    L = draw(st.one_of(st.sampled_from(BASES), base_changed(ALGEBRAS)))
    vectors = [v for p in (0, 1) for v in _homogeneous(draw, L, p, draw(st.integers(0, 4)))]
    return L, draw(st.permutations(vectors))


def _quotient_outcome(quot, L, I):
    try:
        Q, proj = quot(L, I)
    except NotAnIdeal:
        return NotAnIdeal
    return Q.parities, Q.constants, Q.name, Q.labels, proj.matrix


@given(homogeneous_spans(), st.booleans())
def test_quotient_rejects_exactly_the_non_ideals(case, with_derived):
    """Random spans, and with ``with_derived`` their sums with L², which are
    ideals: ``quotient`` raises NotAnIdeal exactly when the reference does,
    and otherwise builds the same quotient and projection."""
    L, vectors = case
    I = Subspace.span(L, vectors)
    if with_derived:
        I = I.add(derived_subalgebra(L))
    assert _quotient_outcome(quotient, L, I) == _quotient_outcome(reference.quotient, L, I)


@given(homogeneous_spans())
def test_span_matches_reference_per_parity_rref(case):
    L, vectors = case
    S = Subspace.span(L, vectors)
    ref = reference.span_rows(reference.DenseSubspace, L, (linalg.sparse(v) for v in vectors))
    assert _dense_views(S) == (ref.even_rows, ref.odd_rows)
    for rows, p in zip(_dense_views(S), (0, 1)):
        same = [v for v in vectors if L.vector_parity(v) == p]
        assert list(rows) == reference_linalg.rref(same)
    assert S.rows == ref.even_rows + ref.odd_rows
    assert _stores_its_dense_views(S)


@given(algebras)
def test_ad_kernel_parity_split_matches_reference(L):
    """The stored-table solve against the reference's loop over unit targets."""
    units = [{i: 1} for i in range(L.dim)]
    for modulo in (Subspace.zero(L), center(L)):
        got = core._ad_kernel(L, modulo)
        want = reference.ad_kernel(L, units, modulo)
        assert _dense_views(got) == (want.even_rows, want.odd_rows)


# free two-step covers: their centres are inactive, in no stored key
COVERS = [free_two_step_cover(m, n).K for m, n in ((2, 2), (3, 1))]


def test_center_and_second_center_bracket_no_basis_pair():
    """Z(L) and Z₂(L) read the stored table, on covers whose centres are
    inactive, and match the references."""
    assert all(len({i for key in core._int_table(K)[1] for i in key}) < K.dim for K in COVERS)
    fresh = [LieSuperalgebra(L.parities, L.constants, L.name, L.labels)
             for L in ALGEBRAS + COVERS]
    for L in fresh:
        center(L)
        second_center(L)
    for L in fresh[-len(COVERS):]:
        Z = reference.ad_kernel(L, [{i: 1} for i in range(L.dim)], Subspace.zero(L))
        assert _dense_views(center(L)) == (Z.even_rows, Z.odd_rows)
        assert second_center(L) == reference.second_center(L)


@given(algebras)
def test_stored_rows_are_the_sparse_dense_views(L):
    """Every way a Subspace is made stores the sparse form of its dense
    views: pivot first, entries in index order, no zeros, Fraction values."""
    spaces = [Subspace.full(L), Subspace.zero(L), center(L), second_center(L),
              derived_subalgebra(L), *lower_central_series(L)]
    spaces.append(spaces[2].add(spaces[4]))
    spaces.append(spaces[3].intersection(spaces[4]))
    for S in spaces:
        assert _stores_its_dense_views(S)
        assert all(type(x) is Fraction for r in S.even + S.odd for _, x in r)
        assert all(r[0][1] == 1 for r in S.even + S.odd)


# -- one elimination path: change_basis runs no linalg.rref ------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def rref_calls(monkeypatch):
    """Every binding of ``linalg.rref`` in the library, patched to record
    its calls in the returned list."""
    calls = []
    rref = linalg.rref

    def counting_rref(rows):
        rows = list(rows)
        calls.append(rows)
        return rref(rows)

    for name, module in list(sys.modules.items()):
        if name == "superlie" or name.startswith("superlie."):
            for attr, value in list(vars(module).items()):
                if value is rref:
                    monkeypatch.setattr(module, attr, counting_rref)
    return calls


def _bench_conjugates(monkeypatch):
    """The six conjugated algebras of the basechange-dense workload, seed 0."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    bases = [(name, builtin(name)) for name in workloads.DENSE_BUILTINS]
    bases += [(f"Cover(Ab({m},{n}))", free_two_step_cover(m, n).K)
              for m, n in workloads.DENSE_COVERS]
    return [(L, workloads.conjugator(L.parities, name, 0)) for name, L in bases]


def _random_rational(rng, L):
    d = L.dim
    return [[F(rng.randint(-3, 3), rng.randint(1, 3)) if L.parities[i] == L.parities[j]
             else F(0) for j in range(d)] for i in range(d)]


def test_change_basis_makes_no_rref_call(rref_calls, monkeypatch):
    L = heisenberg_even(2, 2)
    cases = _bench_conjugates(monkeypatch) + [(L, _random_rational(random.Random(14), L))]
    assert len(cases) == 7
    for L, P in cases:
        want = emit(reference.change_basis(L, P))
        rref_calls.clear()
        assert emit(change_basis(L, P)) == want
        assert rref_calls == []


def test_center_makes_the_one_pinned_rref_call(rref_calls):
    H = heisenberg_even(1, 0)
    center(LieSuperalgebra(H.parities, H.constants, H.name, H.labels))
    assert len(rref_calls) == 1


def _calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the arguments of each call in the
    returned list."""
    calls, f = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_conjugates_and_quotients_are_built_by_one_transport(monkeypatch):
    """``change_basis``, ``quotient`` and ``cohomology._adapted`` each read
    their constants off one ``core._transport`` call.  The inputs keep the
    Jacobi check of the result off the adapted conjugate, whose build is a
    transport of its own."""
    transports = _calls(monkeypatch, core, "_transport")
    for L in (heisenberg_even(2, 2), cover_candidate(heisenberg_even(1, 0)).algebra):
        d = L.dim
        P = [[F(i + 2, 3 - i % 2) if i == j else 0 for j in range(d)] for i in range(d)]
        transports.clear()
        change_basis(L, P)
        assert len(transports) == 1
        transports.clear()
        quotient(L, center(L))
        assert len(transports) == 1
    built = []
    for L, P in _bench_conjugates(monkeypatch):
        C = change_basis(L, P)
        vars(C).pop("_adapted", None)  # the Jacobi check may have built it
        transports.clear()
        if cohomology._adapted(C) is not None:
            built.append(C.name)
        assert len(transports) == (C.name in built)
    assert len(built) == 4  # the two H(k) keep L² on unit rows


def test_ad_kernel_and_lambda_mu_build_one_ad_system(monkeypatch):
    systems = _calls(monkeypatch, core, "_ad_system")
    L = model_l4()
    core._ad_kernel(L, Subspace.zero(L))
    assert len(systems) == 1
    invariants._z2_action(L)  # the center and the second center, solved once each
    z = next(r for r in second_center(L).rows if not center(L).contains(r))
    want = reference.lambda_mu(L, z)
    systems.clear()
    assert invariants.lambda_mu(L, z) == want
    assert len(systems) == 1
