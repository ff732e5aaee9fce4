"""[L, X] read off the stored bracket table, and the ledger's invariants
computed once per value.

``bracket_subspaces`` reads each canonical row w of W as its action
{t: [w, e_t]} (``core._action``) and spans Σ_t u_t [w, e_t] for each row u of
U.  It is compared with the pairwise body it replaced
(``reference_core.bracket_subspaces``) on the invariant cache's algebras, on
the corpora of seeds 0-3, on seeded rational conjugates, on the class-3
inputs L4 and Cover(Cover(H(2))), and on random homogeneous U and W, U not
only the whole algebra.  ``check_bounds`` counts sdim(L² ∩ Z) from one
echelon of L² and Z; it is compared with the intersection it replaced.
``report`` runs its body once per algebra and keeps no reference to L, and
Lemma 2.5 checks each distinct pair once.
"""

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

import reference_core as reference
from superlie import core, invariants, verification
from superlie.cohomology import cover_candidate
from superlie.constructions import builtin, model_l4
from superlie.core import (
    Subspace,
    bracket_subspaces,
    center,
    derived_subalgebra,
    is_nilpotent,
    lower_central_series,
    quotient,
    second_center,
)
from superlie.corpus import corpus
from superlie.errors import NotAnIdeal
from superlie.invariants import check_bounds, report
from test_invariant_cache import ALGEBRAS, _fresh
from test_multiplier_count import RATIONAL

CLASS_3 = [model_l4(), cover_candidate(cover_candidate(builtin("H(2)")).algebra).algebra]
GROUPS = {"algebras": ALGEBRAS, "rational": RATIONAL, "class-3": CLASS_3,
          **{f"corpus-{s}": corpus(s, 100) for s in range(4)}}


def _spaces(L):
    """The subspaces the library brackets: L, 0, L², Z, Z₂ and the series."""
    return [Subspace.full(L), Subspace.zero(L), derived_subalgebra(L), center(L),
            second_center(L), *lower_central_series(L)]


def _random_subspace(L, rng):
    """The span of up to two random vectors of each parity, with entries
    0, ±1, ±2, ±1/2 or ±2/3, so rows are rarely unit vectors."""
    vectors = []
    for parity in (0, 1):
        idx = [i for i in range(L.dim) if L.parities[i] == parity]
        for _ in range(rng.randint(0, 2) if idx else 0):
            v = [F(0)] * L.dim
            for i in idx:
                v[i] = rng.choice((0, 0, 1, -1, 2, -2, F(1, 2), F(-1, 2), F(2, 3), F(-2, 3)))
            vectors.append(v)
    return Subspace.span(L, vectors)


def test_class_3_inputs():
    assert [is_nilpotent(L) for L in CLASS_3] == [(True, 3), (True, 3)]
    assert CLASS_3[1].dim == 32


@pytest.mark.parametrize("group", GROUPS)
def test_brackets_of_the_library_subspaces_match_the_pairwise_reference(group):
    for L in GROUPS[group]:
        spaces = _spaces(L)
        for U in spaces:
            for W in spaces:
                assert bracket_subspaces(L, U, W) == reference.bracket_subspaces(L, U, W)


@pytest.mark.parametrize("group", GROUPS)
def test_brackets_of_random_subspaces_match_the_pairwise_reference(group):
    """Random homogeneous U and W, in both orders and against L itself: the
    rows of U are scaled combinations, so each u_t enters."""
    rng = random.Random(group)
    for L in GROUPS[group]:
        full = Subspace.full(L)
        for _ in range(3):
            U, W = _random_subspace(L, rng), _random_subspace(L, rng)
            for A, B in ((U, W), (W, U), (full, W), (U, full)):
                assert bracket_subspaces(L, A, B) == reference.bracket_subspaces(L, A, B)


@pytest.mark.parametrize("group", GROUPS)
def test_ideal_test_reads_the_table(group):
    """``quotient`` accepts a subspace exactly when the pairwise [L, W] lies in it."""
    rng = random.Random(group)
    for L in GROUPS[group]:
        W = _random_subspace(L, rng)
        ideal = W.contains_subspace(reference.bracket_subspaces(L, Subspace.full(L), W))
        try:
            quotient(L, W)
        except NotAnIdeal:
            assert not ideal
        else:
            assert ideal


@pytest.mark.parametrize("group", GROUPS)
def test_lower_central_series_matches_the_pairwise_reference(group):
    for L in GROUPS[group]:
        full = Subspace.full(L)
        series = [full, reference.derived_subalgebra(L)]
        while series[-1] != series[-2] and series[-1].sdim.total():
            series.append(reference.bracket_subspaces(L, full, series[-1]))
        if series[-1] == series[-2]:
            series.pop()
        assert lower_central_series(L) == series


@pytest.mark.parametrize("group", GROUPS)
def test_central_derived_cap_matches_the_intersection(group):
    for L in GROUPS[group]:
        assert check_bounds(L).sdim_L2_cap_Z == reference.central_derived_cap(L)


def test_central_bracket_reads_no_pair(monkeypatch):
    """[L, Z] reads the empty action of each central row: no basis pair is
    bracketed, and the result is zero."""
    L = _fresh(CLASS_3[1])
    monkeypatch.setattr(core, "_bracket", None)
    assert bracket_subspaces(L, Subspace.full(L), center(L)) == Subspace.zero(L)
    assert all(core._action(L, r) == {} for r in center(L).even + center(L).odd)


def test_report_runs_once_per_algebra(monkeypatch):
    """Over a ledger run, ``report``'s body runs at most once per algebra;
    the reports the ledger reads are the cached ones."""
    bodies = []
    body = invariants._report
    monkeypatch.setattr(invariants, "_report", lambda L: bodies.append(L) or body(L))
    results = verification.run_paper_checks(0, 100)
    assert all(r.passed for r in results.values())
    assert bodies and len({id(L) for L in bodies}) == len(bodies)
    L = corpus(0, 100)[-1]
    assert report(L) is report(L) and bodies[-1] is L


def test_cached_report_keeps_no_reference_to_the_algebra():
    """With the cyclic collector off, an algebra whose report and bracket
    table grouping are cached is freed when its last reference goes."""
    gc.disable()
    try:
        L = _fresh(CLASS_3[1])
        rep = report(L)
        check_bounds(L)
        lower_central_series(L)
        bracket_subspaces(L, Subspace.full(L), second_center(L))
        assert {"_report", "_ad"} <= set(vars(L))
        ref = weakref.ref(L)
        del L
        assert ref() is None
        assert rep.nilpotency_class == 3
    finally:
        gc.enable()


def test_lemma_2_5_checks_each_distinct_pair_once(monkeypatch):
    checked = []
    check = verification.kunneth_check
    monkeypatch.setattr(verification, "kunneth_check",
                        lambda A, B: checked.append((A, B)) or check(A, B))
    results = verification.run_paper_checks(0, 100)
    assert results["Lemma 2.5"].passed
    assert results["Lemma 2.5"].detail == "direct-sum formula on 30 pairs"
    assert checked and len(set(checked)) == len(checked) < 30
