"""How the graded Jacobi check decides, against the walk over every sorted
basis triple in ``reference_core``.

The check takes three exact steps: it accepts at once when no index in the
support of a stored bracket occurs in a stored key (then L² is central and
every term [[x, y], z] vanishes); else, when L² has a non-unit canonical
row, it decides on the conjugate adapted to L² (``core._adapted``),
and walks L's own triples only if that conjugate fails; else it walks the
triples.  These tests check that it accepts exactly what the reference
accepts, that a rejected table raises the reference's error (triple,
residual and text), which step decides on named families, and that the
sdim M count and the multiplier reuse the conjugate the check built, and
the basis columns it was built from."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import reference_core as reference
from base_change import base_changed
from superlie import cohomology, core
from superlie.cohomology import cover_candidate, multiplier_sdim
from superlie.constructions import (
    builtin,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.core import is_nilpotent, validate
from superlie.corpus import corpus
from test_invariant_cache import ALGEBRAS, _fresh
from test_multiplier_count import _unitriangular_conjugate
from test_support_triples import _fails_on_the_reference_triple, _perturb

F = Fraction

COVERS = [cover_candidate(builtin(name)).algebra
          for name in ("H(1,0)", "H(2,2)", "H(3,1)", "H(2)", "H(3)", "H(5)")]
COVERS.append(cover_candidate(model_l4()).algebra)
DENSE = [_unitriangular_conjugate(L) for L in (builtin("H(3,3)"), builtin("H(5,5)"),
                                               free_two_step_cover(3, 2).K)]
VALID = ALGEBRAS + corpus(0, 200) + model_registry() + COVERS + DENSE


@pytest.mark.parametrize("L", VALID, ids=lambda L: f"{L.name}-{L.dim}")
def test_both_checks_accept_the_valid_tables(L):
    reference.check_jacobi(L)
    core.LieSuperalgebra._check_jacobi(_fresh(L))


@settings(max_examples=60)
@given(base_changed(ALGEBRAS), st.randoms(use_true_random=False))
def test_base_changes_and_their_perturbations_match_reference(L, rng):
    reference.check_jacobi(L)
    core.LieSuperalgebra._check_jacobi(_fresh(L))
    consts = _perturb(rng, L)
    if consts is not None:
        _fails_on_the_reference_triple(L, consts)


def _uncentre(rng, L):
    """L's raw data with one constant added on a key (m, c), m in the
    support of a stored bracket, keeping the grading: e_m, which bracketed
    to zero with everything in a class-2 table, no longer does."""
    p, d = L.parities, L.dim
    consts = {key: dict(vec) for key, vec in L.constants}
    m = rng.choice(sorted({k for vec in consts.values() for k in vec}))
    while True:
        c = rng.randrange(d)
        targets = [k for k in range(d) if p[k] == (p[m] + p[c]) % 2]
        if targets and not (c == m and p[m] == 0):
            break
    vec = consts.setdefault((min(m, c), max(m, c)), {})
    k = rng.choice(targets)
    vec[k] = vec.get(k, 0) + F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
    return consts


CLASS_TWO = [L for L in ALGEBRAS + model_registry() + COVERS if L.constants
             and is_nilpotent(L) == (True, 2)]
CLASS_TWO += [heisenberg_even(3, 2), heisenberg_odd(3), free_two_step_cover(2, 2).K, *DENSE]


def test_class_two_tables_made_non_central_match_reference():
    rng = random.Random(19)
    failures = 0
    for L in CLASS_TWO:
        for _ in range(3):
            failures += _fails_on_the_reference_triple(L, _uncentre(rng, L))
    assert len(CLASS_TWO) > 40
    assert failures > len(CLASS_TWO)  # most of them break Jacobi


@pytest.mark.parametrize("L", DENSE, ids=lambda L: f"{L.name}-{L.dim}")
def test_perturbed_dense_conjugates_match_reference(monkeypatch, L):
    """Each perturbation breaks Jacobi.  Most of them make the check build
    the adapted conjugate, see it fail and walk L's own triples for the
    error: two walks per check, and ``_fails_on_the_reference_triple`` runs
    the check twice."""
    rng = random.Random(L.dim)
    outcomes = []
    for _ in range(8):
        consts = _perturb(rng, L)
        failed, walked = _walked(monkeypatch, lambda: _fails_on_the_reference_triple(L, consts))
        outcomes.append((failed, len(walked)))
    assert all(failed for failed, _ in outcomes)
    assert sum(walks == 4 for _, walks in outcomes) >= 6


def _walked(monkeypatch, build):
    """build(), and the algebras whose triples the Jacobi check walked."""
    walked, triples = [], core._support_triples

    def recorded(L, active=False):
        if active:
            walked.append(L)
        return triples(L, active)

    monkeypatch.setattr(core, "_support_triples", recorded)
    L = build()
    monkeypatch.undo()
    return L, walked


CENTRAL = ["H(1,0)", "H(2,2)", "H(3,1)", "H(0,3)", "H(1)", "H(2)", "H(5)", "Ab(3,2)"]


@pytest.mark.parametrize("name", CENTRAL)
def test_class_two_builtins_walk_no_triple(monkeypatch, name):
    L, walked = _walked(monkeypatch, lambda: builtin(name))
    assert walked == [] and L.constants == builtin(name).constants


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (1, 3), (2, 2)])
def test_free_two_step_covers_walk_no_triple(monkeypatch, m, n):
    assert _walked(monkeypatch, lambda: free_two_step_cover(m, n).K)[1] == []


@pytest.mark.parametrize("name", ["H(2,2)", "H(3,1)", "H(3,3)", "H(2)", "H(3)", "H(4)", "H(5)"])
def test_covers_of_class_two_walk_no_triple(monkeypatch, name):
    K, walked = _walked(monkeypatch, lambda: cover_candidate(builtin(name)).algebra)
    assert walked == [] and is_nilpotent(K) == (True, 2)


@pytest.mark.parametrize("build", [model_l4, lambda: cover_candidate(builtin("H(1,0)")).algebra],
                         ids=["L4", "Ext(H(1,0))"])
def test_class_three_walks_its_own_triples(monkeypatch, build):
    L, walked = _walked(monkeypatch, build)
    assert walked == [L] and is_nilpotent(L) == (True, 3)
    assert vars(L)["_adapted"] is None  # L² has unit rows: nothing to conjugate


@pytest.mark.parametrize("base", [builtin("H(3,3)"), builtin("H(5,5)"), free_two_step_cover(3, 2).K],
                         ids=lambda L: L.name)
def test_dense_class_two_conjugate_walks_neither_table(monkeypatch, base):
    L, walked = _walked(monkeypatch, lambda: _unitriangular_conjugate(base))
    A = vars(L)["_adapted"]
    assert walked == [] and A is not None
    assert {k for _, vec in A.constants for k, _ in vec}.isdisjoint(
        {x for (a, b), _ in A.constants for x in (a, b)})


def test_dense_class_three_conjugate_walks_the_conjugate(monkeypatch):
    """The walk over A decides: L's own triples are not walked."""
    L, walked = _walked(monkeypatch, lambda: _unitriangular_conjugate(model_l4()))
    assert walked == [model_l4(), vars(L)["_adapted"]]


def _conjugates_built(monkeypatch, run):
    """The algebras ``core._adapted`` builds while run() runs."""
    built, build = [], core.validate

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(core, "validate", recorded)
    run()
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("L", DENSE, ids=lambda L: f"{L.name}-{L.dim}")
def test_count_reuses_the_conjugate_of_the_check(monkeypatch, L):
    A = vars(L)["_adapted"]  # built at construction
    assert A is not None
    assert _conjugates_built(monkeypatch, lambda: multiplier_sdim(L)) == []
    assert vars(L)["_adapted"] is A


def test_count_builds_the_conjugate_once_when_the_check_did_not():
    """L² = span(e3 + e4) is visibly central, so the check needs no
    conjugate; the count builds it on its first call only."""
    L = validate([0, 0, 0, 0], {(0, 1): {2: 1, 3: 1}})
    assert "_adapted" not in vars(L)
    with pytest.MonkeyPatch.context() as mp:
        built = _conjugates_built(mp, lambda: [multiplier_sdim(L) for _ in range(2)])
    assert len(built) == 1 and vars(L)["_adapted"] is built[0]
    assert built[0].constants == (((0, 1), ((2, F(1)),)),)
    assert multiplier_sdim(L) == cohomology.multiplier(L).sdim_M


def _adapted_builds(monkeypatch, L, run):
    """What run() builds of L's adapted basis: the ``core._memo`` keys
    computed on L, and the reads of L² inside ``core``, from which the
    basis columns are made."""
    builds, memo, derived = [], core._memo, core.derived_subalgebra

    def recorded_memo(A, key, compute):
        def computing():
            if A is L:
                builds.append(key)
            return compute()
        return memo(A, key, computing)

    def recorded_derived(A):
        if A is L:
            builds.append("L²")
        return derived(A)

    monkeypatch.setattr(core, "_memo", recorded_memo)
    monkeypatch.setattr(core, "derived_subalgebra", recorded_derived)
    run()
    monkeypatch.undo()
    return builds


@pytest.mark.parametrize("L", DENSE, ids=lambda L: f"{L.name}-{L.dim}")
def test_multiplier_reads_the_basis_the_check_built(monkeypatch, L):
    """The Jacobi check built the adapted columns and A from them;
    ``multiplier`` reads both off L and builds neither again.  On a copy with
    an empty cache, each is built once."""
    cols, A = vars(L)["_adapted_columns"], vars(L)["_adapted"]
    assert cols is not None and A is not None
    builds = _adapted_builds(monkeypatch, L, lambda: cohomology.multiplier(L))
    assert not {"_adapted_columns", "_adapted", "L²"} & set(builds)
    assert _conjugates_built(monkeypatch, lambda: cohomology.multiplier(L)) == []
    assert vars(L)["_adapted_columns"] is cols and vars(L)["_adapted"] is A
    K = _fresh(L)
    assert not {"_adapted_columns", "_adapted"} & set(vars(K))
    builds = _adapted_builds(monkeypatch, K, lambda: cohomology.multiplier(K))
    assert builds.count("_adapted_columns") == builds.count("_adapted") == 1
    assert vars(K)["_adapted_columns"] == cols and vars(K)["_adapted"] == A


def test_one_entry_tables_build_no_derived_subalgebra(monkeypatch):
    """A table whose vectors each have one entry has unit L² rows: the
    conjugate is read off as None with no echelon built."""
    calls = []
    monkeypatch.setattr(core, "derived_subalgebra", calls.append)
    L = model_l4()
    assert all(len(vec) == 1 for _, vec in L.constants)
    assert calls == [] and vars(L)["_adapted"] is None
