"""The sparse triple enumerator ``core._support_triples`` against the checks
that visited every sorted basis triple (``reference_core``): the same
Jacobi verdicts with the same first failing triple, the same 2-cocycle
equations in the same order (in integers, times the lcm D of the
denominators), and the same cocycle bases.  Also the
two-orientation bracket table and ``core._orient`` against the per-call
graded skew-symmetry they replace: the same brackets, cochain pairs and
cochain values for every ordered index pair.  And the one system that
``cohomology`` solves for both parities against the former per-parity
passes: the same superdimensions, representatives, cocycle and coboundary
bases, and independence verdicts.  And the Jacobi check's walk over the
triples of active indices, summed in integers: the same triples as the
support triples with all three indices active, and the same first failing
triple and residual; the cocycle equations keep the constraint of every
support triple, walking those with an inactive index unless L² is central
and spanned by basis vectors."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

import reference_core as reference
from reference_linalg import invert
from superlie import cohomology, core
from superlie.constructions import (
    abelian,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.corpus import corpus
from superlie.errors import DependentClasses, JacobiError
from superlie.linalg import Echelon

F = Fraction


def _rational_base_change(rng, L):
    """A random invertible parity-preserving matrix with non-unit
    denominators; the conjugate's constants are dense."""
    d = L.dim
    while True:
        P = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if L.parities[i] == L.parities[j]
              else F(0) for j in range(d)] for i in range(d)]
        try:
            invert(P)
            return P
        except ValueError:
            continue


def _algebras():
    rng = random.Random(6)
    models = model_registry() + [heisenberg_even(3, 2), heisenberg_odd(3), abelian(2, 1),
                                 free_two_step_cover(2, 1).K]
    dense = [core.change_basis(L, _rational_base_change(rng, L)) for L in model_registry()]
    return models + corpus(0, 60) + dense


ALGEBRAS = _algebras()


def _jacobi_term(L, i, j, k):
    p = L.parities
    res = {}
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for m, cm in L.basis_bracket(a, b).items():
            for t, ct in L.basis_bracket(m, c).items():
                res[t] = res.get(t, 0) + core._sign(p[a], p[c]) * cm * ct
    return {t: v for t, v in res.items() if v}


def _cols(L, parity):
    return {pair: c for c, pair in enumerate(reference.cochain_pairs(L, parity))}


def _by_pair(L, parity, rows):
    """Rows over the integer positions of ``_cols`` relabelled by the pairs."""
    pairs = reference.cochain_pairs(L, parity)
    return [{pairs[c]: x for c, x in row.items()} for row in rows]


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_support_triples_are_the_sorted_triples_touching_a_stored_key(L):
    _, table = core._int_table(L)
    expected = [(i, j, k) for i, j, k in itertools.combinations_with_replacement(range(L.dim), 3)
                if (i, j) in table or (j, k) in table or (i, k) in table]
    assert list(core._support_triples(L)) == expected


def _active(L):
    """The indices of the stored keys: every other e_k brackets to zero."""
    return {x for (a, b), _ in L.constants for x in (a, b)}


# inactive indices: the centre of each cover, and the abelian summands
ACTIVE_CASES = ALGEBRAS + [
    *(free_two_step_cover(m, n).K for m, n in ((3, 1), (2, 2), (3, 2), (1, 3))),
    core.direct_sum(heisenberg_even(1, 0), abelian(1, 0)),
    core.direct_sum(abelian(2, 1), heisenberg_odd(2)),
    core.direct_sum(heisenberg_even(2, 1), abelian(1, 2)),
    core.direct_sum(abelian(1, 1), model_registry()[0]),
]


@pytest.mark.parametrize("L", ACTIVE_CASES, ids=lambda L: f"{L.name}-{L.dim}")
def test_active_triples_are_the_support_triples_of_active_indices(L):
    active = _active(L)
    expected = [t for t in core._support_triples(L) if set(t) <= active]
    assert list(core._support_triples(L, active=True)) == expected


def test_some_cases_have_inactive_indices():
    assert sum(len(_active(L)) < L.dim for L in ACTIVE_CASES) > len(ACTIVE_CASES) // 2


def test_multiplier_keeps_the_constraints_of_inactive_indices():
    # f([u, v], a) = f(z, a) = 0 for the inactive z and a; an active-only
    # walk would drop it and report (5,0)
    L = core.direct_sum(heisenberg_even(1, 0), abelian(1, 0))
    assert cohomology.multiplier(L).sdim_M.as_tuple() == (4, 0)


def _walked_by_equations(L):
    """The equations of L, and the triples ``_cocycle_equations`` walked."""
    walked = []

    def recorded(L, *args, **kwargs):
        for t in core._support_triples(L, *args, **kwargs):
            walked.append(t)
            yield t

    with mock.patch.object(cohomology, "_support_triples", recorded):
        equations = list(cohomology._cocycle_equations(L))
    return equations, walked


def test_cocycle_walk_visits_triples_with_an_inactive_index():
    L = core.direct_sum(heisenberg_even(1, 0), abelian(1, 0))  # u, v, z, a: [u, v] = z
    inactive = set(range(L.dim)) - _active(L)
    assert inactive == {2, 3}
    # L² = span{z} is central: (u, v, a) is not walked, but its unit row is kept
    equations, walked = _walked_by_equations(L)
    assert (0, 1, 3) not in walked
    assert {(2, 3): 1} in equations  # f([u, v], a) = f(z, a), from the triple (u, v, a)
    # class 3: every support triple is walked, those with an inactive index too
    M = core.direct_sum(model_l4(), abelian(1, 0))
    assert set(range(M.dim)) - _active(M) == {3, 4}  # t of L4, and a
    _, walked = _walked_by_equations(M)
    assert walked == list(core._support_triples(M))
    assert any(4 in t for t in walked)


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_omitted_triples_have_no_jacobi_term_and_no_equation(L):
    kept = set(core._support_triples(L))
    for i, j, k in itertools.combinations_with_replacement(range(L.dim), 3):
        if (i, j, k) not in kept:
            # both the Jacobi term and the cocycle equation sum over these
            assert L.basis_bracket(i, j) == L.basis_bracket(j, k) == L.basis_bracket(k, i) == {}
            assert _jacobi_term(L, i, j, k) == {}


def _of_parity(L, rows, parity):
    """The rows whose pairs all have parity π; every row must be homogeneous."""
    p = L.parities
    parities = [{(p[i] + p[j]) % 2 for i, j in row} for row in rows]
    assert all(len(ps) == 1 for ps in parities)
    return [row for row, ps in zip(rows, parities) if ps == {parity}]


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_cocycle_equations_and_basis_match_reference(L):
    """The equations, in ints, span the reference's parity by parity; the
    full walk they replace is D times the reference row, entry by entry."""
    equations = list(cohomology._cocycle_equations(L))
    assert all(type(x) is int for row in equations for x in row.values())
    full = list(reference.full_walk_cocycle_equations(L))
    basis = reference.system_cocycle_basis(L)
    D = math.lcm(*(c.denominator for _, vec in L.constants for _, c in vec))
    for parity in (0, 1):
        col = _cols(L, parity)
        rows = list(reference.cocycle_equations(L, parity, col))
        scaled = [{c: D * x for c, x in row.items()} for row in rows]
        assert _of_parity(L, full, parity) == _by_pair(L, parity, scaled)
        assert (Echelon(_of_parity(L, equations, parity)).rows()
                == Echelon(_by_pair(L, parity, rows)).rows())
        ref = Echelon(Echelon(rows).kernel_basis(range(len(col))))
        assert _of_parity(L, basis, parity) == _by_pair(L, parity, ref.rows())


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_multiplier_matches_per_parity_reference(L):
    res, ref = cohomology.multiplier(L), reference.multiplier(L)
    assert res.sdim_Z2 == ref.sdim_Z2
    assert res.sdim_B2 == ref.sdim_B2
    assert res.sdim_M == ref.sdim_M
    assert res.cocycle_basis == ref.cocycle_basis  # values and order
    # the canonical Z² and B² bases behind them, as cochains in pivot order
    cocycles = reference.system_cocycle_basis(L)
    coboundaries = Echelon(cohomology._coboundaries(L)).rows()
    for parity in (0, 1):
        assert ([cohomology._cochain(L, r) for r in _of_parity(L, cocycles, parity)]
                == reference.cocycle_space(L, parity))
        assert ([cohomology._cochain(L, r) for r in _of_parity(L, coboundaries, parity)]
                == reference.coboundary_space(L, parity))


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_multiplier_walks_the_support_triples_once(L):
    walks = []

    def counted(L, active=False):
        walks.append(L)
        return core._support_triples(L, active)

    with mock.patch.object(cohomology, "_support_triples", counted):
        cohomology.multiplier(L)
    # the system is solved on the conjugate adapted to L², when there is one
    assert walks == [cohomology._adapted(L) or L]


def _dependent(check, L, chosen):
    try:
        check(L, chosen)
    except DependentClasses:
        return True
    return False


def _independence_cases(L):
    """Chosen lists mixing both parities: the representatives, then the
    representatives with one dependent class appended or put first."""
    reps = list(cohomology.multiplier(L).cocycle_basis)
    cases = [reps, reps[::-1]]
    for f in reps:
        cases += [reps + [f.scale(-2)], [f.scale(3)] + reps]
    for parity in (0, 1):
        for b in reference.coboundary_space(L, parity)[:1]:
            cases += [reps + [b], [b] + reps[::-1]]
            cases += [reps[:1] + [b.plus(f)] + reps[1:] for f in reps if f.parity == parity][:1]
    return cases


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_central_extension_independence_matches_reference(L):
    for chosen in _independence_cases(L):
        expected = _dependent(reference.check_independent, L, chosen)
        assert _dependent(cohomology.central_extension, L, chosen) == expected


def test_mixed_parity_choice_with_a_dependent_class_raises():
    L = heisenberg_odd(2)
    reps = cohomology.multiplier(L).cocycle_basis
    even = [f for f in reps if f.parity == 0]
    odd = [f for f in reps if f.parity == 1]
    assert even and odd
    cohomology.central_extension(L, [odd[0], even[0]])  # independent
    for chosen in ([even[0], odd[0], odd[0].scale(2)], [odd[0], even[0], even[0].scale(-1)],
                   [even[0], odd[0], reference.coboundary_space(L, 1)[0]]):
        with pytest.raises(DependentClasses):
            cohomology.central_extension(L, chosen)


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_brackets_cochain_pairs_and_values_match_reference(L):
    pairs = list(itertools.product(range(L.dim), repeat=2))  # diagonal included
    for i, j in pairs:
        assert L.basis_bracket(i, j) == reference.basis_bracket(L, i, j)
    for parity in (0, 1):
        assert ([key for key in core._free_pairs(L.parities)
                 if cohomology._parity(L.parities, key) == parity]
                == reference.cochain_pairs(L, parity))
        for f in reference.cocycle_space(L, parity) + reference.coboundary_space(L, parity):
            for i, j in pairs:
                assert f(i, j) == reference.cochain_value(f, i, j)


@pytest.mark.parametrize("L", ALGEBRAS, ids=lambda L: f"{L.name}-{L.dim}")
def test_reversed_brackets_are_stored_not_copied(L):
    """The integer table is built once, and a reversed key with sign +1
    shares its row; with sign -1 it holds the negated row."""
    _, table = core._int_table(L)
    for (i, j), _ in L.constants:
        _, s = core._orient(L.parities, j, i)
        if s == 1:
            assert table[j, i] is table[i, j]
        else:
            assert table[j, i] == {k: -x for k, x in table[i, j].items()}
    assert core._int_table(L) is core._int_table(L)


def _perturb(rng, L, denominator=None, consts=None):
    """L's raw data, or ``consts`` if given, with one structure constant
    changed or one added, keeping the grading: the new coefficient is on a
    target of the bracket's parity, over ``denominator`` if given."""
    if consts is None:
        consts = {key: dict(vec) for key, vec in L.constants}
    p = L.parities
    pairs = [(i, j) for i in range(L.dim) for j in range(i, L.dim)
             if not (i == j and p[i] == 0)]
    if not pairs:
        return None
    i, j = rng.choice(list(consts) if consts and rng.random() < 0.5 else pairs)
    targets = [k for k in range(L.dim) if p[k] == (p[i] + p[j]) % 2]
    if not targets:
        return None
    k = rng.choice(targets)
    vec = consts.setdefault((i, j), {})
    q = rng.randint(1, 2) if denominator is None else denominator
    vec[k] = vec.get(k, 0) + F(rng.choice((-2, -1, 1, 2)), q)
    return consts


def _first_failure(check, L):
    try:
        check(L)
    except JacobiError as exc:
        return exc.i, exc.j, exc.k, exc.residual
    return None


def _fails_on_the_reference_triple(L, consts):
    """Whether the perturbed ``consts`` break Jacobi; the check and the
    reference agree on the triple, the residual and the message."""
    # build the perturbed value without the construction-time check
    with mock.patch.object(core.LieSuperalgebra, "_check_jacobi", lambda self: None):
        bad = core.validate(L.parities, consts)
    expected = _first_failure(reference.check_jacobi, bad)
    assert _first_failure(core.LieSuperalgebra._check_jacobi, bad) == expected
    if expected is not None:
        with pytest.raises(JacobiError) as exc:
            core.validate(L.parities, consts)
        assert (exc.value.i, exc.value.j, exc.value.k) == expected[:3]
        assert list(exc.value.residual.items()) == list(expected[3].items())
        assert str(exc.value) == str(JacobiError(*expected))
    return expected is not None


def test_perturbed_algebras_fail_on_the_reference_triple():
    rng = random.Random(7)
    failures = 0
    for L in ALGEBRAS:
        for _ in range(3):
            consts = _perturb(rng, L)
            if consts is None:
                continue
            failures += _fails_on_the_reference_triple(L, consts)
    assert failures > len(ALGEBRAS)  # most perturbations break Jacobi
    # three constants perturbed over the coprime denominators 3, 5 and 7,
    # so the integer table is scaled by a D of 105 or a multiple
    rng = random.Random(8)
    failures = scaled = 0
    for L in ALGEBRAS:
        consts = None
        for q in (3, 5, 7):
            consts = _perturb(rng, L, q, consts) or consts
        if consts is None:
            continue
        denominators = [F(c).denominator for vec in consts.values() for c in vec.values()]
        scaled += all(any(n % q == 0 for n in denominators) for q in (3, 5, 7))
        failures += _fails_on_the_reference_triple(L, consts)
    assert scaled > len(ALGEBRAS) // 2
    assert failures > len(ALGEBRAS) // 2
