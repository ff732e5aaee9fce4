import dataclasses
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

import reference_core as reference
from oracle import multiplier_oracle
from superlie import linalg
from superlie.cohomology import (
    Cochain2,
    _coboundaries,
    _parity,
    central_extension,
    cover_candidate,
    multiplier,
)
from superlie.constructions import (
    abelian,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
)
from superlie.core import (
    _free_pairs,
    center,
    change_basis,
    derived_subalgebra,
    direct_sum,
    quotient,
)
from superlie.errors import (
    DependentClasses,
    InvalidParams,
    SingularMatrix,
    StemConditionFailed,
)
from superlie.superdim import SuperDim, ZERO, bound

F = Fraction


def cochain_pairs(L, parity):
    """The free pairs of a parity-π cochain, as the library reads them."""
    return [key for key in _free_pairs(L.parities) if _parity(L.parities, key) == parity]


def test_cochain_pairs():
    L = heisenberg_even(1, 1)  # u, v, z | w
    assert cochain_pairs(L, 0) == [(0, 1), (0, 2), (1, 2), (3, 3)]
    assert cochain_pairs(L, 1) == [(0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("m, n", [(0, 1), (3, 2), (2, 3)])
def test_bound_counts_the_free_pairs(m, n):
    """|C²_π| = bound(sdim L)_π, the count ``multiplier_sdim`` starts from."""
    L = abelian(m, n)
    assert bound(L.sdim).as_tuple() == (len(cochain_pairs(L, 0)), len(cochain_pairs(L, 1)))


def test_cochain_evaluation_signs():
    L = heisenberg_even(1, 1)
    f = Cochain2(L, 0, (((0, 1), F(2)), ((3, 3), F(1))))
    assert f(0, 1) == F(2)
    assert f(1, 0) == F(-2)   # even pair: antisymmetric
    assert f(3, 3) == F(1)    # odd diagonal allowed
    assert f(0, 0) == F(0)
    g = Cochain2(L, 1, (((0, 3), F(1)),))
    assert g(3, 0) == F(-1)   # even-odd pair: still antisymmetric
    K = heisenberg_even(0, 2)  # two odd generators
    h = Cochain2(K, 0, (((1, 2), F(1)),))
    assert h(2, 1) == F(1)    # odd-odd pair: symmetric under the graded sign


def test_cochain_validation():
    L = heisenberg_even(1, 1)
    with pytest.raises(InvalidParams):
        Cochain2(L, 0, (((0, 3), F(1)),))  # wrong parity coordinate
    with pytest.raises(InvalidParams):
        Cochain2(L, 0, (((0, 1), F(0)),))  # unnormalized zero
    f = Cochain2(L, 0, (((0, 1), F(1)),))
    g = Cochain2(L, 1, (((0, 3), F(1)),))
    with pytest.raises(InvalidParams):
        f.plus(g)


@pytest.mark.parametrize("values", [
    (((0, 1), F(1)), ((0, 1), F(2))),  # a repeated coordinate
    (((0, 2), F(1)), ((0, 1), F(2))),  # coordinates out of free-pair order
], ids=["repeated", "unsorted"])
def test_cochain_rejects_unsorted_or_repeated_coordinates(values):
    with pytest.raises(InvalidParams):
        Cochain2(abelian(3, 0), 0, values)


COCHAIN_ALGEBRAS = [heisenberg_even(1, 1), heisenberg_odd(2), model_l4(), abelian(2, 2)]


@st.composite
def cochain_pair(draw):
    """Two cochains of one algebra and parity, with small rational values."""
    L = draw(st.sampled_from(COCHAIN_ALGEBRAS))
    parity = draw(st.integers(0, 1))
    pairs = cochain_pairs(L, parity)
    value = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))

    def cochain():
        vec = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
        return Cochain2(L, parity, tuple((p, c) for p, c in zip(pairs, vec) if c))
    return cochain(), cochain()


@given(cochain_pair())
def test_cochain_plus_matches_dense_reference(fg):
    f, g = fg
    assert f.plus(g) == reference.cochain_plus(f, g)
    zero = Cochain2(f.parent, f.parity, ())
    assert f.plus(f.scale(-1)) == reference.cochain_plus(f, f.scale(-1)) == zero


def test_cochain_arithmetic():
    L = heisenberg_even(1, 1)
    f = Cochain2(L, 0, (((0, 1), F(1)),))
    g = Cochain2(L, 0, (((0, 1), F(-1)), ((0, 2), F(2))))
    assert f.scale(3)(0, 1) == F(3)
    s = f.plus(g)
    assert s(0, 1) == F(0) and s(0, 2) == F(2)


@pytest.mark.parametrize("L", [heisenberg_even(1, 1), heisenberg_odd(2), model_l4()])
def test_coboundaries_are_cocycles(L):
    """The image of the differential lies in the kernel of the next one."""
    zspan = linalg.Echelon(reference.system_cocycle_basis(L))
    for b in _coboundaries(L):
        assert not zspan.reduce(b)


def test_coboundary_dimensions():
    assert multiplier(heisenberg_even(1, 0)).sdim_B2 == SuperDim(1, 0)
    assert multiplier(heisenberg_odd(1)).sdim_B2 == SuperDim(0, 1)
    assert multiplier(abelian(2, 2)).sdim_B2 == ZERO


FROZEN = [
    (abelian(1, 1), SuperDim(1, 1)),
    (abelian(2, 1), SuperDim(2, 2)),
    (heisenberg_even(1, 0), SuperDim(2, 0)),
    (heisenberg_even(0, 1), SuperDim(0, 0)),
    (heisenberg_even(1, 1), SuperDim(1, 2)),
    (heisenberg_even(2, 0), SuperDim(5, 0)),
    (heisenberg_odd(1), SuperDim(1, 1)),
    (heisenberg_odd(2), SuperDim(4, 3)),
    (model_l4(), SuperDim(2, 0)),
    (direct_sum(heisenberg_even(1, 0), abelian(0, 1)), SuperDim(3, 2)),
]


@pytest.mark.parametrize("L,expected", FROZEN, ids=[L.name for L, _ in FROZEN])
def test_multiplier_frozen_values(L, expected):
    res = multiplier(L)
    assert res.sdim_M == expected
    assert res.sdim_M == res.sdim_Z2 - res.sdim_B2
    assert len(res.cocycle_basis) == expected.total()
    parities = [f.parity for f in res.cocycle_basis]
    assert parities == sorted(parities)  # even representatives first


@pytest.mark.parametrize("L,expected", FROZEN[:6], ids=[L.name for L, _ in FROZEN[:6]])
def test_multiplier_against_independent_oracle(L, expected):
    assert multiplier_oracle(L) == expected.as_tuple()


@pytest.mark.parametrize("L,expected", [
    (heisenberg_even(12, 12), SuperDim(353, 288)),  # dim 37, Prop 4.4
    (heisenberg_odd(10), SuperDim(100, 99)),        # dim 21, Prop 4.5
], ids=["H(12,12)", "H(10)"])
def test_multiplier_at_larger_dimension(L, expected):
    res = multiplier(L)
    assert res.sdim_M == expected
    assert len(res.cocycle_basis) == expected.total()


def _random_base_change(rng, L):
    """A parity-preserving base change with non-unit denominators, so the
    conjugated algebra has dense cocycle rows."""
    d = L.dim
    while True:
        P = [[F(rng.randint(-2, 2), rng.randint(1, 3)) if L.parities[i] == L.parities[j]
              else F(0) for j in range(d)] for i in range(d)]
        try:
            return change_basis(L, P)
        except SingularMatrix:
            continue


@pytest.mark.parametrize("L", [heisenberg_even(2, 2), heisenberg_odd(3)], ids=["H(2,2)", "H(3)"])
def test_base_changed_multiplier_against_independent_oracle(L):
    conj = _random_base_change(random.Random(L.name), L)
    assert not conj.structure_equals(L)
    expected = multiplier_oracle(conj)
    assert multiplier(conj).sdim_M.as_tuple() == expected == multiplier(L).sdim_M.as_tuple()


def test_representatives_independent_mod_coboundaries():
    L = heisenberg_odd(2)
    res = multiplier(L)
    for parity in (0, 1):
        pairs = cochain_pairs(L, parity)
        brows = [reference.as_vector(b, pairs) for b in reference.coboundary_space(L, parity)]
        reps = [reference.as_vector(f, pairs) for f in res.cocycle_basis if f.parity == parity]
        assert linalg.rank(brows + reps) == len(brows) + len(reps)


def test_central_extension_of_abelian():
    L = abelian(1, 1)
    ext = central_extension(L, multiplier(L).cocycle_basis)
    K = ext.algebra
    assert K.sdim == SuperDim(2, 2)
    assert ext.stem_ok
    assert center(K).contains_subspace(ext.kernel)
    assert derived_subalgebra(K) == ext.kernel
    Q, _ = quotient(K, ext.kernel)
    assert Q.structure_equals(L)


def test_central_extension_empty_choice():
    L = heisenberg_even(1, 0)
    ext = central_extension(L, [])
    assert ext.algebra.structure_equals(L)
    assert ext.kernel.sdim == ZERO
    assert ext.stem_ok


def test_central_extension_rejects_dependent_classes():
    L = abelian(2, 0)
    rep = multiplier(L).cocycle_basis[0]
    with pytest.raises(DependentClasses):
        central_extension(L, [rep, rep.scale(2)])
    # a coboundary alone is dependent on the trivial class
    H = heisenberg_even(1, 0)
    cob = reference.coboundary_space(H, 0)[0]
    with pytest.raises(DependentClasses):
        central_extension(H, [cob])


def test_central_extension_rejects_foreign_cochain():
    rep = multiplier(abelian(2, 0)).cocycle_basis[0]
    with pytest.raises(InvalidParams):
        central_extension(abelian(3, 0), [rep])


def test_cover_candidate_h10():
    ext = cover_candidate(heisenberg_even(1, 0))
    assert ext.algebra.sdim == SuperDim(5, 0)
    assert ext.kernel.sdim == SuperDim(2, 0)
    assert ext.stem_ok
    pair = ext.as_defining_pair()
    Q, _ = quotient(pair.K, pair.M)
    assert Q.structure_equals(heisenberg_even(1, 0))


def test_cover_candidate_trivial_multiplier():
    ext = cover_candidate(heisenberg_even(0, 1))
    assert ext.algebra.structure_equals(heisenberg_even(0, 1))
    assert ext.kernel.sdim == ZERO


def test_failed_stem_condition_raises():
    ext = cover_candidate(heisenberg_even(1, 0))
    broken = dataclasses.replace(ext, stem_ok=False)
    with pytest.raises(StemConditionFailed):
        broken.as_defining_pair()


def test_multiplier_respects_global_bound():
    for L, _ in FROZEN:
        assert multiplier(L).sdim_M.leq(bound(L.sdim))
