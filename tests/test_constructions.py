import pytest

import reference_core as reference
from superlie import core
from superlie.cohomology import multiplier
from superlie.constructions import (
    abelian,
    builtin,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.core import center, derived_subalgebra
from superlie.errors import InvalidParams, UnknownName
from superlie.fileformat import emit
from superlie.superdim import SuperDim, ZERO, bound


def test_abelian():
    L = abelian(2, 3)
    assert L.sdim == SuperDim(2, 3)
    assert not L.constants
    assert L.labels == ("a1", "a2", "b1", "b2", "b3")
    assert abelian(0, 0).sdim == ZERO
    with pytest.raises(InvalidParams):
        abelian(-1, 0)


def test_heisenberg_even_structure():
    L = heisenberg_even(2, 1)
    assert L.sdim == SuperDim(5, 1)
    assert derived_subalgebra(L).sdim == SuperDim(1, 0)
    assert center(L) == derived_subalgebra(L)
    assert core.is_nilpotent(L) == (True, 2)
    with pytest.raises(InvalidParams):
        heisenberg_even(0, 0)


def test_heisenberg_odd_structure():
    L = heisenberg_odd(3)
    assert L.sdim == SuperDim(3, 4)
    assert derived_subalgebra(L).sdim == SuperDim(0, 1)
    assert center(L) == derived_subalgebra(L)
    assert core.is_nilpotent(L) == (True, 2)
    with pytest.raises(InvalidParams):
        heisenberg_odd(0)


def test_model_l4():
    L = model_l4()
    assert L.sdim == SuperDim(4, 0)
    assert core.is_nilpotent(L) == (True, 3)


def test_free_two_step_cover_properties():
    for m in range(4):
        for n in range(4 - m):
            pair = free_two_step_cover(m, n)
            H = pair.K
            assert pair.M.sdim == bound(SuperDim(m, n))
            assert pair.M == derived_subalgebra(H)
            if bound(SuperDim(m, n)) != ZERO:
                assert pair.M == center(H)
            else:
                assert derived_subalgebra(H).sdim == ZERO


def test_free_two_step_cover_small_cases():
    pair = free_two_step_cover(2, 0)
    assert pair.K.structure_equals(heisenberg_even(1, 0))
    pair = free_two_step_cover(1, 1)
    assert pair.K.sdim == SuperDim(2, 2)
    assert multiplier(pair.K).sdim_M.leq(bound(pair.K.sdim))


@pytest.mark.parametrize("m", range(7))
def test_free_two_step_cover_matches_reference(m):
    """The relabelled cover candidate of Ab(m,n) against the hand-built
    layout: same text, algebra, kernel and projection, entry types included."""
    for n in range(7):
        pair, ref = free_two_step_cover(m, n), reference.free_two_step_cover(m, n)
        assert emit(pair.K) == emit(ref.K)
        assert pair.K == ref.K
        assert pair.M == ref.M
        assert pair.projection.matrix == ref.projection.matrix
        assert ([[type(c) for c in row] for row in pair.projection.matrix]
                == [[type(c) for c in row] for row in ref.projection.matrix])
    with pytest.raises(InvalidParams):
        free_two_step_cover(m, -1)


def test_builtin_dispatch():
    assert builtin("Ab(2,1)").structure_equals(abelian(2, 1))
    assert builtin("H(1,0)").structure_equals(heisenberg_even(1, 0))
    assert builtin("H(2)").structure_equals(heisenberg_odd(2))
    assert builtin("L4").structure_equals(model_l4())
    assert builtin(" H( 1 , 1 ) ").structure_equals(heisenberg_even(1, 1))
    for bad in ("Ab", "Ab(1)", "H", "L4(1)", "X(1,1)", "H(1,2,3)"):
        with pytest.raises(UnknownName):
            builtin(bad)


def test_model_registry():
    models = model_registry()
    assert len(models) == 10
    for L in models:
        assert derived_subalgebra(L).sdim != ZERO
        nil, _ = core.is_nilpotent(L)
        assert nil
