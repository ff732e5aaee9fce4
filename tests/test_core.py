from fractions import Fraction
import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from base_change import random_parity_preserving
from reference_linalg import mat_vec
from superlie import core
from superlie.cohomology import Cochain2, _adapted, cover_candidate
from superlie.constructions import (
    abelian,
    builtin,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
)
from superlie.core import (
    LieSuperalgebra,
    Subspace,
    bracket_subspaces,
    center,
    change_basis,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    lower_central_series,
    quotient,
    second_center,
    validate,
)
from superlie.errors import (
    GradingError,
    InvalidParams,
    JacobiError,
    NotAnIdeal,
    ParentMismatch,
    ParityMixing,
    SingularMatrix,
)
from superlie.invariants import lambda_mu
from superlie.superdim import SuperDim, ZERO

F = Fraction


def so3():
    """A simple (hence non-nilpotent) purely even algebra."""
    return validate([0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}},
                    name="so3")


# -- validation ---------------------------------------------------------------


def test_validate_accepts_models():
    for L in (abelian(2, 2), heisenberg_even(1, 1), heisenberg_odd(2), model_l4(), so3()):
        assert isinstance(L, LieSuperalgebra)


def test_validate_normalizes_coefficients():
    L = validate([0, 0, 0], {(0, 1): {2: "1/2"}})
    assert L.basis_bracket(0, 1) == {2: F(1, 2)}
    # dense sequences and zero entries are accepted and cleaned up
    L2 = validate([0, 0, 0], {(0, 1): [0, 0, F(1, 2)], (0, 2): {1: 0}})
    assert L.structure_equals(L2)


def _stores_fractions(L):
    """Every coefficient of ``L.constants`` and of the bracket table is a Fraction."""
    return (all(type(c) is Fraction for _, vec in L.constants for _, c in vec)
            and all(type(c) is Fraction for vec in L._table.values() for c in vec.values()))


@pytest.mark.parametrize("coef", [3, "3/2", F(3, 2), F(3)], ids=repr)
def test_validate_stores_one_fraction_per_constant(coef):
    # a mapping with a zero entry, a dense sequence and an odd square, all central
    L = validate([0, 0, 0, 1, 1], {(0, 1): {1: 0, 2: coef}, (3, 4): [0, 0, coef, 0, 0],
                                   (3, 3): {2: coef}})
    assert _stores_fractions(L)
    c = F(coef)
    assert L.basis_bracket(1, 0) == {2: -c}  # even: [e1, e0] = -[e0, e1]
    assert L.basis_bracket(4, 3) == L.basis_bracket(3, 4) == {2: c}  # odd: symmetric
    assert L.basis_bracket(3, 3) == {2: c}


def test_validate_rejects_bad_parities():
    with pytest.raises(InvalidParams):
        validate([0, 2], {})
    with pytest.raises(InvalidParams):
        validate([1, 0], {})  # odd before even


def test_validate_rejects_bad_storage():
    with pytest.raises(InvalidParams):
        validate([0, 0, 0], {(1, 0): {2: 1}})  # i > j
    with pytest.raises(InvalidParams, match=r"^\[e1,e1\] must vanish for even e1$"):
        validate([0, 0], {(0, 0): {1: 1}})  # even diagonal
    with pytest.raises(InvalidParams):
        validate([0, 0], {(0, 1): {5: 1}})  # out of range target


def test_validate_rejects_grading_violation():
    with pytest.raises(GradingError, match=r"^bracket \[e1,e2\] has a component on e3 of"):
        validate([0, 0, 1], {(0, 1): {2: 1}})
    with pytest.raises(GradingError):
        validate([0, 1, 1], {(1, 2): {2: 1}})


def test_validate_rejects_jacobi_violation():
    with pytest.raises(JacobiError) as exc:
        validate([0, 0, 0], {(0, 1): {0: 1}, (0, 2): {1: 1}})
    assert exc.value.residual


def test_odd_diagonal_jacobi():
    # [w,w] = u with [u,w] != 0 breaks the (w,w,w) triple
    with pytest.raises(JacobiError):
        validate([0, 1], {(1, 1): {0: 1}, (0, 1): {1: 1}})


def test_duplicate_key_rejected_on_raw_constructor():
    vec = ((2, F(1)),)
    with pytest.raises(InvalidParams):
        LieSuperalgebra((0, 0, 0), (((0, 1), vec), ((0, 1), vec)))


@pytest.mark.parametrize("constants", [
    # a repeated index: would store 2·e3 but emit "e3 + 2 e3", read back as 3·e3
    (((0, 1), ((2, F(1)), (2, F(2)))),),
    # L4's keys out of order: not structure_equals to validate's L4
    (((0, 2), ((3, F(1)),)), ((0, 1), ((2, F(1)),))),
    # an empty vector: would emit "[e1,e2] = ", which parse rejects
    (((0, 1), ()),),
    # an even diagonal with an empty vector
    (((0, 0), ()),),
], ids=["repeated-index", "unsorted-keys", "empty-vector", "empty-even-diagonal"])
def test_noncanonical_constants_rejected_on_raw_constructor(constants):
    with pytest.raises(InvalidParams):
        LieSuperalgebra((0, 0, 0, 0), constants)


def test_orient_covers_the_four_parity_cases():
    p = (0, 0, 1, 1)
    # even, even: antisymmetric, and an even diagonal is never free
    assert core._orient(p, 0, 1) == ((0, 1), 1)
    assert core._orient(p, 1, 0) == ((0, 1), -1)
    assert core._orient(p, 0, 0) is None
    # even, odd and odd, even: antisymmetric
    assert core._orient(p, 1, 2) == ((1, 2), 1)
    assert core._orient(p, 2, 1) == ((1, 2), -1)
    # odd, odd: symmetric, diagonal free
    assert core._orient(p, 2, 3) == ((2, 3), 1)
    assert core._orient(p, 3, 2) == ((2, 3), 1)
    assert core._orient(p, 3, 3) == ((3, 3), 1)
    keys = {o[0] for i in range(4) for j in range(4) if (o := core._orient(p, i, j))}
    assert core._free_pairs(p) == sorted(keys) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def test_labels_default_and_checked():
    L = validate([0, 1], {})
    assert L.labels == ("e1", "e2")
    with pytest.raises(InvalidParams):
        validate([0, 1], {}, labels=["x", "x"])


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(-3, 3).filter(lambda c: c != 0))
def test_corrupted_constants_rejected(i, j, k, c):
    """Adding one wrong-parity entry to H(1,1) must never validate."""
    base = {(0, 1): {2: 1}, (3, 3): {2: 1}}
    parities = [0, 0, 0, 1]
    i, j = min(i, j), max(i, j)
    if (parities[i] + parities[j]) % 2 == parities[k]:
        k = 2 if parities[k] == 1 else 3  # force the wrong parity
    vec = dict(base.get((i, j), {}))
    vec[k] = vec.get(k, 0) + c
    if vec[k] == 0:
        return
    base[(i, j)] = vec
    with pytest.raises((GradingError, InvalidParams)):
        validate(parities, base)


# -- brackets -----------------------------------------------------------------


def test_basis_bracket_skew():
    L = heisenberg_even(1, 1)
    assert L.basis_bracket(0, 1) == {2: F(1)}
    assert L.basis_bracket(1, 0) == {2: F(-1)}  # even pair: antisymmetric
    assert L.basis_bracket(3, 3) == {2: F(1)}   # odd diagonal survives
    assert L.basis_bracket(0, 0) == {}


def test_odd_pair_symmetry():
    L = heisenberg_odd(1)  # [u1, w1] = z with w1 odd, u1 even
    assert L.basis_bracket(0, 2) == {1: F(1)}
    assert L.basis_bracket(2, 0) == {1: F(-1)}
    # two odd arguments: [a,b] = +[b,a]
    K = heisenberg_even(0, 2)  # basis z | w1, w2 with [w_k, w_k] = z
    assert K.basis_bracket(1, 1) == {0: F(1)}
    K2 = validate(list(K.parities), {(1, 2): {0: 1}})
    assert K2.basis_bracket(2, 1) == {0: F(1)}


def test_bracket_bilinear():
    L = heisenberg_even(1, 0)
    x = (F(2), F(0), F(0))
    y = (F(0), F(3), F(0))
    assert L.bracket(x, y) == (F(0), F(0), F(6))
    assert L.bracket(y, x) == (F(0), F(0), F(-6))


def test_vector_parity():
    L = heisenberg_even(1, 1)
    assert L.vector_parity((F(1), F(1), F(0), F(0))) == 0
    assert L.vector_parity((F(0), F(0), F(0), F(2))) == 1
    assert L.vector_parity((F(1), F(0), F(0), F(1))) is None
    assert L.vector_parity((F(0),) * 4) is None


# dense vectors for H(1,0), whose dimension is 3: too long with a nonzero
# past the end, too short, too long with zeros past the end
WRONG_LENGTH = [(0, 0, 0, 1), (1, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize("v", WRONG_LENGTH)
def test_vector_parity_rejects_wrong_length(v):
    with pytest.raises(InvalidParams):
        heisenberg_even(1, 0).vector_parity(v)


@pytest.mark.parametrize("v", WRONG_LENGTH)
def test_bracket_rejects_wrong_length(v):
    L = heisenberg_even(1, 0)
    with pytest.raises(InvalidParams):
        L.bracket(v, L.basis_vector(0))
    with pytest.raises(InvalidParams):
        L.bracket(L.basis_vector(0), v)


@pytest.mark.parametrize("v", WRONG_LENGTH)
def test_span_and_contains_reject_wrong_length(v):
    L = heisenberg_even(1, 0)
    with pytest.raises(InvalidParams):
        Subspace.span(L, [v])
    with pytest.raises(InvalidParams):
        Subspace.full(L).contains(v)


@pytest.mark.parametrize("v", WRONG_LENGTH)
def test_lambda_mu_rejects_wrong_length(v):
    with pytest.raises(InvalidParams):
        lambda_mu(heisenberg_even(1, 0), v)


@pytest.mark.parametrize("call", [
    lambda L, f: L.basis_vector(-1),
    lambda L, f: L.basis_vector(L.dim),
    lambda L, f: L.basis_vector(7),
    lambda L, f: f(9, 0),
    lambda L, f: f(0, 9),
    lambda L, f: f(-1, 0),
    lambda L, f: f(0, L.dim),
], ids=["e(-1)", "e(dim)", "e(7)", "f(9,0)", "f(0,9)", "f(-1,0)", "f(0,dim)"])
def test_basis_index_outside_the_basis_is_rejected(call):
    L = heisenberg_even(1, 1)
    f = Cochain2(L, 0, (((0, 1), F(1)),))
    assert L.basis_vector(L.dim - 1)[-1] == 1 and f(1, 0) == -1 and f(0, L.dim - 1) == 0
    with pytest.raises(InvalidParams):
        call(L, f)


@pytest.mark.parametrize("i, j", [(0, 9), (9, 0), (0, -1), (-1, 3)])
def test_basis_bracket_rejects_an_index_outside_the_basis(i, j):
    L = heisenberg_even(1, 1)  # dim 4: [u1, v1] = z, [w1, w1] = z
    assert L.basis_bracket(1, 0) == {2: -1} and L.basis_bracket(3, 3) == {2: 1}
    with pytest.raises(InvalidParams):
        L.basis_bracket(i, j)


# -- subspaces ----------------------------------------------------------------


def test_subspace_span_and_sdim():
    L = heisenberg_even(1, 1)
    S = Subspace.span(L, [L.basis_vector(0), L.basis_vector(3)])
    assert S.sdim == SuperDim(1, 1)
    assert Subspace.full(L).sdim == L.sdim
    assert Subspace.zero(L).sdim == ZERO


def test_subspace_contains_and_ops():
    L = abelian(3, 0)
    U = Subspace.span(L, [L.basis_vector(0), L.basis_vector(1)])
    W = Subspace.span(L, [L.basis_vector(1), L.basis_vector(2)])
    assert U.contains(L.basis_vector(1))
    assert not U.contains(L.basis_vector(2))
    assert U.add(W) == Subspace.full(L)
    I = U.intersection(W)
    assert I.sdim == SuperDim(1, 0)
    assert I.contains(L.basis_vector(1))


def test_subspace_canonical_equality():
    L = abelian(2, 0)
    a = Subspace.span(L, [(F(1), F(1))])
    b = Subspace.span(L, [(F(2), F(2))])
    assert a == b


def test_subspace_parent_mismatch():
    A, B = abelian(2, 0), abelian(3, 0)
    with pytest.raises(ParentMismatch):
        Subspace.full(A).add(Subspace.full(B))


@pytest.mark.parametrize("op", [
    lambda U, W: U.contains_subspace(W),
    lambda U, W: U.add(W),
    lambda U, W: U.intersection(W),
    lambda U, W: bracket_subspaces(U.parent, U, W),
    lambda U, W: bracket_subspaces(U.parent, W, U),
    lambda U, W: quotient(U.parent, W),
], ids=["contains_subspace", "add", "intersection", "bracket_right", "bracket_left",
        "quotient"])
def test_binary_operations_reject_another_algebra_of_equal_dimension(op):
    H, A = heisenberg_even(1, 0), abelian(3, 0)
    assert H.dim == A.dim
    with pytest.raises(ParentMismatch):
        op(Subspace.full(H), Subspace.full(A))


# -- structural calculus ------------------------------------------------------


def test_derived_subalgebra_examples():
    assert derived_subalgebra(abelian(3, 2)).sdim == ZERO
    assert derived_subalgebra(heisenberg_even(2, 3)).sdim == SuperDim(1, 0)
    assert derived_subalgebra(heisenberg_odd(3)).sdim == SuperDim(0, 1)
    assert derived_subalgebra(model_l4()).sdim == SuperDim(2, 0)
    assert derived_subalgebra(so3()).sdim == SuperDim(3, 0)


def test_center_examples():
    assert center(abelian(2, 1)).sdim == SuperDim(2, 1)
    Z = center(heisenberg_even(1, 1))
    assert Z.sdim == SuperDim(1, 0)
    assert Z.contains((F(0), F(0), F(1), F(0)))
    assert center(heisenberg_odd(2)).sdim == SuperDim(0, 1)
    assert center(model_l4()).sdim == SuperDim(1, 0)
    assert center(so3()).sdim == ZERO


def test_second_center_examples():
    assert second_center(abelian(2, 2)) == Subspace.full(abelian(2, 2))
    assert second_center(heisenberg_even(1, 0)) == Subspace.full(heisenberg_even(1, 0))
    Z2 = second_center(model_l4())
    assert Z2.sdim == SuperDim(2, 0)
    assert Z2.contains((F(0), F(0), F(1), F(0)))  # z
    assert Z2.contains((F(0), F(0), F(0), F(1)))  # t
    assert second_center(so3()).sdim == ZERO


def test_lower_central_series_and_class():
    assert is_nilpotent(abelian(1, 1)) == (True, 1)
    assert is_nilpotent(heisenberg_even(2, 1)) == (True, 2)
    assert is_nilpotent(heisenberg_odd(2)) == (True, 2)
    assert is_nilpotent(model_l4()) == (True, 3)
    assert is_nilpotent(so3()) == (False, None)
    series = lower_central_series(model_l4())
    assert [s.sdim for s in series] == [SuperDim(4, 0), SuperDim(2, 0),
                                        SuperDim(1, 0), ZERO]


def _cover(L):
    return cover_candidate(L).algebra


@pytest.mark.parametrize("L,expected", [
    (heisenberg_even(2, 1), (True, 2)),
    (heisenberg_odd(2), (True, 2)),
    (_cover(builtin("H(2)")), (True, 2)),
    (model_l4(), (True, 3)),
    (_cover(_cover(builtin("H(2)"))), (True, 3)),
    (direct_sum(so3(), abelian(1, 0)), (False, None)),
], ids=lambda x: getattr(x, "name", None))
def test_class_read_on_the_adapted_conjugate(L, expected):
    # the class is an isomorphism invariant: is_nilpotent reads it on
    # cohomology._adapted(C), the conjugate adapted to C², which exists here
    C = change_basis(L, random_parity_preserving(random.Random(7), L))
    assert _adapted(C) is not None
    assert is_nilpotent(C) == is_nilpotent(L) == expected
    # the public series stays in C's own basis
    series = lower_central_series(C)
    assert all(S.parent is C for S in series)
    assert [S.sdim for S in series] == [S.sdim for S in lower_central_series(L)]


def test_so3_under_a_base_change_stays_non_nilpotent():
    L = so3()
    C = change_basis(L, random_parity_preserving(random.Random(7), L))
    assert _adapted(C) is None  # C² = C has unit canonical rows
    assert is_nilpotent(C) == (False, None)


# -- quotients ----------------------------------------------------------------


def test_quotient_central_heisenberg():
    L = heisenberg_even(1, 0)
    Q, proj = quotient(L, center(L))
    assert Q.sdim == SuperDim(2, 0)
    assert derived_subalgebra(Q).sdim == ZERO
    assert mat_vec(proj.matrix, L.basis_vector(2)) == (F(0), F(0))
    assert mat_vec(proj.matrix, L.basis_vector(0)) == (F(1), F(0))


def test_quotient_l4_by_top():
    L = model_l4()
    T = Subspace.span(L, [L.basis_vector(3)])
    Q, _ = quotient(L, T)
    assert Q.structure_equals(heisenberg_even(1, 0))


def test_quotient_dimension_law():
    for L in (heisenberg_even(1, 1), heisenberg_odd(2), model_l4()):
        I = center(L)
        Q, _ = quotient(L, I)
        assert Q.sdim == (L.sdim - I.sdim).to_superdim()


def test_quotient_by_full_and_zero():
    L = heisenberg_even(1, 0)
    Q, _ = quotient(L, Subspace.full(L))
    assert Q.sdim == ZERO
    Q2, _ = quotient(L, Subspace.zero(L))
    assert Q2.structure_equals(L)


def test_quotient_rejects_non_ideal():
    L = heisenberg_even(1, 0)
    with pytest.raises(NotAnIdeal):
        quotient(L, Subspace.span(L, [L.basis_vector(0)]))


# -- direct sums --------------------------------------------------------------


def test_direct_sum_dimensions():
    A, B = heisenberg_even(1, 0), abelian(1, 2)
    S = direct_sum(A, B)
    assert S.sdim == A.sdim + B.sdim
    assert derived_subalgebra(S).sdim == derived_subalgebra(A).sdim
    assert center(S).sdim == center(A).sdim + center(B).sdim


def test_direct_sum_even_before_odd():
    S = direct_sum(heisenberg_odd(1), heisenberg_even(0, 1))
    assert list(S.parities) == sorted(S.parities)
    assert is_nilpotent(S) == (True, 2)


def test_direct_sum_label_collision():
    S = direct_sum(heisenberg_even(1, 0), heisenberg_even(1, 0))
    assert len(set(S.labels)) == S.dim


# -- base change --------------------------------------------------------------


def test_change_basis_identity():
    L = heisenberg_even(1, 1)
    P = [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]
    assert change_basis(L, P).structure_equals(L)


def test_change_basis_scaling():
    L = heisenberg_even(1, 0)
    P = [[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]]
    M = change_basis(L, P)
    assert M.basis_bracket(0, 1) == {2: F(1)}  # [2u, v] = 2z = new z
    assert derived_subalgebra(M).sdim == SuperDim(1, 0)


def test_change_basis_rejects_parity_mixing():
    L = heisenberg_even(1, 1)
    P = [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]
    P[0][3] = F(1)
    with pytest.raises(ParityMixing):
        change_basis(L, P)


def test_change_basis_rejects_singular():
    L = abelian(2, 0)
    with pytest.raises(SingularMatrix):
        change_basis(L, [[F(1), F(1)], [F(1), F(1)]])


def _identity(d):
    return [[F(int(i == j)) for j in range(d)] for i in range(d)]


def _odd_block_dependency():
    """H(1,2) has odd w1, w2 at 3, 4; their new columns are w1 + 2 w2 and
    2 w1 + 4 w2, and the even block is the identity."""
    P = _identity(5)
    P[3][3], P[3][4], P[4][3], P[4][4] = F(1), F(2), F(2), F(4)
    return heisenberg_even(1, 2), P


def _zero_row():
    P = _identity(4)
    P[1] = [F(0)] * 4
    return heisenberg_even(1, 1), P


@pytest.mark.parametrize("case", [_odd_block_dependency, _zero_row],
                         ids=["odd-block dependency", "zero row"])
def test_change_basis_singular_message(case):
    L, P = case()
    with pytest.raises(SingularMatrix) as info:
        change_basis(L, P)
    assert str(info.value) == "matrix is singular"


def test_bracket_subspaces():
    L = heisenberg_odd(1)
    full = Subspace.full(L)
    W = Subspace.span(L, [L.basis_vector(2)])
    assert bracket_subspaces(L, full, W).sdim == SuperDim(0, 1)
    with pytest.raises(ParentMismatch):
        bracket_subspaces(L, full, Subspace.full(abelian(1, 0)))
