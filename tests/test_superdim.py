from hypothesis import given
from hypothesis import strategies as st
import pytest

from superlie.superdim import SignedPair, SuperDim, ZERO, bound, tensor

dims = st.builds(SuperDim, st.integers(0, 12), st.integers(0, 12))
pairs = st.builds(SignedPair, st.integers(-12, 12), st.integers(-12, 12))


def test_basic_values():
    a = SuperDim(3, 2)
    assert a.even == 3 and a.odd == 2
    assert a.total() == 5
    assert a.as_tuple() == (3, 2)
    assert ZERO == SuperDim(0, 0)


def test_superdim_rejects_negative():
    with pytest.raises(ValueError):
        SuperDim(-1, 0)
    with pytest.raises(ValueError):
        SuperDim(0, -2)


def test_subtraction_is_signed():
    d = SuperDim(1, 0) - SuperDim(0, 2)
    assert isinstance(d, SignedPair) and not isinstance(d, SuperDim)
    assert d == SignedPair(1, -2)
    assert not d.is_nonnegative
    with pytest.raises(ValueError):
        d.to_superdim()
    assert (SuperDim(3, 2) - SuperDim(1, 1)).to_superdim() == SuperDim(2, 1)


def test_value_equality_across_classes():
    assert SuperDim(1, 2) == SignedPair(1, 2)
    assert SignedPair(1, 2) == SuperDim(1, 2)
    assert hash(SuperDim(1, 2)) == hash(SignedPair(1, 2))
    assert SuperDim(1, 2) != SignedPair(2, 1)


def test_addition_preserves_superdim():
    s = SuperDim(1, 1) + SuperDim(2, 0)
    assert isinstance(s, SuperDim)
    assert s == SuperDim(3, 1)
    mixed = SuperDim(1, 1) + SignedPair(-1, 0)
    assert not isinstance(mixed, SuperDim)
    assert mixed == SignedPair(0, 1)


def test_partial_order_examples():
    assert SuperDim(1, 1).leq(SuperDim(2, 1))
    assert not SuperDim(2, 0).leq(SuperDim(1, 1))
    assert not SuperDim(1, 1).leq(SuperDim(2, 0))


def test_bound_examples():
    assert bound(SuperDim(0, 0)) == ZERO
    assert bound(SuperDim(1, 0)) == ZERO
    assert bound(SuperDim(0, 1)) == SuperDim(1, 0)
    assert bound(SuperDim(2, 0)) == SuperDim(1, 0)
    assert bound(SuperDim(2, 1)) == SuperDim(2, 2)
    assert bound(SuperDim(3, 1)) == SuperDim(4, 3)
    assert bound(SuperDim(4, 3)) == SuperDim(12, 12)


def test_tensor_examples():
    assert tensor(SuperDim(1, 0), SuperDim(0, 1)) == SuperDim(0, 1)
    assert tensor(SuperDim(0, 1), SuperDim(0, 1)) == SuperDim(1, 0)
    assert tensor(SuperDim(2, 1), SuperDim(1, 2)) == SuperDim(4, 5)


@given(pairs)
def test_leq_reflexive(a):
    assert a.leq(a)


@given(pairs, pairs)
def test_leq_antisymmetric(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b


@given(pairs, pairs, pairs)
def test_leq_transitive(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(pairs, pairs)
def test_total_additive(a, b):
    assert (a + b).total() == a.total() + b.total()


@given(dims, dims)
def test_bound_monotone(a, b):
    if a.leq(b):
        assert bound(a).leq(bound(b))


@given(dims, dims)
def test_tensor_symmetric(a, b):
    assert tensor(a, b) == tensor(b, a)
    assert tensor(a, b).total() == a.total() * b.total()
