from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

import reference_linalg as reference
from superlie import linalg
from superlie.cohomology import cochain_pairs
from superlie.constructions import abelian

F = Fraction

small_matrix = st.lists(
    st.lists(st.integers(-3, 3).map(Fraction), min_size=4, max_size=4),
    min_size=1, max_size=5,
).map(lambda rows: [tuple(r) for r in rows])


def test_rref_example():
    rows = [(F(2), F(4), F(0)), (F(1), F(2), F(1))]
    red = linalg.rref(rows)
    assert red == [(F(1), F(2), F(0)), (F(0), F(0), F(1))]
    assert reference.pivots(red) == [0, 2]
    assert linalg.rank(rows) == 2


def test_rref_drops_zero_rows():
    assert linalg.rref([(F(0), F(0))]) == []
    assert linalg.rref([]) == []


@given(small_matrix)
def test_rref_idempotent(rows):
    red = linalg.rref(rows)
    assert linalg.rref(red) == red


@given(small_matrix, st.randoms(use_true_random=False))
def test_rref_canonical_under_row_operations(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scaled = [reference.vec_scale(F(rng.choice([1, 2, 3, -1])), r) for r in shuffled]
    assert linalg.rref(scaled) == linalg.rref(rows)


@given(small_matrix)
def test_nullspace_annihilates(rows):
    ns = linalg.nullspace(rows, 4)
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(ns) == 4 - linalg.rank(rows)


def test_reduce_mod_and_in_span():
    basis = linalg.rref([(F(1), F(0), F(1)), (F(0), F(1), F(1))])
    ech = linalg.Echelon(linalg.sparse(r) for r in basis)
    assert not ech.reduce(linalg.sparse((F(2), F(3), F(5))))
    assert ech.reduce(linalg.sparse((F(0), F(0), F(1))))
    resid = linalg.reduce_mod((F(2), F(3), F(5)), basis)
    assert reference.is_zero(resid)


def test_invert_roundtrip():
    A = [(F(1), F(2)), (F(3), F(5))]
    Ainv = reference.invert(A)
    n = len(A)
    for i in range(n):
        e = linalg.unit_vec(n, i)
        assert linalg.mat_vec(A, linalg.mat_vec(Ainv, e)) == e
        assert linalg.mat_vec(Ainv, linalg.mat_vec(A, e)) == e


def test_invert_singular():
    with pytest.raises(ValueError):
        reference.invert([(F(1), F(2)), (F(2), F(4))])


def test_vector_helpers():
    a = (F(1), F(2))
    b = (F(3), F(-1))
    assert reference.vec_add(a, b) == (F(4), F(1))
    assert reference.vec_scale(F(1, 2), a) == (F(1, 2), F(1))
    assert linalg.unit_vec(3, 1) == (F(0), F(1), F(0))


# -- the sparse kernel against the seed's dense reference --------------------

# rationals with non-unit denominators, plus plain ints, which the kernel
# must also accept
entry = st.one_of(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                  st.integers(-3, 3))


@st.composite
def dense_matrices(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols).map(tuple),
                         max_size=7))
    return rows, ncols


@st.composite
def sparse_matrices(draw):
    """1-5% of the entries nonzero, so most rows are zero or have one entry."""
    nrows, ncols = draw(st.integers(8, 30)), draw(st.integers(16, 40))
    count = max(1, round(draw(st.floats(0.01, 0.05)) * nrows * ncols))
    mat = [[F(0)] * ncols for _ in range(nrows)]
    for _ in range(count):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        mat[i][j] = draw(entry.filter(bool))
    return [tuple(r) for r in mat], ncols


@st.composite
def matrices(draw):
    """Dense or sparse, with extra zero and duplicate rows mixed in; may be 0 x n."""
    rows, ncols = draw(st.one_of(dense_matrices(), sparse_matrices()))
    rows += [(F(0),) * ncols] * draw(st.integers(0, 2))
    if rows:
        rows += [rows[draw(st.integers(0, len(rows) - 1))]] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


@given(matrices())
def test_rref_matches_reference(m):
    rows, _ = m
    assert linalg.rref(rows) == reference.rref(rows)
    assert linalg.rank(rows) == len(reference.rref(rows))


@given(matrices())
def test_nullspace_matches_reference(m):
    rows, ncols = m
    assert linalg.nullspace(rows, ncols) == reference.nullspace(rows, ncols)


def test_zero_row_input():
    assert linalg.rref([]) == reference.rref([]) == []
    assert linalg.nullspace([], 3) == reference.nullspace([], 3)
    assert linalg.nullspace([], 3) == [linalg.unit_vec(3, i) for i in range(3)]


@given(matrices(), st.randoms(use_true_random=False))
def test_rref_independent_of_row_order(m, rng):
    rows, _ = m
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.rref(shuffled) == linalg.rref(rows)


@given(matrices())
def test_outputs_are_fractions(m):
    rows, ncols = m
    for r in linalg.rref(rows) + linalg.nullspace(rows, ncols):
        assert all(type(x) is Fraction for x in r)


@given(matrices())
def test_echelon_add_is_the_normalized_residual(m):
    rows, ncols = m
    ech = linalg.Echelon()
    for k, v in enumerate(rows):
        got = ech.add(linalg.sparse(v))
        resid = reference.reduce_mod(v, reference.rref(rows[:k]))
        if reference.is_zero(resid):
            assert got is None
        else:
            lead = next(x for x in resid if x != 0)
            expected = reference.vec_scale(F(1) / lead, resid)
            assert got == linalg.sparse(expected)
            assert all(type(x) is Fraction for x in got.values())
    assert ech.dense(ncols) == reference.rref(rows)
    assert len(ech) == len(ech.rows()) == len(reference.rref(rows))
    # a lead of 1 skips the rescale, but int entries still leave as Fractions
    assert all(type(x) is Fraction for r in ech.rows() for x in r.values())


@given(matrices(), st.data())
def test_reduce_matches_reference(m, data):
    rows, ncols = m
    basis = reference.rref(rows)
    v = data.draw(st.lists(entry, min_size=ncols, max_size=ncols).map(tuple))
    expected = reference.reduce_mod(v, basis)
    ech = linalg.Echelon(linalg.sparse(r) for r in rows)
    assert ech.reduce(linalg.sparse(v)) == linalg.sparse(expected)
    assert len(ech) == len(basis)  # reduce does not insert v
    assert linalg.reduce_mod(v, basis) == expected


def _rebuilt_index(ech):
    where = {}
    for p, tail in ech._tails.items():
        for c in tail:
            where.setdefault(c, set()).add(p)
    return where


@given(matrices())
def test_echelon_column_index_tracks_the_tails(m):
    rows, ncols = m
    ech, expected = linalg.Echelon(), []
    for v in rows:
        ech.add(linalg.sparse(v))
        expected = reference.rref(expected + [v])  # the rref of every row so far
        assert ech._where == _rebuilt_index(ech)
        assert ech.dense(ncols) == expected


@st.composite
def pair_labelled(draw):
    """Dense rows, a vector to reduce, and the cochain pairs of a random
    Ab(m, n) and parity, one pair per column."""
    pairs = cochain_pairs(abelian(draw(st.integers(0, 4)), draw(st.integers(0, 3))),
                          draw(st.integers(0, 1)))
    vector = st.lists(st.one_of(st.just(F(0)), entry), min_size=len(pairs),
                      max_size=len(pairs)).map(tuple)
    return draw(st.lists(vector, max_size=8)), draw(vector), pairs


@given(pair_labelled())
def test_echelon_on_pair_labels_matches_integer_labels(m):
    """Column labels only need an order: pairs (i, j) give the echelon that
    their positions in cochain_pairs order give, relabelled."""
    rows, v, pairs = m

    def by_pair(row):
        return {pairs[c]: x for c, x in row.items()}

    paired, positional = linalg.Echelon(), linalg.Echelon()
    for r in rows:
        got = paired.add(by_pair(linalg.sparse(r)))
        expected = positional.add(linalg.sparse(r))
        assert got == (None if expected is None else by_pair(expected))
    assert ([list(r.items()) for r in paired.rows()]
            == [list(by_pair(r).items()) for r in positional.rows()])
    assert paired.reduce(by_pair(linalg.sparse(v))) == by_pair(positional.reduce(linalg.sparse(v)))
    assert (paired.kernel_basis(pairs)
            == [by_pair(r) for r in positional.kernel_basis(range(len(pairs)))])
