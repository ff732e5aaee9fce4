import math
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

import reference_linalg as reference
from oracle import multiplier_oracle
from reference_core import cochain_pairs
from superlie import linalg
from superlie.cohomology import multiplier
from superlie.constructions import abelian, heisenberg_even, heisenberg_odd, model_l4
from superlie.core import change_basis
from superlie.errors import SingularMatrix

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
        assert reference.mat_vec(A, reference.mat_vec(Ainv, e)) == e
        assert reference.mat_vec(Ainv, reference.mat_vec(A, e)) == e


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
    """The column index that the integer tails T_p imply; every pivot has
    one tail and one denominator d_p."""
    assert ech._dens.keys() == ech._tails.keys()
    where = {}
    for p, tail in ech._tails.items():
        for c in tail:
            where.setdefault(c, set()).add(p)
    return where


def _stored_rows(ech):
    """The canonical rows e_p + T_p / d_p read off the integer storage,
    after checking that every row is primitive: integer T_p, d_p > 0 and
    gcd(T_p, d_p) = 1."""
    rows = []
    for p in sorted(ech._tails):
        tail, d = ech._tails[p], ech._dens[p]
        assert type(d) is int and d > 0
        assert all(type(x) is int and x for x in tail.values())
        assert math.gcd(d, *tail.values()) == 1
        rows.append({p: F(1), **{c: F(x, d) for c, x in sorted(tail.items())}})
    return rows


@given(matrices())
def test_echelon_column_index_tracks_the_tails(m):
    rows, ncols = m
    ech, expected = linalg.Echelon(), []
    for v in rows:
        ech.add(linalg.sparse(v))
        expected = reference.rref(expected + [v])  # the rref of every row so far
        assert ech._where == _rebuilt_index(ech)
        assert ech.dense(ncols) == expected


# -- the integer rows: one primitive integer tail and one denominator each ----

# denominators up to 10^9, pairwise coprime, so that a common denominator
# grows as large as it can; plain ints mixed in
_PRIMES = (2, 3, 7, 101, 65537, 999983, 999999937)
wide_entry = st.one_of(st.builds(Fraction, st.integers(-10**9, 10**9), st.sampled_from(_PRIMES)),
                       st.integers(-10**9, 10**9), entry)


@st.composite
def wide_matrices(draw):
    """Up to 6 x 6, each entry zero with probability about a half, so rows
    meet some pivots and miss others."""
    ncols = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0), wide_entry)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols).map(tuple), max_size=6))
    return rows, ncols


def _fractions_only(rows):
    return all(type(x) is Fraction for r in rows for x in r.values())


@given(st.one_of(matrices(), wide_matrices()), st.data())
def test_stored_rows_are_primitive_and_canonical(m, data):
    rows, ncols = m
    ech = linalg.Echelon()
    for k, v in enumerate(rows):
        got = ech.add(linalg.sparse(v))
        assert got is None or _fractions_only([got])
        expected = reference.rref(rows[:k + 1])
        assert _stored_rows(ech) == [linalg.sparse(r) for r in expected]
    assert ech._where == _rebuilt_index(ech)
    v = data.draw(st.lists(wide_entry, min_size=ncols, max_size=ncols).map(tuple))
    resid = ech.reduce(linalg.sparse(v))
    assert resid == linalg.sparse(reference.reduce_mod(v, reference.rref(rows)))
    assert ech.contains(linalg.sparse(v)) == (not resid)


@given(wide_matrices(), st.data())
def test_wide_denominators_match_reference(m, data):
    rows, ncols = m
    fractions = [tuple(F(x) for x in r) for r in rows]
    assert linalg.rref(rows) == reference.rref(fractions)
    assert linalg.nullspace(rows, ncols) == reference.nullspace(fractions, ncols)
    ech = linalg.Echelon(linalg.sparse(r) for r in rows)
    kernel = ech.kernel(range(ncols))  # from integer rows, with no Fraction in between
    assert kernel.rows() == linalg.Echelon(ech.kernel_basis(range(ncols))).rows()
    assert _stored_rows(kernel) == kernel.rows()
    v = data.draw(st.lists(wide_entry, min_size=ncols, max_size=ncols).map(tuple))
    assert (ech.reduce(linalg.sparse(v))
            == linalg.sparse(reference.reduce_mod(tuple(map(F, v)), reference.rref(fractions))))
    assert ech.insert(linalg.sparse(v)) == (len(reference.rref(fractions + [tuple(map(F, v))]))
                                            > len(reference.rref(fractions)))


@given(st.one_of(matrices(), wide_matrices()), st.data())
def test_every_returned_entry_is_a_fraction(m, data):
    """Entries leave the kernel as Fractions, whether the input held ints,
    Fractions or both, and whether or not a vector meets a pivot."""
    rows, ncols = m
    ech = linalg.Echelon()
    added = [ech.add({c: x for c, x in enumerate(r) if x}) for r in rows]
    v = data.draw(st.lists(wide_entry, min_size=ncols, max_size=ncols).map(tuple))
    assert _fractions_only([r for r in added if r is not None])
    assert _fractions_only([ech.reduce({c: x for c, x in enumerate(v) if x})])
    assert _fractions_only(ech.rows())
    assert _fractions_only(ech.kernel_basis(range(ncols)))
    assert all(type(x) is Fraction for r in ech.dense(ncols) for x in r)


def test_insert_and_contains_agree_with_add_and_reduce():
    ech = linalg.Echelon()
    assert ech.insert({0: 2, 1: F(1, 3)}) is True
    assert ech.insert({0: F(4), 1: F(2, 3)}) is False
    assert ech.contains({0: -6, 1: -1}) and not ech.contains({1: 1})
    assert ech.add({1: 5}) == {1: F(1)}
    assert ech.rows() == [{0: F(1)}, {1: F(1)}]
    assert ech._tails == {0: {}, 1: {}} and ech._dens == {0: 1, 1: 1}


@pytest.mark.parametrize("L", [model_l4(), heisenberg_even(1, 1), heisenberg_odd(2)],
                         ids=["L4", "H(1,1)", "H(2)"])
def test_multiplier_of_wide_denominator_conjugates_against_oracle(L):
    """Base changes whose entries have coprime denominators up to 10^9 give
    the cocycle system dense rows with large denominators."""
    rng = random.Random(L.name)
    d = L.dim
    while True:
        P = [[F(rng.randint(-5, 5), rng.choice(_PRIMES)) if L.parities[i] == L.parities[j]
              else F(0) for j in range(d)] for i in range(d)]
        try:
            conj = change_basis(L, P)
            break
        except SingularMatrix:
            continue
    assert max(c.denominator for _, vec in conj.constants for _, c in vec) > 10**9
    expected = multiplier_oracle(conj)
    assert multiplier(conj).sdim_M.as_tuple() == expected == multiplier(L).sdim_M.as_tuple()


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


@given(st.lists(st.integers(1, 60), max_size=12))
def test_running_lcm_matches_math_lcm(values):
    assert linalg._lcm(iter(values)) == math.lcm(1, *values)


# -- the last-pivot echelon ---------------------------------------------------

_PAIR_LABELS = [(i, j) for i in range(9) for j in range(i, 9)]  # 45 labels, sorted


def _random_system(rng, cols):
    """4-30 sparse integer rows over ``cols``, each with 1-4 entries in ±1..±3,
    about a fifth of them integer combinations of two earlier rows, so the
    rank often falls short of the row count."""
    rows = []
    for _ in range(rng.randint(4, 30)):
        if rows and rng.random() < 0.2:
            a, b, k = rng.choice(rows), rng.choice(rows), rng.choice((-2, -1, 1, 3))
            row = {c: a.get(c, 0) + k * b.get(c, 0) for c in sorted({*a, *b})}
            rows.append({c: x for c, x in row.items() if x})
        else:
            rows.append({c: rng.choice((-3, -2, -1, 1, 2, 3))
                         for c in sorted(rng.sample(cols, rng.randint(1, 4)))})
    return rows


@pytest.mark.parametrize("labels", ["int", "pair"])
@pytest.mark.parametrize("seed", range(40))
def test_last_pivot_kernel_basis_is_the_canonical_kernel(seed, labels):
    """A last-pivot echelon spans what the default one spans, its rows end at
    their pivots, and its kernel vectors are the canonical kernel basis that
    ``kernel`` re-echelonizes out of the default echelon's."""
    rng = random.Random(seed)
    ncols = rng.randint(6, 40)
    cols = list(range(ncols)) if labels == "int" else _PAIR_LABELS[:ncols]
    rows = _random_system(rng, cols)
    last, first = linalg.Echelon(rows, last=True), linalg.Echelon(rows)
    assert last.kernel_basis(cols) == first.kernel(cols).rows()
    assert [next(iter(v)) for v in last.kernel_basis(cols)] == first.kernel(cols).pivots()
    assert len(last) == len(first)
    assert all(first.contains(r) for r in last.rows()) and all(last.contains(r) for r in first.rows())
    assert last._where == _rebuilt_index(last)
    for p, r in zip(last.pivots(), last.rows()):
        tail, d = last._tails[p], last._dens[p]
        assert list(r) == sorted(r) and list(r)[-1] == p == max([p, *tail]) and r[p] == 1
        assert d > 0 and math.gcd(d, *tail.values()) == 1
        assert {c: F(x, d) for c, x in tail.items()} == {c: x for c, x in r.items() if c != p}
