"""Finite-dimensional Lie superalgebras over exact rationals.

An algebra is an ordered homogeneous basis (all even elements before all odd
ones) together with a table of structure constants for ordered index pairs
(i, j), i <= j.  ``_orient`` and ``_free_pairs`` are the one place that knows
this graded-alternating convention; brackets, cochains and the parser all use
them.  Every construction path runs the grading and graded-Jacobi checks, so
any in-memory algebra value satisfies the axioms.  The Jacobi check walks
basis triples only where L² is not visibly central, in L or in its conjugate
adapted to L² (``LieSuperalgebra._check_jacobi``).

All computations happen over the rationals.  Every quantity exposed here is a
rank of a rational matrix, and matrix rank does not change under field
extension, so the computed superdimensions are valid over any extension field
of characteristic zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (
    GradingError,
    InvalidParams,
    JacobiError,
    NonHomogeneous,
    NotAnIdeal,
    ParentMismatch,
    ParityMixing,
    SingularMatrix,
)
from .linalg import Vec
from .superdim import SuperDim, ZERO

# sparse coordinate vector: ((index, coefficient), ...) sorted by index
Coeffs = tuple[tuple[int, Fraction], ...]


def _sign(p: int, q: int) -> int:
    """(-1)^(pq), the sign of the cyclic Jacobi and cocycle terms."""
    return -1 if (p and q) else 1


def _orient(parities, i: int, j: int) -> tuple[tuple[int, int], int] | None:
    """((a, b), s) with a <= b and x(e_i, e_j) = s * x(e_a, e_b) for every
    graded alternating x (the bracket, a 2-cochain), as x(e_j, e_i) =
    -(-1)^(|i||j|) x(e_i, e_j).  None for i == j even, where x vanishes."""
    if i > j:
        return (j, i), (1 if parities[i] and parities[j] else -1)
    return None if i == j and not parities[i] else ((i, j), 1)


def _free_pairs(parities) -> list[tuple[int, int]]:
    """The keys ``_orient`` returns, sorted: a < b, or a == b for odd e_a."""
    d = len(parities)
    return [(i, j) for i in range(d) for j in range(i, d) if i < j or parities[i]]


def _int_table(L: LieSuperalgebra):
    """(D, D·``L._table``), D the lcm of the constants' denominators, read
    off ``L.constants``: one integer row per stored key (i, j), the same
    row under (j, i) when ``_orient`` gives sign +1 and its negation
    otherwise.  The rows are shared, so they are read-only."""
    p = L.parities
    D = linalg._lcm(c.denominator for _, vec in L.constants for _, c in vec)
    table = {}
    for (i, j), vec in L.constants:  # an odd [e_i, e_i] has s = 1, one key
        row = {k: c.numerator * (D // c.denominator) for k, c in vec}
        _, s = _orient(p, j, i)
        table[i, j], table[j, i] = row, row if s == 1 else {k: -x for k, x in row.items()}
    return D, table


def _active(L: LieSuperalgebra) -> frozenset[int]:
    """The active indices: those in some stored key, computed once per
    algebra.  Every other e_k brackets to zero with everything."""
    return _memo(L, "_active", lambda: frozenset(x for (a, b), _ in L.constants for x in (a, b)))


def _derived_central(L: LieSuperalgebra) -> bool:
    """Whether no index in the support of a stored bracket is active.  Then
    every bracket lies on basis vectors that bracket to zero with
    everything, so L² is central."""
    active = _active(L)
    return not any(k in active for _, vec in L.constants for k, _ in vec)


def _support_triples(L: LieSuperalgebra, active: bool = False):
    """Yield, in sorted order, the triples i <= j <= k for which (i, j),
    (j, k) or (i, k) is a stored constant key; with ``active``, only those
    whose three indices are all active (``_active``).

    Every other triple has the three inner brackets [e_i, e_j], [e_j, e_k]
    and [e_k, e_i] all zero, so its Jacobi term and its 2-cocycle equation
    are empty.  A stored pair (i, j) yields every k >= j at once; any other
    pair yields the stored neighbours k >= j of i and of j, merged.  So no
    triple comes twice, and the cost is O(d² + output).  An inactive index
    brackets to zero with everything, so the Jacobi check may skip it.  A
    triple with one inactive index k keeps one cocycle term,
    f([e_i, e_j], e_k) = 0, and the cocycle equations skip such triples only
    where L² is central and spanned by basis vectors, which makes those
    terms unit constraints (``cohomology._cocycle_equations``).
    """
    d = L.dim
    up: list[list[int]] = [[] for _ in range(d)]  # up[a]: every b with (a, b) stored
    for (a, b), _ in L.constants:  # strictly increasing keys
        up[a].append(b)
    idx = sorted(_active(L)) if active else range(d)
    for n, i in enumerate(idx):
        ui, t = up[i], 0
        for m, j in enumerate(idx[n:], n):
            while t < len(ui) and ui[t] < j:
                t += 1
            if t < len(ui) and ui[t] == j:
                ks = idx[m:]
            elif i == j or t == len(ui):
                ks = up[j]
            elif not up[j]:
                ks = ui[t:]
            else:
                ks = sorted({*ui[t:], *up[j]})
            for k in ks:
                yield i, j, k


@dataclass(frozen=True)
class LieSuperalgebra:
    parities: tuple[int, ...]
    constants: tuple[tuple[tuple[int, int], Coeffs], ...]
    name: str = "L"
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        d = len(self.parities)
        if any(p not in (0, 1) for p in self.parities):
            raise InvalidParams("parities must be 0 or 1")
        if list(self.parities) != sorted(self.parities):
            raise InvalidParams("basis must list all even elements before all odd ones")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"e{i + 1}" for i in range(d)))
        if len(self.labels) != d or len(set(self.labels)) != d:
            raise InvalidParams("labels must be distinct and match the basis size")
        self._check_storage()
        self._check_grading()
        self._check_jacobi()

    # -- construction-time checks -------------------------------------------

    def _check_storage(self):
        d = len(self.parities)
        keys = [key for key, _ in self.constants]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvalidParams("constant keys must be strictly increasing")
        for (i, j), vec in self.constants:
            if not (0 <= i <= j < d):
                raise InvalidParams(f"bad constant key ({i},{j})")
            if _orient(self.parities, i, j) is None:
                raise InvalidParams("[{0},{0}] must vanish for even {0}".format(self.labels[i]))
            if (not vec or any(c == 0 for _, c in vec)
                    or any(a >= b for (a, _), (b, _) in zip(vec, vec[1:]))):
                raise InvalidParams(f"constant vector for ({i},{j}) is not normalized")
            if any(not (0 <= k < d) for k, _ in vec):
                raise InvalidParams(f"constant vector for ({i},{j}) has an out-of-range index")

    def _check_grading(self):
        for (i, j), vec in self.constants:
            deg = (self.parities[i] + self.parities[j]) % 2
            for k, _ in vec:
                if self.parities[k] != deg:
                    raise GradingError(i, j, k, self.labels)

    def _check_jacobi(self):
        # (1) If ``_derived_central`` holds, L² is central, each
        # [[x, y], z] vanishes and the identity holds.  (2) If L² has a
        # non-unit canonical row, the identity, being trilinear, holds iff
        # it holds on the conjugate adapted to L² (``_adapted``, built once
        # from the columns of ``_adapted_columns`` and kept for the class,
        # the count and the cocycle system), whose L² has unit rows, so its
        # check ends in (1) or (3); on failure (3) still reports L's own
        # first failing triple.  (3) Walk the sorted triples i <= j <= k,
        # enough by graded skew-symmetry, of active indices only, as a
        # nonzero term needs all three.  The identity is homogeneous of
        # degree 2 in the constants, so it is summed in integers on the
        # table D·c of ``_int_table``, and a residual is scaled back by D².
        if _derived_central(self):
            return
        try:
            if _adapted(self) is not None:
                return
        except JacobiError:
            pass
        p = self.parities
        D, table = _int_table(self)
        for i, j, k in _support_triples(self, active=True):
            res: dict[int, int] = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                s = _sign(p[a], p[c])
                for m, cm in table.get((a, b), {}).items():
                    if outer := table.get((m, c)):  # often empty in class 2
                        scm = s * cm
                        for t, ct in outer.items():
                            res[t] = res[t] + scm * ct if t in res else scm * ct
            if any(res.values()):
                raise JacobiError(i, j, k, {t: Fraction(v, D * D) for t, v in res.items() if v})

    # -- basic structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def n_even(self) -> int:
        return self.parities.count(0)

    @property
    def n_odd(self) -> int:
        return self.parities.count(1)

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(self.n_even, self.n_odd)

    @cached_property
    def _table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """Every nonzero [e_i, e_j], stored under both (i, j) and (j, i)."""
        table = {}
        for (i, j), vec in self.constants:  # an odd [e_i, e_i] has s = 1, one key
            _, s = _orient(self.parities, j, i)
            table[i, j], table[j, i] = dict(vec), dict(vec) if s == 1 else {k: -c for k, c in vec}
        return table

    def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a shared (read-only) sparse dict, any index order.
        Public API by choice, with no library caller: the tests and their
        oracle (``tests/oracle.py``) read brackets through it."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise InvalidParams(f"basis indices {(i, j)} outside range({self.dim})")
        return self._table.get((i, j), {})

    def basis_vector(self, i: int) -> Vec:
        if not 0 <= i < self.dim:
            raise InvalidParams(f"basis index {i} outside range({self.dim})")
        return linalg.unit_vec(self.dim, i)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the basis bracket to coordinate vectors.
        Public API by choice, with no library caller: the tests bracket
        vectors through it."""
        return linalg._dense(_bracket(self, _row(self, x), _row(self, y)), self.dim)

    def vector_parity(self, v: Vec) -> int | None:
        """Parity of a homogeneous coordinate vector, None if mixed or zero."""
        seen = {self.parities[i] for i in _row(self, v)}
        return seen.pop() if len(seen) == 1 else None

    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == 0]

    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == 1]

    def structure_equals(self, other: "LieSuperalgebra") -> bool:
        """Same basis parities and identical structure constants.  Public
        API by choice, with no library caller: the tests compare tables with
        it, and it is the check of a classification witness P, that
        ``change_basis(L, P).structure_equals(model)``."""
        return self.parities == other.parities and self.constants == other.constants


def _row(L: LieSuperalgebra, v: Vec) -> linalg.Row:
    """The sparse row of a dense coordinate vector of L."""
    if len(v) != L.dim:
        raise InvalidParams(f"vector has {len(v)} coordinates, the algebra has dimension {L.dim}")
    return linalg.sparse(v)


def validate(parities, constants, name: str = "L", labels=None) -> LieSuperalgebra:
    """Normalize raw input data and build a checked algebra value.

    ``constants`` maps index pairs (i, j) with i <= j to either a sparse
    mapping {k: coefficient} or a dense coefficient sequence.  Coefficients
    may be ints, Fractions, or 'p/q' strings; each nonzero one is stored as
    one Fraction, built only when it is not one already.
    """
    parities = tuple(int(p) for p in parities)
    norm = []
    for (i, j), raw in sorted(dict(constants).items()):
        if i > j:
            raise InvalidParams(f"constants must be indexed with i <= j, got ({i},{j})")
        if isinstance(raw, dict):
            items = raw.items()
        else:
            items = enumerate(raw)
        vec = []
        for k, c in items:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                vec.append((int(k), c))
        if vec:
            norm.append(((i, j), tuple(sorted(vec))))
    return LieSuperalgebra(parities, tuple(norm), name=name,
                           labels=tuple(labels) if labels else ())


# -- subspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A homogeneous subspace, stored as the reduced echelon rows of each
    parity as sparse ``Coeffs``, pivot first; ``even_rows``, ``odd_rows`` and
    ``rows`` are dense views.  Canonical form makes equality syntactic.
    Membership reduces against a private echelon of the rows, built lazily."""

    parent: LieSuperalgebra
    even: tuple[Coeffs, ...]
    odd: tuple[Coeffs, ...]

    @classmethod
    def span(cls, parent: LieSuperalgebra, vectors) -> "Subspace":
        """Linear span of homogeneous coordinate vectors.

        A vector with both even and odd nonzero coordinates raises
        NonHomogeneous.  ``vectors`` may be any iterable; it is consumed once.
        """
        return cls._span_rows(parent, (_row(parent, v) for v in vectors))

    @classmethod
    def _span_rows(cls, parent: LieSuperalgebra, rows) -> "Subspace":
        """``span`` of sparse rows, in one echelon: the parities' columns are disjoint."""
        ne = parent.n_even
        ech = linalg.Echelon()
        for r in filter(None, rows):
            if (min(r) >= ne) != (max(r) >= ne):
                raise NonHomogeneous("span requires homogeneous vectors")
            ech.insert(r)
        return cls._canonical(parent, [tuple(r.items()) for r in ech.rows()])

    @classmethod
    def _canonical(cls, parent: LieSuperalgebra, rows: list[Coeffs]) -> "Subspace":
        """Split homogeneous canonical rows sorted by pivot: a row's parity is its pivot's."""
        ne = parent.n_even
        k = sum(1 for r in rows if r[0][0] < ne)
        return cls(parent, tuple(rows[:k]), tuple(rows[k:]))

    @classmethod
    def full(cls, parent: LieSuperalgebra) -> "Subspace":
        return cls._canonical(parent, [((i, Fraction(1)),) for i in range(parent.dim)])

    @classmethod
    def zero(cls, parent: LieSuperalgebra) -> "Subspace":
        return cls(parent, (), ())

    @cached_property
    def _echelon(self) -> linalg.Echelon:
        return linalg.Echelon(dict(r) for r in self.even + self.odd)

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(len(self.even), len(self.odd))

    @property
    def even_rows(self) -> tuple[Vec, ...]:
        return tuple(linalg._dense(dict(r), self.parent.dim) for r in self.even)

    @property
    def odd_rows(self) -> tuple[Vec, ...]:
        return tuple(linalg._dense(dict(r), self.parent.dim) for r in self.odd)

    @property
    def rows(self) -> tuple[Vec, ...]:
        return self.even_rows + self.odd_rows

    def contains(self, v: Vec) -> bool:
        return self._echelon.contains(_row(self.parent, v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_parent(other)
        return all(self._echelon.contains(dict(r)) for r in other.even + other.odd)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_parent(other)
        rows = self.even + self.odd + other.even + other.odd
        return Subspace._span_rows(self.parent, map(dict, rows))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Intersection, as the annihilator of the sum of the two
        annihilators.  Annihilators of homogeneous subspaces are homogeneous."""
        self._check_parent(other)
        cols = range(self.parent.dim)
        ann = linalg.Echelon(self._echelon.kernel_basis(cols) + other._echelon.kernel_basis(cols))
        return Subspace._span_rows(self.parent, ann.kernel_basis(cols))

    def _check_parent(self, other: "Subspace"):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatch("subspaces belong to different algebras")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map given by its matrix (rows index the target basis)."""

    matrix: tuple[Vec, ...]


@dataclass(frozen=True, eq=False)
class DefiningPair:
    """A central extension K of some algebra with kernel M inside Z(K) and K²."""

    K: LieSuperalgebra
    M: Subspace
    projection: LinearMap

    def __post_init__(self):
        if self.M.parent is not self.K and self.M.parent != self.K:
            raise ParentMismatch("kernel subspace does not belong to the extension")
        if not center(self.K).contains_subspace(self.M):
            raise InvalidParams("kernel is not central in the extension")
        if not derived_subalgebra(self.K).contains_subspace(self.M):
            raise InvalidParams("kernel is not contained in the derived subalgebra")


# -- structural calculus -----------------------------------------------------


def _bracket(L: LieSuperalgebra, x: linalg.Row, y: linalg.Row) -> linalg.Row:
    """[x, y] for sparse x and y, as a sparse row that may hold zeros."""
    out: linalg.Row = {}
    for i, a in x.items():
        for j, b in y.items():
            ab = a * b
            for k, c in L._table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + ab * c
    return out


def _act(terms) -> dict[int, linalg.Row]:
    """{t: [x, e_t]} for x = Σ c y over pairs (c, {t: [y, e_t]}) whose
    brackets are nonzero, with the zero brackets of x dropped: x is central
    exactly when it is empty.  One pair with c = 1 is returned as it is, so
    the result is read-only."""
    terms = list(terms)
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out: dict[int, linalg.Row] = {}
    for c, action in terms:
        for t, vec in action.items():
            linalg._axpy(out.setdefault(t, {}), c, vec)
    return {t: v for t, v in out.items() if v}


def _action(L: LieSuperalgebra, w: Coeffs) -> dict[int, linalg.Row]:
    """{t: [w, e_t]}, the nonzero brackets of w = Σ w_i e_i with the basis,
    read off the stored table grouped once per algebra as
    i -> {t: [e_i, e_t]}; the groups share the table's vectors, so they hold
    no reference to L.  A central w costs O(nnz(w))."""
    def group():
        ad: dict[int, dict[int, linalg.Row]] = {}
        for (i, t), vec in L._table.items():
            ad.setdefault(i, {})[t] = vec
        return ad
    ad = _memo(L, "_ad", group)
    return _act((c, ad[i]) for i, c in w if i in ad)


def bracket_subspaces(L: LieSuperalgebra, U: Subspace, W: Subspace) -> Subspace:
    """Span of all brackets [u, w] over spanning vectors of U and W.

    For homogeneous u and w, [u, w] = ±[w, u] = ±Σ_t u_t [w, e_t], so each
    canonical row w of W is read once as its action {t: [w, e_t]}
    (``_action``), and each row u of U spans Σ_t u_t [w, e_t]; a unit row
    e_t reads [w, e_t] itself.  No pair of basis vectors is multiplied."""
    for S in (U, W):
        if S.parent is not L and S.parent != L:
            raise ParentMismatch("subspace does not belong to the algebra")
    us = U.even + U.odd

    def brackets():
        for w in W.even + W.odd:
            act = _action(L, w)
            if not act:
                continue
            for u in us:
                if len(u) == 1:  # a canonical unit row is e_t, its entry 1
                    yield act.get(u[0][0])
                    continue
                v: linalg.Row = {}
                for t, c in u:
                    if t in act:
                        linalg._axpy(v, c, act[t])
                yield v
    return Subspace._span_rows(L, brackets())


def _memo(L: LieSuperalgebra, key: str, compute):
    """compute(), run at most once per algebra and kept in L's instance
    dict, as ``cached_property`` keeps ``_table``.

    Keep only values that do not refer back to L: row tuples, SuperDims,
    ints, frozen index sets, the invariant report, the grouping of L's own
    table vectors, the integer columns of the basis adapted to L² (or
    None), and algebras built from L's data such as the central quotient
    L/Z(L) and the conjugate adapted to L² (or None), which keep L's labels
    but no reference to L.  A Subspace points at L through
    ``parent``; caching one would make a reference cycle, so L and its cache
    would outlive their last reference until a full garbage collection.
    """
    cache = vars(L)
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _cached_subspace(L: LieSuperalgebra, key: str, compute) -> Subspace:
    """A fresh Subspace over the rows of compute(), computed once per algebra."""
    def rows():
        S = compute()
        return S.even, S.odd
    return Subspace(L, *_memo(L, key, rows))


def derived_subalgebra(L: LieSuperalgebra) -> Subspace:
    """[L, L], spanned by the stored brackets [e_i, e_j], i <= j."""
    return _cached_subspace(L, "_derived", lambda: Subspace._span_rows(
        L, (dict(vec) for _, vec in L.constants)))


def _ad_system(terms, modulo: linalg.Echelon) -> linalg.Echelon:
    """The echelon of the equations on x = Σ x_i b_i that put every [x, e_t]
    in the span of ``modulo``, from the terms (i, t, [b_i, e_t]): one per
    coordinate k of each residual.  For homogeneous brackets and ``modulo``
    the b_i in one have parity |e_k| + |e_t|, so each row, and each kernel
    vector, has the parity of its pivot."""
    eqs: dict[tuple[int, int], linalg.Row] = {}
    reduce = modulo.reduce if len(modulo) else None  # the center: nothing to reduce by
    for i, t, row in terms:
        for k, x in (reduce(row) if reduce else row).items():
            eqs.setdefault((t, k), {})[i] = x
    return linalg.Echelon(eqs.values())


def _ad_kernel(L: LieSuperalgebra, modulo: Subspace) -> Subspace:
    """{x : [x, e_t] in modulo for every basis vector e_t}, a homogeneous
    basis, for a homogeneous ``modulo``: the kernel of ``_ad_system`` on the
    stored table ``L._table``, which maps (i, t) to the nonzero [e_i, e_t]."""
    ech = _ad_system(((i, t, row) for (i, t), row in L._table.items()), modulo._echelon)
    kernel = ech.kernel_basis(range(L.dim))
    # The kernel basis is not canonical yet; its rref is.  This is the library's
    # one linalg.rref call, which bench/test_bench.py requires until the bench
    # traces Echelon itself (ROADMAP, "The benchmark sees today's kernel").
    rows = linalg.rref([linalg._dense(v, L.dim) for v in kernel])
    return Subspace._canonical(L, [tuple(linalg.sparse(r).items()) for r in rows])


def center(L: LieSuperalgebra) -> Subspace:
    return _cached_subspace(L, "_center", lambda: _ad_kernel(L, Subspace.zero(L)))


def second_center(L: LieSuperalgebra) -> Subspace:
    """Preimage in L of the center of L/Z(L): {x : [x, L] inside Z(L)}."""
    return _cached_subspace(L, "_second_center", lambda: _ad_kernel(L, center(L)))


def lower_central_series(L: LieSuperalgebra) -> list[Subspace]:
    """L ⊇ [L,L] ⊇ [L,[L,L]] ⊇ ... until stabilization.  The second term
    is the cached derived subalgebra."""
    series = [Subspace.full(L)]
    nxt = derived_subalgebra(L)
    while nxt != series[-1]:
        series.append(nxt)
        if nxt.sdim == ZERO:
            break
        nxt = bracket_subspaces(L, series[0], nxt)
    return series


def is_nilpotent(L: LieSuperalgebra) -> tuple[bool, int | None]:
    """(nilpotent?, class); class is the number of strict series steps.

    The class is an isomorphism invariant, so the series runs on the
    conjugate adapted to L² that ``_adapted`` keeps on L (a parse of a
    dense file has already built it), whose brackets are sparse where L's
    are dense; on L itself when L is already adapted."""
    def compute():
        series = lower_central_series(_adapted(L) or L)
        if series[-1].sdim != ZERO:
            return False, None
        return True, len(series) - 1
    return _memo(L, "_nilpotency", compute)


def quotient(L: LieSuperalgebra, I: Subspace) -> tuple[LieSuperalgebra, LinearMap]:
    """Algebra structure on L/I for an ideal I, plus the projection map.

    The coset basis extends I's echelon basis: it consists of the standard
    basis vectors at the non-pivot columns, which inherit the even-before-odd
    order from L.  e_k projects to its residual modulo I, zero at each pivot.
    """
    if not I.contains_subspace(bracket_subspaces(L, Subspace.full(L), I)):
        raise NotAnIdeal("subspace is not an ideal")
    ech = I._echelon
    comp = sorted(set(range(L.dim)) - set(ech.pivots()))  # the non-pivot columns
    coset = {c: a for a, c in enumerate(comp)}
    qparities = tuple(L.parities[c] for c in comp)
    coords = {k: {coset[c]: x for c, x in ech.reduce({k: 1}).items()} for k in range(L.dim)}
    proj_matrix = tuple(zip(*[linalg._dense(coords[k], len(comp)) for k in range(L.dim)]))
    consts = linalg._transport(*_int_table(L), _free_pairs(qparities),
                               [({c: 1}, 1) for c in comp], coords)
    Q = validate(qparities, consts, name=f"{L.name}/I", labels=tuple(L.labels[c] for c in comp))
    return Q, LinearMap(proj_matrix)


def direct_sum(A: LieSuperalgebra, B: LieSuperalgebra) -> LieSuperalgebra:
    """Concatenated basis (re-sorted even-before-odd), cross brackets zero.

    Both embeddings are increasing, so every stored pair (i, j), i <= j,
    stays in order."""
    amap = [i if p == 0 else B.n_even + i for i, p in enumerate(A.parities)]
    bmap = [A.n_even + j if p == 0 else A.dim + j for j, p in enumerate(B.parities)]
    parities = [0] * (A.n_even + B.n_even) + [1] * (A.n_odd + B.n_odd)
    consts = {}
    for src, idxmap in ((A, amap), (B, bmap)):
        for (i, j), vec in src.constants:
            consts[(idxmap[i], idxmap[j])] = {idxmap[k]: c for k, c in vec}
    used = set(A.labels)
    labels = [""] * len(parities)
    for i, ni in enumerate(amap):
        labels[ni] = A.labels[i]
    for j, nj in enumerate(bmap):
        lab = B.labels[j]
        while lab in used:
            lab += "'"
        used.add(lab)
        labels[nj] = lab
    return validate(parities, consts, name=f"{A.name}+{B.name}", labels=labels)


def change_basis(L: LieSuperalgebra, P) -> LieSuperalgebra:
    """Conjugate the structure constants by an invertible parity-preserving
    matrix whose columns are the new basis vectors in old coordinates."""
    P = [tuple(Fraction(x) for x in row) for row in P]
    d = L.dim
    if len(P) != d or any(len(r) != d for r in P):
        raise InvalidParams("base-change matrix has the wrong shape")
    q = linalg._lcm(x.denominator for row in P for x in row)
    cols: list[dict[int, int]] = [{} for _ in range(d)]  # the columns of qP
    aug = [{(1, i): 1} for i in range(d)]  # the rows of [P | I], I's columns labelled (1, k)
    for i, row in enumerate(P):
        for a, x in enumerate(row):
            if x:
                if L.parities[i] != L.parities[a]:
                    raise ParityMixing(f"entry ({i},{a}) mixes parities")
                aug[i][0, a] = x
                cols[a][i] = x.numerator * (q // x.denominator)
    # P is invertible exactly when canonical row i pivots at (0, i); the row is
    # then e_i followed by row i of P^-1
    rows = linalg.Echelon(aug).rows()
    if any(min(r) != (0, i) for i, r in enumerate(rows)):
        raise SingularMatrix("matrix is singular")
    inv_cols = {k: {i: r[1, k] for i, r in enumerate(rows) if (1, k) in r} for k in range(d)}
    consts = linalg._transport(*_int_table(L), _free_pairs(L.parities),
                               [(c, q) for c in cols], inv_cols)
    return validate(L.parities, consts, name=L.name, labels=L.labels)


def _adapted_columns(L: LieSuperalgebra) -> list[tuple[dict[int, int], int]] | None:
    """The basis adapted to L², as integer columns (R_i, d_i), b_i = R_i / d_i:
    r_p, L²'s canonical row at each pivot p, d_p its denominator; e_i
    elsewhere.  None when every canonical row is a unit vector, so that L is
    adapted; a table whose vectors each have one entry needs no echelon to
    tell.  Built once per algebra, the one source of A's basis."""
    def build():
        if all(len(vec) == 1 for _, vec in L.constants):
            return None
        L2 = derived_subalgebra(L)
        rows = L2.even + L2.odd
        if all(len(r) == 1 for r in rows):
            return None
        cols = [({i: 1}, 1) for i in range(L.dim)]
        for r in rows:
            d = linalg._lcm(c.denominator for _, c in r)
            cols[r[0][0]] = {k: c.numerator * (d // c.denominator) for k, c in r}, d
        return cols
    return _memo(L, "_adapted_columns", build)


def _adapted(L: LieSuperalgebra) -> LieSuperalgebra | None:
    """L's conjugate A in the basis of ``_adapted_columns``, or None when
    that is L's own; built at most once per algebra and kept on L.  Every
    bracket lies in L², whose rows are reduced, so its coordinate on r_p is
    its entry at p: ``linalg._transport`` reads the pivot entries alone, in
    integers, with no inverse to apply."""
    def build():
        cols = _adapted_columns(L)
        if cols is None:
            return None
        L2 = derived_subalgebra(L)
        coords = {r[0][0]: {r[0][0]: 1} for r in L2.even + L2.odd}
        consts = linalg._transport(*_int_table(L), _free_pairs(L.parities), cols, coords)
        return validate(L.parities, consts, name=L.name, labels=L.labels)
    return _memo(L, "_adapted", build)
