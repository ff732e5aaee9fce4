"""The subspace calculus that ``superlie.core`` used before it ran on the
one ``Echelon`` kernel, the quotient-based ``lambda_mu`` of
``superlie.invariants`` and the ``_central_z2_samples`` of
``superlie.verification`` that tested membership in Z(L) against its
echelon (both before they read the brackets of Z₂'s rows with the basis),
the dense ``LieSuperalgebra.bracket`` and index-map ``direct_sum`` that
``superlie.core`` used before its one sparse bracket, and the graded-Jacobi check and 2-cocycle equations of
``superlie.core`` and ``superlie.cohomology`` that visited every sorted basis
triple, the dense ``Cochain2.plus`` of ``superlie.cohomology``, and the
per-call graded skew-symmetry of ``LieSuperalgebra.basis_bracket``,
``cochain_pairs`` and ``Cochain2.__call__`` (before the orientation rule moved
into ``core._orient``), and the dense-row ``quotient``, ``change_basis``,
two-echelon ``Subspace._span_rows`` and ``_ad_kernel`` parity split of
``superlie.core`` (before ``Subspace`` stored sparse canonical rows), kept
word for word as the test reference; so are the per-parity passes of
``superlie.cohomology`` (before both parities were solved in one system):
its ``_cocycle_equations``, ``_cocycle_basis``, ``_coboundaries``,
``_cochain`` and ``multiplier``, and the independence loop of
``central_extension``.

The bodies are unchanged (``bracket``, ``check_jacobi``, ``basis_bracket``
and ``cochain_plus`` are the former methods, with ``self`` now the first
argument, ``cochain_value`` is the former ``Cochain2.__call__``, and
``cochain_plus`` calls the former ``Cochain2.from_vector`` classmethod as
``cochain_from_vector`` and the former ``Cochain2.as_vector`` method as
``as_vector``; ``span_rows`` is the former classmethod
``_span_rows`` with ``cls`` its first argument, and ``span_rows`` and
``ad_kernel``, the former ``_ad_kernel``, build a ``DenseSubspace``, which
holds the former ``Subspace`` fields).  Their ``linalg`` is the library's
kernel with the dense vector helpers (``zero_vec``, ``vec_add``,
``vec_scale``, ``mat_vec``) and the elimination (``reduce_mod``,
``nullspace``, ``invert``) taken from the dense seed kernel in
``reference_linalg``.  ``second_center`` quotients with the ``quotient``
here and applies its projection as ``mat_vec(proj.matrix, v)``, what the
former ``LinearMap.__call__`` did.  Tests compare ``second_center``,
``Subspace.intersection``, ``derived_subalgebra``, ``lambda_mu``,
``central_z2_samples`` (the former ``_central_z2_samples``), ``bracket``,
``direct_sum``, ``check_jacobi``, ``cocycle_equations``, ``Cochain2.plus``,
``basis_bracket``, ``cochain_pairs``, ``Cochain2.__call__``, ``quotient``,
``change_basis``, ``Subspace.span`` and ``_ad_kernel`` against these, and
``multiplier``, its Z² and B² bases (``system_cocycle_basis`` below and
the echelon of ``_coboundaries``) and ``central_extension``'s check against
the per-parity passes, which are named without the leading underscore
(``cocycle_equations_of_parity`` is the former ``_cocycle_equations``,
``check_independent`` the loop, taking L and the chosen cochains, and
``cocycle_basis`` takes its columns from the ``cochain_pairs`` here).
``cocycle_space`` and ``coboundary_space`` read those bases per parity as
cochains, as the library's public helpers of those names did before they
were retired; ``cochain_pairs`` stands in for the retired library helper of
that name, and tests check it against ``core._free_pairs``.
``free_two_step_cover`` is the hand-built layout of ``superlie.constructions``
from before it became the relabelled cover candidate of Ab(m,n); its
``quotient`` is the one here.
``bracket_subspaces`` is the pairwise body of ``superlie.core`` from
before it read [L, X] off the stored bracket table: it brackets every pair
of spanning rows through ``sparse_bracket``, and the ``derived_subalgebra``
here goes through it.  ``central_derived_cap`` is ``check_bounds``'s former
sdim(L² ∩ Z), read off ``Subspace.intersection``, before it was counted
from one echelon of L² and Z.
``full_walk_cocycle_equations`` is ``cohomology._cocycle_equations`` from
before it skipped the triples with an inactive index where L² is central
and spanned by basis vectors: it yields one integer row per support triple,
repeated unit constraints included.
``own_cocycle_basis`` is the one-system ``cohomology._cocycle_basis`` from
before the system was solved on the conjugate adapted to L² and carried
back: it solves L's own cocycle equations (the full walk above) in L's
basis, and re-echelonizes the kernel vectors of that first-pivot echelon.
``system_cocycle_basis`` is ``cohomology._cocycle_basis`` from before it
was retired, when no library path called it any more: the canonical Z²
basis read off the last-pivot ``_cocycle_system``.
``central_support`` is ``cohomology._central_support`` from before it read
"L² is spanned by basis vectors" off ``core._adapted_columns``: it ranks
the stored brackets in an echelon of its own and compares the rank with
the size of their support.
``int_table`` is ``core._int_table`` from before it read the integer table
off ``L.constants``: it scales the Fraction table ``table``.
``table`` is the former cached property ``LieSuperalgebra._table``, the
Fraction bracket table, kept in L's instance dict under
``_reference_table`` as ``cached_property`` kept it, and
``sparse_bracket`` is the former ``core._bracket``, which read it; both
were retired when ``core._int_table`` became the algebra's one bracket
table.  ``even_rows`` and ``odd_rows`` are the former dense views
``Subspace.even_rows`` and ``Subspace.odd_rows``, retired with no library
caller.
``report``, ``check_bounds`` and ``central_quotient`` are the bodies of
``superlie.invariants`` from before they read sdim Z, sdim(L² ∩ Z) and
L/Z(L) off the conjugate adapted to L²: they solve the center on L's own
table.  ``report`` is the former ``_report``, without the memo of the
public ``report``, and ``central_quotient`` the former
``_central_quotient``, without its memo, which would share its cache key
with the library's.
``random_nilpotent`` is the corpus generator of ``superlie.corpus`` from
before each ``corpus`` call kept one instance per distinct algebra: it
solves ``multiplier`` on every algebra it builds, here the per-parity
``multiplier`` above, whose representatives equal the library's value for
value and in order.  Nothing outside the tests imports this module.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import reference_linalg
from superlie import core
from superlie import linalg as _linalg
from superlie.cohomology import Cochain2, MultiplierResult, _cocycle_system, central_extension
from superlie.constructions import abelian
from superlie.corpus import MAX_EVEN, MAX_ODD, _random_fraction
from superlie.core import (
    DefiningPair,
    LieSuperalgebra,
    LinearMap,
    Subspace,
    _derived_central,
    _free_pairs,
    _int_table,
    _orient,
    _sign,
    _support_triples,
    center,
    validate,
)
from superlie.errors import (
    DependentClasses,
    InvalidParams,
    JacobiError,
    NonHomogeneous,
    NotAnIdeal,
    NotInSecondCenterMinusCenter,
    ParentMismatch,
    ParityMixing,
    SingularMatrix,
)
from superlie.invariants import BoundReport, InvariantReport, _sdim_M
from superlie.linalg import Vec
from superlie.superdim import SuperDim, bound
from superlie.verification import _Z2_MIXES

linalg = SimpleNamespace(
    zero_vec=reference_linalg.zero_vec,
    vec_add=reference_linalg.vec_add,
    vec_scale=reference_linalg.vec_scale,
    reduce_mod=reference_linalg.reduce_mod,
    nullspace=reference_linalg.nullspace,
    Echelon=_linalg.Echelon,
    Row=_linalg.Row,
    rref=_linalg.rref,
    _dense=_linalg._dense,
    pivots=reference_linalg.pivots,
    invert=reference_linalg.invert,
    mat_vec=reference_linalg.mat_vec,
    _lcm=_linalg._lcm,
)


@dataclass(frozen=True)
class DenseSubspace:
    """The former ``Subspace`` fields: one dense reduced-echelon coordinate
    matrix per parity."""

    parent: LieSuperalgebra
    even_rows: tuple[Vec, ...]
    odd_rows: tuple[Vec, ...]


def table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Every nonzero [e_i, e_j], stored under both (i, j) and (j, i)."""
    cache = vars(self)
    if "_reference_table" not in cache:
        table = {}
        for (i, j), vec in self.constants:  # an odd [e_i, e_i] has s = 1, one key
            _, s = _orient(self.parities, j, i)
            table[i, j], table[j, i] = dict(vec), dict(vec) if s == 1 else {k: -c for k, c in vec}
        cache["_reference_table"] = table
    return cache["_reference_table"]


def sparse_bracket(L: LieSuperalgebra, x: _linalg.Row, y: _linalg.Row) -> _linalg.Row:
    """[x, y] for sparse x and y, as a sparse row that may hold zeros."""
    out: _linalg.Row = {}
    for i, a in x.items():
        for j, b in y.items():
            ab = a * b
            for k, c in table(L).get((i, j), {}).items():
                out[k] = out.get(k, 0) + ab * c
    return out


def even_rows(S: Subspace) -> tuple[Vec, ...]:
    return tuple(_linalg._dense(dict(r), S.parent.dim) for r in S.even)


def odd_rows(S: Subspace) -> tuple[Vec, ...]:
    return tuple(_linalg._dense(dict(r), S.parent.dim) for r in S.odd)


def intersection(self, other):
    """Intersection, computed per parity from the coefficient kernel."""
    self._check_parent(other)
    out = []
    for mine, theirs in ((even_rows(self), even_rows(other)), (odd_rows(self), odd_rows(other))):
        if not mine or not theirs:
            continue
        residuals = [linalg.reduce_mod(r, theirs) for r in mine]
        # coefficient vectors a with sum_r a_r * mine_r inside `theirs`
        eqs = [tuple(res[c] for res in residuals) for c in range(self.parent.dim)]
        for coeffs in linalg.nullspace(eqs, len(mine)):
            v = linalg.zero_vec(self.parent.dim)
            for a, row in zip(coeffs, mine):
                if a != 0:
                    v = linalg.vec_add(v, linalg.vec_scale(a, row))
            out.append(v)
    return Subspace.span(self.parent, out)


def bracket_subspaces(L: LieSuperalgebra, U: Subspace, W: Subspace) -> Subspace:
    """Span of all brackets [u, w] over spanning vectors of U and W."""
    for S in (U, W):
        if S.parent is not L and S.parent != L:
            raise ParentMismatch("subspace does not belong to the algebra")
    us, ws = [dict(u) for u in U.even + U.odd], [dict(w) for w in W.even + W.odd]
    return Subspace._span_rows(L, (sparse_bracket(L, u, w) for u in us for w in ws))


def central_derived_cap(L: LieSuperalgebra) -> SuperDim:
    """sdim(L² ∩ Z(L)), as ``check_bounds`` read it off the intersection."""
    return core.derived_subalgebra(L).intersection(core.center(L)).sdim


def derived_subalgebra(L):
    full = Subspace.full(L)
    return bracket_subspaces(L, full, full)


def second_center(L):
    """Preimage in L of the center of L/Z(L)."""
    Z = center(L)
    if Z.sdim == L.sdim:
        return Subspace.full(L)
    Q, proj = quotient(L, Z)
    ZQ = center(Q)
    rows = []
    for par in (0, 1):
        cols = [i for i in range(L.dim) if L.parities[i] == par]
        if not cols:
            continue
        target_rows = even_rows(ZQ) if par == 0 else odd_rows(ZQ)
        residuals = [linalg.reduce_mod(linalg.mat_vec(proj.matrix, L.basis_vector(i)), target_rows)
                     for i in cols]
        eqs = [tuple(res[k] for res in residuals) for k in range(Q.dim)]
        for coeffs in linalg.nullspace(eqs, len(cols)):
            v = [Fraction(0)] * L.dim
            for c, i in enumerate(cols):
                v[i] = coeffs[c]
            rows.append(tuple(v))
    return Subspace.span(L, rows)


def lambda_mu(L: LieSuperalgebra, z) -> tuple[SuperDim, SuperDim]:
    """For homogeneous z in Z₂(L) \\ Z(L): the superdimensions of [L, z] and
    of the central quotient of L/[L, z]."""
    z = tuple(Fraction(c) for c in z)
    if L.vector_parity(z) is None:
        raise NonHomogeneous("lambda/mu require a nonzero homogeneous element")
    Z = core.center(L)
    Z2 = core.second_center(L)
    if Z.contains(z) or not Z2.contains(z):
        raise NotInSecondCenterMinusCenter(
            "element must lie in the second center but not the center")
    Lz = Subspace.span(L, [L.bracket(L.basis_vector(i), z) for i in range(L.dim)])
    lam = Lz.sdim
    Q, _ = core.quotient(L, Lz)
    mu = (Q.sdim - core.center(Q).sdim).to_superdim()
    return lam, mu


def central_z2_samples(L, rng):
    """Homogeneous representatives of Z₂(L) outside Z(L)."""
    Z = core.center(L)
    Z2 = core.second_center(L)
    out = []
    for rows in (even_rows(Z2), odd_rows(Z2)):
        rows = [r for r in rows if not Z.contains(r)]
        out.extend(rows)
        for _ in range(_Z2_MIXES):
            if len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                c = Fraction(rng.randint(1, 3))
                v = tuple(x + c * y for x, y in zip(a, b))
                if not Z.contains(v):
                    out.append(v)
    return out


def bracket(self, x, y):
    """Bilinear extension of the basis bracket to coordinate vectors."""
    out = [Fraction(0)] * self.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in self.basis_bracket(i, j).items():
                out[k] += xi * yj * c
    return tuple(out)


def direct_sum(A: LieSuperalgebra, B: LieSuperalgebra) -> LieSuperalgebra:
    """Concatenated basis (re-sorted even-before-odd), cross brackets zero."""
    amap = {}
    bmap = {}
    pos = 0
    for i in A.even_indices():
        amap[i] = pos
        pos += 1
    for i in B.even_indices():
        bmap[i] = pos
        pos += 1
    for i in A.odd_indices():
        amap[i] = pos
        pos += 1
    for i in B.odd_indices():
        bmap[i] = pos
        pos += 1
    parities = [0] * (A.n_even + B.n_even) + [1] * (A.n_odd + B.n_odd)
    consts = {}
    for src, idxmap in ((A, amap), (B, bmap)):
        for (i, j), vec in src.constants:
            ni, nj = idxmap[i], idxmap[j]
            if ni > nj:
                s = -_sign(src.parities[i], src.parities[j])
                ni, nj = nj, ni
                vec = tuple((k, s * c) for k, c in vec)
            consts[(ni, nj)] = {idxmap[k]: c for k, c in vec}
    used = set(A.labels)
    blabels = []
    for lab in B.labels:
        while lab in used:
            lab += "'"
        used.add(lab)
        blabels.append(lab)
    labels = [""] * len(parities)
    for i, ni in amap.items():
        labels[ni] = A.labels[i]
    for i, ni in bmap.items():
        labels[ni] = blabels[i]
    return validate(parities, consts, name=f"{A.name}+{B.name}", labels=labels)


def check_jacobi(self):
    # Graded skew-symmetry makes the cyclic Jacobi expression symmetric
    # enough that sorted triples i <= j <= k cover all cases.
    p = self.parities
    for i, j, k in itertools.combinations_with_replacement(range(self.dim), 3):
        res: dict[int, Fraction] = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            s = _sign(p[a], p[c])
            inner = self.basis_bracket(a, b)
            for m, cm in inner.items():
                outer = self.basis_bracket(m, c)
                for t, ct in outer.items():
                    res[t] = res.get(t, Fraction(0)) + s * cm * ct
        res = {t: v for t, v in res.items() if v != 0}
        if res:
            raise JacobiError(i, j, k, res)


def cocycle_equations(L: LieSuperalgebra, parity: int, col):
    """Yield one sparse linear constraint per basis triple with total degree
    π, over the free coordinates numbered by ``col``."""
    p = L.parities
    for i, j, k in itertools.combinations_with_replacement(range(L.dim), 3):
        if (p[i] + p[j] + p[k]) % 2 != parity:
            continue
        row: _linalg.Row = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            s = _sign(p[a], p[c])
            for m, cm in L.basis_bracket(a, b).items():
                # f(e_m, e_c) in terms of the free coordinates
                if m == c and p[m] == 0:
                    continue
                if m <= c:
                    key, val = col[(m, c)], s * cm
                else:
                    key, val = col[(c, m)], -_sign(p[m], p[c]) * s * cm
                row[key] = row.get(key, 0) + val
        if row:
            yield row


def cochain_from_vector(L: LieSuperalgebra, parity: int, vec) -> Cochain2:
    pairs = cochain_pairs(L, parity)
    vals = tuple((p, c) for p, c in zip(pairs, vec) if c != 0)
    return Cochain2(L, parity, vals)


def cochain_plus(self, other):
    if other.parent != self.parent or other.parity != self.parity:
        raise InvalidParams("can only add cochains of equal parent and parity")
    pairs = cochain_pairs(self.parent, self.parity)
    vec = linalg.vec_add(as_vector(self, pairs), as_vector(other, pairs))
    return cochain_from_vector(self.parent, self.parity, vec)


def as_vector(self, pairs=None) -> Vec:
    if pairs is None:
        pairs = cochain_pairs(self.parent, self.parity)
    table = dict(self.values)
    return tuple(table.get(p, Fraction(0)) for p in pairs)


def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
    """[e_i, e_j] as a sparse coordinate dict, any index order."""
    if i == j and self.parities[i] == 0:
        return {}
    if i <= j:
        return table(self).get((i, j), {})
    stored = table(self).get((j, i), {})
    s = -_sign(self.parities[i], self.parities[j])
    return {k: s * c for k, c in stored.items()}


def cochain_pairs(L: LieSuperalgebra, parity: int) -> list[tuple[int, int]]:
    """Free coordinates of a parity-π 2-cochain: ordered pairs (i, j) with
    i <= j, diagonal only for odd e_i, and |e_i| + |e_j| = π."""
    out = []
    for i in range(L.dim):
        for j in range(i, L.dim):
            if i == j and L.parities[i] == 0:
                continue
            if (L.parities[i] + L.parities[j]) % 2 == parity:
                out.append((i, j))
    return out


def cochain_value(self, i: int, j: int) -> Fraction:
    """f(e_i, e_j) for any index order, via graded alternation."""
    table = dict(self.values)
    if i == j and self.parent.parities[i] == 0:
        return Fraction(0)
    if i <= j:
        return table.get((i, j), Fraction(0))
    s = -_sign(self.parent.parities[i], self.parent.parities[j])
    return s * table.get((j, i), Fraction(0))


def span_rows(cls, parent: LieSuperalgebra, rows) -> "DenseSubspace":
    """``span`` of sparse rows."""
    ne = parent.n_even
    ech = (linalg.Echelon(), linalg.Echelon())
    for r in rows:
        if r:
            odd = min(r) >= ne
            if odd != (max(r) >= ne):
                raise NonHomogeneous("span requires homogeneous vectors")
            ech[odd].add(r)
    return cls(parent, tuple(ech[0].dense(parent.dim)), tuple(ech[1].dense(parent.dim)))


def ad_kernel(L: LieSuperalgebra, targets: list[linalg.Row], modulo: Subspace) -> "DenseSubspace":
    """{x : [x, t] in modulo for every t in targets}, for homogeneous
    targets and a homogeneous ``modulo``.

    The residual of [x, t] modulo ``modulo`` is linear in x, so each
    (target, coordinate k) of it is one sparse equation over x's coordinates
    on L's basis.  [e_i, t] has parity |e_i| + |t|, and reducing it modulo a
    homogeneous subspace keeps that parity, so the e_i in one equation all
    have parity |e_k| + |t|.  Each echelon row, and so each kernel vector,
    then has coordinates of one parity only: the kernel basis is
    homogeneous.
    """
    ech = modulo._echelon
    eqs: dict[tuple[int, int], linalg.Row] = {}
    for i in range(L.dim):
        for t_idx, t in enumerate(targets):
            for k, x in ech.reduce(sparse_bracket(L, {i: 1}, t)).items():
                eqs.setdefault((t_idx, k), {})[i] = x
    kernel = linalg.Echelon(eqs.values()).kernel_basis(range(L.dim))
    # The kernel basis is not canonical yet; its rref is, with the even rows
    # first.  Echelon(kernel).dense would do, but this stays the library's one
    # linalg.rref call: bench/test_bench.py requires a traced rref call, until
    # the benchmark traces Echelon itself (ROADMAP, "The benchmark sees
    # today's kernel").
    rows = linalg.rref([linalg._dense(v, L.dim) for v in kernel])
    even = tuple(r for r in rows if any(r[:L.n_even]))
    return DenseSubspace(L, even, tuple(rows[len(even):]))


def quotient(L: LieSuperalgebra, I: Subspace) -> tuple[LieSuperalgebra, LinearMap]:
    """Algebra structure on L/I for an ideal I, plus the projection map.

    The coset basis extends I's echelon basis: it consists of the standard
    basis vectors at the non-pivot columns, which inherit the even-before-odd
    order from L.
    """
    if I.parent is not L and I.parent != L:
        raise ParentMismatch("subspace does not belong to the algebra")
    ech = I._echelon
    for r in ech.rows():
        for j in range(L.dim):
            if ech.reduce(sparse_bracket(L, {j: 1}, r)):
                raise NotAnIdeal("subspace is not an ideal")
    piv = set(linalg.pivots(I.rows))
    comp = [c for c in range(L.dim) if c not in piv]
    qparities = tuple(L.parities[c] for c in comp)

    def project(v: linalg.Row) -> Vec:
        w = ech.reduce(v)
        return tuple(w.get(c, Fraction(0)) for c in comp)

    proj_matrix = tuple(zip(*[project({i: Fraction(1)}) for i in range(L.dim)]))
    consts = {}
    for a, b in _free_pairs(qparities):
        w = project(L.basis_bracket(comp[a], comp[b]))
        if any(w):
            consts[(a, b)] = {k: c for k, c in enumerate(w)}
    qlabels = tuple(L.labels[c] for c in comp)
    Q = validate(qparities, consts, name=f"{L.name}/I", labels=qlabels)
    return Q, LinearMap(proj_matrix)


def change_basis(L: LieSuperalgebra, P) -> LieSuperalgebra:
    """Conjugate the structure constants by an invertible parity-preserving
    matrix whose columns are the new basis vectors in old coordinates."""
    P = [tuple(Fraction(x) for x in row) for row in P]
    d = L.dim
    if len(P) != d or any(len(r) != d for r in P):
        raise InvalidParams("base-change matrix has the wrong shape")
    for i in range(d):
        for a in range(d):
            if P[i][a] != 0 and L.parities[i] != L.parities[a]:
                raise ParityMixing(f"entry ({i},{a}) mixes parities")
    try:
        Pinv = linalg.invert(P)
    except ValueError as exc:
        raise SingularMatrix(str(exc)) from exc
    cols = [tuple(P[i][a] for i in range(d)) for a in range(d)]
    consts = {}
    for a, b in _free_pairs(L.parities):
        u = linalg.mat_vec(Pinv, L.bracket(cols[a], cols[b]))
        if any(u):
            consts[(a, b)] = {k: c for k, c in enumerate(u)}
    return validate(L.parities, consts, name=L.name, labels=L.labels)


def cochain(L: LieSuperalgebra, parity: int, row: linalg.Row) -> Cochain2:
    """The cochain whose free coordinates are a sparse row over the pairs."""
    return Cochain2(L, parity, tuple(sorted(row.items())))


def cocycle_equations_of_parity(L: LieSuperalgebra, parity: int):
    """Yield one sparse linear constraint per basis triple with total degree
    π, over the free coordinates (i, j).  Triples outside
    ``_support_triples`` have no nonzero inner bracket, so they give no
    constraint and are not visited."""
    p = L.parities
    for i, j, k in _support_triples(L):
        if (p[i] + p[j] + p[k]) % 2 != parity:
            continue
        row: linalg.Row = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            s = _sign(p[a], p[c])
            for m, cm in L.basis_bracket(a, b).items():
                # f(e_m, e_c) in terms of the free coordinates (0 for an even m == c)
                key, t = _orient(p, m, c) or (None, 0)
                if t:
                    row[key] = row.get(key, 0) + t * s * cm
        if row:
            yield row


def cocycle_basis(L: LieSuperalgebra, parity: int) -> list[linalg.Row]:
    """Canonical echelon basis of the parity-π cocycles, as sparse rows."""
    equations = linalg.Echelon(cocycle_equations_of_parity(L, parity))
    return linalg.Echelon(equations.kernel_basis(cochain_pairs(L, parity))).rows()


def coboundaries(L: LieSuperalgebra, parity: int) -> linalg.Echelon:
    """Echelon of the coboundaries (x, y) -> -g([x, y]), one row per
    parity-π coordinate functional g."""
    p = L.parities
    rows: dict[int, linalg.Row] = {k: {} for k in range(L.dim) if p[k] == parity}
    for (i, j), vec in L.constants:
        if (p[i] + p[j]) % 2 == parity:
            # grading puts every k of a parity-π pair's bracket in ``rows``
            for k, x in vec:
                rows[k][(i, j)] = -x
    return linalg.Echelon(rows.values())


def cocycle_space(L: LieSuperalgebra, parity: int) -> list[Cochain2]:
    """Canonical basis of the parity-π 2-cocycles, as cochains."""
    return [cochain(L, parity, r) for r in cocycle_basis(L, parity)]


def coboundary_space(L: LieSuperalgebra, parity: int) -> list[Cochain2]:
    """Canonical basis of {(x,y) -> -g([x,y])} over parity-π functionals g,
    as cochains."""
    return [cochain(L, parity, r) for r in coboundaries(L, parity).rows()]


def multiplier(L: LieSuperalgebra) -> MultiplierResult:
    """Multiplier superdimension as cocycles-modulo-coboundaries, per parity,
    with canonical class representatives."""
    z_dims, b_dims, reps = [], [], []
    for parity in (0, 1):
        zbasis = cocycle_basis(L, parity)
        # B² plus the representatives so far, in one growing echelon
        acc = coboundaries(L, parity)
        z_dims.append(len(zbasis))
        b_dims.append(len(acc))
        for zv in zbasis:
            resid = acc.add(zv)
            if resid is not None:
                reps.append(cochain(L, parity, resid))
    return MultiplierResult(
        sdim_Z2=SuperDim(z_dims[0], z_dims[1]),
        sdim_B2=SuperDim(b_dims[0], b_dims[1]),
        sdim_M=SuperDim(z_dims[0] - b_dims[0], z_dims[1] - b_dims[1]),
        cocycle_basis=tuple(reps),
    )


def int_table(L: LieSuperalgebra):
    """(D, D·``table(L)``), D the lcm of the constants' denominators."""
    D = linalg._lcm(c.denominator for _, vec in L.constants for _, c in vec)
    return D, {key: {k: c.numerator * (D // c.denominator) for k, c in vec.items()}
               for key, vec in table(L).items()}


def full_walk_cocycle_equations(L: LieSuperalgebra):
    """Yield one sparse linear constraint per basis triple over the free
    coordinates (i, j), in integers: read off the table D·c of
    ``_int_table``, it is D times the constraint on the constants c.  Each
    is homogeneous, of the triple's total degree.  Triples outside
    ``_support_triples`` have no nonzero inner bracket, so they give no
    constraint and are not visited."""
    p = L.parities
    _, table = _int_table(L)
    for i, j, k in _support_triples(L):
        row: dict[tuple[int, int], int] = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            if vec := table.get((a, b)):
                s = _sign(p[a], p[c])
                for m, cm in vec.items():
                    # f(e_m, e_c) in terms of the free coordinates (0 for an even m == c)
                    key, t = _orient(p, m, c) or (None, 0)
                    if t:
                        v = cm if t == s else -cm
                        row[key] = row[key] + v if key in row else v
        if row:
            yield row


def own_cocycle_basis(L: LieSuperalgebra) -> list[linalg.Row]:
    """Canonical echelon basis of the cocycles of both parities, as sparse
    rows by pivot.  Elimination only combines rows that share a pair, so the
    rows of one parity are that parity's canonical basis."""
    return linalg.Echelon(full_walk_cocycle_equations(L)).kernel(_free_pairs(L.parities)).rows()


def system_cocycle_basis(L: LieSuperalgebra) -> list[linalg.Row]:
    """Canonical echelon basis of the cocycles of both parities, as sparse
    rows by pivot, read off the last-pivot ``_cocycle_system``.  Elimination
    only combines rows that share a pair, so the rows of one parity are that
    parity's canonical basis."""
    return _cocycle_system(L).kernel_basis(_free_pairs(L.parities))


def central_support(L: LieSuperalgebra) -> list[int] | None:
    """S, the sorted indices in the support of a stored bracket, when L² is
    central (``core._derived_central``) and spanned by the e_s, s in S, that
    is, when the stored brackets have rank |S|; otherwise None.  Always a
    list on A = ``_adapted(L) or L`` when L² is central."""
    if not _derived_central(L):
        return None
    S = sorted({k for _, vec in L.constants for k, _ in vec})
    if all(len(vec) == 1 for _, vec in L.constants):
        return S  # each e_s is a stored bracket
    rank = linalg.Echelon()
    for _, vec in L.constants:
        if len(rank) == len(S):
            break
        rank.insert(dict(vec))
    return S if len(rank) == len(S) else None


def check_independent(L: LieSuperalgebra, chosen) -> None:
    for parity in (0, 1):
        acc = coboundaries(L, parity)
        for f in chosen:
            if f.parity == parity and acc.add(dict(f.values)) is None:
                raise DependentClasses("chosen classes are dependent modulo coboundaries")


def free_two_step_cover(m: int, n: int) -> DefiningPair:
    """The free class-2 central extension H of Ab(m,n), paired with H².

    Basis: u_i, x_{k,l} (k<l), z_{s,t} (s<=t) even; v_j, y_{p,q} odd, with
    [u_k,u_l] = x_{k,l}, [u_p,v_q] = y_{p,q}, [v_s,v_t] = z_{s,t}.
    """
    if m < 0 or n < 0:
        raise InvalidParams("dimensions must be >= 0")
    even_labels = [f"u{i + 1}" for i in range(m)]
    x_pos = {}
    for k in range(m):
        for l in range(k + 1, m):
            x_pos[(k, l)] = len(even_labels)
            even_labels.append(f"x{k + 1}_{l + 1}")
    z_pos = {}
    for s in range(n):
        for t in range(s, n):
            z_pos[(s, t)] = len(even_labels)
            even_labels.append(f"z{s + 1}_{t + 1}")
    ne = len(even_labels)
    odd_labels = [f"v{j + 1}" for j in range(n)]
    y_pos = {}
    for p in range(m):
        for q in range(n):
            y_pos[(p, q)] = ne + len(odd_labels)
            odd_labels.append(f"y{p + 1}_{q + 1}")
    parities = [0] * ne + [1] * len(odd_labels)
    consts = {}
    for (k, l), pos in x_pos.items():
        consts[(k, l)] = {pos: 1}
    for (s, t), pos in z_pos.items():
        consts[(ne + s, ne + t)] = {pos: 1}
    for (p, q), pos in y_pos.items():
        consts[(p, ne + q)] = {pos: 1}
    H = validate(parities, consts, name=f"Cover(Ab({m},{n}))",
                 labels=even_labels + odd_labels)
    M = core.derived_subalgebra(H)
    _, proj = quotient(H, M)
    return DefiningPair(H, M, proj)


def random_nilpotent(rng: random.Random, max_even: int = MAX_EVEN,
                     max_odd: int = MAX_ODD) -> LieSuperalgebra:
    m = rng.randint(0, 2)
    n = rng.randint(0, 2)
    if m + n == 0:
        m = 1
    L = abelian(m, n)
    for _ in range(rng.randint(1, 3)):
        reps = multiplier(L).cocycle_basis
        even_reps = [f for f in reps if f.parity == 0]
        odd_reps = [f for f in reps if f.parity == 1]
        room_e = max_even - L.n_even
        room_o = max_odd - L.n_odd
        ke = rng.randint(0, min(room_e, len(even_reps), 2))
        ko = rng.randint(0, min(room_o, len(odd_reps), 2))
        if ke + ko == 0:
            break
        chosen = rng.sample(even_reps, ke) + rng.sample(odd_reps, ko)
        mixed = []
        for f in chosen:
            g = f.scale(_random_fraction(rng))
            # Mixing in unchosen representatives keeps the classes independent.
            others = [h for h in (even_reps if f.parity == 0 else odd_reps)
                      if h not in chosen]
            if others and rng.random() < 0.5:
                g = g.plus(rng.choice(others).scale(_random_fraction(rng)))
            mixed.append(g)
        L = central_extension(L, mixed).algebra
    return L


def central_quotient(L: LieSuperalgebra) -> LieSuperalgebra:
    """L/Z(L), on L's own center; it holds no reference back to L."""
    return core.quotient(L, core.center(L))[0]


def report(L: LieSuperalgebra) -> InvariantReport:
    sdim_L = L.sdim
    sdim_L2 = core.derived_subalgebra(L).sdim
    sdim_Z = core.center(L).sdim
    sdim_LmodZ = (sdim_L - sdim_Z).to_superdim()
    sdim_M = _sdim_M(L)
    smr = bound(sdim_L) - sdim_M
    sdr = bound(sdim_LmodZ) - sdim_L2
    nil, cls = core.is_nilpotent(L)
    return InvariantReport(
        name=L.name,
        sdim_L=sdim_L,
        sdim_L2=sdim_L2,
        sdim_Z=sdim_Z,
        sdim_LmodZ=sdim_LmodZ,
        sdim_M=sdim_M,
        smr=smr,
        mr=smr.total(),
        sdr=sdr,
        dr=sdr.total(),
        nilpotency_class=cls if nil else None,
    )


def check_bounds(L: LieSuperalgebra) -> BoundReport:
    rep = report(L)
    # sdim(L² ∩ Z) = sdim L² + sdim Z - sdim(L² + Z), per parity: the rows of
    # Z that an echelon of L² and Z's earlier rows already spans.  Parities
    # never mix in one echelon, as their columns are disjoint.
    L2, Z = core.derived_subalgebra(L), core.center(L)
    ech = linalg.Echelon(map(dict, L2.even + L2.odd))
    cap = SuperDim(*(sum(not ech.insert(dict(r)) for r in rows) for rows in (Z.even, Z.odd)))
    mq = _sdim_M(central_quotient(L))
    return BoundReport(
        sdim_L=rep.sdim_L,
        sdim_L2=rep.sdim_L2,
        sdim_LmodZ=rep.sdim_LmodZ,
        sdim_M=rep.sdim_M,
        sdim_L2_cap_Z=cap,
        sdim_M_of_LmodZ=mq,
        derived_le_bound=rep.sdim_L2.leq(bound(rep.sdim_LmodZ)),
        multiplier_le_bound=rep.sdim_M.leq(bound(rep.sdim_L)),
        central_derived_le_quotient_multiplier=cap.leq(mq),
    )
