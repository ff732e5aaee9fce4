"""The subspace calculus that ``superlie.core`` used before it ran on the
one ``Echelon`` kernel, the quotient-based ``lambda_mu`` of
``superlie.invariants``, the dense ``LieSuperalgebra.bracket`` and
index-map ``direct_sum`` that ``superlie.core`` used before its one sparse
bracket, and the graded-Jacobi check and 2-cocycle equations of
``superlie.core`` and ``superlie.cohomology`` that visited every sorted basis
triple, the dense ``Cochain2.plus`` of ``superlie.cohomology``, and the
per-call graded skew-symmetry of ``LieSuperalgebra.basis_bracket``,
``cochain_pairs`` and ``Cochain2.__call__`` (before the orientation rule moved
into ``core._orient``), kept word for word as the test reference.

The bodies are unchanged (``bracket``, ``check_jacobi``, ``basis_bracket``
and ``cochain_plus`` are the former methods, with ``self`` now the first
argument, ``cochain_value`` is the former ``Cochain2.__call__``, and
``cochain_plus`` calls the former ``Cochain2.from_vector`` classmethod as
``cochain_from_vector``); their ``linalg`` is the library's vector helpers
with ``zero_vec`` and the elimination (``reduce_mod``, ``nullspace``) taken
from the dense seed kernel in ``reference_linalg``.  Tests compare
``second_center``, ``Subspace.intersection``, ``derived_subalgebra``,
``lambda_mu``, ``bracket``, ``direct_sum``, ``check_jacobi``,
``cocycle_equations``, ``Cochain2.plus``, ``basis_bracket``, ``cochain_pairs``
and ``Cochain2.__call__`` against these; nothing outside the tests imports
this module.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import reference_linalg
from superlie import core
from superlie import linalg as _linalg
from superlie.cohomology import Cochain2
from superlie.core import (
    LieSuperalgebra,
    Subspace,
    _sign,
    bracket_subspaces,
    center,
    quotient,
    validate,
)
from superlie.errors import (
    InvalidParams,
    JacobiError,
    NonHomogeneous,
    NotInSecondCenterMinusCenter,
)
from superlie.superdim import SuperDim

linalg = SimpleNamespace(
    zero_vec=reference_linalg.zero_vec,
    vec_add=_linalg.vec_add,
    vec_scale=_linalg.vec_scale,
    reduce_mod=reference_linalg.reduce_mod,
    nullspace=reference_linalg.nullspace,
)


def intersection(self, other):
    """Intersection, computed per parity from the coefficient kernel."""
    self._check_parent(other)
    out = []
    for mine, theirs in ((self.even_rows, other.even_rows), (self.odd_rows, other.odd_rows)):
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
        target_rows = ZQ.even_rows if par == 0 else ZQ.odd_rows
        residuals = [linalg.reduce_mod(proj(L.basis_vector(i)), target_rows) for i in cols]
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
    vec = linalg.vec_add(self.as_vector(pairs), other.as_vector(pairs))
    return cochain_from_vector(self.parent, self.parity, vec)


def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
    """[e_i, e_j] as a sparse coordinate dict, any index order."""
    if i == j and self.parities[i] == 0:
        return {}
    if i <= j:
        return self._table.get((i, j), {})
    stored = self._table.get((j, i), {})
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
