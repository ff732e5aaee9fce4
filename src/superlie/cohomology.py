"""Second cohomology with one-dimensional trivial even coefficients.

A parity-π 2-cochain is a graded alternating bilinear form f with values in
the ground field, nonzero on a homogeneous pair (x, y) only when
|x| + |y| = π.  Cocycles satisfy the same cyclic sign pattern as the graded
Jacobi identity; coboundaries arise as (x, y) -> -g([x, y]) from linear
functionals g of parity π.  The quotient superdimension is the multiplier
superdimension, and extending by a full set of class representatives yields
cover candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import (
    DefiningPair,
    LieSuperalgebra,
    LinearMap,
    Subspace,
    _free_pairs,
    _orient,
    _sign,
    _support_triples,
    derived_subalgebra,
    validate,
)
from .errors import DependentClasses, InvalidParams, StemConditionFailed
from .linalg import Vec
from .superdim import SuperDim


def cochain_pairs(L: LieSuperalgebra, parity: int) -> list[tuple[int, int]]:
    """Free coordinates of a parity-π 2-cochain: the free pairs (i, j) of
    ``_free_pairs`` with |e_i| + |e_j| = π."""
    p = L.parities
    return [(i, j) for i, j in _free_pairs(p) if (p[i] + p[j]) % 2 == parity]


@dataclass(frozen=True)
class Cochain2:
    """A homogeneous 2-cochain, stored on its free coordinates."""

    parent: LieSuperalgebra
    parity: int
    values: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self):
        # the membership test of cochain_pairs, without listing all O(d²) pairs
        p = self.parent.parities
        for key, c in self.values:
            i, j = key
            if (not 0 <= i <= j < len(p) or _orient(p, i, j) is None
                    or (p[i] + p[j]) % 2 != self.parity):
                raise InvalidParams(f"coordinate {key} not free for a parity-{self.parity} cochain")
            if c == 0:
                raise InvalidParams("cochain values must be normalized (no zeros)")
        # one value per coordinate, in cochain_pairs order, so that the values
        # read as a sparse row over the pairs
        if any(a >= b for (a, _), (b, _) in zip(self.values, self.values[1:])):
            raise InvalidParams("cochain coordinates must be strictly increasing")

    def __call__(self, i: int, j: int) -> Fraction:
        """f(e_i, e_j) for any index order, via graded alternation."""
        key, s = _orient(self.parent.parities, i, j) or (None, 0)
        return s * dict(self.values).get(key, Fraction(0))

    def as_vector(self, pairs=None) -> Vec:
        if pairs is None:
            pairs = cochain_pairs(self.parent, self.parity)
        table = dict(self.values)
        return tuple(table.get(p, Fraction(0)) for p in pairs)

    def scale(self, c) -> "Cochain2":
        c = Fraction(c)
        return Cochain2(self.parent, self.parity,
                        tuple((p, c * v) for p, v in self.values if c * v != 0))

    def plus(self, other: "Cochain2") -> "Cochain2":
        if other.parent != self.parent or other.parity != self.parity:
            raise InvalidParams("can only add cochains of equal parent and parity")
        row = dict(self.values)
        linalg._axpy(row, 1, dict(other.values))
        return _cochain(self.parent, self.parity, row)


def _cochain(L: LieSuperalgebra, parity: int, row: linalg.Row) -> Cochain2:
    """The cochain whose free coordinates are a sparse row over the pairs."""
    return Cochain2(L, parity, tuple(sorted(row.items())))


def _cocycle_equations(L: LieSuperalgebra, parity: int):
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


def _cocycle_basis(L: LieSuperalgebra, parity: int) -> list[linalg.Row]:
    """Canonical echelon basis of the parity-π cocycles, as sparse rows."""
    equations = linalg.Echelon(_cocycle_equations(L, parity))
    return linalg.Echelon(equations.kernel_basis(cochain_pairs(L, parity))).rows()


def cocycle_space(L: LieSuperalgebra, parity: int) -> list[Cochain2]:
    """Canonical basis of the parity-π 2-cocycles."""
    return [_cochain(L, parity, r) for r in _cocycle_basis(L, parity)]


def _coboundaries(L: LieSuperalgebra, parity: int) -> linalg.Echelon:
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


def coboundary_space(L: LieSuperalgebra, parity: int) -> list[Cochain2]:
    """Canonical basis of {(x,y) -> -g([x,y])} over parity-π functionals g."""
    return [_cochain(L, parity, r) for r in _coboundaries(L, parity).rows()]


@dataclass(frozen=True, eq=False)
class MultiplierResult:
    sdim_Z2: SuperDim
    sdim_B2: SuperDim
    sdim_M: SuperDim
    cocycle_basis: tuple[Cochain2, ...]  # one representative per class, even first


def multiplier(L: LieSuperalgebra) -> MultiplierResult:
    """Multiplier superdimension as cocycles-modulo-coboundaries, per parity,
    with canonical class representatives."""
    z_dims, b_dims, reps = [], [], []
    for parity in (0, 1):
        zbasis = _cocycle_basis(L, parity)
        # B² plus the representatives so far, in one growing echelon
        acc = _coboundaries(L, parity)
        z_dims.append(len(zbasis))
        b_dims.append(len(acc))
        for zv in zbasis:
            resid = acc.add(zv)
            if resid is not None:
                reps.append(_cochain(L, parity, resid))
    return MultiplierResult(
        sdim_Z2=SuperDim(z_dims[0], z_dims[1]),
        sdim_B2=SuperDim(b_dims[0], b_dims[1]),
        sdim_M=SuperDim(z_dims[0] - b_dims[0], z_dims[1] - b_dims[1]),
        cocycle_basis=tuple(reps),
    )


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """A central extension of ``base`` by the chosen cocycles.

    ``kernel`` is always central by construction; ``stem_ok`` records whether
    it also lies in the derived subalgebra, which is what a defining pair
    requires.  A failed stem condition is reported, never silently repaired.
    """

    base: LieSuperalgebra
    algebra: LieSuperalgebra
    kernel: Subspace
    stem_ok: bool
    projection: LinearMap

    def as_defining_pair(self) -> DefiningPair:
        if not self.stem_ok:
            raise StemConditionFailed("extension kernel is not inside the derived subalgebra")
        return DefiningPair(self.algebra, self.kernel, self.projection)


def central_extension(L: LieSuperalgebra, chosen) -> CentralExtension:
    """Extend L by one new central generator per chosen cocycle."""
    chosen = list(chosen)
    for f in chosen:
        if f.parent != L:
            raise InvalidParams("cochain belongs to a different algebra")
    for parity in (0, 1):
        acc = _coboundaries(L, parity)
        for f in chosen:
            if f.parity == parity and acc.add(dict(f.values)) is None:
                raise DependentClasses("chosen classes are dependent modulo coboundaries")

    even_new = [f for f in chosen if f.parity == 0]
    odd_new = [f for f in chosen if f.parity == 1]
    ordered = even_new + odd_new
    ne, no = L.n_even, L.n_odd
    ce, co = len(even_new), len(odd_new)

    def embed(i: int) -> int:
        return i if i < ne else i + ce

    # the new generator of ordered[t] sits at gen_pos[t]
    gen_pos = [*range(ne, ne + ce), *range(ne + ce + no, ne + ce + no + co)]

    parities = [0] * (ne + ce) + [1] * (no + co)
    # embed is increasing, so stored keys (i, j), i <= j, stay ordered
    consts = {(embed(i), embed(j)): {embed(k): c for k, c in vec}
              for (i, j), vec in L.constants}
    for f, g in zip(ordered, gen_pos):
        for (i, j), c in f.values:
            consts.setdefault((embed(i), embed(j)), {})[g] = c

    used = set(L.labels)
    clabels = []
    t = 1
    while len(clabels) < ce + co:
        cand = f"c{t}"
        t += 1
        if cand not in used:
            used.add(cand)
            clabels.append(cand)
    labels = [""] * len(parities)
    for i in range(L.dim):
        labels[embed(i)] = L.labels[i]
    for g, label in zip(gen_pos, clabels):
        labels[g] = label

    K = validate(parities, consts, name=f"Ext({L.name})", labels=labels)
    M = Subspace._span_rows(K, ({g: 1} for g in gen_pos))
    stem_ok = derived_subalgebra(K).contains_subspace(M)
    # K = L ⊕ M as spaces, so projecting to L reads off the embedded coordinates
    proj = LinearMap(tuple(K.basis_vector(embed(i)) for i in range(L.dim)))
    return CentralExtension(base=L, algebra=K, kernel=M, stem_ok=stem_ok, projection=proj)


def cover_candidate(L: LieSuperalgebra) -> CentralExtension:
    """Central extension by a full set of class representatives; when the
    stem condition holds this realizes the multiplier superdimension."""
    return central_extension(L, multiplier(L).cocycle_basis)
