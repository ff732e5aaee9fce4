"""Second cohomology with one-dimensional trivial even coefficients.

A parity-π 2-cochain is a graded alternating bilinear form f with values in
the ground field, nonzero on a homogeneous pair (x, y) only when
|x| + |y| = π.  Cocycles satisfy the same cyclic sign pattern as the graded
Jacobi identity; coboundaries arise as (x, y) -> -g([x, y]) from linear
functionals g of parity π.  The quotient superdimension is the multiplier
superdimension, and extending by a full set of class representatives yields
cover candidates.

Both parities are solved as one linear system over the free pairs (i, j).
They use disjoint pairs and every equation and row is homogeneous, so
elimination never mixes them; a row's parity is its first pair's.

The system is built once, as a last-pivot echelon (``_adapted_equations``)
of the equations of A, the conjugate adapted to L², or of L's own when L²'s
canonical rows are unit vectors.  A's basis is decided and built once per
algebra, in ``core`` (``_adapted_columns``; ``_adapted`` builds A).  In A
every bracket lies on unit vectors, so its equations are sparse where a
dense L's are not, and the rank per parity is the same: ``_sdims`` reads
sdim Z², B² and M off the pivots.  ``multiplier`` carries A's raw equations
to L's pairs on the same columns and echelonizes them there
(``_cocycle_system``).  f -> f∘(P×P) maps Z²(L) onto Z²(A) and carrying is
linear, so the carried rows span L's own equations, and reduced echelon
form is unique: the Z² basis and every representative are the ones L's own
system gives.

Every input the paper computes a multiplier for in closed form has class 2
with L² central, and then A's L² is span{e_s} over the indices s that its
brackets touch.  A triple with an inactive index k (one in no stored key)
keeps at most the term f([e_a, e_b], e_k), so over the stored pairs these
triples only repeat the unit constraints f(e_s, e_k) = 0.
``_cocycle_equations`` yields each of those once and walks the triples of
active indices alone; the span, and so every echelon, is unchanged.

L's system is echelonized with each row pivoting on its last pair, the
reduced echelon form for the reversed pair order, unique in either order.
The kernel vector it gives at a free pair c has 1 at c and its other
entries at later pivots, so the vectors read off the system are the
canonical Z² basis in the usual order, with no second elimination.
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
    _active,
    _adapted,
    _adapted_columns,
    _derived_central,
    _free_pairs,
    _int_table,
    _orient,
    _sign,
    _support_triples,
    derived_subalgebra,
    validate,
)
from .errors import DependentClasses, InvalidParams, StemConditionFailed
from .superdim import SuperDim, bound


def _parity(p, pair: tuple[int, int]) -> int:
    """|e_i| + |e_j|: the parity of a cochain or homogeneous row whose first pair is (i, j)."""
    return (p[pair[0]] + p[pair[1]]) % 2


@dataclass(frozen=True)
class Cochain2:
    """A homogeneous 2-cochain, stored on its free coordinates."""

    parent: LieSuperalgebra
    parity: int
    values: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self):
        # a free pair of this parity, tested without listing all O(d²) pairs
        p = self.parent.parities
        for (i, j), c in self.values:
            if (not 0 <= i <= j < len(p) or _orient(p, i, j) is None
                    or _parity(p, (i, j)) != self.parity):
                raise InvalidParams(f"coordinate {(i, j)} not free for a parity-{self.parity} cochain")
            if c == 0:
                raise InvalidParams("cochain values must be normalized (no zeros)")
        # one value per coordinate, in ``_free_pairs`` order, so that the values
        # read as a sparse row over the pairs
        if any(a >= b for (a, _), (b, _) in zip(self.values, self.values[1:])):
            raise InvalidParams("cochain coordinates must be strictly increasing")

    def __call__(self, i: int, j: int) -> Fraction:
        """f(e_i, e_j) for any index order, via graded alternation."""
        p = self.parent.parities
        if not (0 <= i < len(p) and 0 <= j < len(p)):
            raise InvalidParams(f"basis indices {(i, j)} outside range({len(p)})")
        key, s = _orient(p, i, j) or (None, 0)
        return s * dict(self.values).get(key, Fraction(0))

    def scale(self, c) -> "Cochain2":
        c = Fraction(c)
        return Cochain2(self.parent, self.parity,
                        tuple((p, c * v) for p, v in self.values if c * v != 0))

    def plus(self, other: "Cochain2") -> "Cochain2":
        if other.parent != self.parent or other.parity != self.parity:
            raise InvalidParams("can only add cochains of equal parent and parity")
        row = dict(self.values)
        linalg._axpy(row, 1, dict(other.values))
        # the sum may be zero, with no pair to read its parity from
        return Cochain2(self.parent, self.parity, tuple(sorted(row.items())))


def _cochain(L: LieSuperalgebra, row: linalg.Row) -> Cochain2:
    """The cochain whose free coordinates are a nonzero homogeneous sparse
    row over the pairs, with the parity of its first pair.  The row is a
    residual of ``multiplier``'s echelon over free pairs, with no zeros, so
    the fields are set as the frozen constructor sets them, with no
    ``__post_init__`` checks; the public constructor keeps them."""
    values = tuple(sorted(row.items()))
    f = object.__new__(Cochain2)
    object.__setattr__(f, "parent", L)
    object.__setattr__(f, "parity", _parity(L.parities, values[0][0]))
    object.__setattr__(f, "values", values)
    return f


def _central_support(L: LieSuperalgebra) -> list[int] | None:
    """S, the sorted indices in the support of a stored bracket, when L² is
    central (``core._derived_central``) and spanned by the e_s, s in S, that
    is, when L is adapted to L² (``core._adapted_columns`` is None);
    otherwise None.  Always a list on A = ``_adapted(L) or L`` when L² is
    central."""
    if not _derived_central(L) or _adapted_columns(L) is not None:
        return None
    return sorted({k for _, vec in L.constants for k, _ in vec})


def _cocycle_equations(L: LieSuperalgebra):
    """Yield sparse integer rows over the free coordinates (i, j) that span
    the cocycle equations.  A walked triple's row is read off the table D·c
    of ``_int_table``, so it is D times the triple's constraint on the
    constants c, homogeneous of the triple's total degree.  Triples outside
    ``_support_triples`` have no nonzero inner bracket, so they give no
    constraint and are not visited.  A one-entry row, the unit constraint
    f(e_i, e_j) = 0, is yielded once per pair.

    When ``_central_support`` gives S, only the triples of active indices
    are walked, after one unit row at ``_orient(p, s, k)`` for each s in S
    and each inactive k.  The span is the same: a triple with exactly one
    inactive index k keeps only the term f([e_a, e_b], e_k), and over the
    stored pairs (a, b) these span f(L², e_k) = span{f(e_s, e_k)}, as the
    [e_a, e_b] span L² = span{e_s}; a triple with two or more inactive
    indices has no nonzero inner bracket."""
    p = L.parities
    _, table = _int_table(L)
    units: set[tuple[int, int]] = set()  # the pairs of the one-entry rows yielded
    S = _central_support(L)
    if S is not None:
        active = _active(L)
        inactive = [k for k in range(L.dim) if k not in active]
        for s in S:
            for k in inactive:
                # s is inactive too, so (s, k) and (k, s) may both come
                if (o := _orient(p, s, k)) and o[0] not in units:
                    units.add(o[0])
                    yield {o[0]: 1}
    for i, j, k in _support_triples(L, active=S is not None):
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
        if len(row) == 1:
            [(key, v)] = row.items()
            if not v or key in units:
                continue
            units.add(key)
        if row:
            yield row


def _adapted_equations(L: LieSuperalgebra) -> linalg.Echelon:
    """The last-pivot echelon of the cocycle equations of A = ``_adapted(L)
    or L``: sparse where L's own are dense, and of the same rank per parity."""
    return linalg.Echelon(_cocycle_equations(_adapted(L) or L), last=True)


def _cocycle_system(L: LieSuperalgebra) -> linalg.Echelon:
    """The last-pivot echelon of L's cocycle equations: ``_adapted_equations``
    when L is adapted to L², else that of A's raw equations carried back.
    Each sum_(a,b) c_ab g(b_a, b_b) = 0, b the basis of ``_adapted_columns``,
    is carried to sum_(a,b) c_ab sum_(i,j) b_a[i] b_b[j] f(e_i, e_j) = 0,
    each f(e_i, e_j) oriented by ``_orient``, in integers scaled by the lcm
    of the d_a d_b it meets; the echelon skips entries that cancel to zero.
    The module docstring says why this is the echelon of L's own system."""
    A = _adapted(L)
    if A is None:
        return _adapted_equations(L)
    p = L.parities
    col = _adapted_columns(L)

    def carried(w):
        m = linalg._lcm(col[a][1] * col[b][1] for a, b in w)
        row: dict[tuple[int, int], int] = {}
        for (a, b), c in w.items():
            (ra, da), (rb, db) = col[a], col[b]
            c *= m // (da * db)
            for i, x in ra.items():
                cx = c * x
                for j, y in rb.items():
                    if o := _orient(p, i, j):
                        key, s = o
                        v = cx * y if s == 1 else -cx * y
                        row[key] = row[key] + v if key in row else v
        return row

    return linalg.Echelon((carried(w) for w in _cocycle_equations(A)), last=True)


def _coboundaries(L: LieSuperalgebra) -> list[dict[tuple[int, int], int]]:
    """The coboundaries (x, y) -> -g([x, y]) of the functionals g = e_k*,
    times D, one sparse integer row per k from ``_int_table``; grading makes
    row k homogeneous of parity |e_k|."""
    _, table = _int_table(L)
    rows: list[dict[tuple[int, int], int]] = [{} for _ in range(L.dim)]
    for key, _ in L.constants:
        for k, x in table[key].items():
            rows[k][key] = -x
    return rows


@dataclass(frozen=True, eq=False)
class MultiplierResult:
    sdim_Z2: SuperDim
    sdim_B2: SuperDim
    sdim_M: SuperDim
    cocycle_basis: tuple[Cochain2, ...]  # one representative per class, even first


def multiplier(L: LieSuperalgebra) -> MultiplierResult:
    """Multiplier superdimension as cocycles-modulo-coboundaries, with
    canonical class representatives: each parity's residuals in pivot order,
    even first.

    Z² is solved in L's pairs from ``_cocycle_system``: the raw equations of
    the conjugate adapted to L², where they are sparse, are carried back and
    echelonized once, which gives exactly the echelon of L's own equations,
    so the basis and the representatives do not depend on the route.  The
    canonical Z² basis is read off that echelon as integer rows, each led
    by its free pair, and the three superdimensions off its pivots
    (``_sdims``)."""
    system = _cocycle_system(L)
    # B² plus the representatives so far, in one growing echelon
    acc = linalg.Echelon(_coboundaries(L))
    reps = []
    for zv, _ in system._kernel_rows(_free_pairs(L.parities)):
        resid = acc.add(zv)
        if resid is not None:
            reps.append(_cochain(L, resid))
    reps.sort(key=lambda f: f.parity)  # stable: pivot order within a parity
    return MultiplierResult(*_sdims(L, system), cocycle_basis=tuple(reps))


def _sdims(L: LieSuperalgebra, equations: linalg.Echelon) -> tuple[SuperDim, SuperDim, SuperDim]:
    """(sdim Z², sdim B², sdim M) of L off an echelon of the cocycle
    equations of L or of a parity-preserving conjugate, whose ranks are L's.
    Per parity π, sdim Z²_π = |C²_π| - rank_π, |C²| = bound(sdim L) counting
    the free pairs, a row's parity being its pivot's; the kernel of
    g -> -g∘[·,·] on the parity-π functionals is the annihilator of L², so
    sdim B²_π = sdim L²_π; sdim M_π is the difference."""
    z = list(bound(L.sdim).as_tuple())
    for pair in equations.pivots():
        z[_parity(L.parities, pair)] -= 1
    sdim_Z2, sdim_B2 = SuperDim(*z), derived_subalgebra(L).sdim
    return sdim_Z2, sdim_B2, (sdim_Z2 - sdim_B2).to_superdim()


def _multiplier_count(L: LieSuperalgebra) -> tuple[SuperDim, SuperDim, SuperDim]:
    """(sdim Z², sdim B², sdim M) of L, counted with no cocycle space,
    coboundary echelon or representative built: ``_sdims`` of the
    last-pivot echelon of ``_adapted_equations``, sparse on the conjugate
    adapted to L² that the Jacobi check has often built."""
    return _sdims(L, _adapted_equations(L))


def multiplier_sdim(L: LieSuperalgebra) -> SuperDim:
    """sdim M(L), counted by ``_multiplier_count``."""
    return _multiplier_count(L)[2]


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
        """The extension as the paper's defining pair (K, M), checked.
        Public API by choice, with no library caller: the library's one
        maker of a ``DefiningPair``, which the tests build pairs with."""
        if not self.stem_ok:
            raise StemConditionFailed("extension kernel is not inside the derived subalgebra")
        return DefiningPair(self.algebra, self.kernel, self.projection)


def central_extension(L: LieSuperalgebra, chosen) -> CentralExtension:
    """Extend L by one new central generator per chosen cocycle.  The
    cocycles must belong to L and be independent modulo B²."""
    chosen = list(chosen)
    if any(f.parent != L for f in chosen):
        raise InvalidParams("cochain belongs to a different algebra")
    acc = linalg.Echelon(_coboundaries(L))
    for f in chosen:
        if not acc.insert(dict(f.values)):
            raise DependentClasses("chosen classes are dependent modulo coboundaries")
    return _extend(L, chosen)


def _extend(L: LieSuperalgebra, chosen) -> CentralExtension:
    """``central_extension`` of L by cocycles of L that are independent
    modulo B², with no check."""
    ordered = sorted(chosen, key=lambda f: f.parity)  # stable: even classes first
    ne, no = L.n_even, L.n_odd
    co = sum(f.parity for f in chosen)
    ce = len(chosen) - co
    # e_i of L sits at emb[i], the new generator of ordered[t] at gen_pos[t]
    emb = [*range(ne), *range(ne + ce, ne + ce + no)]
    gen_pos = [*range(ne, ne + ce), *range(ne + ce + no, ne + ce + no + co)]

    parities = [0] * (ne + ce) + [1] * (no + co)
    # emb is increasing, so stored keys (i, j), i <= j, stay ordered
    consts = {(emb[i], emb[j]): {emb[k]: c for k, c in vec} for (i, j), vec in L.constants}
    for f, g in zip(ordered, gen_pos):
        for (i, j), c in f.values:
            consts.setdefault((emb[i], emb[j]), {})[g] = c

    # fresh names c1, c2, ...; L's labels can take at most L.dim of them
    used = set(L.labels)
    names = (f"c{t}" for t in range(1, L.dim + ce + co + 1))
    clabels = [c for c in names if c not in used][:ce + co]
    labels = [*L.labels[:ne], *clabels[:ce], *L.labels[ne:], *clabels[ce:]]

    K = validate(parities, consts, name=f"Ext({L.name})", labels=labels)
    # gen_pos is increasing, so its unit rows are canonical, as in ``Subspace.full``
    M = Subspace._canonical(K, [((g, Fraction(1)),) for g in gen_pos])
    stem_ok = derived_subalgebra(K).contains_subspace(M)
    # K = L ⊕ M as spaces, so projecting to L reads off the embedded coordinates
    proj = LinearMap(tuple(K.basis_vector(e) for e in emb))
    return CentralExtension(base=L, algebra=K, kernel=M, stem_ok=stem_ok, projection=proj)


def cover_candidate(L: LieSuperalgebra) -> CentralExtension:
    """Central extension by a full set of class representatives; when the
    stem condition holds this realizes the multiplier superdimension.
    ``multiplier`` built each representative as a nonzero residual modulo
    B² and the representatives before it, so they are independent modulo
    B² and ``central_extension``'s check is skipped."""
    return _extend(L, multiplier(L).cocycle_basis)
