"""Rank invariants and the inequality suite built on them.

The two ranks measure how far an algebra sits from the extremal cases:
``smr`` is the gap between the largest possible multiplier superdimension for
sdim L and the actual one, ``sdr`` the gap between the largest possible
derived superdimension for sdim L/Z(L) and sdim L².  Both are >= (0,0) for
every valid algebra; they are kept as signed pairs so a violation would be
visible rather than clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import core, linalg
from .cohomology import multiplier, multiplier_sdim
from .core import LieSuperalgebra
from .errors import NonHomogeneous, NotInSecondCenterMinusCenter
from .superdim import SignedPair, SuperDim, bound, tensor


@dataclass(frozen=True, eq=False)
class InvariantReport:
    name: str
    sdim_L: SuperDim
    sdim_L2: SuperDim
    sdim_Z: SuperDim
    sdim_LmodZ: SuperDim
    sdim_M: SuperDim
    smr: SignedPair
    mr: int
    sdr: SignedPair
    dr: int
    nilpotency_class: int | None  # None = not nilpotent


def _sdim_M(L: LieSuperalgebra) -> SuperDim:
    """sdim M(L), counted once per algebra by ``multiplier_sdim``, which
    builds no cocycle space and no representatives."""
    return core._memo(L, "_sdim_M", lambda: multiplier_sdim(L))


def _central_quotient(L: LieSuperalgebra) -> LieSuperalgebra:
    """L/Z(L), built once per algebra; it holds no reference back to L."""
    return core._memo(L, "_central_quotient", lambda: core.quotient(L, core.center(L))[0])


def sdr_report(L: LieSuperalgebra) -> tuple[SignedPair, int]:
    """sdr = bound(sdim L/Z(L)) - sdim L² and its total, read from ``report``.

    The library reads ``report(L).sdr`` directly and no longer calls this.
    It stays because the benchmark's tracer wraps it by name, and a traced
    run stops with LookupError on a name the library no longer defines."""
    rep = report(L)
    return rep.sdr, rep.dr


def report(L: LieSuperalgebra) -> InvariantReport:
    """The invariants of L, computed once per algebra: the report holds
    only SuperDims, pairs, ints and L's name, no reference to L."""
    return core._memo(L, "_report", lambda: _report(L))


def _report(L: LieSuperalgebra) -> InvariantReport:
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


def _z2_action_table(L: LieSuperalgebra):
    """(p, r_p, {t: [r_p, e_t]}) for each canonical row r_p of Z₂(L), p its
    pivot, in pivot order (even rows first), with only the nonzero brackets
    kept, read by ``core._action``.  The rows are the cached ``Coeffs`` of
    Z₂, and a unit row shares the vectors of the stored table, so the table
    holds no reference to L and copies little."""
    Z2 = core.second_center(L)
    return tuple((r[0][0], r, core._action(L, r)) for r in Z2.even + Z2.odd)


def _z2_action(L: LieSuperalgebra):
    """``_z2_action_table(L)``, built once per algebra."""
    return core._memo(L, "_z2_action", lambda: _z2_action_table(L))


def lambda_mu(L: LieSuperalgebra, z) -> tuple[SuperDim, SuperDim]:
    """For homogeneous z in Z₂(L) \\ Z(L): λ = sdim [L, z] and μ = the
    superdimension of the central quotient of L/[L, z].

    Everything is read from the canonical rows r_p of Z₂ and their brackets
    [r_p, e_t] (``_z2_action``).  The rows are zero at each other's pivots,
    so z lies in Z₂ exactly when z = Σ z_p r_p, z_p its entry at the pivot
    p; then [z, e_t] = Σ z_p [r_p, e_t] spans [L, z], which is zero exactly
    when z is central.  The center of L/[L, z] is P/[L, z] for
    P = {x : [x, L] inside [L, z]}, so μ = sdim L - sdim P, and no quotient
    algebra is built.  As z lies in Z₂, [L, z] lies in Z(L), so P lies in
    Z₂: P is the kernel of c -> (t -> [Σ c_p r_p, e_t] modulo [L, z]), the
    system of ``core._ad_system``, whose rows each have one parity, so per
    parity sdim P is the number of rows less the pivots of that parity.
    """
    z = tuple(Fraction(c) for c in z)
    if L.vector_parity(z) is None:
        raise NonHomogeneous("lambda/mu require a nonzero homogeneous element")
    table = _z2_action(L)
    zs = linalg.sparse(z)
    terms = [(zs[p], row, action) for p, row, action in table if p in zs]
    in_z2: linalg.Row = {}
    for c, row, _ in terms:
        linalg._axpy(in_z2, c, dict(row))
    brackets = core._act((c, action) for c, _, action in terms)
    if in_z2 != zs or not brackets:
        raise NotInSecondCenterMinusCenter(
            "element must lie in the second center but not the center")
    par = L.parities
    Lz = linalg.Echelon(brackets.values())  # [L, z]
    eqs = core._ad_system(((p, t, vec) for p, _, action in table for t, vec in action.items()), Lz)
    lam, rows, rank = ([sum(par[p] == q for p in ps) for q in (0, 1)]
                       for ps in (Lz.pivots(), [p for p, *_ in table], eqs.pivots()))
    return SuperDim(*lam), SuperDim(L.n_even - rows[0] + rank[0], L.n_odd - rows[1] + rank[1])


@dataclass(frozen=True, eq=False)
class BoundReport:
    """The three dimension inequalities every valid algebra must satisfy,
    returned with the data so callers can display margins."""

    sdim_L: SuperDim
    sdim_L2: SuperDim
    sdim_LmodZ: SuperDim
    sdim_M: SuperDim
    sdim_L2_cap_Z: SuperDim
    sdim_M_of_LmodZ: SuperDim
    derived_le_bound: bool        # sdim L² <= bound(sdim L/Z(L))
    multiplier_le_bound: bool     # sdim M(L) <= bound(sdim L)
    central_derived_le_quotient_multiplier: bool  # sdim(L² ∩ Z) <= sdim M(L/Z)

    @property
    def all_ok(self) -> bool:
        return (self.derived_le_bound and self.multiplier_le_bound
                and self.central_derived_le_quotient_multiplier)


def check_bounds(L: LieSuperalgebra) -> BoundReport:
    rep = report(L)
    # sdim(L² ∩ Z) = sdim L² + sdim Z - sdim(L² + Z), per parity: the rows of
    # Z that an echelon of L² and Z's earlier rows already spans.  Parities
    # never mix in one echelon, as their columns are disjoint.
    L2, Z = core.derived_subalgebra(L), core.center(L)
    ech = linalg.Echelon(map(dict, L2.even + L2.odd))
    cap = SuperDim(*(sum(not ech.insert(dict(r)) for r in rows) for rows in (Z.even, Z.odd)))
    mq = _sdim_M(_central_quotient(L))
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


@dataclass(frozen=True, eq=False)
class SumFormulaReport:
    lhs: SuperDim
    rhs: SuperDim
    equal: bool


def kunneth_check(A: LieSuperalgebra, B: LieSuperalgebra) -> SumFormulaReport:
    """Both sides of the direct-sum multiplier formula, computed
    independently:
    sdim M(A⊕B) = sdim M(A) + sdim M(B) + sdim(A/A² ⊗ B/B²)."""
    lhs = multiplier(core.direct_sum(A, B)).sdim_M
    ab_a = (A.sdim - core.derived_subalgebra(A).sdim).to_superdim()
    ab_b = (B.sdim - core.derived_subalgebra(B).sdim).to_superdim()
    rhs = (_sdim_M(A) + _sdim_M(B) + tensor(ab_a, ab_b)).to_superdim()
    return SumFormulaReport(lhs=lhs, rhs=rhs, equal=lhs == rhs)
