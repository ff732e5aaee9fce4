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

from . import core
from .cohomology import multiplier
from .core import LieSuperalgebra, Subspace
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
    """sdim M(L), from one ``multiplier`` run per algebra."""
    return core._memo(L, "_sdim_M", lambda: multiplier(L).sdim_M)


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


def lambda_mu(L: LieSuperalgebra, z) -> tuple[SuperDim, SuperDim]:
    """For homogeneous z in Z₂(L) \\ Z(L): the superdimensions of [L, z] and
    of the central quotient of L/[L, z].

    The center of L/[L, z] is P/[L, z] for P = {x : [x, L] inside [L, z]},
    so μ = sdim L - sdim P, and no quotient algebra is built."""
    z = tuple(Fraction(c) for c in z)
    if L.vector_parity(z) is None:
        raise NonHomogeneous("lambda/mu require a nonzero homogeneous element")
    Z = core.center(L)
    Z2 = core.second_center(L)
    if Z.contains(z) or not Z2.contains(z):
        raise NotInSecondCenterMinusCenter(
            "element must lie in the second center but not the center")
    zs = core._row(L, z)
    Lz = Subspace._span_rows(L, (core._bracket(L, {i: 1}, zs) for i in range(L.dim)))
    P = core._ad_kernel(L, core._basis(L), Lz)
    return Lz.sdim, (L.sdim - P.sdim).to_superdim()


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
    cap = core.derived_subalgebra(L).intersection(core.center(L)).sdim
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
