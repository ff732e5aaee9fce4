"""Fingerprint-based recognition and the multiplier-rank <= 2 table.

Fingerprints are tuples of basis-invariant superdimensions.  They are not a
complete isomorphism invariant in general, but they separate the five table
entries, which is all the classifier needs; mismatches at rank <= 2 are
surfaced as a first-class contradiction outcome rather than an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import core
from .constructions import abelian, model_registry
from .core import LieSuperalgebra
from .errors import NotNilpotent
from .invariants import report
from .superdim import SignedPair, SuperDim, ZERO


@dataclass(frozen=True)
class Fingerprint:
    sdim_L: SuperDim
    sdim_L2: SuperDim
    sdim_Z: SuperDim
    smr: SignedPair
    nilpotency_class: int | None
    derived_in_center: bool


def fingerprint(L: LieSuperalgebra) -> Fingerprint:
    """A view of ``report``.  L² lies in Z(L) exactly when [L, L²] = L³ = 0,
    that is when L is nilpotent of class at most 2."""
    rep = report(L)
    cls = rep.nilpotency_class
    return Fingerprint(
        sdim_L=rep.sdim_L,
        sdim_L2=rep.sdim_L2,
        sdim_Z=rep.sdim_Z,
        smr=rep.smr,
        nilpotency_class=cls,
        derived_in_center=cls is not None and cls <= 2,
    )


ABELIAN = "Abelian"
H10 = "H(1,0)"
H10_AB10 = "H(1,0)+Ab(1,0)"
H10_AB01 = "H(1,0)+Ab(0,1)"
H01 = "H(0,1)"


@dataclass(frozen=True)
class TableEntry:
    label: str
    smr: SuperDim


@dataclass(frozen=True)
class NotCovered:
    reason: str
    contradiction: bool = False


TABLE = (
    TableEntry(ABELIAN, SuperDim(0, 0)),
    TableEntry(H10, SuperDim(1, 0)),
    TableEntry(H10_AB10, SuperDim(2, 0)),
    TableEntry(H10_AB01, SuperDim(1, 1)),
    TableEntry(H01, SuperDim(1, 1)),
)


@lru_cache(maxsize=None)
def _models() -> dict[str, LieSuperalgebra]:
    return {L.name: L for L in model_registry()}


def _model(label: str) -> LieSuperalgebra:
    return _models()[label]


def classify_mr_le2(L: LieSuperalgebra):
    """The ``TABLE`` row a nilpotent algebra of multiplier-rank <= 2 matches,
    or a NotCovered outcome.  A rank <= 2 algebra missing every table fingerprint
    would falsify the classification and is flagged as a contradiction."""
    nil, _ = core.is_nilpotent(L)
    if not nil:
        raise NotNilpotent(L.name)
    fp = fingerprint(L)
    if fp.sdim_L2 == ZERO:
        return TABLE[0]
    if fp.smr.total() > 2:
        return NotCovered(f"mr = {fp.smr.total()} > 2")
    for entry in TABLE[1:]:
        if fp == fingerprint(_model(entry.label)):
            return entry
    return NotCovered(
        f"mr <= 2 but fingerprint {fp} matches no table row", contradiction=True)


@dataclass(frozen=True, eq=False)
class TableReport:
    rows: tuple[tuple[str, SuperDim, SuperDim, bool], ...]  # label, expected smr, got, ok
    fingerprints_distinct: bool

    @property
    def all_ok(self) -> bool:
        return self.fingerprints_distinct and all(ok for *_, ok in self.rows)


# the abelian grid of verify_theorem_table: every Ab(m, n) with m + n <= this
_MAX_ABELIAN_TOTAL = 5


def verify_theorem_table() -> TableReport:
    """Rebuild all five table families, recompute smr for each, and confirm
    the expected values; abelian algebras are sampled over a grid."""
    rows = []
    for m in range(_MAX_ABELIAN_TOTAL + 1):
        for n in range(_MAX_ABELIAN_TOTAL + 1 - m):
            got = report(abelian(m, n)).smr
            rows.append((f"Ab({m},{n})", SuperDim(0, 0), got, got == SuperDim(0, 0)))
    for entry in TABLE[1:]:
        got = report(_model(entry.label)).smr
        rows.append((entry.label, entry.smr, got, got == entry.smr))
    fps = [fingerprint(_model(e.label)) for e in TABLE[1:]]
    distinct = len(set(fps)) == len(fps)
    return TableReport(rows=tuple(rows), fingerprints_distinct=distinct)
