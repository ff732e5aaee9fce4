"""Exact-arithmetic invariants for finite-dimensional Lie superalgebras."""

from .superdim import SignedPair, SuperDim, bound, tensor
from .core import (
    DefiningPair,
    LieSuperalgebra,
    Subspace,
    bracket_subspaces,
    center,
    change_basis,
    derived_subalgebra,
    direct_sum,
    is_nilpotent,
    lower_central_series,
    quotient,
    second_center,
    validate,
)
from .constructions import (
    abelian,
    builtin,
    free_two_step_cover,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
)
from .cohomology import (
    CentralExtension,
    Cochain2,
    MultiplierResult,
    central_extension,
    cover_candidate,
    multiplier,
)
from .invariants import (
    BoundReport,
    InvariantReport,
    check_bounds,
    kunneth_check,
    lambda_mu,
    report,
    sdr_report,
)
from .classify import (
    Fingerprint,
    NotCovered,
    TableEntry,
    classify_mr_le2,
    fingerprint,
    verify_theorem_table,
)
from .fileformat import emit, parse

__all__ = [name for name in dir() if not name.startswith("_")]
