"""The end-to-end verification suite behind the ``verify-paper`` command.

Each check recomputes a published claim from scratch on constructed families
or on a seeded random nilpotent corpus and reports pass/fail.  The ledger
keys are the stable identifiers the CLI contract prescribes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .classify import (
    H01,
    NotCovered,
    classify_mr_le2,
    h10_fingerprint,
    fingerprint,
    verify_theorem_table,
    _model,
    _model_fingerprint,
    H10_AB01,
    H10_AB10,
)
from .cohomology import multiplier
from .constructions import abelian, heisenberg_even, heisenberg_odd, model_l4, model_registry
from .corpus import corpus
from .invariants import (
    _central_quotient,
    _sdim_M,
    check_bounds,
    kunneth_check,
    lambda_mu,
    report,
)
from .superdim import SignedPair, SuperDim, ZERO


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str


def expected_heisenberg_even_multiplier(p: int, q: int) -> SuperDim:
    if (p, q) == (0, 1):
        return SuperDim(0, 0)
    if (p, q) == (1, 0):
        return SuperDim(2, 0)
    return SuperDim(2 * p * p - p + (q * q + q) // 2 - 1, 2 * p * q)


def expected_heisenberg_odd_multiplier(k: int) -> SuperDim:
    if k == 1:
        return SuperDim(1, 1)
    return SuperDim(k * k, k * k - 1)


# random combinations of two basis rows that _central_z2_samples tries per parity
_Z2_MIXES = 2


def _central_z2_samples(L, rng: random.Random):
    """Homogeneous representatives of Z₂(L) outside Z(L)."""
    Z = core.center(L)
    Z2 = core.second_center(L)
    out = []
    for rows in (Z2.even_rows, Z2.odd_rows):
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


def run_paper_checks(seed: int = 0, corpus_size: int = 100) -> dict[str, CheckResult]:
    algebras = corpus(seed, corpus_size)
    rng = random.Random(seed + 1)
    results: dict[str, CheckResult] = {}
    bound_reports = [(L, check_bounds(L)) for L in algebras]

    bad = [L.name for L, r in bound_reports if not r.derived_le_bound]
    results["Lemma 2.2"] = CheckResult(
        not bad, f"derived bound on {len(algebras)} corpus algebras")

    bad = [L.name for L, r in bound_reports if not r.multiplier_le_bound]
    results["Lemma 2.3"] = CheckResult(
        not bad, f"multiplier bound on {len(algebras)} corpus algebras")

    bad = [L.name for L, r in bound_reports if not r.central_derived_le_quotient_multiplier]
    results["Lemma 2.4"] = CheckResult(
        not bad, f"central-derived bound on {len(algebras)} corpus algebras")

    named = [abelian(1, 0), abelian(0, 1), abelian(2, 2), heisenberg_even(1, 0),
             heisenberg_even(0, 1), heisenberg_odd(1), heisenberg_odd(2), model_l4()]
    pairs = [(rng.choice(named), rng.choice(named)) for _ in range(20)]
    pairs += [(rng.choice(algebras), rng.choice(algebras)) for _ in range(10)]
    sum_ok = all(kunneth_check(A, B).equal for A, B in pairs)
    results["Lemma 2.5"] = CheckResult(sum_ok, f"direct-sum formula on {len(pairs)} pairs")

    # the table's abelian rows hold smr = bound(sdim) - sdim M = (0, 0) exactly
    # when sdim M = bound(sdim)
    table = verify_theorem_table()
    ab_rows = [row for row in table.rows if row[0].startswith("Ab(")]
    grid_ok = bool(ab_rows) and all(ok for *_, ok in ab_rows)
    nonab_ok = all(report(L).smr != ZERO for L in model_registry())
    results["Prop 3.1"] = CheckResult(
        grid_ok and nonab_ok, "abelian grid has smr=(0,0); non-abelian models do not")

    even_ok = all(
        multiplier(heisenberg_even(p, q)).sdim_M == expected_heisenberg_even_multiplier(p, q)
        for p in range(4) for q in range(4) if p + q >= 1)
    results["Prop 4.4"] = CheckResult(even_ok, "even-center Heisenberg multipliers, p,q <= 3")

    odd_ok = all(
        multiplier(heisenberg_odd(k)).sdim_M == expected_heisenberg_odd_multiplier(k)
        for k in range(1, 5))
    results["Prop 4.5"] = CheckResult(odd_ok, "odd-center Heisenberg multipliers, k <= 4")

    lm_ok = True
    for L in algebras:
        m_n = report(L).sdim_LmodZ
        for z in _central_z2_samples(L, rng):
            lam, mu = lambda_mu(L, z)
            if L.vector_parity(z) == 0:
                lm_ok &= lam.leq(m_n - SignedPair(1, 0)) and mu.leq(m_n - SignedPair(1, 0))
            else:
                lm_ok &= mu.leq(m_n - SignedPair(0, 1))
    results["Lemma 4.1"] = CheckResult(lm_ok, "lambda/mu bounds on corpus second centers")

    l46_ok = True
    for L in algebras:
        if report(L).sdr == ZERO:
            qfp = fingerprint(_central_quotient(L))
            l46_ok &= qfp.sdim_L2 == ZERO or qfp == h10_fingerprint()
    results["Lemma 4.6"] = CheckResult(l46_ok, "sdr=(0,0) forces abelian or H(1,0) quotient")

    reports = [report(L) for L in algebras]
    no_01 = all(r.smr != SignedPair(0, 1) for r in reports)
    rank1_ok = all(fingerprint(L) == h10_fingerprint()
                   for L, r in zip(algebras, reports) if r.smr == SignedPair(1, 0))
    results["Prop 4.8"] = CheckResult(
        no_01 and rank1_ok, "no smr=(0,1); smr=(1,0) matches the H(1,0) fingerprint")

    no_02 = all(r.smr != SignedPair(0, 2) for r in reports)
    p56_ok = no_02
    for L, r in zip(algebras, reports):
        if r.smr == SignedPair(2, 0):
            p56_ok &= fingerprint(L) == _model_fingerprint(H10_AB10)
        if r.smr == SignedPair(1, 1):
            p56_ok &= fingerprint(L) in (_model_fingerprint(H10_AB01), _model_fingerprint(H01))
    p56_ok &= _sdim_M(_model(H10_AB10)) == SuperDim(4, 0)
    p56_ok &= _sdim_M(_model(H10_AB01)) == SuperDim(3, 2)
    no_flag = all(
        not (isinstance(out, NotCovered) and out.contradiction)
        for out in (classify_mr_le2(L) for L in algebras))
    results["Prop 5.6"] = CheckResult(
        p56_ok and no_flag, "rank-2 fingerprints and direct-sum multipliers")

    results["Theorem table"] = CheckResult(
        table.all_ok, f"{len(table.rows)} rows confirmed, fingerprints distinct")
    return results
