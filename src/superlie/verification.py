"""The end-to-end verification suite behind the ``verify-paper`` command.

Each check recomputes a published claim from scratch on constructed families
or on a seeded random nilpotent corpus and reports pass/fail.  The ledger
keys are the stable identifiers the CLI contract prescribes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .classify import (
    ABELIAN,
    H10,
    H10_AB01,
    H10_AB10,
    NotCovered,
    TableEntry,
    _models,
    classify_mr_le2,
    verify_theorem_table,
)
from .cohomology import multiplier
from .constructions import abelian, heisenberg_even, heisenberg_odd, model_l4
from .core import _act
from .corpus import corpus
from .invariants import (
    _central_quotient,
    _z2_action,
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
    """Homogeneous representatives of Z₂(L) outside Z(L): per parity, the
    canonical rows of Z₂ and random mixtures a + c·b of two of them, each
    kept when it acts, that is, when its brackets with the basis are not all
    zero (``invariants._z2_action``)."""
    table, out = _z2_action(L), []
    for q in (0, 1):
        rows = [(row, action) for p, row, action in table if L.parities[p] == q and action]
        out.extend(linalg._dense(dict(row), L.dim) for row, _ in rows)
        for _ in range(_Z2_MIXES):
            if len(rows) >= 2:
                (a, act_a), (b, act_b) = rng.sample(rows, 2)
                c = Fraction(rng.randint(1, 3))
                if _act(((1, act_a), (c, act_b))):
                    v = dict(a)
                    linalg._axpy(v, c, dict(b))
                    out.append(linalg._dense(v, L.dim))
    return out


def run_paper_checks(seed: int = 0, corpus_size: int = 100) -> dict[str, CheckResult]:
    algebras = corpus(seed, corpus_size)
    rng = random.Random(seed + 1)
    results: dict[str, CheckResult] = {}
    reports = [report(L) for L in algebras]
    bound_reports = [check_bounds(L) for L in algebras]
    outcomes = [classify_mr_le2(L) for L in algebras]

    for key, field, what in (
            ("Lemma 2.2", "derived_le_bound", "derived"),
            ("Lemma 2.3", "multiplier_le_bound", "multiplier"),
            ("Lemma 2.4", "central_derived_le_quotient_multiplier", "central-derived")):
        results[key] = CheckResult(all(getattr(b, field) for b in bound_reports),
                                   f"{what} bound on {len(algebras)} corpus algebras")

    named = [abelian(1, 0), abelian(0, 1), abelian(2, 2), heisenberg_even(1, 0),
             heisenberg_even(0, 1), heisenberg_odd(1), heisenberg_odd(2), model_l4()]
    pairs = [(rng.choice(named), rng.choice(named)) for _ in range(20)]
    pairs += [(rng.choice(algebras), rng.choice(algebras)) for _ in range(10)]
    # each distinct pair once; the detail counts every pair drawn
    sum_ok = all(kunneth_check(A, B).equal for A, B in dict.fromkeys(pairs))
    results["Lemma 2.5"] = CheckResult(sum_ok, f"direct-sum formula on {len(pairs)} pairs")

    # the table's abelian rows hold smr = bound(sdim) - sdim M = (0, 0) exactly
    # when sdim M = bound(sdim)
    table = verify_theorem_table()
    ab_rows = [row for row in table.rows if row[0].startswith("Ab(")]
    grid_ok = bool(ab_rows) and all(ok for *_, ok in ab_rows)
    # the table's models, built once per process with their invariants memoized
    nonab_ok = all(report(L).smr != ZERO for L in _models().values())
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
    for L, r in zip(algebras, reports):
        m_n = r.sdim_LmodZ
        for z in _central_z2_samples(L, rng):
            lam, mu = lambda_mu(L, z)
            if L.vector_parity(z) == 0:
                lm_ok &= lam.leq(m_n - SignedPair(1, 0)) and mu.leq(m_n - SignedPair(1, 0))
            else:
                lm_ok &= mu.leq(m_n - SignedPair(0, 1))
    results["Lemma 4.1"] = CheckResult(lm_ok, "lambda/mu bounds on corpus second centers")

    l46_ok = True
    for L, r in zip(algebras, reports):
        if r.sdr == ZERO:
            out = classify_mr_le2(_central_quotient(L))
            l46_ok &= isinstance(out, TableEntry) and out.label in (ABELIAN, H10)
    results["Lemma 4.6"] = CheckResult(l46_ok, "sdr=(0,0) forces abelian or H(1,0) quotient")

    def rows_hold(mr: int) -> bool:
        """Every corpus algebra of multiplier-rank ``mr`` is classified to a
        table row, and the row states the smr the algebra has."""
        return all(isinstance(out, TableEntry) and out.smr == r.smr
                   for r, out in zip(reports, outcomes) if r.mr == mr)

    results["Prop 4.8"] = CheckResult(
        rows_hold(1), "no smr=(0,1); smr=(1,0) matches the H(1,0) fingerprint")

    no_flag = not any(isinstance(out, NotCovered) and out.contradiction for out in outcomes)
    # the table rows state smr = bound(sdim L) - sdim M; a missing row raises
    row_ok = {label: ok for label, *_, ok in table.rows}
    models_ok = row_ok[H10_AB10] and row_ok[H10_AB01]
    results["Prop 5.6"] = CheckResult(
        rows_hold(2) and no_flag and models_ok, "rank-2 fingerprints and direct-sum multipliers")

    results["Theorem table"] = CheckResult(
        table.all_ok, f"{len(table.rows)} rows confirmed, fingerprints distinct")
    return results
