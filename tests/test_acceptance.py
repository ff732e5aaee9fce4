"""The ten acceptance criteria.

Every comparison is exact: all quantities are superdimensions obtained from
rational matrix ranks, so the tolerance is zero throughout.  Each criterion
contributes one pass/fail line to the terminal summary.
"""

import random

import pytest

from base_change import random_parity_preserving
from conftest import record
from superlie.classify import (
    NotCovered,
    TableEntry,
    classify_mr_le2,
    fingerprint,
    verify_theorem_table,
)
from superlie.cohomology import cover_candidate, multiplier
from superlie.constructions import (
    abelian,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.core import center, change_basis, direct_sum, quotient
from superlie.corpus import corpus
from superlie.invariants import check_bounds, kunneth_check, lambda_mu, report
from superlie.superdim import SignedPair, SuperDim, ZERO, bound
from superlie.verification import _central_z2_samples

FORBIDDEN_SMR = (SignedPair(0, 1), SignedPair(0, 2))


def check(num: int, desc: str, ok: bool) -> None:
    record(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def big_corpus():
    return corpus(6, 100)


def test_criterion_01_even_heisenberg_multipliers():
    ok = multiplier(heisenberg_even(0, 1)).sdim_M == SuperDim(0, 0)
    ok &= multiplier(heisenberg_even(1, 0)).sdim_M == SuperDim(2, 0)
    for p in range(4):
        for q in range(4):
            if p + q < 2:
                continue
            expected = SuperDim(2 * p * p - p + (q * q + q) // 2 - 1, 2 * p * q)
            ok &= multiplier(heisenberg_even(p, q)).sdim_M == expected
    check(1, "even-center Heisenberg multipliers, grid p,q <= 3", ok)


def test_criterion_02_odd_heisenberg_multipliers():
    ok = multiplier(heisenberg_odd(1)).sdim_M == SuperDim(1, 1)
    for k in range(2, 5):
        ok &= multiplier(heisenberg_odd(k)).sdim_M == SuperDim(k * k, k * k - 1)
    check(2, "odd-center Heisenberg multipliers, k <= 4", ok)


def test_criterion_03_abelian_characterization():
    ok = True
    for m in range(6):
        for n in range(6 - m):
            ok &= multiplier(abelian(m, n)).sdim_M == bound(SuperDim(m, n))
            ok &= report(abelian(m, n)).smr == ZERO
    for L in model_registry():
        ok &= report(L).smr != ZERO
    check(3, "smr = (0,0) exactly for abelian algebras", ok)


def test_criterion_04_theorem_table():
    table = verify_theorem_table()
    ok = table.all_ok
    ok &= multiplier(direct_sum(heisenberg_even(1, 0), abelian(1, 0))).sdim_M == SuperDim(4, 0)
    ok &= multiplier(direct_sum(heisenberg_even(1, 0), abelian(0, 1))).sdim_M == SuperDim(3, 2)
    check(4, "theorem table rows and direct-sum intermediates", ok)


def test_criterion_05_direct_sum_formula(big_corpus):
    rng = random.Random(5)
    named = [abelian(m, n) for m in range(3) for n in range(3)]
    named += [heisenberg_even(1, 0), heisenberg_even(0, 1),
              heisenberg_odd(1), heisenberg_odd(2), model_l4()]
    pairs = [(rng.choice(named), rng.choice(named)) for _ in range(20)]
    pairs += [(rng.choice(big_corpus), rng.choice(big_corpus)) for _ in range(10)]
    ok = all(kunneth_check(A, B).equal for A, B in pairs)
    check(5, "direct-sum multiplier formula on 30 pairs", ok)


def test_criterion_06_bound_suite(big_corpus):
    ok = len(big_corpus) >= 100
    ok &= all(check_bounds(L).all_ok for L in big_corpus)
    check(6, "dimension bounds on a 100-algebra nilpotent corpus", ok)


def test_criterion_07_forbidden_and_rank1(big_corpus):
    h10 = fingerprint(heisenberg_even(1, 0))
    ok = True
    for L in big_corpus:
        rep = report(L)
        ok &= rep.smr not in FORBIDDEN_SMR
        if rep.smr == SignedPair(1, 0):
            ok &= fingerprint(L) == h10
        if rep.mr <= 2:
            out = classify_mr_le2(L)
            ok &= isinstance(out, TableEntry)
            ok &= not (isinstance(out, NotCovered) and out.contradiction)
    check(7, "forbidden ranks absent; rank-1 and rank-2 recognition", ok)


def test_criterion_08_structural_quotients(big_corpus):
    h10 = fingerprint(heisenberg_even(1, 0))
    rng = random.Random(8)
    ok = True
    for L in big_corpus:
        rep = report(L)
        if rep.sdr == ZERO:
            Q, _ = quotient(L, center(L))
            qfp = fingerprint(Q)
            ok &= qfp.sdim_L2 == ZERO or qfp == h10
        m_n = rep.sdim_LmodZ
        for z in _central_z2_samples(L, rng):
            lam, mu = lambda_mu(L, z)
            if L.vector_parity(z) == 0:
                ok &= lam.leq(m_n - SignedPair(1, 0))
                ok &= mu.leq(m_n - SignedPair(1, 0))
            else:
                ok &= mu.leq(m_n - SignedPair(0, 1))
    check(8, "sdr = (0,0) quotients and lambda/mu bounds", ok)


def _report_fields(rep):
    return (rep.sdim_L, rep.sdim_L2, rep.sdim_Z, rep.sdim_LmodZ, rep.sdim_M,
            rep.smr, rep.mr, rep.sdr, rep.dr, rep.nilpotency_class)


def test_criterion_09_base_change_invariance():
    rng = random.Random(9)
    ok = True
    for L in (heisenberg_even(2, 1), heisenberg_odd(2), model_l4()):
        baseline = _report_fields(report(L))
        for _ in range(20):
            P = random_parity_preserving(rng, L)
            ok &= _report_fields(report(change_basis(L, P))) == baseline
    check(9, "invariants stable under 20 random basis changes per model", ok)


def test_criterion_10_cover_round_trip():
    ok = True
    for L in (abelian(2, 1), heisenberg_even(1, 0), heisenberg_even(0, 1)):
        ext = cover_candidate(L)
        ok &= ext.stem_ok
        pair = ext.as_defining_pair()  # validates M <= Z(K) and M <= K^2
        ok &= pair.M.sdim == multiplier(L).sdim_M
        Q, _ = quotient(pair.K, pair.M)
        ok &= Q.structure_equals(L)
    check(10, "cover candidates are defining pairs that quotient back", ok)
