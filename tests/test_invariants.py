from fractions import Fraction

import pytest

from superlie.constructions import (
    abelian,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.core import direct_sum
from superlie.errors import NonHomogeneous, NotInSecondCenterMinusCenter
from superlie.invariants import (
    check_bounds,
    kunneth_check,
    lambda_mu,
    report,
    sdr_report,
)
from superlie.superdim import SignedPair, SuperDim, ZERO, bound

F = Fraction


def test_report_h10():
    rep = report(heisenberg_even(1, 0))
    assert rep.sdim_L == SuperDim(3, 0)
    assert rep.sdim_L2 == SuperDim(1, 0)
    assert rep.sdim_Z == SuperDim(1, 0)
    assert rep.sdim_LmodZ == SuperDim(2, 0)
    assert rep.sdim_M == SuperDim(2, 0)
    assert rep.smr == SignedPair(1, 0) and rep.mr == 1
    assert rep.sdr == ZERO and rep.dr == 0
    assert rep.nilpotency_class == 2


def test_report_h01():
    rep = report(heisenberg_even(0, 1))
    assert rep.sdim_M == ZERO
    assert rep.smr == SignedPair(1, 1) and rep.mr == 2
    assert rep.sdr == ZERO


def test_report_odd_heisenberg():
    rep = report(heisenberg_odd(2))
    assert rep.sdim_L == SuperDim(2, 3)
    assert rep.sdim_M == SuperDim(4, 3)
    assert rep.smr == SignedPair(3, 3) and rep.mr == 6
    assert rep.sdr == SignedPair(4, 3) and rep.dr == 7
    assert rep.nilpotency_class == 2


def test_report_l4():
    rep = report(model_l4())
    assert rep.sdim_M == SuperDim(2, 0)
    assert rep.smr == SignedPair(4, 0) and rep.mr == 4
    assert rep.sdr == SignedPair(1, 0) and rep.dr == 1
    assert rep.nilpotency_class == 3


def test_report_abelian_and_non_nilpotent():
    rep = report(abelian(2, 1))
    assert rep.smr == ZERO
    assert rep.nilpotency_class == 1
    from superlie.core import validate
    so3 = validate([0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    assert report(so3).nilpotency_class is None


def test_sdr_report_matches_report():
    for L in model_registry():
        sdr, dr = sdr_report(L)
        rep = report(L)
        assert sdr == rep.sdr and dr == rep.dr


def test_lambda_mu_l4():
    L = model_l4()
    lam, mu = lambda_mu(L, L.basis_vector(2))
    assert lam == SuperDim(1, 0)
    assert mu == SuperDim(2, 0)


def test_lambda_mu_direct_sum():
    L = direct_sum(heisenberg_even(1, 0), abelian(1, 0))
    lam, mu = lambda_mu(L, L.basis_vector(0))  # u1 in the Heisenberg summand
    assert lam == SuperDim(1, 0)
    assert mu == ZERO


def test_lambda_mu_odd_element():
    L = heisenberg_odd(1)
    lam, mu = lambda_mu(L, L.basis_vector(2))  # w1
    assert lam == SuperDim(0, 1)
    assert mu == ZERO


def test_lambda_mu_domain_errors():
    L = model_l4()
    with pytest.raises(NotInSecondCenterMinusCenter):
        lambda_mu(L, L.basis_vector(3))  # central
    with pytest.raises(NotInSecondCenterMinusCenter):
        lambda_mu(L, L.basis_vector(0))  # outside the second center
    K = heisenberg_even(1, 1)
    with pytest.raises(NonHomogeneous):
        lambda_mu(K, (F(1), F(0), F(0), F(1)))


def test_check_bounds_models():
    for L in model_registry() + [abelian(3, 2)]:
        assert check_bounds(L).all_ok


def test_check_bounds_fields_h11():
    r = check_bounds(heisenberg_even(1, 1))
    assert r.sdim_L2_cap_Z == SuperDim(1, 0)
    assert r.sdim_M_of_LmodZ == SuperDim(2, 2)
    assert r.derived_le_bound and r.multiplier_le_bound
    assert r.central_derived_le_quotient_multiplier


def test_multiplier_bound_strict_for_h20():
    r = check_bounds(heisenberg_even(2, 0))
    assert r.sdim_M == SuperDim(5, 0)
    assert r.sdim_M.leq(bound(r.sdim_L)) and r.sdim_M != bound(r.sdim_L)


def test_abelian_attains_bound():
    for m in range(4):
        for n in range(4 - m):
            assert report(abelian(m, n)).smr == ZERO


def test_kunneth_examples():
    r = kunneth_check(heisenberg_even(1, 0), heisenberg_even(1, 0))
    assert r.equal and r.lhs == SuperDim(8, 0)
    r = kunneth_check(abelian(1, 0), abelian(0, 1))
    assert r.equal and r.lhs == SuperDim(1, 1)
    r = kunneth_check(heisenberg_even(1, 0), abelian(0, 1))
    assert r.equal and r.lhs == SuperDim(3, 2)
    r = kunneth_check(model_l4(), abelian(0, 0))
    assert r.equal and r.lhs == SuperDim(2, 0)
