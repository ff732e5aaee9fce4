"""One bracket table per algebra, read through one action routine.

``core._int_table`` is the algebra's one bracket table, D·c in integers,
built once per algebra; ``core._action`` is its one reader for brackets with
the basis.  ``core._transport`` builds the constants of ``change_basis``,
``quotient`` and ``core._adapted`` from each new column's action; each of
its calls is compared with the former ``linalg._transport``
(``reference_linalg.transport``), which multiplied every pair of columns on
the table, on the invariant cache's algebras, the rational conjugates, the
class-3 inputs and the conjugates of the basechange-dense workload.  The
table's body runs once per algebra over ``validate``, ``report`` and
``multiplier``.
"""

import random
from fractions import Fraction as F

import pytest

import reference_linalg
import test_jacobi_decision
from superlie import core
from superlie.cohomology import multiplier
from superlie.core import center, change_basis, derived_subalgebra, quotient, validate
from superlie.invariants import report
from test_bracket_table import CLASS_3
from test_invariant_cache import ALGEBRAS, _fresh
from test_multiplier_count import RATIONAL
from test_subspace_calculus import _bench_conjugates

GROUPS = {"algebras": ALGEBRAS, "rational": RATIONAL, "class-3": CLASS_3}


def _table_builds(monkeypatch):
    """Patch ``core._memo`` so that each run of ``_int_table``'s body is
    recorded, with the algebra it ran on, in the returned list."""
    builds, memo = [], core._memo

    def recorded(L, key, compute):
        if key == "_int_table":
            return memo(L, key, lambda: builds.append(L) or compute())
        return memo(L, key, compute)

    monkeypatch.setattr(core, "_memo", recorded)
    return builds


def _checked_transports(monkeypatch):
    """Patch ``core._transport`` to compare the constants of each call with
    the former ``linalg._transport`` on the same integer table; the
    returned list records the algebra of each call."""
    calls, transport = [], core._transport

    def checked(L, pairs, cols, coords):
        got = transport(L, pairs, cols, coords)
        assert got == reference_linalg.transport(*core._int_table(L), pairs, cols, coords)
        calls.append(L)
        return got

    monkeypatch.setattr(core, "_transport", checked)
    return calls


def _conjugator(L, rng):
    """An upper triangular, parity-preserving P with a nonzero rational
    diagonal and entries 0, ±1 and 1/2 above it: invertible, and dense
    enough that most conjugates have an L² without unit rows."""
    p, d = L.parities, L.dim
    return [[F(rng.choice((1, 2, 3)), rng.choice((1, 2))) if i == j
             else rng.choice((0, 0, 1, -1, F(1, 2))) if i < j and p[i] == p[j] else 0
             for j in range(d)] for i in range(d)]


def _transport_everything(L, P):
    """change_basis(L, P), then on the conjugate C its quotients by Z(C)
    and C², and C's adapted conjugate, rebuilt on a fresh copy."""
    C = change_basis(L, P)
    quotient(C, center(C))
    quotient(C, derived_subalgebra(C))
    return core._adapted(_fresh(C))


@pytest.mark.parametrize("group", GROUPS)
def test_transports_match_the_pairwise_reference(monkeypatch, group):
    calls = _checked_transports(monkeypatch)
    rng = random.Random(group)
    adapted = [_transport_everything(L, _conjugator(L, rng)) for L in GROUPS[group]]
    assert len(calls) >= 3 * len(GROUPS[group])
    assert any(A is not None for A in adapted)


def test_bench_conjugate_transports_match_the_pairwise_reference(monkeypatch):
    cases = _bench_conjugates(monkeypatch)
    calls = _checked_transports(monkeypatch)
    adapted = [_transport_everything(L, P) for L, P in cases]
    assert len(calls) >= 3 * len(cases)
    assert sum(A is not None for A in adapted) == 4  # the two H(k) keep L² on unit rows


@pytest.mark.parametrize("group", [*GROUPS, "dense"])
def test_int_table_is_built_once_per_algebra(monkeypatch, group):
    """Over ``validate``, ``report`` and ``multiplier``, the table's body runs
    once on each algebra read, the input among them, and never twice on one,
    conjugates and quotients included."""
    builds = _table_builds(monkeypatch)
    inputs = []
    for L in GROUPS.get(group, test_jacobi_decision.DENSE):
        K = validate(L.parities, {key: dict(vec) for key, vec in L.constants}, L.name, L.labels)
        report(K)
        multiplier(K)
        inputs.append(K)
    assert len({id(A) for A in builds}) == len(builds)
    assert all(sum(A is K for A in builds) == 1 for K in inputs)

