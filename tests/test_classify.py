import random

import pytest

from base_change import random_parity_preserving
from superlie.classify import (
    ABELIAN,
    H01,
    H10,
    H10_AB01,
    H10_AB10,
    NotCovered,
    TABLE,
    TableEntry,
    classify_mr_le2,
    fingerprint,
    verify_theorem_table,
    _model,
)
from superlie.constructions import (
    abelian,
    heisenberg_even,
    heisenberg_odd,
    model_l4,
    model_registry,
)
from superlie.core import change_basis, direct_sum, validate
from superlie.errors import NotNilpotent
from superlie.superdim import SuperDim


def test_table_contents():
    assert [e.label for e in TABLE] == [ABELIAN, H10, H10_AB10, H10_AB01, H01]
    assert [e.smr for e in TABLE] == [SuperDim(0, 0), SuperDim(1, 0), SuperDim(2, 0),
                                      SuperDim(1, 1), SuperDim(1, 1)]


def test_classify_abelian():
    out = classify_mr_le2(abelian(4, 2))
    assert isinstance(out, TableEntry) and out.label == ABELIAN


def test_classify_table_round_trips():
    cases = [
        (heisenberg_even(1, 0), H10),
        (heisenberg_even(0, 1), H01),
        (direct_sum(heisenberg_even(1, 0), abelian(1, 0)), H10_AB10),
        (direct_sum(heisenberg_even(1, 0), abelian(0, 1)), H10_AB01),
    ]
    for L, label in cases:
        out = classify_mr_le2(L)
        assert isinstance(out, TableEntry)
        assert out.label == label
        expected = next(e.smr for e in TABLE if e.label == label)
        assert out.smr == expected


def test_classify_high_rank_not_covered():
    out = classify_mr_le2(model_l4())
    assert isinstance(out, NotCovered)
    assert not out.contradiction
    assert "mr = 4" in out.reason
    out = classify_mr_le2(heisenberg_odd(2))
    assert isinstance(out, NotCovered) and not out.contradiction


def test_classify_rejects_non_nilpotent():
    so3 = validate([0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    with pytest.raises(NotNilpotent):
        classify_mr_le2(so3)


def test_classification_invariant_under_base_change():
    rng = random.Random(11)
    for L, label in [(heisenberg_even(1, 0), H10), (heisenberg_even(0, 1), H01)]:
        for _ in range(5):
            P = random_parity_preserving(rng, L)
            out = classify_mr_le2(change_basis(L, P))
            assert isinstance(out, TableEntry) and out.label == label


def test_fingerprint_distinguishes_table_rows():
    fps = [
        fingerprint(heisenberg_even(1, 0)),
        fingerprint(heisenberg_even(0, 1)),
        fingerprint(direct_sum(heisenberg_even(1, 0), abelian(1, 0))),
        fingerprint(direct_sum(heisenberg_even(1, 0), abelian(0, 1))),
    ]
    assert len(set(fps)) == 4
    assert fps[0] == fingerprint(_model(H10))


def test_table_models_are_the_registry_algebras_the_labels_name():
    registry = model_registry()
    for entry in TABLE[1:]:
        named = [L for L in registry if L.name == entry.label]
        assert len(named) == 1
        assert _model(entry.label) == named[0]
        assert _model(entry.label) is _model(entry.label)
    with pytest.raises(KeyError):
        _model(ABELIAN)


def test_fingerprint_fields():
    fp = fingerprint(heisenberg_even(1, 0))
    assert fp.sdim_L == SuperDim(3, 0)
    assert fp.sdim_L2 == SuperDim(1, 0)
    assert fp.sdim_Z == SuperDim(1, 0)
    assert fp.smr == SuperDim(1, 0)
    assert fp.nilpotency_class == 2
    assert fp.derived_in_center


def test_verify_theorem_table():
    rep = verify_theorem_table()
    assert rep.all_ok
    assert rep.fingerprints_distinct
    labels = [row[0] for row in rep.rows]
    for label in (H10, H10_AB10, H10_AB01, H01):
        assert label in labels
    assert all(ok for *_, ok in rep.rows)
