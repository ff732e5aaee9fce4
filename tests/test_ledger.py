"""The ``verify-paper`` ledger reads the multiplier-rank <= 2 table through
the classifier.

``classify_mr_le2`` returns the ``TABLE`` row it matched, so Props 4.8 and 5.6
compare the row's stated smr with the algebra's, and Lemma 4.6 asks it for the
row of each quotient L/Z(L).  Each fault below rewrites ``report`` in both
``verification`` and ``classify`` and must fail exactly the checks listed with
it.
"""

import random
from dataclasses import replace

import pytest

from base_change import random_parity_preserving
from superlie import classify, verification
from superlie.classify import H10, TABLE, NotCovered, classify_mr_le2
from superlie.cohomology import cover_candidate
from superlie.constructions import abelian, heisenberg_even, model_registry
from superlie.core import change_basis
from superlie.invariants import _central_quotient, report
from superlie.superdim import SuperDim

SEED, SIZE = 0, 100


def _smr_to(old, new):
    return lambda rep, in_corpus: replace(rep, smr=new) if rep.smr == old else rep


def _corpus_center_plus_even(smr):
    """One more even central dimension on the corpus algebras with ``smr``."""
    def fault(rep, in_corpus):
        if in_corpus and rep.smr == smr:
            return replace(rep, sdim_Z=SuperDim(rep.sdim_Z.even + 1, rep.sdim_Z.odd))
        return rep
    return fault


FAULTS = {
    "smr (1,0) -> (0,1)": (_smr_to(SuperDim(1, 0), SuperDim(0, 1)),
                           {"Prop 4.8", "Theorem table"}),
    "smr (1,1) -> (0,2)": (_smr_to(SuperDim(1, 1), SuperDim(0, 2)),
                           {"Prop 5.6", "Theorem table"}),
    "smr (1,1) -> (2,0)": (_smr_to(SuperDim(1, 1), SuperDim(2, 0)),
                           {"Prop 5.6", "Theorem table"}),
    "corpus sdim Z +(1,0) at smr (1,0)": (_corpus_center_plus_even(SuperDim(1, 0)),
                                          {"Prop 4.8", "Prop 5.6"}),
    "corpus sdim Z +(1,0) at smr (1,1)": (_corpus_center_plus_even(SuperDim(1, 1)),
                                          {"Prop 5.6"}),
}


@pytest.fixture
def corpus_algebras(monkeypatch):
    """The list the ledger's corpus call fills, so a fault can tell the
    corpus algebras from the rest."""
    algebras = []
    make_corpus = verification.corpus

    def recording_corpus(seed, size):
        algebras.extend(make_corpus(seed, size))
        return algebras

    monkeypatch.setattr(verification, "corpus", recording_corpus)
    return algebras


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, corpus_algebras, name):
    fault, expected = FAULTS[name]
    changed = []

    def faulty_report(L):
        rep = report(L)
        out = fault(rep, any(L is A for A in corpus_algebras))
        if out is not rep:
            changed.append(L)
        return out

    monkeypatch.setattr(verification, "report", faulty_report)
    monkeypatch.setattr(classify, "report", faulty_report)
    results = verification.run_paper_checks(SEED, SIZE)
    assert changed, "the fault rewrote no report"
    assert {key for key, res in results.items() if not res.passed} == expected


def test_ledger_passes_without_a_fault():
    assert all(res.passed for res in verification.run_paper_checks(SEED, SIZE).values())


def test_lemma_4_6_reads_the_classifier(monkeypatch, corpus_algebras):
    """A classifier that covers no algebra outside the corpus fails Lemma 4.6
    alone: its quotients are the only ones the ledger classifies."""
    asked = []

    def corpus_only(L):
        if any(L is A for A in corpus_algebras):
            return classify_mr_le2(L)
        asked.append(L)
        return NotCovered("outside the corpus")

    monkeypatch.setattr(verification, "classify_mr_le2", corpus_only)
    results = verification.run_paper_checks(SEED, SIZE)
    assert asked, "the ledger classified no quotient"
    assert {key for key, res in results.items() if not res.passed} == {"Lemma 4.6"}


def test_prop_3_1_reads_the_cached_models(monkeypatch):
    """Prop 3.1 reads the model algebras that the classifier already holds,
    with their invariants memoized, and builds no copy of them."""
    seen = []

    def recording_report(L):
        seen.append(L)
        return report(L)

    monkeypatch.setattr(verification, "report", recording_report)
    verification.run_paper_checks(SEED, 10)
    models = classify._models().values()
    assert len(models) == len(model_registry())
    assert all(any(L is M for L in seen) for M in models)


def test_lemma_4_6_h10_branch_witness():
    """The corpus quotients of sdr (0,0) are all abelian; the cover of H(1,0),
    the free class-3 algebra on two even generators, reaches the H(1,0) row."""
    K = cover_candidate(heisenberg_even(1, 0)).algebra
    rep = report(K)
    assert (K.dim, rep.nilpotency_class, rep.sdr) == (5, 3, SuperDim(0, 0))
    out = classify_mr_le2(_central_quotient(K))
    assert out is TABLE[1] and out.label == H10


MODELS = [(abelian(2, 1), TABLE[0])] + [(classify._model(e.label), e) for e in TABLE[1:]]


@pytest.mark.parametrize("L, entry", MODELS, ids=[e.label for _, e in MODELS])
def test_classifier_returns_the_table_row(L, entry):
    rng = random.Random(13)
    assert classify_mr_le2(L) is entry
    for _ in range(3):
        assert classify_mr_le2(change_basis(L, random_parity_preserving(rng, L))) is entry
