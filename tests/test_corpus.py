import gc
import hashlib
import random
import weakref

import pytest

import reference_core as reference
from superlie import corpus as corpus_module
from superlie.core import is_nilpotent
from superlie.corpus import MAX_EVEN, MAX_ODD, corpus
from superlie.errors import InvalidParams
from superlie.fileformat import emit


def test_corpus_reproducible():
    a = corpus(42, 8)
    b = corpus(42, 8)
    assert len(a) == len(b) == 8
    for x, y in zip(a, b):
        assert x.structure_equals(y)


def test_corpus_seeds_differ():
    a = corpus(1, 6)
    b = corpus(2, 6)
    assert any(not x.structure_equals(y) for x, y in zip(a, b))


def test_corpus_all_nilpotent_within_caps():
    for L in corpus(7, 25):
        nil, cls = is_nilpotent(L)
        assert nil and cls >= 1
        assert L.n_even <= MAX_EVEN and L.n_odd <= MAX_ODD


def test_corpus_reaches_the_fixed_caps():
    algebras = corpus(0, 100)
    assert max(L.n_even for L in algebras) == MAX_EVEN
    assert max(L.n_odd for L in algebras) == MAX_ODD


def test_corpus_hits_nonabelian_and_mixed_parity():
    algebras = corpus(0, 30)
    assert any(L.constants for L in algebras)
    assert any(L.n_odd > 0 for L in algebras)


def test_corpus_is_pinned():
    text = "".join(emit(L) for s in range(8) for L in corpus(s, 100))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1fd6ee82944ec5c3f2f451faee116a9840570b8cdb8bdc1c31a7b389080e32ce")


@pytest.mark.parametrize("seed", range(4))
def test_corpus_matches_reference(seed):
    ref_rng = random.Random(seed)
    assert corpus(seed, 30) == [reference.random_nilpotent(ref_rng) for _ in range(30)]


def test_corpus_rejects_negative_size():
    with pytest.raises(InvalidParams):
        corpus(0, -1)
    assert corpus(0, 0) == []


def test_corpus_holds_one_object_per_distinct_algebra():
    A = corpus(0, 100)
    assert len({id(L) for L in A}) == len(set(A)) < len(A)


def test_corpus_solves_each_algebra_value_once(monkeypatch):
    seen = []
    real = corpus_module.multiplier

    def counting(L):
        seen[-1].append(L)
        return real(L)

    monkeypatch.setattr(corpus_module, "multiplier", counting)
    for s in range(4):
        seen.append([])
        corpus(s, 100)
        assert len(set(seen[-1])) == len(seen[-1])
    assert sum(map(len, seen)) == 233


def test_corpus_calls_share_no_object():
    a, b = corpus(0, 100), corpus(0, 100)
    assert a == b
    assert not {id(L) for L in a} & {id(L) for L in b}


def test_corpus_frees_its_intermediate_algebras(monkeypatch):
    built = []
    real = corpus_module.central_extension

    def recording(L, chosen):
        ext = real(L, chosen)
        built.append(weakref.ref(ext.algebra))
        return ext

    monkeypatch.setattr(corpus_module, "central_extension", recording)
    gc.disable()
    try:
        A = corpus(0, 30)
        kept = {id(L) for L in A}
        live = [r() for r in built if r() is not None]
        assert len(live) < len(built)  # some intermediates were freed ...
        assert all(id(L) in kept for L in live)  # ... and only results live on
    finally:
        gc.enable()
