"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

sl = run.load_library()
METER = yardstick.Speedometer(period=None)

# small ops from three workloads, so the tests stay fast
SMALL = {
    "heisenberg-sparse": {"invariants H(3,3)", "multiplier H(4)", "invariants Cover(Ab(3,2))"},
    "basechange-dense": {"multiplier P.H(3,3)", "invariants P.H(4)"},
    "cover-build": {"cover H(2,2)", "cover L4", "cover Cover(Ab(2,2))"},
}
COUNT_STATS = ("calls", "cells", "nnz", "dim", "cols", "out_dim", "bytes", "repeat_ratio")


@pytest.fixture(scope="module")
def small_ops(tmp_path_factory):
    ops = []
    for name, labels in SMALL.items():
        wl = workloads.BUILDERS[name](sl, workloads.DEFAULT_SEED, tmp_path_factory.mktemp(name))
        ops += [(name, op) for op in wl.ops if op.label in labels]
    assert len(ops) == sum(len(v) for v in SMALL.values())
    return ops


def _traced_pass(ops):
    tracer = tracing.Tracer()
    with tracer:
        results = run.run_pass(sl.cli, [op for _, op in ops], METER, {}, tracer)
    return tracer, results


def _counts(tracer):
    return {k: v for k, v in tracer.metrics().items() if k.rsplit(".", 1)[1] in COUNT_STATS}


def test_traced_counts_repeat_exactly(small_ops):
    run.run_pass(sl.cli, [op for _, op in small_ops], METER, {})  # fill the library's own caches
    first, _ = _traced_pass(small_ops)
    second, _ = _traced_pass(small_ops)
    assert _counts(first) == _counts(second)
    assert first.metrics()["linalg.rref.calls"] > 0


def test_uninstall_restores_every_binding():
    tracer = tracing.Tracer()
    tracer.install()
    bindings = tracer.bindings
    try:
        for owner, attr, original in bindings:
            assert vars(owner)[attr] is not original
        owners = {t: {type(o).__name__ == "module" and o.__name__ for o, a, orig in bindings
                      if getattr(orig, "__name__", None) == t} for t in ("multiplier", "validate")}
        assert {"superlie", "superlie.cli", "superlie.cohomology", "superlie.corpus",
                "superlie.invariants", "superlie.verification"} <= owners["multiplier"]
        assert {"superlie", "superlie.cohomology", "superlie.constructions", "superlie.core",
                "superlie.fileformat"} <= owners["validate"]
    finally:
        tracer.uninstall()
    for owner, attr, original in bindings:
        assert vars(owner)[attr] is original
    assert sl.multiplier is sl.cohomology.multiplier
    assert not tracer.bindings


MISSING = (tracing.Target("linalg", "no_such_kernel"), tracing.Target("core", "Nope.span"),
           tracing.Target("linalg", "rank", tracing._stats_rows, counts=tracing.MATRIX))


def test_a_missing_target_wraps_nothing():
    rank = sl.linalg.rank
    tracer = tracing.Tracer(targets=MISSING)
    assert tracer.missing == ["linalg.no_such_kernel", "core.Nope.span"]
    with pytest.raises(LookupError, match="linalg.no_such_kernel, core.Nope.span"):
        tracer.install()
    assert not tracer.bindings and sl.linalg.rank is rank


def test_a_missing_target_stops_the_traced_run(monkeypatch, tmp_path, capsys):
    tracer = tracing.Tracer(targets=MISSING)
    monkeypatch.setattr(run.tracing, "Tracer", lambda: tracer)
    args = argparse.Namespace(workload="cover-build", seed=0, seconds=1.0, trace=1)
    wl = workloads.BUILDERS["cover-build"](sl, 0, tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.per_layer(args, sl, wl, tmp_path)
    assert exc.value.code not in (0, None) and "no_such_kernel" in str(exc.value.code)
    assert '"correct"' not in capsys.readouterr().out


def test_wrapping_changes_no_digest(small_ops):
    plain = run.run_pass(sl.cli, [op for _, op in small_ops], METER, {})
    _, traced = _traced_pass(small_ops)
    for (name, op), a, b in zip(small_ops, plain, traced):
        assert a.rc == b.rc == 0
        assert a.digest == b.digest
        frozen = json.loads(workloads.DIGESTS_FILE.read_text())[name]
        assert a.digest == frozen[op.label], op.label


def test_one_text_kept_per_distinct_output(small_ops):
    texts = {}
    ops = [op for _, op in small_ops]
    first = run.run_pass(sl.cli, ops, METER, texts)
    second = run.run_pass(sl.cli, ops, METER, texts)
    assert [r.digest for r in first] == [r.digest for r in second]
    assert len(texts) == len(ops)


def test_checks_pass_and_catch_a_wrong_number(small_ops):
    wl = workloads.Workload("heisenberg-sparse", [], "", seeded=False)
    texts = {}
    results = run.run_pass(sl.cli, [op for _, op in small_ops], METER, texts)
    for (name, _), r in zip(small_ops, results):
        wl.name = name
        assert run.check_results(sl, wl, workloads.DEFAULT_SEED, [r], texts) == []
    r = next(r for r in results if r.op.label == "invariants H(3,3)")
    out = texts[r.op.label, r.digest].replace('"sdim_multiplier": [', '"sdim_multiplier": [1')
    bad = run.OpResult(r.op, r.seconds, r.ref_s, 0, workloads.digest(out), None)
    texts[r.op.label, bad.digest] = out
    wl.name = "heisenberg-sparse"
    failures = run.check_results(sl, wl, workloads.DEFAULT_SEED, [bad], texts)
    assert len(failures) == 1 and "sdim M" in failures[0] and "sha256" in failures[0]


def test_speedometer_leaves_out_its_own_samples():
    meter = yardstick.Speedometer(period=0.01)
    start = time.perf_counter()
    result, seconds, ref_s = meter.time(lambda: sum(i * i for i in range(1_000_000)))
    elapsed = time.perf_counter() - start
    assert result == sum(i * i for i in range(1_000_000))
    # at least one yardstick sample (several ms each) ran inside and was left out
    assert 0 < seconds < elapsed - 0.004
    assert ref_s > 0


def test_closed_forms_match_the_library():
    from superlie import verification
    for p in range(5):
        for q in range(5):
            if p + q:
                want = verification.expected_heisenberg_even_multiplier(p, q).as_tuple()
                assert workloads.closed_form(f"H({p},{q})") == want
    for k in range(1, 8):
        assert workloads.closed_form(f"H({k})") == \
            verification.expected_heisenberg_odd_multiplier(k).as_tuple()
    assert workloads.closed_form("Ab(3,2)") == sl.multiplier(sl.abelian(3, 2)).sdim_M.as_tuple()
    assert workloads.closed_form("L4") is None


def test_conjugator_is_seeded_and_parity_preserving():
    L = sl.builtin("H(3,2)")
    a = workloads.conjugator(L.parities, L.name, 1)
    assert a == workloads.conjugator(L.parities, L.name, 1)
    b = workloads.conjugator(L.parities, L.name, 2)
    assert a != b
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            assert abs(x) == abs(b[i][j])  # seeds differ only by column signs
            if i == j:
                assert abs(x) == 1
            elif x:
                assert j > i and L.parities[i] == L.parities[j] and abs(x) in (1, 2)


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    per_layer = set(tracer.metrics()) | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} <= per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cover-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
