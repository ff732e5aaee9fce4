#!/usr/bin/env python3
"""Benchmark of the superlie CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Each op is one ``superlie.cli.main(argv)`` call in this single-threaded
process, with stdout captured.  The workloads are defined in
``bench/workloads.py`` and described in ``bench/README.md``.

``--trace 0`` measures set-up in fresh processes, then runs the workload's
ops in passes, in a fixed order, for ``--seconds`` seconds, and reports the
end-to-end metrics of ``BENCHMARK.json``.  Times are reference seconds: each
is scaled by a yardstick sampled around and during the op
(``bench/yardstick.py``), so that load from other tenants of the host cancels
out.  ``--trace 1`` runs one untraced
pass and then one traced pass (set-up included) with the library's public
functions wrapped from outside (``bench/tracing.py``), and reports the
per-layer metrics.  Both modes check every op's output after the timed
phase.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload in
both modes, each in its own process, and prints every line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"  # inputs and probes (deleted after use), span files
SETUP_PROBES = (5, 15)     # at least 5 set-up probes, at most 15 ...
SETUP_PROBE_BUDGET_S = 3.0  # ... more than 5 only while they took < 3 s in all
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "largest_op_s", "peak_rss_mb")
TRACE_METRICS = ("trace.untraced_wall_s", "trace.wall_s", "trace.overhead_ratio")

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def load_library():
    """Import superlie from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import superlie
        import superlie.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import superlie from {src}: {exc}")
    where = Path(superlie.__file__).resolve().parent
    if where != (src / "superlie").resolve():
        raise SystemExit(f"bench: superlie imported from {where}, not from {src}")
    return superlie


def build(sl, name: str, seed: int) -> tuple[workloads.Workload, Path]:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    return workloads.BUILDERS[name](sl, seed, workdir), workdir


def measure_setup(name: str, seed: int) -> list[float]:
    """Launch-to-ready times, in reference seconds, of fresh processes that
    import superlie and build and write the workload's inputs.

    Each probe samples the yardstick itself while it builds (``setup_probe``)
    and reports the samples' mean and total time.  The probe's wall time,
    less that total, is scaled by the mean, as an op's time is."""
    times = []
    spent = 0.0
    least, most = SETUP_PROBES
    OUT.mkdir(exist_ok=True)
    while len(times) < least or (len(times) < most and spent < SETUP_PROBE_BUDGET_S):
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--setup-probe", probe_dir],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            seconds = time.perf_counter() - start
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        spent += seconds
        times.append((seconds - probe["yardstick_s"]) * yardstick.REFERENCE_S / probe["mean_s"])
    return times


def setup_probe(name: str, seed: int, probe_dir: Path) -> None:
    """One set-up probe, in a fresh process: import superlie and build the
    inputs while a Speedometer samples the yardstick, then print the samples'
    mean and the time they took in all (its first sample ran before the
    import)."""
    meter = yardstick.Speedometer()
    meter.time(lambda: workloads.BUILDERS[name](load_library(), seed, probe_dir))
    print(json.dumps({"mean_s": mean(meter.samples), "yardstick_s": meter.yardstick_s}))


# -- running ops -------------------------------------------------------------


class OpResult:
    """One op's timing and the SHA-256 of its stdout.  The text itself is kept
    once per distinct (label, digest), in the ``texts`` dict of the run, so
    what the benchmark holds in memory does not grow with the pass count."""
    __slots__ = ("op", "seconds", "ref_s", "rc", "digest", "error")

    def __init__(self, op, seconds, ref_s, rc, digest, error):
        self.op, self.seconds, self.ref_s = op, seconds, ref_s
        self.rc, self.digest, self.error = rc, digest, error


def run_op(cli, op: workloads.Op, meter, texts: dict) -> OpResult:
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(list(op.argv)), None  # attribute lookup: sees the tracer
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return None, f"{type(exc).__name__}: {exc}"

    (rc, error), seconds, ref_s = meter.time(call)
    if error is None and err.getvalue():
        error = err.getvalue().strip()
    text = out.getvalue()
    h = workloads.digest(text)
    texts.setdefault((op.label, h), text)
    return OpResult(op, seconds, ref_s, rc, h, error)


def run_pass(cli, ops, meter, texts: dict, tracer=None) -> list[OpResult]:
    """Every op once, in order."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        results.append(run_op(cli, op, meter, texts))
    return results


def run_passes(cli, ops, seconds: float, meter, texts: dict) -> list[list[OpResult]]:
    """Whole passes, at least one, ending as close to ``seconds`` as the
    mean pass time allows."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops, meter, texts))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def check_results(sl, workload, seed: int, results: list[OpResult],
                  texts: dict) -> list[str]:
    """Problems found, one line per failed op.  Runs after the timed phase;
    ``texts`` maps (label, digest) to the stdout text."""
    frozen = workloads.frozen_digests(workload, seed)
    checker = workloads.Checker(sl)
    verdicts: dict[tuple[str, str], list[str]] = {}
    failures = []
    for r in results:
        if r.error is not None and r.rc is None:
            failures.append(f"{r.op.label}: raised {r.error}")
            continue
        h = r.digest
        key = (r.op.label, h)
        if key not in verdicts:
            problems = []
            want = frozen.get(r.op.label)
            if frozen and want != h:
                problems.append(f"stdout sha256 {h[:12]}, frozen {str(want)[:12]}")
            try:
                problems += checker.check(r.op, r.rc, texts[key])
            except Exception as exc:  # malformed output is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if problems and r.error:
                problems.append(f"stderr: {r.error}")
            verdicts[key] = problems
        if verdicts[key]:
            failures.append(f"{r.op.label}: " + "; ".join(verdicts[key]))
    return failures


# -- reporting ---------------------------------------------------------------


def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def result_line(specs, values: dict, attempted: int, failures: list[str]) -> str:
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    return json.dumps({"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics})


def print_failures(failures: list[str]) -> None:
    for line in failures:
        print(f"FAIL  {line}")


def end_to_end(args, sl, workload, workdir) -> int:
    setup = measure_setup(args.workload, args.seed)
    texts: dict = {}
    passes = run_passes(sl.cli, workload.ops, args.seconds, yardstick.Speedometer(), texts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [r for rs in passes for r in rs]
    failures = check_results(sl, workload, args.seed, results, texts)
    shutil.rmtree(workdir, ignore_errors=True)

    per_op = [median([rs[k].ref_s for rs in passes]) for k in range(len(workload.ops))]
    if workload.largest == "*":
        largest = max(per_op)
    else:
        largest = next(t for op, t in zip(workload.ops, per_op) if op.label == workload.largest)
    values = {
        "setup_s": median(setup),
        "wall_s": median([sum(r.ref_s for r in rs) for rs in passes]),
        "op_p50_ms": median(per_op) * 1000,
        "largest_op_s": largest,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = median([sum(r.seconds for r in rs) for rs in passes])
    print(f"passes {len(passes)}  ops/pass {len(workload.ops)}  samples per op {len(passes)}"
          f"  set-up samples {len(setup)}  unscaled wall {raw_wall:.3f} s"
          f"  (times below are yardstick-scaled reference seconds)")
    for s in metric_specs("end_to_end"):
        print(f"{s['name']:<14} {values[s['name']]:.6g} {s['unit']}")
    print(f"{'fail_ratio':<14} {len(failures) / len(results):.6g} 1"
          f"  ({len(failures)} of {len(results)} ops)")
    print_failures(failures)
    print(result_line(metric_specs("end_to_end"), values, len(results), failures))
    return 0


def per_layer(args, sl, workload, workdir) -> int:
    tracer = tracing.Tracer()
    if tracer.missing:
        shutil.rmtree(workdir, ignore_errors=True)
        raise SystemExit("bench: traced functions not in the library: "
                         + ", ".join(tracer.missing) + "; update bench/tracing.py and "
                         "BENCHMARK.json rather than report them as 0")
    texts: dict = {}
    untraced = run_pass(sl.cli, workload.ops, yardstick.Speedometer(), texts)
    with tracer:
        tracer.op = "setup"
        traced_workload, traced_dir = build(sl, args.workload, args.seed)
        # a yardstick sample inside an op would land in some function's span,
        # so the traced pass samples only between ops
        traced = run_pass(sl.cli, traced_workload.ops, yardstick.Speedometer(period=None),
                          texts, tracer)
    failures = check_results(sl, workload, args.seed, untraced + traced, texts)
    shutil.rmtree(workdir, ignore_errors=True)
    shutil.rmtree(traced_dir, ignore_errors=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(spans_path)

    # self times in reference seconds, by the traced pass's mean yardstick factor
    factor = sum(r.ref_s for r in traced) / sum(r.seconds for r in traced)
    values = {k: v * factor if k.endswith(".self_s") else v
              for k, v in tracer.metrics().items()}
    values["trace.untraced_wall_s"] = sum(r.ref_s for r in untraced)
    values["trace.wall_s"] = sum(r.ref_s for r in traced)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1
    print(f"untraced pass {values['trace.untraced_wall_s']:.3f} s"
          f"  traced pass {values['trace.wall_s']:.3f} s (reference seconds)"
          f"  overhead {100 * values['trace.overhead_ratio']:.1f}%"
          f"  (counting {tracer.counting_s:.3f} s)  spans {len(tracer.spans)} -> {spans_path}")
    print_layer_table(tracer, factor)
    print_failures(failures)
    print(result_line(metric_specs("per_layer"), values, len(untraced) + len(traced), failures))
    return 0


def print_layer_table(tracer, factor: float) -> None:
    """Per-function and per-module self time in reference seconds, with its
    share of all traced time (set-up plus the traced pass), and every counter."""
    total = sum(st.self_s for st in tracer.stats.values())
    by_module: dict[str, float] = {}
    print(f"traced library time {total * factor:.3f} s")
    print(f"{'function':<34}{'calls':>9}{'self_s':>10}{'share':>8}  counters")
    for t in tracer.targets:
        st = tracer.stats[t.name]
        by_module[t.module] = by_module.get(t.module, 0.0) + st.self_s
        if not st.calls:
            continue
        extra = {k: st.counts.get(k, 0) for k in t.counts}
        if t.name in tracing.REPEAT:
            extra["repeat_ratio"] = round(st.repeat_ratio, 4)
        extras = "  ".join(f"{k}={v}" for k, v in extra.items())
        print(f"{t.name:<34}{st.calls:>9}{st.self_s * factor:>10.4f}"
              f"{100 * st.self_s / total:>7.1f}%  {extras}")
    print("layer self-time shares: " + ", ".join(
        f"{m} {100 * s / total:.1f}%" for m, s in
        sorted(by_module.items(), key=lambda kv: -kv[1]) if s))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            print(f"== {name}  trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, timeout=900)
            status |= proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")

    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0
    sl = load_library()
    print("env " + json.dumps(environment(args), sort_keys=True))
    workload, workdir = build(sl, args.workload, args.seed)
    if args.trace:
        return per_layer(args, sl, workload, workdir)
    return end_to_end(args, sl, workload, workdir)


if __name__ == "__main__":
    sys.exit(main())
