"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``TARGETS``.  Several
modules import these functions by name, so it scans every ``superlie.*``
module and replaces each attribute that *is* the original function;
``uninstall`` puts the originals back.  A target the library no longer
defines stops ``install`` with LookupError, so it never reads as 0.  Each
wrapped call records a span (name, parent span, op, start, end) in memory,
and per-function counters:

- ``calls`` and ``self_s`` (span time minus the time of its child spans);
- ``cells`` (sum of rows x cols of the input matrices) and ``nnz`` (input
  nonzeros) for the linear-algebra kernels;
- ``repeat_ratio``: calls divided by distinct inputs, where algebras compare
  by ``(parities, constants)`` and matrices by value;
- a few function-specific sums (``dim``, ``cols``, ``out_dim``, ``bytes``);
- ``<module>.self_s``, the self time of a whole layer.

Counting happens outside the timed span and is charged to no function, so
self times measure the library, not the tracer.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

PACKAGE = "superlie"

# -- argument statistics -----------------------------------------------------


def _matrix(rows, ncols=None) -> tuple[int, int, int]:
    """(cells, nnz, value key) of a list of row vectors."""
    parts = []
    nnz = 0
    for r in rows:
        nz = tuple((i, x.numerator, x.denominator) for i, x in enumerate(r) if x)
        nnz += len(nz)
        parts.append(nz)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols, nnz, hash((ncols, tuple(parts)))


def _algebra_key(L) -> int:
    return hash((L.parities, L.constants))


def _stats_rows(args, kwargs):
    cells, nnz, key = _matrix(args[0])
    return {"cells": cells, "nnz": nnz}, key


def _stats_nullspace(args, kwargs):
    cells, nnz, key = _matrix(args[0], args[1])
    return {"cells": cells, "nnz": nnz}, key


def _stats_reduce_mod(args, kwargs):
    v, rows = args
    cells, nnz, _ = _matrix([v, *rows])
    return {"cells": cells, "nnz": nnz}, None


def _stats_algebra(args, kwargs):
    return {}, _algebra_key(args[0])


def _stats_multiplier(args, kwargs):
    L = args[0]
    # free cochain coordinates over both parities: pairs i < j, plus odd diagonals
    cols = L.dim * (L.dim - 1) // 2 + L.n_odd
    return {"cols": cols}, _algebra_key(L)


def _result_validate(result):
    return {"dim": result.dim}


def _result_central_extension(result):
    return {"out_dim": result.algebra.dim}


def _result_emit(result):
    return {"bytes": len(result.encode())}


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str                    # "fn" or "Class.method"
    arg_stats: object = None         # (args, kwargs) -> (counts, repeat key or None)
    result_stats: object = None      # result -> counts
    counts: tuple[str, ...] = ()     # the count names the two hooks produce

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


MATRIX = ("cells", "nnz")

TARGETS = (
    Target("linalg", "rref", _stats_rows, counts=MATRIX),
    Target("linalg", "nullspace", _stats_nullspace, counts=MATRIX),
    Target("linalg", "reduce_mod", _stats_reduce_mod, counts=MATRIX),
    Target("linalg", "rank", _stats_rows, counts=MATRIX),
    Target("core", "validate", None, _result_validate, ("dim",)),
    Target("core", "center", _stats_algebra),
    Target("core", "derived_subalgebra", _stats_algebra),
    Target("core", "second_center", _stats_algebra),
    Target("core", "lower_central_series", _stats_algebra),
    Target("core", "quotient"),
    Target("core", "Subspace.span"),
    Target("core", "Subspace.intersection"),
    Target("core", "bracket_subspaces"),
    Target("core", "change_basis"),
    Target("cohomology", "multiplier", _stats_multiplier, counts=("cols",)),
    Target("cohomology", "central_extension", None, _result_central_extension,
           ("out_dim",)),
    Target("cohomology", "cover_candidate"),
    Target("invariants", "report"),
    Target("invariants", "check_bounds"),
    Target("invariants", "kunneth_check"),
    Target("invariants", "lambda_mu"),
    Target("invariants", "sdr_report"),
    Target("classify", "fingerprint"),
    Target("classify", "classify_mr_le2"),
    Target("classify", "verify_theorem_table"),
    Target("corpus", "corpus"),
    Target("constructions", "builtin"),
    Target("constructions", "free_two_step_cover"),
    Target("fileformat", "parse"),
    Target("fileformat", "emit", None, _result_emit, ("bytes",)),
    Target("verification", "run_paper_checks"),
    Target("cli", "main"),
)

# targets whose repeat_ratio is reported (the others only feed cells/nnz)
REPEAT = frozenset({"linalg.rref", "core.center", "core.derived_subalgebra",
                    "core.second_center", "core.lower_central_series",
                    "cohomology.multiplier"})


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def add(self, counts: dict):
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    @property
    def repeat_ratio(self) -> float:
        return self.calls / len(self.keys) if self.keys else 0.0


class Tracer:
    """Wraps TARGETS while installed; collects spans and FunctionStats."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {t.name: FunctionStats() for t in targets}
        self.names = [t.name for t in targets]
        # span: (target index, parent span index or -1, op, start, end)
        self.spans: list[tuple[int, int, object, float, float]] = []
        self.op = None               # label stamped on each span
        self.counting_s = 0.0        # time spent computing counters
        self._stack: list[int] = []  # open span indices
        self._child: list[float] = []  # time covered by children, per open span
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- install / uninstall -------------------------------------------------

    @staticmethod
    def _owner(t: Target):
        """(owner, attribute) that define target ``t``; owner is None if the
        library has no such module or class."""
        mod = sys.modules.get(f"{PACKAGE}.{t.module}")
        owner_name, _, attr = t.qualname.rpartition(".")
        return (getattr(mod, owner_name, None) if owner_name else mod), attr

    @property
    def missing(self) -> list[str]:
        """Targets the library does not define."""
        out = []
        for t in self.targets:
            owner, attr = self._owner(t)
            if owner is None or attr not in vars(owner):
                out.append(t.name)
        return out

    def install(self) -> None:
        """Wrap every target.  A target the library no longer defines raises
        LookupError before anything is wrapped: its metrics would read 0,
        which looks like a measurement."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        missing = self.missing
        if missing:
            raise LookupError("not in the library: " + ", ".join(missing))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for idx, t in enumerate(self.targets):
            owner, attr = self._owner(t)
            original = vars(owner)[attr]
            if "." in t.qualname:  # a method: one binding, in the class
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(idx, original.__func__))
                else:
                    wrapped = self._wrap(idx, original)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, original))
                continue
            wrapped = self._wrap(idx, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
                        self._patched.append((m, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every replaced binding."""
        return list(self._patched)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, idx: int, fn):
        target = self.targets[idx]
        st = self.stats[target.name]
        arg_stats, result_stats = target.arg_stats, target.result_stats
        keep_key = target.name in REPEAT
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if arg_stats is not None:
                c0 = clock()
                counts, key = arg_stats(args, kwargs)
                st.add(counts)
                if keep_key:
                    st.keys.add(key)
                self._charge(clock() - c0)
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += end - start
                st.calls += 1
                st.self_s += end - start - covered
                spans[span] = (idx, parent, self.op, start, end)
            if result_stats is not None:
                c0 = clock()
                st.add(result_stats(result))
                self._charge(clock() - c0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _charge(self, seconds: float) -> None:
        """Counting time is covered by the enclosing span but is not its work."""
        self.counting_s += seconds
        if self._child:
            self._child[-1] += seconds

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` values."""
        out: dict[str, float] = {}
        for t in self.targets:
            st = self.stats[t.name]
            out[f"{t.name}.calls"] = st.calls
            out[f"{t.name}.self_s"] = st.self_s
            for k in t.counts:
                out[f"{t.name}.{k}"] = st.counts.get(k, 0)
            if t.name in REPEAT:
                out[f"{t.name}.repeat_ratio"] = st.repeat_ratio
        for t in self.targets:  # a layer's self time: the sum over its functions
            key = f"{t.module}.self_s"
            out[key] = out.get(key, 0.0) + self.stats[t.name].self_s
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for i, (idx, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{self.names[idx]}\t{start:.9f}\t{end:.9f}\n")
