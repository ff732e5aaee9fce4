"""Workload definitions: the seeded inputs, the ops that run on them, and the
checks that the ops' outputs must pass.

One op is one ``superlie.cli.main(argv)`` call.  Every op names its algebra by
``--builtin`` or by an ``.lsa`` file written at set-up, so each op rebuilds its
algebra and no result carries over from one op to the next.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
DENSITY = 0.3  # share of eligible off-diagonal entries set in a base change


@dataclass(frozen=True)
class Op:
    label: str               # stable name, the key of the frozen digests
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)  # check data


@dataclass
class Workload:
    name: str
    ops: list[Op]
    largest: str             # label of the op behind largest_op_s ("*" = slowest op)
    seeded: bool             # do the inputs depend on the workload seed?


# -- closed forms, restated from the paper rather than imported --------------

def heisenberg_even_multiplier(p: int, q: int) -> tuple[int, int]:
    """Prop 4.4: sdim M(H(p,q))."""
    if (p, q) == (0, 1):
        return (0, 0)
    if (p, q) == (1, 0):
        return (2, 0)
    return (2 * p * p - p + (q * q + q) // 2 - 1, 2 * p * q)


def heisenberg_odd_multiplier(k: int) -> tuple[int, int]:
    """Prop 4.5: sdim M(H(k))."""
    if k == 1:
        return (1, 1)
    return (k * k, k * k - 1)


def abelian_multiplier(m: int, n: int) -> tuple[int, int]:
    """Prop 3.1 (equality case): sdim M(Ab(m,n)) = bound(m,n)."""
    return (m * (m - 1) // 2 + n * (n + 1) // 2, m * n)


def closed_form(name: str) -> tuple[int, int] | None:
    """sdim M for a builtin name with a closed form, else None."""
    m = re.fullmatch(r"(H|Ab)\((\d+)(?:,(\d+))?\)", name)
    if m is None:
        return None
    head, args = m.group(1), [int(a) for a in m.group(2, 3) if a is not None]
    if head == "Ab":
        return abelian_multiplier(*args)
    if len(args) == 2:
        return heisenberg_even_multiplier(*args)
    return heisenberg_odd_multiplier(*args)


# -- input builders ----------------------------------------------------------

def _write(sl, workdir: Path, stem: str, L) -> str:
    path = workdir / f"{stem}.lsa"
    path.write_text(sl.emit(L))
    return str(path)


def _cover(sl, m: int, n: int):
    return sl.free_two_step_cover(m, n).K


def conjugator(parities, name: str, seed: int):
    """Parity-preserving base change for the algebra called ``name``: a fixed
    upper unitriangular integer matrix U, then a seeded sign flip of each new
    basis vector (P = U D with D diagonal, entries +-1).

    U has round(DENSITY * eligible) off-diagonal entries from {-1, 1, 2} at
    positions fixed per algebra.  Drawing U from the seed would make the cost
    of an op vary by 10-30% from seed to seed.  The sign flips change the
    sign pattern of every structure constant but leave the cost unchanged."""
    d = len(parities)
    rng = random.Random(f"basechange-dense:{name}")
    eligible = [(i, j) for i in range(d) for j in range(i + 1, d)
                if parities[i] == parities[j]]
    P = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, j in rng.sample(eligible, round(DENSITY * len(eligible))):
        P[i][j] = rng.choice((-1, 1, 2))
    signs = random.Random(f"basechange-dense:{name}:{seed}")
    flips = [signs.choice((-1, 1)) for _ in range(d)]
    return [[x * f for x, f in zip(row, flips)] for row in P]


def _pair_ops(label: str, source: tuple[str, ...], expect: dict) -> list[Op]:
    return [
        Op(f"invariants {label}", ("invariants", *source, "--json"), expect),
        Op(f"multiplier {label}", ("multiplier", *source, "--json", "--cocycles"), expect),
    ]


SPARSE_BUILTINS = ("H(3,3)", "H(4,4)", "H(5,5)", "H(6,6)", "H(4)", "H(6)", "H(8)")
SPARSE_COVERS = ((3, 2), (4, 2), (3, 3))
DENSE_BUILTINS = ("H(3,3)", "H(4,4)", "H(5,5)", "H(4)", "H(6)")
DENSE_COVERS = ((3, 2),)
COVER_BUILTINS = ("H(2,2)", "H(3,3)", "H(2,3)", "H(3,4)", "H(4,1)", "H(3)", "H(4)",
                  "H(5)", "L4", "Ab(3,3)")
COVER_COVERS = ((2, 2),)
CORPUS_SEEDS = (0, 1, 2, 3)
CORPUS_SIZE = 100
LEDGER = ("Lemma 2.2", "Lemma 2.3", "Lemma 2.4", "Lemma 2.5", "Prop 3.1", "Prop 4.4",
          "Prop 4.5", "Lemma 4.1", "Lemma 4.6", "Prop 4.8", "Prop 5.6", "Theorem table")


def heisenberg_sparse(sl, seed: int, workdir: Path) -> Workload:
    ops = []
    for name in SPARSE_BUILTINS:
        ops += _pair_ops(name, ("--builtin", name), {"sdim_M": closed_form(name)})
    for m, n in SPARSE_COVERS:
        path = _write(sl, workdir, f"cover{m}{n}", _cover(sl, m, n))
        ops += _pair_ops(f"Cover(Ab({m},{n}))", (path,), {})
    return Workload("heisenberg-sparse", ops, "invariants H(6,6)", seeded=False)


def basechange_dense(sl, seed: int, workdir: Path) -> Workload:
    ops = []
    bases = [(name, sl.builtin(name)) for name in DENSE_BUILTINS]
    bases += [(f"Cover(Ab({m},{n}))", _cover(sl, m, n)) for m, n in DENSE_COVERS]
    for k, (name, L) in enumerate(bases):
        conj = sl.change_basis(L, conjugator(L.parities, name, seed))
        path = _write(sl, workdir, f"dense{k}", conj)
        # the unconjugated algebra's multiplier is the reference
        ops += _pair_ops(f"P.{name}", (path,), {"same_as": name})
    return Workload("basechange-dense", ops, "invariants P.Cover(Ab(3,2))", seeded=True)


def cover_build(sl, seed: int, workdir: Path) -> Workload:
    ops = [Op(f"cover {name}", ("cover", "--builtin", name), {"input": name})
           for name in COVER_BUILTINS]
    for m, n in COVER_COVERS:
        name = f"Cover(Ab({m},{n}))"
        path = _write(sl, workdir, f"cover{m}{n}", _cover(sl, m, n))
        ops.append(Op(f"cover {name}", ("cover", path), {"input": name}))
    return Workload("cover-build", ops, "cover H(5)", seeded=False)


def verify_paper(sl, seed: int, workdir: Path) -> Workload:
    # Fixed corpus seeds: corpora differ in cost by about 18% from one corpus
    # seed to the next, more than the benchmark's bounds allow between seeds.
    ops = [Op(f"verify-paper corpus{cs}",
              ("verify-paper", "--seed", str(cs), "--corpus-size", str(CORPUS_SIZE)))
           for cs in CORPUS_SEEDS]
    return Workload("verify-paper", ops, "*", seeded=False)


BUILDERS = {
    "heisenberg-sparse": heisenberg_sparse,
    "basechange-dense": basechange_dense,
    "cover-build": cover_build,
    "verify-paper": verify_paper,
}


# -- output checks -----------------------------------------------------------

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frozen_digests(workload: Workload, seed: int) -> dict[str, str]:
    """The seed-0 digests, when this seed's inputs equal seed 0's."""
    if workload.seeded and seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS_FILE.read_text())[workload.name]


class Checker:
    """Checks that do not depend on the seed.  ``check`` returns a list of
    problems, empty when the output is right."""

    def __init__(self, sl):
        self.sl = sl
        self._reference: dict[str, tuple[int, int]] = {}
        self._sdim_M: dict[str, tuple[int, int]] = {}

    def reference_multiplier(self, name: str) -> tuple[int, int]:
        """sdim M of an unconjugated input: closed form where the paper gives
        one, else computed once from the unconjugated algebra."""
        if name not in self._reference:
            cf = closed_form(name)
            if cf is None:
                L = self._algebra(name)
                cf = self.sl.multiplier(L).sdim_M.as_tuple()
            self._reference[name] = cf
        return self._reference[name]

    def _algebra(self, name: str):
        if name.startswith("Cover(Ab("):
            m, n = (int(a) for a in name[len("Cover(Ab("):-2].split(","))
            return _cover(self.sl, m, n)
        return self.sl.builtin(name)

    def check(self, op: Op, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        cmd = op.argv[0]
        if cmd in ("invariants", "multiplier"):
            return self._check_json(op, out)
        if cmd == "cover":
            return self._check_cover(op, out)
        if cmd == "verify-paper":
            return self._check_ledger(out)
        return [f"no check for {cmd}"]

    def _check_json(self, op: Op, out: str) -> list[str]:
        payload = json.loads(out)
        problems = []
        if op.argv[0] == "invariants":
            got = tuple(payload["sdim_multiplier"])
        else:
            got = tuple(payload["sdim_M"])
            z2, b2 = payload["sdim_Z2"], payload["sdim_B2"]
            if got != (z2[0] - b2[0], z2[1] - b2[1]):
                problems.append(f"sdim_M {got} != Z2 {z2} - B2 {b2}")
            parities = [c["parity"] for c in payload["cocycles"]]
            if (parities.count(0), parities.count(1)) != got:
                problems.append(f"{len(parities)} cocycle representatives for sdim_M {got}")
        if "sdim_M" in op.expect:
            want = op.expect["sdim_M"]
        elif "same_as" in op.expect:
            want = self.reference_multiplier(op.expect["same_as"])
        else:
            # no closed form: invariants and multiplier must agree
            want = self._sdim_M.setdefault(payload["name"], got)
        if got != tuple(want):
            problems.append(f"sdim M {got}, expected {tuple(want)}")
        return problems

    def _check_cover(self, op: Op, out: str) -> list[str]:
        lines = out.splitlines()
        text = "\n".join(lines[:-2]) + "\n"
        problems = []
        ext = self.sl.parse(text)
        if self.sl.emit(ext) != text:
            problems.append("emitted cover does not round-trip through parse")
        want = self.reference_multiplier(op.expect["input"])
        kernel = f"kernel sdim = ({want[0]},{want[1]})"
        if lines[-2] != kernel:
            problems.append(f"{lines[-2]!r}, expected {kernel!r}")
        if lines[-1] != "stem condition: holds":
            problems.append(lines[-1])
        base_dim = self._algebra(op.expect["input"]).dim
        if ext.dim != base_dim + sum(want):
            problems.append(f"cover dim {ext.dim} != {base_dim} + {sum(want)}")
        return problems

    @staticmethod
    def _check_ledger(out: str) -> list[str]:
        lines = out.splitlines()
        keys = [line.partition(": ")[0] for line in lines[:-1]]
        problems = [line for line in lines[:-1] if not line.startswith("PASS  ")]
        if [k[len("PASS  "):] for k in keys] != list(LEDGER):
            problems.append(f"ledger keys {keys}")
        if lines[-1:] != ["all checks passed"]:
            problems.append(f"last line {lines[-1:]!r}")
        return problems
