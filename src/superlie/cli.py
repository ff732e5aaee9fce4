"""Command-line interface.

Exit codes: 0 success (including a NotCovered classification), 1 mathematical
invalidity, 2 parse failure or unreadable input file, 64 unknown command /
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classify import NotCovered, classify_mr_le2
from .cohomology import cover_candidate, multiplier
from .constructions import builtin
from .errors import (
    GradingError,
    InvalidParams,
    JacobiError,
    NotNilpotent,
    ParseError,
    SuperlieError,
    UnreadableInput,
    UsageError,
)
from .fileformat import emit, parse
from .invariants import report
from .superdim import SignedPair
from .verification import run_paper_checks

USAGE = """\
usage: superlie <command> [options]

commands:
  validate <file>                          check a structure-constant file
  invariants <file|--builtin NAME> [--json]
  multiplier <file|--builtin NAME> [--json] [--cocycles]
  classify   <file|--builtin NAME> [--json]
  cover      <file|--builtin NAME>
  verify-paper [--seed N] [--corpus-size K]  (K >= 1)

exit codes:
  0   success (a NotCovered classification is still success)
  1   mathematical invalidity (axiom failure, non-nilpotent input to classify)
  2   parse error, or an input file that cannot be read
  64  unknown command or usage error
"""


def _pair(p: SignedPair) -> list[int]:
    return [p.even, p.odd]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from None


def _load(args):
    if args.builtin:
        return builtin(args.builtin)
    if not args.file:
        raise InvalidParams("either a file or --builtin NAME is required")
    return parse(_read(args.file))


def _add_source(sub):
    sub.add_argument("file", nargs="?", default=None)
    sub.add_argument("--builtin", metavar="NAME", default=None)


class _HelpShown(Exception):
    """A command's -h/--help has printed its help."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that never exits the process: a bad command line
    raises UsageError, and ``exit``, which only -h/--help still reaches,
    raises _HelpShown."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        raise _HelpShown()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superlie", add_help=True)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate")
    sub.add_argument("file")

    for cmd in ("invariants", "multiplier", "classify"):
        sub = subs.add_parser(cmd)
        _add_source(sub)
        sub.add_argument("--json", action="store_true")
        if cmd == "multiplier":
            sub.add_argument("--cocycles", action="store_true")

    sub = subs.add_parser("cover")
    _add_source(sub)

    sub = subs.add_parser("verify-paper")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--corpus-size", type=int, default=100)
    return parser


# Built once per process: parse_args leaves the parser unchanged, and each
# parser holds reference cycles that only the cyclic collector would free.
_PARSER = _build_parser()


def _cmd_validate(args) -> int:
    try:
        parse(_read(args.file))
    except ParseError as exc:
        print(f"parse error: {exc}")
        return 2
    except (GradingError, JacobiError, InvalidParams) as exc:
        print(f"invalid: {type(exc).__name__}: {exc}")
        return 1
    print("OK")
    return 0


def _cmd_invariants(args) -> int:
    rep = report(_load(args))
    if args.json:
        payload = {
            "name": rep.name,
            "sdim": _pair(rep.sdim_L),
            "sdim_derived": _pair(rep.sdim_L2),
            "sdim_center": _pair(rep.sdim_Z),
            "sdim_central_quotient": _pair(rep.sdim_LmodZ),
            "sdim_multiplier": _pair(rep.sdim_M),
            "smr": _pair(rep.smr),
            "mr": rep.mr,
            "sdr": _pair(rep.sdr),
            "dr": rep.dr,
            "nilpotency_class": rep.nilpotency_class,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        cls = rep.nilpotency_class if rep.nilpotency_class is not None else "not nilpotent"
        print(f"algebra          {rep.name}")
        print(f"sdim L           {rep.sdim_L}")
        print(f"sdim L^2         {rep.sdim_L2}")
        print(f"sdim Z(L)        {rep.sdim_Z}")
        print(f"sdim L/Z(L)      {rep.sdim_LmodZ}")
        print(f"sdim M(L)        {rep.sdim_M}")
        print(f"smr              {rep.smr}    mr {rep.mr}")
        print(f"sdr              {rep.sdr}    dr {rep.dr}")
        print(f"nilpotency class {cls}")
    return 0


def _cmd_multiplier(args) -> int:
    L = _load(args)
    res = multiplier(L)
    if args.json:
        payload = {
            "name": L.name,
            "sdim_Z2": _pair(res.sdim_Z2),
            "sdim_B2": _pair(res.sdim_B2),
            "sdim_M": _pair(res.sdim_M),
        }
        if args.cocycles:
            payload["cocycles"] = [
                {
                    "parity": f.parity,
                    "entries": [[L.labels[i], L.labels[j], str(c)] for (i, j), c in f.values],
                }
                for f in res.cocycle_basis
            ]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"sdim Z^2 = {res.sdim_Z2}")
        print(f"sdim B^2 = {res.sdim_B2}")
        print(f"sdim M = {res.sdim_M}")
        if args.cocycles:
            for f in res.cocycle_basis:
                entries = ", ".join(
                    f"f({L.labels[i]},{L.labels[j]})={c}" for (i, j), c in f.values)
                print(f"parity {f.parity}: {entries}")
    return 0


def _cmd_classify(args) -> int:
    L = _load(args)
    try:
        out = classify_mr_le2(L)
    except NotNilpotent:
        print("not nilpotent")
        return 1
    if args.json:
        if isinstance(out, NotCovered):
            payload = {"result": "not_covered", "reason": out.reason,
                       "contradiction": out.contradiction}
        else:
            payload = {"result": "table", "label": out.label, "smr": _pair(out.smr)}
        print(json.dumps(payload, sort_keys=True))
    elif isinstance(out, NotCovered):
        print(f"NotCovered: {out.reason}")
    else:
        print(f"{out.label}  smr {out.smr}")
    return 0


def _cmd_cover(args) -> int:
    L = _load(args)
    ext = cover_candidate(L)
    sys.stdout.write(emit(ext.algebra))
    print(f"kernel sdim = {ext.kernel.sdim}")
    print(f"stem condition: {'holds' if ext.stem_ok else 'FAILS'}")
    return 0


def _cmd_verify_paper(args) -> int:
    if args.corpus_size < 1:
        raise UsageError("--corpus-size must be at least 1")
    results = run_paper_checks(seed=args.seed, corpus_size=args.corpus_size)
    ok = True
    for key, res in results.items():
        ok &= res.passed
        print(f"{'PASS' if res.passed else 'FAIL'}  {key}: {res.detail}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


COMMANDS = {
    "validate": _cmd_validate,
    "invariants": _cmd_invariants,
    "multiplier": _cmd_multiplier,
    "classify": _cmd_classify,
    "cover": _cmd_cover,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if argv else 64
    if argv[0] not in COMMANDS:
        print(USAGE, file=sys.stderr)
        return 64
    try:
        args = _PARSER.parse_args(argv)
        return COMMANDS[args.command](args)
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 64
    except UnreadableInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SuperlieError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
