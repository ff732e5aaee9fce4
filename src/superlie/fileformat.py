"""The ``.lsa`` structure-constant file format.

Line-oriented, ``#`` starts a comment::

    algebra "<name>"
    even <id> <id> ...
    odd  <id> <id> ...
    [<id>,<id>] = <coef> <id> (+ <coef> <id>)*

Coefficients are integers or p/q rationals; a coefficient of 1 may be
omitted.  Brackets given with the arguments in either order are normalized
via graded skew-symmetry; conflicting orientations are rejected.

``parse`` reads each coefficient as an ``int``, a p/q one as a ``Fraction``,
and sums and orients them in those types; ``validate`` builds the one
``Fraction`` stored per constant.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import LieSuperalgebra, _orient, validate
from .errors import (
    DuplicateIdentifier,
    InconsistentBracket,
    InvalidParams,
    ParseError,
    UnknownIdentifier,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_BRACKET_RE = re.compile(rf"^\[\s*({_IDENT})\s*,\s*({_IDENT})\s*\]\s*=\s*(.+)$")
_TERM_RE = re.compile(rf"^\s*(?:(-?\d+(?:/\d+)?)\s+)?({_IDENT})\s*$")
_ALGEBRA_RE = re.compile(r'^algebra\s+"([^"]*)"\s*$')


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    in_quote = False
    for pos, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:pos]
    return line


def parse(text: str) -> LieSuperalgebra:
    """Parse and validate a structure-constant file.

    Error locations are 1-based line and column numbers in the raw text."""
    name = None
    even: list[str] = []
    odd: list[str] = []
    seen_even = seen_odd = False
    # (line, column, identifier) of every declaration, in file order
    declared: list[tuple[int, int, str]] = []
    # (line, bracket column, lhs, rhs, combination, first column of each identifier)
    brackets: list[tuple[int, int, str, str, dict[str, int | Fraction], dict[str, int]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        indent = len(line) - len(line.lstrip())
        line = line[indent:]
        if not line:
            continue
        if name is None:
            m = _ALGEBRA_RE.match(line)
            if not m:
                raise ParseError(lineno, indent + 1, 'expected algebra "<name>"')
            name = m.group(1)
            continue
        head = line.split(None, 1)[0]
        if head in ("even", "odd"):
            tokens = list(re.finditer(r"\S+", line))[1:]
            ids = [t.group() for t in tokens]
            for t in tokens:
                if not re.fullmatch(_IDENT, t.group()):
                    raise ParseError(lineno, indent + t.start() + 1,
                                     f"bad identifier {t.group()!r}")
            if head == "even":
                if seen_even:
                    raise ParseError(lineno, indent + 1, "duplicate even section")
                seen_even, even = True, ids
            else:
                if seen_odd:
                    raise ParseError(lineno, indent + 1, "duplicate odd section")
                seen_odd, odd = True, ids
            declared += [(lineno, indent + t.start() + 1, t.group()) for t in tokens]
            continue
        m = _BRACKET_RE.match(line)
        if not m:
            raise ParseError(lineno, indent + 1, "expected a bracket line '[a,b] = ...'")
        lhs, rhs, body = m.group(1), m.group(2), m.group(3)
        columns = {lhs: indent + m.start(1) + 1}
        columns.setdefault(rhs, indent + m.start(2) + 1)
        combo: dict[str, int | Fraction] = {}
        term_start = indent + m.start(3)
        for term in body.split("+"):
            tm = _TERM_RE.match(term)
            if not tm:
                raise ParseError(lineno, term_start + len(term) - len(term.lstrip()) + 1,
                                 f"bad term {term.strip()!r}")
            written = tm.group(1)
            if not written:
                coef = 1
            else:
                coef_col = term_start + tm.start(1) + 1
                try:
                    num, *den = map(int, written.split("/"))
                except ValueError:  # more digits than Python's integer-string limit
                    raise ParseError(lineno, coef_col, f"coefficient of {len(written)}"
                                     " characters is too long") from None
                if den == [0]:
                    raise ParseError(lineno, coef_col,
                                     f"zero denominator in coefficient {written!r}")
                coef = Fraction(num, den[0]) if den else num
            ident = tm.group(2)
            columns.setdefault(ident, term_start + tm.start(2) + 1)
            term_start += len(term) + 1
            combo[ident] = combo[ident] + coef if ident in combo else coef
        brackets.append((lineno, indent + 1, lhs, rhs, combo, columns))

    if name is None:
        raise ParseError(1, 1, "empty file")

    seen: set[str] = set()
    for lineno, column, ident in declared:
        if ident in seen:
            raise DuplicateIdentifier(lineno, column, f"identifier {ident!r} declared twice")
        seen.add(ident)
    ids = even + odd
    index = {ident: pos for pos, ident in enumerate(ids)}
    parities = [0] * len(even) + [1] * len(odd)

    consts: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for lineno, column, lhs, rhs, combo, columns in brackets:
        for ident in (lhs, rhs, *combo):
            if ident not in index:
                raise UnknownIdentifier(lineno, columns[ident],
                                        f"unknown identifier {ident!r}")
        i, j = index[lhs], index[rhs]
        # an even [a,a] keeps its key, for validate to reject if nonzero
        (i, j), s = _orient(parities, i, j) or ((i, j), 1)
        vec = {index[t]: c if s == 1 else -c for t, c in combo.items() if c}
        if (i, j) in consts:
            if consts[(i, j)] != vec:
                raise InconsistentBracket(
                    lineno, column, f"bracket [{lhs},{rhs}] conflicts with an earlier line")
            continue
        consts[(i, j)] = vec
    return validate(parities, consts, name=name, labels=ids)


def _format_coef(c: Fraction) -> str:
    return "" if c == 1 else f"{c} "


def emit(L: LieSuperalgebra) -> str:
    """Canonical text for an algebra; parse(emit(L)) reproduces L exactly.
    InvalidParams if a label is no identifier or the name cannot be quoted."""
    if '"' in L.name or f"{L.name}\n".splitlines() != [L.name]:
        raise InvalidParams(f"algebra name {L.name!r} cannot be quoted")
    for label in L.labels:
        if not re.fullmatch(_IDENT, label):
            raise InvalidParams(f"label {label!r} is not an identifier")
    lines = [f'algebra "{L.name}"']
    lines.append(" ".join(["even"] + [L.labels[i] for i in L.even_indices()]).rstrip())
    lines.append(" ".join(["odd"] + [L.labels[i] for i in L.odd_indices()]).rstrip())
    for (i, j), vec in sorted(L.constants):
        terms = " + ".join(f"{_format_coef(c)}{L.labels[k]}" for k, c in vec)
        lines.append(f"[{L.labels[i]},{L.labels[j]}] = {terms}")
    return "\n".join(lines) + "\n"
