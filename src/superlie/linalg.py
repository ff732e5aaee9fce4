"""Exact linear algebra over the rationals.

One elimination kernel, ``Echelon``, does all the row reduction.  It keeps a
growing span in reduced row echelon form, with rows stored sparsely as
``{column: Fraction}`` dicts, so callers can stream vectors into it one at a
time and get each vector's residual back as it arrives.  Echelon forms are
fully reduced with pivots normalized to 1 and rows ordered by pivot column,
so a subspace has exactly one matrix representation and subspace equality is
syntactic.

A column label is any totally ordered hashable value, and the order of the
labels is the column order: callers eliminate in their own coordinates, such
as basis indices i or the cochain pairs (i, j), with no translation to
positions and back.

``rref``, ``rank``, ``nullspace`` and ``reduce_mod`` are thin wrappers over
the kernel that take and return dense row vectors (tuples of Fraction), with
columns labelled 0, 1, ...; so does ``mat_vec``.  There are no dense vector
helpers: the library converts only at its public edge.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


# sparse row: column label -> nonzero entry; a dense vector's labels are its
# positions
Row = dict[Hashable, Fraction]


def sparse(v: Vec) -> Row:
    """The nonzero entries of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


class Echelon:
    """Incremental reduced row echelon form of a growing span.

    The stored rows are sparse and kept fully reduced: every pivot is 1 and
    every row is zero in every other pivot column.  Reduced echelon form is
    unique, so the rows are the canonical basis of the span whatever order
    the vectors arrived in.  Adding a vector costs one pass over the rows
    whose pivots it touches, plus one update of each stored row that holds
    its new pivot column; a column index finds those rows without visiting
    the others, so sparse rows stay cheap.
    """

    __slots__ = ("_tails", "_where")

    def __init__(self, vectors=()):
        # pivot column -> the row's other entries, all in non-pivot columns;
        # the pivot entry itself is an implicit 1
        self._tails: dict[Hashable, Row] = {}
        # non-pivot column -> the pivots whose tails hold it (never empty)
        self._where: dict[Hashable, set] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self._tails)

    def reduce(self, v: Row) -> Row:
        """The residual of a sparse vector modulo the span: v minus the
        element of the span that agrees with it on every pivot column.  It
        is empty exactly when v is in the span; v itself is not inserted."""
        tails = self._tails
        w = {c: x for c, x in v.items() if x}
        for p in [c for c in w if c in tails]:
            f = w.pop(p)
            _axpy(w, -f, tails[p])
        return w

    def add(self, v: Row) -> Row | None:
        """Insert a sparse vector.  Return its residual modulo the span so
        far, scaled to a leading entry of 1, or None if it is in the span."""
        w = self.reduce(v)
        if not w:
            return None
        tails, where = self._tails, self._where
        lead = min(w)
        a = w.pop(lead)
        if a == 1:  # no rescale; entries of the caller's v may still be ints
            tail = {c: x if isinstance(x, Fraction) else Fraction(x) for c, x in w.items()}
        else:
            inv = _ONE / a
            tail = {c: inv * x for c, x in w.items()}
        for c in tail:
            where.setdefault(c, set()).add(lead)
        # clear the new pivot column from the rows that hold it, keeping the
        # index in step with every fill-in and every cancellation
        for p in where.pop(lead, ()):
            row = tails[p]
            f = -row.pop(lead)
            for c, x in tail.items():
                y = row.get(c)
                if y is None:
                    row[c] = f * x
                    where[c].add(p)
                else:
                    y += f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(p)  # the new row keeps where[c] nonempty
        tails[lead] = tail
        return {lead: _ONE, **tail}

    def rows(self) -> list[Row]:
        """The canonical basis as sparse rows, by pivot column, each with its
        entries in column order."""
        return [{p: _ONE, **dict(sorted(self._tails[p].items()))} for p in sorted(self._tails)]

    def dense(self, ncols: int) -> list[Vec]:
        """The canonical basis as dense rows of length ncols."""
        return [_dense({p: _ONE, **self._tails[p]}, ncols) for p in sorted(self._tails)]

    def kernel_basis(self, columns: Iterable[Hashable]) -> list[Row]:
        """A basis of {x : r . x = 0 for every row r}, where x ranges over the
        vectors on the labels ``columns``, which must hold every column the
        rows use: for each non-pivot column c, in the order given, the vector
        with 1 at c and minus row p's entry at c at each pivot p.  It is not
        in echelon form; pass it to an Echelon for the canonical one."""
        neg: dict[Hashable, Row] = {}
        for p, tail in self._tails.items():
            for c, x in tail.items():
                neg.setdefault(c, {})[p] = -x
        return [{c: _ONE, **neg.get(c, {})} for c in columns if c not in self._tails]


def _dense(row: Row, ncols: int) -> Vec:
    v = [_ZERO] * ncols
    for c, x in row.items():
        v[c] = x
    return tuple(v)


def _axpy(w: Row, a: Fraction, row: Row) -> None:
    """w += a * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = w.get(c, 0) + a * x
        if y:
            w[c] = y
        else:
            del w[c]


def rref(rows) -> list[Vec]:
    """Reduced row echelon form of dense rows; zero rows dropped.

    Pivots are the leftmost nonzero columns, scaled to 1 and cleared above
    and below; rows are ordered by pivot column.
    """
    ech = Echelon()
    ncols = 0
    for r in rows:
        ncols = len(r)
        ech.add(sparse(r))
    return ech.dense(ncols)


def rank(rows) -> int:
    return len(Echelon(sparse(r) for r in rows))


def reduce_mod(v: Vec, rref_rows) -> Vec:
    """Residual of v after elimination against an echelon basis."""
    return _dense(Echelon(sparse(r) for r in rref_rows).reduce(sparse(v)), len(v))


def nullspace(rows, ncols: int) -> list[Vec]:
    """Canonical echelon basis of {x : A x = 0} for A given by dense rows."""
    kernel = Echelon(sparse(r) for r in rows).kernel_basis(range(ncols))
    return Echelon(kernel).dense(ncols)


def mat_vec(rows, v: Vec) -> Vec:
    return tuple(sum((a * b for a, b in zip(row, v)), _ZERO) for row in rows)
