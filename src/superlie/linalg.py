"""Exact linear algebra over the rationals.

One elimination kernel, ``Echelon``, does all the row reduction.  It keeps a
growing span in reduced row echelon form, so callers can stream sparse
vectors, ``{column: Fraction}`` dicts, into it one at a time and get each
vector's residual back as it arrives.  Echelon forms are fully reduced with
pivots normalized to 1 and rows ordered by pivot column, so a subspace has
exactly one matrix representation and subspace equality is syntactic.  A
row's pivot is its first column, or its last one in an echelon built with
``last=True``; reduced echelon form is unique in either order.

Inside, the kernel is fraction-free: each row is an integer tail over one
positive denominator, and reducing a vector is integer arithmetic.  Its
results are ``Fraction`` again: the residuals of ``add`` and ``reduce``, and
``rows``, ``dense`` and ``kernel_basis``.

A column label is any totally ordered hashable value, and the order of the
labels is the column order: callers eliminate in their own coordinates, such
as basis indices i or the cochain pairs (i, j), with no translation to
positions and back.

``rref``, ``rank``, ``nullspace`` and ``reduce_mod`` are thin wrappers over
the kernel that take and return dense row vectors (tuples of Fraction), with
columns labelled 0, 1, ....  There are no dense vector helpers: the library
converts only at its public edge.  Nothing here knows a bracket: the
bracket table and every routine that reads it live in ``core``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def unit_vec(n: int, i: int) -> Vec:
    """e_i of length n, for 0 <= i < n."""
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1)


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
    the vectors arrived in.  A row pivots on its first column, or with
    ``last=True`` on its last one: that is the reduced echelon form for the
    reversed column order, unique as well, with every tail before its pivot.
    Either way ``rows``, ``pivots`` and the kernel vectors come in column
    order, and each of ``rows`` has its entries in column order.  For a
    last-pivot echelon the kernel vector at a non-pivot column c has 1 at c
    and its other entries at later pivots, so ``kernel_basis`` is already
    the canonical, first-pivot basis of the kernel.

    The row with pivot p is stored as e_p + T_p / d_p: an integer tail T_p,
    in the non-pivot columns, and one denominator d_p > 0 with
    gcd(T_p, d_p) = 1.  So elimination is integer arithmetic, fraction-free
    as in Bareiss (Math. Comp. 22, 1968), and a vector is reduced in one pass
    at the lcm of the denominators it meets.  Only the entries that ``add``,
    ``reduce``, ``rows``, ``dense`` and ``kernel_basis`` return are built as
    Fractions; ``insert`` and ``contains`` build none.  A column index finds
    the rows that hold a column without visiting the others, so sparse rows
    stay cheap.
    """

    __slots__ = ("_tails", "_dens", "_where", "_last")

    def __init__(self, vectors=(), *, last: bool = False):
        # pivot column -> T_p, the row's integer tail, all in non-pivot columns;
        # the pivot entry itself is an implicit 1
        self._tails: dict[Hashable, dict[Hashable, int]] = {}
        self._dens: dict[Hashable, int] = {}  # pivot column -> d_p
        # non-pivot column -> the pivots whose tails hold it (never empty)
        self._where: dict[Hashable, set] = {}
        self._last = last
        for v in vectors:
            self.insert(v)

    def __len__(self) -> int:
        return len(self._tails)

    def _residual(self, v: Row) -> tuple[dict[Hashable, int], int]:
        """(w, m) with w / m the residual of v modulo the span: w an integer
        row without zeros, m > 0 a common denominator.  Most vectors are tiny
        (one or two entries in a small algebra), so this is one plain loop."""
        tails = self._tails
        w: dict[Hashable, int] = {}
        hit = []
        m = 1
        for c, x in v.items():
            n, d = x.as_integer_ratio()
            if n:
                if d != 1 and m % d:  # rescale to the lcm of the denominators so far
                    k = d // gcd(m, d)
                    m *= k
                    for e in w:
                        w[e] *= k
                w[c] = n if m == 1 else n * (m // d)
                if c in tails:
                    hit.append(c)
        if hit:
            dens = self._dens
            k = 1
            for p in hit:  # scale so that every w[p] / d_p is an integer
                d = dens[p]
                if d != 1:
                    k = lcm(k, d // gcd(w[p], d))
            if k != 1:
                m *= k
                for c in w:
                    w[c] *= k
            for p in hit:
                f = w.pop(p) // dens[p]
                for c, t in tails[p].items():
                    y = w.get(c, 0) - f * t
                    if y:
                        w[c] = y
                    else:
                        del w[c]
        return w, m

    def contains(self, v: Row) -> bool:
        """Whether v lies in the span."""
        return not self._residual(v)[0]

    def reduce(self, v: Row) -> Row:
        """The residual of a sparse vector modulo the span: v minus the
        element of the span that agrees with it on every pivot column.  It
        is empty exactly when v is in the span; v itself is not inserted."""
        w, m = self._residual(v)
        return _fractions(w.items(), m)

    def insert(self, v: Row) -> bool:
        """Insert a sparse vector; whether it was outside the span."""
        return self._insert(v) is not None

    def add(self, v: Row) -> Row | None:
        """Insert a sparse vector.  Return its residual modulo the span so
        far, scaled to 1 at its pivot, or None if it is in the span."""
        lead = self._insert(v)
        if lead is None:
            return None
        return {lead: _ONE, **_fractions(self._tails[lead].items(), self._dens[lead])}

    def _insert(self, v: Row) -> Hashable | None:
        """Store v's residual modulo the span, unless it is zero, as the row
        of its leading column (its last with ``last``), clear that column
        from the rows that hold it, and return the column; None if v is in
        the span."""
        w, _ = self._residual(v)
        if not w:
            return None
        tails, dens, where = self._tails, self._dens, self._where
        lead = max(w) if self._last else min(w)
        a = w.pop(lead)
        g = _content(a, w.values()) * (1 if a > 0 else -1)
        d = a // g
        tail = w if g == 1 else {c: x // g for c, x in w.items()}
        for c in tail:
            where.setdefault(c, set()).add(lead)
        # row p becomes e_p + (d T_p - t T) / (d_p d), t its entry at lead;
        # the index keeps in step with every fill-in and every cancellation
        for p in where.pop(lead, ()):
            row = tails[p]
            t = row.pop(lead)
            if d != 1:
                for c in row:
                    row[c] *= d
            for c, x in tail.items():
                y = row.get(c)
                if y is None:
                    row[c] = -t * x
                    where[c].add(p)
                else:
                    y -= t * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(p)  # the new row keeps where[c] nonempty
            dp = dens[p] * d
            if (h := _content(dp, row.values())) != 1:
                dp //= h
                tails[p] = {c: x // h for c, x in row.items()}
            dens[p] = dp
        tails[lead], dens[lead] = tail, d
        return lead

    def rows(self) -> list[Row]:
        """The canonical basis as sparse rows, by pivot column, each with its
        entries in column order."""
        rows = []
        for p in sorted(self._tails):
            tail = self._tails[p]  # often empty in a small algebra
            if not tail:
                rows.append({p: _ONE})
            elif self._last:
                rows.append({**_fractions(sorted(tail.items()), self._dens[p]), p: _ONE})
            else:
                rows.append({p: _ONE, **_fractions(sorted(tail.items()), self._dens[p])})
        return rows

    def pivots(self) -> list[Hashable]:
        """The pivot columns, in column order."""
        return sorted(self._tails)

    def dense(self, ncols: int) -> list[Vec]:
        """The canonical basis as dense rows of length ncols."""
        return [_dense(r, ncols) for r in self.rows()]

    def kernel_basis(self, columns: Iterable[Hashable]) -> list[Row]:
        """A basis of {x : r . x = 0 for every row r}, where x ranges over the
        vectors on the labels ``columns``, which must hold every column the
        rows use: for each non-pivot column c, in the order given, the vector
        with 1 at c and minus row p's entry at c at each pivot p.  For a
        first-pivot echelon it is not in echelon form, and ``kernel`` gives
        the canonical one; for a last-pivot echelon it is the canonical one
        already."""
        return [_fractions(w.items(), m) for w, m in self._kernel_rows(columns)]

    def kernel(self, columns: Iterable[Hashable]) -> "Echelon":
        """The echelon of the span of ``kernel_basis(columns)``, built from
        its integer rows, one at a time, with no Fraction."""
        return Echelon(w for w, _ in self._kernel_rows(columns))

    def _kernel_rows(self, columns):
        """The vectors of ``kernel_basis``, each as (w, m) with w / m the
        vector, w an integer row and m the lcm of the touched d_p."""
        tails, dens, where = self._tails, self._dens, self._where
        for c in columns:
            if c in tails:
                continue
            ps = where.get(c, ())
            m = 1
            for p in ps:
                m = lcm(m, dens[p])
            w = {c: m}
            for p in ps:
                w[p] = -tails[p][c] * (m // dens[p])
            yield w, m


def _content(a: int, values) -> int:
    """gcd(a, *values) for a != 0, as a positive int, stopping at 1.  It
    builds no argument tuple: one per row update, such tuples stayed
    allocated between the passes of a dense workload and raised its peak RSS."""
    a = abs(a)
    for x in values:
        if a == 1:
            break
        a = gcd(a, x)
    return a


def _lcm(values) -> int:
    """lcm(1, *values) of positive ints, kept as a running value, so that
    like ``_content`` it builds no argument tuple."""
    m = 1
    for x in values:
        if m % x:
            m = lcm(m, x)
    return m


# the entries that small systems return most, built once
_SMALL = {n: Fraction(n) for n in range(-16, 17)}


def _fractions(items, m: int) -> Row:
    """The row of (column, x / m) over integer items (column, x), m != 0."""
    if m == 1:
        return {c: _SMALL.get(x) or Fraction(x) for c, x in items}  # x != 0
    return {c: Fraction(x, m) for c, x in items}


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
        ech.insert(sparse(r))
    return ech.dense(ncols)


def rank(rows) -> int:
    return len(Echelon(sparse(r) for r in rows))


def reduce_mod(v: Vec, rref_rows) -> Vec:
    """Residual of v after elimination against an echelon basis."""
    return _dense(Echelon(sparse(r) for r in rref_rows).reduce(sparse(v)), len(v))


def nullspace(rows, ncols: int) -> list[Vec]:
    """Canonical echelon basis of {x : A x = 0} for A given by dense rows."""
    return Echelon(sparse(r) for r in rows).kernel(range(ncols)).dense(ncols)
