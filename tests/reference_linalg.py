"""The dense elimination kernel that ``superlie.linalg`` used before its
sparse incremental ``Echelon``, kept word for word as the test reference,
the dense vector helpers ``zero_vec``, ``is_zero``, ``vec_add``,
``vec_scale`` and ``mat_vec`` that the library no longer has (``mat_vec``
was ``linalg.mat_vec``, the body of ``LinearMap.__call__``), and its former
``invert`` (over the ``rref`` here), which ``core.change_basis`` replaced
with its own elimination of [P | I], and ``transport``, the former
``linalg._transport``, which multiplied every pair of new basis columns
entry by entry on the integer table before ``core._transport`` read each
column's action once.

Tests compare the library's ``rref``, ``nullspace`` and ``reduce_mod``
against these on random rational matrices, ``reference_core`` runs the
earlier subspace calculus on them, tests apply a projection matrix with
``mat_vec``, and the base-change helpers redraw a singular P when
``invert`` rejects it; tests compare the constants of ``change_basis``,
``quotient`` and ``core._adapted`` with ``transport``.  Nothing outside the
tests imports this module.
"""

from fractions import Fraction

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def is_zero(a: Vec) -> bool:
    return not any(a)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def mat_vec(rows, v: Vec) -> Vec:
    return tuple(sum((a * b for a, b in zip(row, v)), _ZERO) for row in rows)


def rref(rows) -> list[Vec]:
    """Reduced row echelon form; zero rows dropped.

    Pivot rule: leftmost nonzero column, first available row, pivot scaled
    to 1, eliminated above and below.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    piv_row = 0
    for col in range(ncols):
        pr = None
        for r in range(piv_row, len(mat)):
            if mat[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        mat[piv_row], mat[pr] = mat[pr], mat[piv_row]
        inv = _ONE / mat[piv_row][col]
        mat[piv_row] = [inv * x for x in mat[piv_row]]
        for r in range(len(mat)):
            if r != piv_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[piv_row])]
        piv_row += 1
        if piv_row == len(mat):
            break
    return [tuple(r) for r in mat[:piv_row] if any(r)]


def pivots(rref_rows) -> list[int]:
    return [next(i for i, x in enumerate(r) if x != 0) for r in rref_rows]


def reduce_mod(v: Vec, rref_rows) -> Vec:
    """Residual of v after elimination against an echelon basis."""
    w = list(v)
    for row in rref_rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return tuple(w)


def nullspace(rows, ncols: int) -> list[Vec]:
    """Canonical echelon basis of {x : A x = 0} for A given by rows."""
    red = rref(rows)
    piv = set(pivots(red))
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for c in free:
        v = [_ZERO] * ncols
        v[c] = _ONE
        for row in red:
            p = next(i for i, x in enumerate(row) if x != 0)
            v[p] = -row[c]
        basis.append(tuple(v))
    return rref(basis)


def invert(rows) -> list[Vec]:
    """Inverse of a square matrix, or raise ValueError if singular."""
    n = len(rows)
    aug = [list(r) + [_ONE if i == j else _ZERO for j in range(n)] for i, r in enumerate(rows)]
    red = rref(aug)
    # [A | I] has rank n, and A is invertible exactly when row i pivots at i
    if any(r[i] != 1 for i, r in enumerate(red)):
        raise ValueError("matrix is singular")
    return [tuple(r[n:]) for r in red]


def transport(D: int, table, pairs, cols, coords) -> dict:
    """The nonzero constants [b_a, b_b], (a, b) in ``pairs``, on a new basis
    b_a = R_a / d_a, ``cols[a] = (R_a, d_a)``, R_a an integer row: each is
    summed in integers on the table D·c of ``core._int_table`` at the keys
    of ``coords`` only, as v, and read as Σ_k v_k·coords[k] / (D·d_a·d_b),
    coords[k] being e_k on the new basis, and right on L² at least."""
    at = {key: {k: x for k, x in vec.items() if k in coords} for key, vec in table.items()}
    out = {}
    for a, b in pairs:
        (ra, da), (rb, db), v = cols[a], cols[b], {}
        for i, x in ra.items():
            for j, y in rb.items():
                for k, z in at.get((i, j), {}).items():
                    v[k] = v[k] + x * y * z if k in v else x * y * z
        w = {}
        for k, x in v.items():
            for n, c in coords[k].items():
                w[n] = w[n] + x * c if n in w else x * c
        m = D * da * db
        if row := {n: Fraction(x, m) for n, x in w.items() if x}:
            out[a, b] = row
    return out
