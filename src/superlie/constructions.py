"""Named constructors for the algebras used throughout the package."""

from __future__ import annotations

import re

from . import core
from .cohomology import cover_candidate
from .core import DefiningPair, LieSuperalgebra, Subspace, validate
from .errors import InvalidParams, UnknownName


def abelian(m: int, n: int) -> LieSuperalgebra:
    """Ab(m,n): all brackets zero."""
    if m < 0 or n < 0:
        raise InvalidParams("abelian dimensions must be >= 0")
    labels = [f"a{i + 1}" for i in range(m)] + [f"b{j + 1}" for j in range(n)]
    return validate([0] * m + [1] * n, {}, name=f"Ab({m},{n})", labels=labels)


def heisenberg_even(p: int, q: int) -> LieSuperalgebra:
    """H(p,q), even center: basis u1..up, v1..vp, z | w1..wq with
    [u_i, v_i] = z and [w_k, w_k] = z."""
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidParams("heisenberg_even requires p,q >= 0 and p+q >= 1")
    labels = ([f"u{i + 1}" for i in range(p)] + [f"v{i + 1}" for i in range(p)] + ["z"]
              + [f"w{k + 1}" for k in range(q)])
    parities = [0] * (2 * p + 1) + [1] * q
    z = 2 * p
    consts = {}
    for i in range(p):
        consts[(i, p + i)] = {z: 1}
    for k in range(q):
        w = 2 * p + 1 + k
        consts[(w, w)] = {z: 1}
    return validate(parities, consts, name=f"H({p},{q})", labels=labels)


def heisenberg_odd(k: int) -> LieSuperalgebra:
    """H(k), odd center: basis u1..uk | z, w1..wk with [u_i, w_i] = z."""
    if k < 1:
        raise InvalidParams("heisenberg_odd requires k >= 1")
    labels = [f"u{i + 1}" for i in range(k)] + ["z"] + [f"w{i + 1}" for i in range(k)]
    parities = [0] * k + [1] * (k + 1)
    z = k
    consts = {}
    for i in range(k):
        consts[(i, k + 1 + i)] = {z: 1}
    return validate(parities, consts, name=f"H({k})", labels=labels)


def free_two_step_cover(m: int, n: int) -> DefiningPair:
    """The free class-2 central extension H of Ab(m,n), paired with H².

    Basis: u_i, x_{k,l} (k<l), z_{s,t} (s<=t) even; v_j, y_{p,q} odd, with
    [u_k,u_l] = x_{k,l}, [u_p,v_q] = y_{p,q}, [v_s,v_t] = z_{s,t}.

    This is the cover candidate of Ab(m,n), relabelled.  Every 2-cochain of
    an abelian algebra is a cocycle and none is a coboundary, so the class
    representatives are the unit cochains on the free pairs in sorted order,
    even first: x_{k,l}, then z_{s,t}, then y_{p,q}.  ``central_extension``
    places L's even basis, the even generators, L's odd basis, then the odd
    generators, which is u, x, z, v, y.
    """
    if m < 0 or n < 0:
        raise InvalidParams("dimensions must be >= 0")
    ext = cover_candidate(abelian(m, n))
    labels = ([f"u{i + 1}" for i in range(m)]
              + [f"x{k + 1}_{l + 1}" for k in range(m) for l in range(k + 1, m)]
              + [f"z{s + 1}_{t + 1}" for s in range(n) for t in range(s, n)]
              + [f"v{j + 1}" for j in range(n)]
              + [f"y{p + 1}_{q + 1}" for p in range(m) for q in range(n)])
    K = ext.algebra
    H = LieSuperalgebra(K.parities, K.constants, f"Cover(Ab({m},{n}))", tuple(labels))
    return DefiningPair(H, Subspace(H, ext.kernel.even, ext.kernel.odd), ext.projection)


def model_l4() -> LieSuperalgebra:
    """The 4-dimensional purely even filiform algebra:
    [x,y] = z, [x,z] = t; nilpotency class 3."""
    return validate([0, 0, 0, 0], {(0, 1): {2: 1}, (0, 2): {3: 1}},
                    name="L4", labels=["x", "y", "z", "t"])


_NAME_RE = re.compile(r"^\s*(Ab|H|L4)\s*(?:\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\))?\s*$")


def builtin(name: str) -> LieSuperalgebra:
    """Dispatch on the name grammar ``Ab(m,n) | H(p,q) | H(k) | L4``.

    H with two arguments is the even-center family, with one the odd-center
    family.
    """
    mobj = _NAME_RE.match(name)
    if not mobj:
        raise UnknownName(name)
    head, a, b = mobj.group(1), mobj.group(2), mobj.group(3)
    if head == "L4":
        if a is not None:
            raise UnknownName(name)
        return model_l4()
    if a is None:
        raise UnknownName(name)
    if head == "Ab":
        if b is None:
            raise UnknownName(name)
        return abelian(int(a), int(b))
    if b is None:
        return heisenberg_odd(int(a))
    return heisenberg_even(int(a), int(b))


def model_registry() -> list[LieSuperalgebra]:
    """Small non-abelian models exercised by the verification suites.  Each
    non-abelian ``classify.TABLE`` row's label is the name of one of them."""
    return [
        heisenberg_even(1, 0),
        heisenberg_even(0, 1),
        heisenberg_even(1, 1),
        heisenberg_even(2, 0),
        heisenberg_even(2, 1),
        heisenberg_odd(1),
        heisenberg_odd(2),
        model_l4(),
        core.direct_sum(heisenberg_even(1, 0), abelian(1, 0)),
        core.direct_sum(heisenberg_even(1, 0), abelian(0, 1)),
    ]
