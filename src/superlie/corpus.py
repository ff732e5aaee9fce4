"""Seeded random nilpotent algebras for the property suites.

Random structure-constant tables almost never satisfy the Jacobi identity, so
the corpus is built the other way around: start from a small abelian algebra
and apply iterated central extensions by random rational combinations of
cohomology class representatives.  Central extensions preserve nilpotency, so
every corpus algebra is nilpotent by construction.  ``corpus(seed, size)`` is
the one entry point; every algebra has at most ``MAX_EVEN`` = 4 even and
``MAX_ODD`` = 3 odd basis vectors.

Draws repeat algebras often: every draw starts from one of 8 abelian
algebras, and a 100-algebra corpus holds only 54–70 distinct ones.  So each
``corpus`` call keeps one table from algebra value to its first instance and
that instance's class representatives.  Every algebra built goes through the
table, so ``multiplier`` runs once per distinct algebra, and equal algebras in
the result are one object, whose per-algebra caches the ledger then fills
once.  ``multiplier`` is deterministic in the algebra's value, so the shared
instance yields the same representatives, the draws do not change, and the
corpus is the same value for value.  The table lives for one call only.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cohomology import Cochain2, central_extension, multiplier
from .constructions import abelian
from .core import LieSuperalgebra
from .errors import InvalidParams

MAX_EVEN = 4
MAX_ODD = 3

# algebra value -> [its first instance, that instance's representatives or None]
_Table = dict[LieSuperalgebra, list]


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2])
    return Fraction(num, den)


def _instance(table: _Table, L: LieSuperalgebra) -> LieSuperalgebra:
    """The first instance equal to L in this call's table."""
    return table.setdefault(L, [L, None])[0]


def _reps(table: _Table, L: LieSuperalgebra) -> tuple[Cochain2, ...]:
    """multiplier(L)'s class representatives, solved once per table entry."""
    entry = table[L]
    if entry[1] is None:
        entry[1] = multiplier(L).cocycle_basis
    return entry[1]


def _draw(rng: random.Random, table: _Table) -> LieSuperalgebra:
    m = rng.randint(0, 2)
    n = rng.randint(0, 2)
    if m + n == 0:
        m = 1
    L = _instance(table, abelian(m, n))
    for _ in range(rng.randint(1, 3)):
        reps = _reps(table, L)
        even_reps = [f for f in reps if f.parity == 0]
        odd_reps = [f for f in reps if f.parity == 1]
        room_e = MAX_EVEN - L.n_even
        room_o = MAX_ODD - L.n_odd
        ke = rng.randint(0, min(room_e, len(even_reps), 2))
        ko = rng.randint(0, min(room_o, len(odd_reps), 2))
        if ke + ko == 0:
            break
        chosen = rng.sample(even_reps, ke) + rng.sample(odd_reps, ko)
        mixed = []
        for f in chosen:
            g = f.scale(_random_fraction(rng))
            # Mixing in unchosen representatives keeps the classes independent.
            others = [h for h in (even_reps if f.parity == 0 else odd_reps)
                      if h not in chosen]
            if others and rng.random() < 0.5:
                g = g.plus(rng.choice(others).scale(_random_fraction(rng)))
            mixed.append(g)
        L = _instance(table, central_extension(L, mixed).algebra)
    return L


def corpus(seed: int, size: int) -> list[LieSuperalgebra]:
    """Reproducible list of random nilpotent algebras, one object per
    distinct algebra."""
    if size < 0:
        raise InvalidParams(f"corpus size must be non-negative, got {size}")
    rng = random.Random(seed)
    table: _Table = {}
    return [_draw(rng, table) for _ in range(size)]
