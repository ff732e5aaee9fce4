"""Random parity-preserving base changes and the test algebras shared by
the test modules.

``random_parity_preserving`` draws from a ``random.Random``; ``base_changed``
is the hypothesis strategy over a given list of algebras.  ``SO3`` is
so(3), a non-nilpotent algebra with trivial center.
"""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from reference_linalg import invert
from superlie.core import change_basis, validate
from superlie.errors import SingularMatrix

F = Fraction

SO3 = validate([0, 0, 0], {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, name="so3")

rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def random_parity_preserving(rng, L):
    """An invertible matrix with entries in -2..2 that keeps even and odd
    basis vectors apart; singular draws are redrawn."""
    d = L.dim
    while True:
        P = [[F(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if L.parities[i] == L.parities[j]:
                    P[i][j] = F(rng.randint(-2, 2))
        try:
            invert(P)
            return P
        except ValueError:
            continue


@st.composite
def base_changed(draw, algebras):
    """An algebra of ``algebras``, conjugated by a random invertible
    parity-preserving matrix."""
    L = draw(st.sampled_from(algebras))
    d = L.dim
    P = [[draw(rational) if L.parities[i] == L.parities[j] else F(0) for j in range(d)]
         for i in range(d)]
    try:
        return change_basis(L, P)
    except SingularMatrix:
        assume(False)
