"""Integer pairs (even, odd) with the componentwise partial order.

Two flavours: :class:`SignedPair` admits negative components and is what
subtraction returns, so a negative entry stays visible as a contradiction
signal instead of being clamped; :class:`SuperDim` is the non-negative
restriction used for dimensions of actual superspaces.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, eq=False)
class SignedPair:
    even: int
    odd: int

    # Value equality across SignedPair/SuperDim: (1,0) is the same pair
    # whichever class carries it.
    def __eq__(self, other):
        if isinstance(other, SignedPair):
            return (self.even, self.odd) == (other.even, other.odd)
        return NotImplemented

    def __hash__(self):
        return hash((self.even, self.odd))

    def __add__(self, other: SignedPair) -> SignedPair:
        return type(self)(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: SignedPair) -> SignedPair:
        return SignedPair(self.even - other.even, self.odd - other.odd)

    def total(self) -> int:
        return self.even + self.odd

    def leq(self, other: SignedPair) -> bool:
        return self.even <= other.even and self.odd <= other.odd

    @property
    def is_nonnegative(self) -> bool:
        return self.even >= 0 and self.odd >= 0

    def to_superdim(self) -> SuperDim:
        if not self.is_nonnegative:
            raise ValueError(f"pair ({self.even},{self.odd}) has a negative component")
        return SuperDim(self.even, self.odd)

    def as_tuple(self) -> tuple[int, int]:
        return (self.even, self.odd)

    def __repr__(self):
        return f"({self.even},{self.odd})"


class SuperDim(SignedPair):
    """A superdimension: both components non-negative."""

    def __init__(self, even: int, odd: int):
        if even < 0 or odd < 0:
            raise ValueError(f"superdimension components must be >= 0, got ({even},{odd})")
        super().__init__(even, odd)

    def __add__(self, other: SignedPair) -> SignedPair:
        if isinstance(other, SuperDim):
            return SuperDim(self.even + other.even, self.odd + other.odd)
        return SignedPair(self.even + other.even, self.odd + other.odd)


ZERO = SuperDim(0, 0)


def bound(a: SuperDim) -> SuperDim:
    """Largest possible derived/multiplier superdimension for a space of
    superdimension (m,n): (m(m-1)/2 + n(n+1)/2, m*n)."""
    m, n = a.even, a.odd
    return SuperDim(m * (m - 1) // 2 + n * (n + 1) // 2, m * n)


def tensor(a: SuperDim, b: SuperDim) -> SuperDim:
    """Superdimension of a tensor product of superspaces."""
    return SuperDim(a.even * b.even + a.odd * b.odd, a.even * b.odd + a.odd * b.even)
