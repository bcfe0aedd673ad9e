"""Arithmetic in Z_n: the ring, its units, and affine maps."""

from __future__ import annotations

import math

from ._value import value_type


@value_type
class ModRing:
    """The integers modulo n under addition, with n >= 2."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {self.n!r}")

    def __repr__(self) -> str:
        return f"ModRing({self.n})"


def units(ring: ModRing) -> list[int]:
    """U(n): residues coprime to n, sorted ascending."""
    return [k for k in range(1, ring.n) if math.gcd(k, ring.n) == 1]


@value_type
class AffineMap:
    """The bijection x -> (multiplier * x + offset) mod n, multiplier a unit.

    The group automorphism x -> h*x is AffineMap(ring, h, 0).
    """

    ring: ModRing
    multiplier: int
    offset: int

    def __post_init__(self) -> None:
        n = self.ring.n
        multiplier = self.multiplier % n
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "offset", self.offset % n)
        if math.gcd(multiplier, n) != 1:
            raise ValueError(f"multiplier {multiplier} is not a unit mod {n}")

    def __call__(self, x: int) -> int:
        return (self.multiplier * x + self.offset) % self.ring.n

    def __repr__(self) -> str:
        return f"{self.multiplier}x+{self.offset} (mod {self.ring.n})"


def is_involution(T: AffineMap) -> bool:
    """True iff T(T(x)) = x for all x: h^2 = 1 and (h+1)*w = 0 mod n."""
    n = T.ring.n
    return (T.multiplier * T.multiplier) % n == 1 and (
        (T.multiplier + 1) * T.offset
    ) % n == 0


def fixed_points(T: AffineMap) -> frozenset[int]:
    """All residues x with T(x) = x, by direct scan."""
    return frozenset(x for x in range(T.ring.n) if T(x) == x)
