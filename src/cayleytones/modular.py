"""Arithmetic in Z_n: residues, units, and affine maps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union


class ModulusMismatchError(ValueError):
    """Raised when values from rings with different moduli are combined."""


@dataclass(frozen=True)
class ModRing:
    """The integers modulo n under addition, with n >= 2."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {self.n!r}")

    def element(self, value: int) -> "ModElement":
        return ModElement(self, value)

    def elements(self) -> Iterator["ModElement"]:
        for value in range(self.n):
            yield ModElement(self, value)

    def __repr__(self) -> str:
        return f"ModRing({self.n})"


def _require_same_ring(a: ModRing, b: ModRing) -> None:
    if a != b:
        raise ModulusMismatchError(f"mixed moduli: {a.n} and {b.n}")


@dataclass(frozen=True)
class ModElement:
    """A residue in [0, n-1]; the constructor reduces any integer mod n."""

    ring: ModRing
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.ring.n)

    def _coerce(self, other: Union["ModElement", int]) -> "ModElement":
        if isinstance(other, ModElement):
            _require_same_ring(self.ring, other.ring)
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return ModElement(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModElement(self.ring, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModElement(self.ring, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModElement(self.ring, other.value - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModElement(self.ring, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self) -> "ModElement":
        return ModElement(self.ring, -self.value)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.ring.n})"


def units(ring: ModRing) -> list[int]:
    """U(n): residues coprime to n, sorted ascending."""
    return [k for k in range(1, ring.n) if math.gcd(k, ring.n) == 1]


@dataclass(frozen=True)
class AffineMap:
    """The bijection x -> (multiplier * x + offset) mod n, multiplier a unit.

    The group automorphism x -> h*x is AffineMap(ring, h, 0).
    """

    ring: ModRing
    multiplier: int
    offset: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "multiplier", self.multiplier % self.ring.n)
        object.__setattr__(self, "offset", self.offset % self.ring.n)
        if math.gcd(self.multiplier, self.ring.n) != 1:
            raise ValueError(
                f"multiplier {self.multiplier} is not a unit mod {self.ring.n}"
            )

    @classmethod
    def identity(cls, ring: ModRing) -> "AffineMap":
        return cls(ring, 1, 0)

    def __call__(self, x: Union[ModElement, int]):
        if isinstance(x, ModElement):
            _require_same_ring(self.ring, x.ring)
            return ModElement(self.ring, self.multiplier * x.value + self.offset)
        return (self.multiplier * x + self.offset) % self.ring.n

    def sort_key(self) -> tuple[int, int]:
        return (self.multiplier, self.offset)

    def __repr__(self) -> str:
        return f"{self.multiplier}x+{self.offset} (mod {self.ring.n})"


def compose(T1: AffineMap, T2: AffineMap) -> AffineMap:
    """The affine map of T1 after T2: multiplier h1*h2, offset h1*w2 + w1."""
    _require_same_ring(T1.ring, T2.ring)
    return AffineMap(
        T1.ring,
        T1.multiplier * T2.multiplier,
        T1.multiplier * T2.offset + T1.offset,
    )


def is_involution(T: AffineMap) -> bool:
    """True iff T(T(x)) = x for all x: h^2 = 1 and (h+1)*w = 0 mod n."""
    n = T.ring.n
    return (T.multiplier * T.multiplier) % n == 1 and (
        (T.multiplier + 1) * T.offset
    ) % n == 0


def fixed_points(T: AffineMap) -> frozenset[int]:
    """All residues x with T(x) = x, by direct scan."""
    return frozenset(x for x in range(T.ring.n) if T(x) == x)
