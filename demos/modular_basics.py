"""Arithmetic in Z_n: rings, units, affine maps (automorphisms have offset 0)."""

from cayleytones import (
    AffineMap,
    ModRing,
    fixed_points,
    is_involution,
    units,
)

ring = ModRing(12)
print("ring:", ring)
print("9 + 8 =", (9 + 8) % ring.n)
print("-3 =", -3 % ring.n)
print("units of Z_12:", units(ring))

# every unit h gives the automorphism x -> h*x, the affine map with offset 0
for h in units(ring):
    f = AffineMap(ring, h, 0)
    print(f"{f}: 0..11 ->", [f(x) for x in range(12)])

T = AffineMap(ring, 5, 2)
print("T =", T)
print("T is an involution:", is_involution(T))
print("T fixes:", sorted(fixed_points(T)))

# applying T twice returns every note to itself
print("T o T =", [T(T(x)) for x in range(12)])

# mod 15 the negation-like map 14x+1 keeps one note in place
ring15 = ModRing(15)
S = AffineMap(ring15, 14, 1)
print("S =", S, "fixes", sorted(fixed_points(S)))
