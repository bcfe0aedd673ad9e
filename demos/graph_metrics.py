"""Step graphs on Z_n and the path-length metric they induce."""

from cayleytones import (
    AffineMap,
    CayleyGraph,
    export_dot,
    is_isometry_bruteforce,
    is_isometry_by_generators,
    system_from_factors,
    units,
)

system = system_from_factors(4, 3)
gens = system.symmetric_generator_set
print("generators:", sorted(gens.elements))

graph = CayleyGraph(gens, oriented=False)
print("d(0, 7) =", graph.distance(0, 7))
print("d(0, 1) =", graph.distance(0, 1))

oriented = CayleyGraph(system.generator_set, oriented=True)
for target in (7, 9, 11, 1, 5):
    print(f"oriented length 0 -> {target}:", oriented.oriented_path_length(0, target))

# which multiplications preserve all distances? exactly the h with h*S = S
for h in units(system.ring):
    f = AffineMap(system.ring, h, 0)
    fast = is_isometry_by_generators(f, gens)
    slow = is_isometry_bruteforce(graph, f)
    assert fast == slow
    print(f"{f} isometry: {fast}")

print()
print(export_dot(CayleyGraph(system_from_factors(3, 2).symmetric_generator_set)))
