"""Hunting consonance/dissonance partitions in Z_12, Z_10, and Z_15.

The walk goes: enumerate the affine involutions that push the seed
consonances {0} union S off themselves, grow each survivor to a full
half/half partition when the modulus is even, and break ties with
oriented path lengths.
"""

from cayleytones import (
    AffineMap,
    CayleyGraph,
    ConsonantSeed,
    ModRing,
    NoStrongDichotomyError,
    enumerate_weak_witnesses,
    extend_to_partitions,
    fux_dichotomy,
    maximal_consonant_extension,
    minimal_oriented_refinement,
    strong_search_report,
    system_from_factors,
)


def tour(p, q):
    system = system_from_factors(p, q)
    seed = ConsonantSeed(system.symmetric_generator_set)
    print(f"== Z_{system.n}, S = {sorted(seed.generators.elements)} ==")
    weak = enumerate_weak_witnesses(seed)
    print(f"examined {weak.examined} maps, weak witnesses:")
    for t in weak.witnesses:
        print("  ", t)
    try:
        report = extend_to_partitions(seed)
    except NoStrongDichotomyError as exc:
        print("no full partition:", exc)
        return
    for rec in report.partitions:
        print(
            f"  K={sorted(rec.consonant)} D={sorted(rec.dissonant)}"
            f" via {rec.multiplier}x+{rec.offset}"
            f" ({rec.strong_witness_count} strong witness)"
        )
    return report


tour(4, 3)
print()
tour(5, 2)
print()
tour(5, 3)

# odd moduli still carry maximal consonant sets under a single involution
print()
z15 = system_from_factors(5, 3)
seed15 = ConsonantSeed(z15.symmetric_generator_set)
witness = AffineMap(ModRing(15), 14, 1)
maximal = maximal_consonant_extension(seed15, witness)
print(f"maximal consonant sets under {witness}:")
for rec in maximal.partitions:
    print("  K =", sorted(rec.consonant))

# back on Z_12, the oriented metric singles out the classical dichotomy
print()
z12 = system_from_factors(4, 3)
seed12 = ConsonantSeed(z12.symmetric_generator_set)
report = extend_to_partitions(seed12)
oriented = CayleyGraph(z12.generator_set, oriented=True)
best = minimal_oriented_refinement(report, oriented)
print("refinement picks K =", sorted(best.consonant))
print("matches the classical dichotomy:", best.consonant == fux_dichotomy().consonant)

# one-partition scan, reported with full bookkeeping
print()
print(strong_search_report(fux_dichotomy(), seed12).to_json(indent=2))
