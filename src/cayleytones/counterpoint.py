"""Consonant/dissonant dichotomies and exhaustive affine witness searches."""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Optional

from ._value import value_type
from .cayley import CayleyGraph, GeneratorSet, is_isometry_by_generators
from .modular import AffineMap, ModRing, fixed_points, is_involution, units

# json is imported by the to_json methods, so that a report printed as a
# table does not load it.

# The most subsets extend_to_partitions and maximal_consonant_extension
# may enumerate; it covers every extension to halves with n <= 44. Larger
# searches are refused before they start.
_MAX_SUBSETS = 2**22


class NoStrongDichotomyError(ValueError):
    """Raised when a full half/half partition is impossible (odd n)."""


class AmbiguousRefinementError(ValueError):
    """Raised when no single partition minimizes the oriented lengths."""

    def __init__(self, ties: list[tuple[int, ...]]):
        super().__init__(f"tied partitions: {ties}")
        self.ties = ties


@value_type
class Dichotomy:
    """Disjoint consonant/dissonant subsets of Z_n.

    A strong dichotomy partitions all of Z_n into equal halves; weaker
    ones may leave residues unassigned.
    """

    ring: ModRing
    consonant: frozenset[int]
    dissonant: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "consonant", frozenset(self.consonant))
        object.__setattr__(self, "dissonant", frozenset(self.dissonant))
        universe = range(self.ring.n)
        if not self.consonant <= set(universe) or not self.dissonant <= set(universe):
            raise ValueError("dichotomy members must be residues")
        if self.consonant & self.dissonant:
            raise ValueError("consonant and dissonant sets must be disjoint")

    @property
    def is_full_partition(self) -> bool:
        return len(self.consonant) + len(self.dissonant) == self.ring.n

    def to_dict(self) -> dict:
        return {
            "n": self.ring.n,
            "K": sorted(self.consonant),
            "D": sorted(self.dissonant),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def fux_dichotomy() -> Dichotomy:
    """The classical twelve-note consonant/dissonant split."""
    return Dichotomy(
        ModRing(12),
        frozenset({0, 3, 4, 7, 8, 9}),
        frozenset({1, 2, 5, 6, 10, 11}),
    )


@value_type
class ConsonantSeed:
    """The minimal consonances {0} union S for a symmetric generating S."""

    generators: GeneratorSet

    def __post_init__(self) -> None:
        if not self.generators.is_symmetric:
            raise ValueError("seed requires a symmetric generator set")
        if not self.generators.is_generating():
            raise ValueError("seed requires a generating set")

    @property
    def ring(self) -> ModRing:
        return self.generators.ring

    @property
    def members(self) -> frozenset[int]:
        return frozenset({0} | set(self.generators.elements))


def sumset(A: Iterable[int], B: Iterable[int], ring: ModRing) -> frozenset[int]:
    """All pairwise sums a+b mod n."""
    return frozenset((a + b) % ring.n for a in A for b in B)


def _metric_generators(G: CayleyGraph) -> GeneratorSet:
    if G.oriented:
        raise ValueError("counterpoint checks run on the unoriented graph")
    return GeneratorSet(G.ring, G.steps)


def satisfies_strong(T: AffineMap, dichotomy: Dichotomy, G: CayleyGraph) -> bool:
    """The strong condition: T an isometric involution with T(K) = D."""
    S = _metric_generators(G)
    if not dichotomy.is_full_partition:
        raise ValueError("strong condition needs a full partition of Z_n")
    if not is_involution(T):
        return False
    if not is_isometry_by_generators(T, S):
        return False
    return {T(x) for x in dichotomy.consonant} == set(dichotomy.dissonant)


def satisfies_weak(T: AffineMap, seed: ConsonantSeed, G: CayleyGraph) -> bool:
    """The weak condition: T an isometric involution moving the seed
    consonances entirely off themselves."""
    S = _metric_generators(G)
    if not is_involution(T):
        return False
    if not is_isometry_by_generators(T, S):
        return False
    members = seed.members
    return not ({T(x) for x in members} & members)


@value_type
class PartitionRecord:
    """One consonant/dissonant split found by a search, with its witness."""

    consonant: tuple[int, ...]
    dissonant: tuple[int, ...]
    multiplier: int
    offset: int
    strong_witness_count: int

    def to_dict(self) -> dict:
        return {
            "K": list(self.consonant),
            "D": list(self.dissonant),
            "h": self.multiplier,
            "w": self.offset,
            "strong_witness_count": self.strong_witness_count,
        }


@value_type
class SearchReport:
    """Outcome of an exhaustive affine search, ordered deterministically."""

    n: int
    generators: tuple[int, ...]
    examined: int
    witnesses: tuple[AffineMap, ...]
    partitions: tuple[PartitionRecord, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "S": list(self.generators),
            "examined": self.examined,
            "witnesses": [
                {"h": T.multiplier, "w": T.offset} for T in self.witnesses
            ],
            "partitions": [record.to_dict() for record in self.partitions],
            "notes": list(self.notes),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def _image(T: AffineMap, X: Iterable[int]) -> frozenset[int]:
    h, w, n = T.multiplier, T.offset, T.ring.n
    return frozenset((h * x + w) % n for x in X)


def _involutive_isometries(S: GeneratorSet) -> list[AffineMap]:
    """Every map x -> hx+w with h^2 = 1, hS = S and (h+1)w = 0, by (h, w).

    It is every involutive isometry of the step graph, the torus C_q x C_p:
    for relatively prime factors the automorphisms of a Cartesian product
    are pairs of theirs (Imrich and Klavzar, Product Graphs), 2n for q = 2,
    else 4n, as many as the affine isometries (tests/test_cayley.py counts
    them on n <= 117). Every search filters this one table.
    """
    ring, n = S.ring, S.ring.n
    return [
        AffineMap(ring, h, w)
        for h in units(ring)
        if (h * h) % n == 1
        and is_isometry_by_generators(AffineMap(ring, h, 0), S)
        for w in range(n)
        if ((h + 1) * w) % n == 0
    ]


def _strong_witnesses(
    maps: Iterable[AffineMap], K: frozenset[int], D: frozenset[int]
) -> list[AffineMap]:
    return [T for T in maps if _image(T, K) == D]


def find_affine_for_partition(
    dichotomy: Dichotomy, seed: ConsonantSeed
) -> list[AffineMap]:
    """All strong witnesses among the |U(n)|*n affine maps, by (h, w).

    The isometries are those of the seed's steps S. Results match
    filtering the full scan through satisfies_strong.
    """
    if dichotomy.ring != seed.ring:
        raise ValueError("dichotomy and seed use different moduli")
    if not dichotomy.is_full_partition:
        raise ValueError("strong condition needs a full partition of Z_n")
    K, D = dichotomy.consonant, dichotomy.dissonant
    return _strong_witnesses(_involutive_isometries(seed.generators), K, D)


def strong_search_report(dichotomy: Dichotomy, seed: ConsonantSeed) -> SearchReport:
    """Full-scan report of the strong witnesses for one partition."""
    witnesses = find_affine_for_partition(dichotomy, seed)
    n = seed.ring.n
    records = []
    if witnesses:
        first = witnesses[0]
        records.append(
            PartitionRecord(
                tuple(sorted(dichotomy.consonant)),
                tuple(sorted(dichotomy.dissonant)),
                first.multiplier,
                first.offset,
                len(witnesses),
            )
        )
    notes = (
        f"strong witnesses for K={sorted(dichotomy.consonant)}: {len(witnesses)}",
    )
    return SearchReport(
        n,
        seed.generators.elements,
        len(units(seed.ring)) * n,
        tuple(witnesses),
        tuple(records),
        notes,
    )


def enumerate_weak_witnesses(seed: ConsonantSeed) -> SearchReport:
    """Scan all |U(n)|*n affine maps for weak witnesses of the seed.

    The report cross-checks the sufficient criterion: every offset
    outside the seed sumset must yield a witness with multiplier n-1.
    """
    ring, n = seed.ring, seed.ring.n
    members = seed.members
    table = _involutive_isometries(seed.generators)
    witnesses = [T for T in table if not (_image(T, members) & members)]
    outside = sorted(set(range(n)) - set(sumset(members, members, ring)))
    witness_keys = {(T.multiplier, T.offset) for T in witnesses}
    missing = [w for w in outside if (n - 1, w) not in witness_keys]
    if missing:
        raise AssertionError(
            f"offsets {missing} outside the seed sumset failed the weak check"
        )
    notes = (
        f"seed consonances: {sorted(members)}",
        f"involutive isometries among candidates: {len(table)}",
        f"offsets outside seed sumset (all confirmed with multiplier {n - 1}): {outside}",
    )
    return SearchReport(
        n,
        seed.generators.elements,
        len(units(ring)) * n,
        tuple(witnesses),
        (),
        notes,
    )


def _orbit_pairs(T: AffineMap, seed: frozenset[int]) -> list[tuple[int, int]]:
    """The pairs {z, T(z)}, z != T(z), that avoid the seed and its image."""
    taken = seed | _image(T, seed)
    return [(z, t) for z, t in enumerate(map(T, range(T.ring.n))) if z not in taken and z < t]


def _pick_masks(seed: Iterable[int], pairs: list[tuple[int, int]], U=lambda z: z) -> list[int]:
    """Bit masks of U of the seed plus one element from each pair, in product order."""
    masks = [sum(1 << U(z) for z in seed)]
    for a, b in pairs:
        masks = [m | bit for m in masks for bit in (1 << U(a), 1 << U(b))]
    return masks


def _extensions(members: frozenset[int], T: AffineMap, pairs: list[tuple[int, int]],
                maps: Iterable[AffineMap]) -> list[PartitionRecord]:
    """The records of K = the seed plus one element per T-pair and D = T(K),
    in product(*pairs) order, with K's strong witnesses among the maps given.

    T moves the seed off itself, so n = 2|seed| + 2|pairs| + |fixed points|
    and K halves Z_n only when T fixes no residue; a half's strong witnesses
    U fix none either. As |U(K)| = n/2, U(K) = D exactly when K and U(K)
    are disjoint, which is tested on bit masks.
    """
    # Row r of the counts is K = high[r] | low[c] for each c, in product(*pairs)
    # order. With i, j the U-images of the parts, K misses U(K) when k & i,
    # l & j and l & i are 0 (for an involution, k & j == 0 iff l & i == 0).
    cut = len(pairs) // 2
    high, low = _pick_masks(members, pairs[:cut]), _pick_masks((), pairs[cut:])
    counts = [[0] * len(low) for _ in high]
    for U in maps:
        # A low part that meets its own image becomes -1, which meets any i.
        lows = [-1 if l & j else l for l, j in zip(low, _pick_masks((), pairs[cut:], U))]
        counts = [[m + (not l & i) for m, l in zip(row, lows)] if not k & i else row
                  for row, k, i in zip(counts, high, _pick_masks(members, pairs[:cut], U))]
    # D = T(K) is the seed's image plus the partner of each pick.
    base, image, h, w = tuple(members), tuple(_image(T, members)), T.multiplier, T.offset
    partners = product(*[(b, a) for a, b in pairs])
    return [
        PartitionRecord(tuple(sorted(base + picks)), tuple(sorted(image + others)), h, w, count)
        for picks, others, count in zip(product(*pairs), partners, chain(*counts))
    ]


def extend_to_partitions(seed: ConsonantSeed) -> SearchReport:
    """Grow the seed to full half/half partitions under each weak witness.

    A weak witness T splits Z_n into the seed, its image, T's free pairs and
    its fixed points (n = 2|seed| + 2|pairs| + |fixed|), so the T that reach
    a half are those that fix no residue. A half's strong witnesses are
    among them: T(z) = z would put z in both K and D, or in neither. Every
    returned partition is re-verified rather than trusted: a K and D that do
    not split Z_n, an empty recount of K's strong witnesses among the weak
    witnesses that fix no residue, or a first witness or count other than
    the search's, is an AssertionError. A search that would enumerate more
    than 2**22 subsets raises ValueError before it enumerates any.
    """
    n = seed.ring.n
    if n % 2 == 1:
        raise NoStrongDichotomyError(
            f"n={n} is odd: halves of equal size cannot partition Z_n"
        )
    weak_report = enumerate_weak_witnesses(seed)
    members = seed.members
    needed = n // 2 - len(members)
    if needed < 0:
        raise ValueError("seed larger than half of Z_n")
    reaching = []
    for T in weak_report.witnesses:
        pairs = _orbit_pairs(T, members)
        # Only a T that fixes no residue off the seed and its image reaches a half.
        if len(pairs) == needed:
            reaching.append((T, pairs))
            if len(reaching) * 2**needed > _MAX_SUBSETS:
                raise ValueError(f"extend on Z_{n} would enumerate over {_MAX_SUBSETS} subsets")
    # K's strong witnesses are the reaching T that make it, so its first record names the first.
    found, maps = {}, [T for T, _ in reaching]
    for T, pairs in reaching:
        for record in _extensions(members, T, pairs, maps):
            found.setdefault(record.consonant, record)
    free = [T for T in weak_report.witnesses if not fixed_points(T)]
    universe = list(range(n))
    for record in found.values():
        K, D = frozenset(record.consonant), frozenset(record.dissonant)
        strong = _strong_witnesses(free, K, D)
        recount = [(U.multiplier, U.offset, len(strong)) for U in strong[:1]]
        split = sorted(record.consonant + record.dissonant) == universe
        if not split or recount != [(record.multiplier, record.offset, record.strong_witness_count)]:
            raise AssertionError(f"K={sorted(K)}: recount {recount} disagrees with {record}")
    records = sorted(found.values(), key=lambda r: (r.multiplier, r.offset, r.consonant))
    notes = weak_report.notes + (
        f"half-partition extensions found: {len(records)}",
        f"extension subsets accepted across witnesses: {len(reaching) * 2**needed}",
    )
    return SearchReport(
        n,
        seed.generators.elements,
        weak_report.examined,
        weak_report.witnesses,
        tuple(records),
        notes,
    )


def maximal_consonant_extension(
    seed: ConsonantSeed, T: Optional[AffineMap] = None
) -> SearchReport:
    """All maximal supersets of the seed kept disjoint from their T-image.

    T = None takes the first weak witness by (h, w). Fixed points of T can
    never join, so for odd n the consonances stop at (n-1)/2 elements.
    More than 2**22 sets raise ValueError before any is listed.
    """
    members = seed.members
    n = seed.ring.n
    candidates = enumerate_weak_witnesses(seed).witnesses
    if T is None:
        if not candidates:
            raise ValueError(f"Z_{n} admits no weak witness to extend")
        T = candidates[0]
    elif T not in candidates:
        raise ValueError("the supplied map does not satisfy the weak condition")
    pairs = _orbit_pairs(T, members)
    if 2 ** len(pairs) > _MAX_SUBSETS:
        raise ValueError(f"{T} would give 2^{len(pairs)} maximal sets, over {_MAX_SUBSETS}")
    fixed = fixed_points(T)
    free = [] if fixed else [U for U in candidates if not fixed_points(U)]
    records = sorted(_extensions(members, T, pairs, free), key=lambda r: r.consonant)
    notes = (
        f"seed consonances: {sorted(members)}",
        f"fixed points excluded from candidates: {sorted(fixed)}",
        f"free orbit pairs under the involution: {[list(o) for o in pairs]}",
        f"maximal consonant sets: {len(records)} of size {len(members) + len(pairs)}",
    )
    return SearchReport(
        n,
        seed.generators.elements,
        len(records),
        (T,),
        tuple(records),
        notes,
    )


def minimal_oriented_refinement(
    report: SearchReport, oriented_graph: CayleyGraph
) -> Dichotomy:
    """Pick the partition whose added consonances are closest to 0 along
    directed edges; ties are an error rather than a silent choice."""
    if not oriented_graph.oriented:
        raise ValueError("refinement requires an oriented graph")
    if oriented_graph.ring.n != report.n:
        raise ValueError("graph and report disagree on the modulus")
    if not report.partitions:
        raise ValueError("no partitions to refine")
    seed_members = {0} | set(report.generators)
    scored = []
    for record in report.partitions:
        added = sorted(set(record.consonant) - seed_members)
        score = sum(oriented_graph.oriented_path_length(0, z) for z in added)
        scored.append((score, record))
    best_score = min(score for score, _ in scored)
    best = [record for score, record in scored if score == best_score]
    if len(best) > 1:
        raise AmbiguousRefinementError([record.consonant for record in best])
    winner = best[0]
    ring = ModRing(report.n)
    return Dichotomy(ring, frozenset(winner.consonant), frozenset(winner.dissonant))
