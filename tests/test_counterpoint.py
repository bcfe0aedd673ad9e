"""Dichotomy searches: weak/strong witnesses, extensions, refinement."""

import json
import math
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cayleytones import counterpoint
from cayleytones.cayley import CayleyGraph, GeneratorSet, is_isometry_bruteforce
from cayleytones.cli import main
from cayleytones.counterpoint import (
    AmbiguousRefinementError,
    ConsonantSeed,
    Dichotomy,
    NoStrongDichotomyError,
    PartitionRecord,
    SearchReport,
    _image,
    _involutive_isometries,
    _orbit_pairs,
    enumerate_weak_witnesses,
    extend_to_partitions,
    find_affine_for_partition,
    fux_dichotomy,
    maximal_consonant_extension,
    minimal_oriented_refinement,
    satisfies_strong,
    satisfies_weak,
    strong_search_report,
    sumset,
)
from cayleytones.modular import AffineMap, ModRing, fixed_points, is_involution, units
from cayleytones.music import system_from_factors

RING12 = ModRing(12)
FUX = fux_dichotomy()


def _setup(p, q):
    system = system_from_factors(p, q)
    seed = ConsonantSeed(system.symmetric_generator_set)
    graph = CayleyGraph(system.symmetric_generator_set, oriented=False)
    return system, seed, graph


S12, SEED12, G12 = _setup(4, 3)
S10, SEED10, G10 = _setup(5, 2)
S15, SEED15, G15 = _setup(5, 3)

# Every coprime factor pair p > q > 1 with n = p*q <= 30.
SMALL_SYSTEMS = [
    (p, q)
    for q in range(2, 16)
    for p in range(q + 1, 16)
    if p * q <= 30 and math.gcd(p, q) == 1
]

# The same with n <= 22, where every subset of Z_n holding the seed can be
# listed in about a second.
ORACLE_SYSTEMS = [(p, q) for p, q in SMALL_SYSTEMS if p * q <= 22]

# Every valid musical system (coprime p > q > 1) with n = p*q <= 400.
SYSTEMS_TO_400 = [
    (p, q) for q in range(2, 20) for p in range(q + 1, 201)
    if p * q <= 400 and math.gcd(p, q) == 1
]


def _keys(maps):
    return [(T.multiplier, T.offset) for T in maps]


def test_fux_dichotomy_is_the_classical_partition():
    assert FUX.consonant == frozenset({0, 3, 4, 7, 8, 9})
    assert FUX.dissonant == frozenset({1, 2, 5, 6, 10, 11})
    assert FUX.is_full_partition


def test_dichotomy_rejects_overlap_and_strays():
    with pytest.raises(ValueError):
        Dichotomy(RING12, frozenset({0, 1}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        Dichotomy(RING12, frozenset({0, 12}), frozenset({1}))


def test_seed_members():
    assert SEED12.members == frozenset({0, 3, 4, 8, 9})
    assert SEED10.members == frozenset({0, 2, 5, 8})
    assert SEED15.members == frozenset({0, 3, 5, 10, 12})


def test_seed_requires_symmetric_generating_set():
    with pytest.raises(ValueError):
        ConsonantSeed(GeneratorSet(RING12, (3, 4)))
    with pytest.raises(ValueError):
        ConsonantSeed(GeneratorSet(RING12, (3, 9)))


def test_satisfies_strong_examples():
    assert satisfies_strong(AffineMap(RING12, 5, 2), FUX, G12)
    # 11x+6 fixes 3, which stays consonant
    assert not satisfies_strong(AffineMap(RING12, 11, 6), FUX, G12)
    assert not satisfies_strong(AffineMap(RING12, 1, 0), FUX, G12)


def test_satisfies_strong_requires_full_partition():
    partial = Dichotomy(RING12, frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        satisfies_strong(AffineMap(RING12, 5, 2), partial, G12)


def test_satisfies_weak_examples():
    assert satisfies_weak(AffineMap(RING12, 11, 10), SEED12, G12)
    assert satisfies_weak(AffineMap(RING12, 5, 2), SEED12, G12)
    # x+6 moves 3 to 9, still a seed consonance
    assert not satisfies_weak(AffineMap(RING12, 1, 6), SEED12, G12)


def test_checks_reject_oriented_graphs():
    oriented = CayleyGraph(S12.generator_set, oriented=True)
    with pytest.raises(ValueError):
        satisfies_weak(AffineMap(RING12, 11, 10), SEED12, oriented)


def test_sumsets_exact():
    r = RING12
    assert sumset(SEED12.members, SEED12.members, r) == frozenset(
        {0, 1, 3, 4, 5, 6, 7, 8, 9, 11}
    )
    assert sumset(SEED10.members, SEED10.members, ModRing(10)) == frozenset(
        {0, 2, 3, 4, 5, 6, 7, 8}
    )
    assert sumset(SEED15.members, SEED15.members, ModRing(15)) == frozenset(
        {0, 2, 3, 5, 6, 7, 8, 9, 10, 12, 13}
    )


def test_find_affine_fux_is_unique():
    assert _keys(find_affine_for_partition(FUX, SEED12)) == [(5, 2)]


def test_find_affine_on_a_contiguous_band():
    band = Dichotomy(RING12, frozenset(range(6)), frozenset(range(6, 12)))
    assert _keys(find_affine_for_partition(band, SEED12)) == [(1, 6), (11, 11)]


def test_find_affine_agrees_with_satisfies_strong():
    """The optimized scan against the per-candidate predicate."""
    for dichotomy in (FUX, Dichotomy(RING12, frozenset(range(6)), frozenset(range(6, 12)))):
        slow = [
            (h, w)
            for h in units(RING12)
            for w in range(12)
            if satisfies_strong(AffineMap(RING12, h, w), dichotomy, G12)
        ]
        assert _keys(find_affine_for_partition(dichotomy, SEED12)) == slow


def test_strong_searches_refuse_a_dichotomy_on_another_modulus():
    ring10 = ModRing(10)
    dichotomy = Dichotomy(ring10, frozenset(range(5)), frozenset(range(5, 10)))
    with pytest.raises(ValueError, match="dichotomy and seed use different moduli"):
        find_affine_for_partition(dichotomy, SEED12)
    with pytest.raises(ValueError, match="dichotomy and seed use different moduli"):
        strong_search_report(dichotomy, SEED12)


def test_weak_enumeration_z12():
    report = enumerate_weak_witnesses(SEED12)
    assert report.examined == 48
    assert _keys(report.witnesses) == [(5, 2), (5, 10), (11, 2), (11, 10)]


def test_weak_enumeration_agrees_with_satisfies_weak():
    report = enumerate_weak_witnesses(SEED12)
    slow = [
        (h, w)
        for h in units(RING12)
        for w in range(12)
        if satisfies_weak(AffineMap(RING12, h, w), SEED12, G12)
    ]
    assert _keys(report.witnesses) == slow


def test_weak_enumeration_z10():
    report = enumerate_weak_witnesses(SEED10)
    assert report.examined == 40
    assert _keys(report.witnesses) == [(9, 1), (9, 9)]


def test_weak_enumeration_z15():
    report = enumerate_weak_witnesses(SEED15)
    assert report.examined == 120
    assert _keys(report.witnesses) == [(14, 1), (14, 4), (14, 11), (14, 14)]


def test_extension_z12_partitions():
    report = extend_to_partitions(SEED12)
    got = {r.consonant: (r.multiplier, r.offset, r.strong_witness_count) for r in report.partitions}
    assert got == {
        (0, 1, 3, 4, 8, 9): (5, 2, 1),
        (0, 3, 4, 7, 8, 9): (5, 2, 1),
        (0, 3, 4, 5, 8, 9): (5, 10, 1),
        (0, 3, 4, 8, 9, 11): (5, 10, 1),
    }
    for record in report.partitions:
        assert set(record.consonant) | set(record.dissonant) == set(range(12))


def test_extension_z10_partitions():
    report = extend_to_partitions(SEED10)
    assert {r.consonant for r in report.partitions} == {
        (0, 2, 4, 5, 8),
        (0, 2, 5, 7, 8),
        (0, 2, 5, 6, 8),
        (0, 2, 3, 5, 8),
    }
    for record in report.partitions:
        assert record.strong_witness_count == 1


def test_extension_partitions_really_are_strong():
    """Re-verify each reported partition with the slow predicate."""
    report = extend_to_partitions(SEED12)
    for record in report.partitions:
        dichotomy = Dichotomy(
            RING12, frozenset(record.consonant), frozenset(record.dissonant)
        )
        T = AffineMap(RING12, record.multiplier, record.offset)
        assert satisfies_strong(T, dichotomy, G12)


def test_extension_is_every_half_the_table_sends_off_itself():
    """All-subsets oracle: every K with the seed and n/2 members, against
    every involutive isometry, not only the weak witnesses.

    The report must list exactly the K that some map sends off itself, by
    (h, w, K), with the least such map and how many there are.
    """
    for p, q in ORACLE_SYSTEMS:
        system, seed, graph = _setup(p, q)
        n, members = system.n, seed.members
        if n % 2:
            continue
        if 2 * len(members) > n:
            with pytest.raises(ValueError):
                extend_to_partitions(seed)
            continue
        table = _involutive_isometries(seed.generators)
        expected = []
        for extra in combinations(sorted(set(range(n)) - members), n // 2 - len(members)):
            K = members.union(extra)
            hits = [T for T in table if K.isdisjoint(map(T, K))]
            if hits:
                D = set(range(n)) - K
                expected.append(
                    (hits[0].multiplier, hits[0].offset, tuple(sorted(K)), tuple(sorted(D)), len(hits))
                )
        expected.sort()
        report = extend_to_partitions(seed)
        assert [
            (r.multiplier, r.offset, r.consonant, r.dissonant, r.strong_witness_count)
            for r in report.partitions
        ] == expected, (p, q)


def test_maximal_extension_is_every_largest_set_kept_off_its_image():
    """All-subsets oracle for each weak witness T, odd n included: the sets
    of the seed plus one element per free T-pair that avoid T's fixed
    points and their own image, with D = T(K), counted as strong against
    the whole table when they halve Z_n."""
    for p, q in ORACLE_SYSTEMS:
        system, seed, graph = _setup(p, q)
        n, members = system.n, seed.members
        table = _involutive_isometries(seed.generators)
        weak = [T for T in table if members.isdisjoint(map(T, members))]
        if not weak:
            with pytest.raises(ValueError):
                maximal_consonant_extension(seed, None)
            continue
        assert maximal_consonant_extension(seed, None).witnesses == (weak[0],)
        for T in weak:
            fixed = {z for z in range(n) if T(z) == z}
            free_pairs = {
                frozenset((z, T(z)))
                for z in range(n)
                if T(z) != z and z not in members and T(z) not in members
            }
            expected = []
            for extra in combinations(sorted(set(range(n)) - members), len(free_pairs)):
                K = members.union(extra)
                if fixed & K or not K.isdisjoint(map(T, K)):
                    continue
                D = set(map(T, K))
                count = 0
                if 2 * len(K) == n:
                    count = sum(set(map(U, K)) == set(range(n)) - K for U in table)
                expected.append(
                    (tuple(sorted(K)), tuple(sorted(D)), T.multiplier, T.offset, count)
                )
            report = maximal_consonant_extension(seed, T)
            assert [
                (r.consonant, r.dissonant, r.multiplier, r.offset, r.strong_witness_count)
                for r in report.partitions
            ] == expected, (p, q, T)


@pytest.fixture(scope="module")
def extend_reports():
    """extend_to_partitions for every even system with n <= 30 whose seed
    fits in a half, by (p, q)."""
    reports = {}
    for p, q in SMALL_SYSTEMS:
        system, seed, graph = _setup(p, q)
        if system.n % 2 == 0 and 2 * len(seed.members) <= system.n:
            reports[p, q] = extend_to_partitions(seed)
    return reports


def test_a_half_is_strong_under_exactly_the_witnesses_that_produce_it(extend_reports):
    """The recount of extend_to_partitions gives what its producers give.

    For every half K of the even systems with n <= 26 whose seed fits in a
    half, the strong witnesses of K, by (h, w), are the reaching weak
    witnesses (those that fix no residue off the seed and its image) that
    make K from the seed and one element of each of their pairs; none of
    them fixes a residue, and K's record names the first of them and their
    count.
    """
    halves = 0
    for p, q in extend_reports:
        system, seed, graph = _setup(p, q)
        n, members = system.n, seed.members
        if n > 26:
            continue
        producers = {}
        for T in enumerate_weak_witnesses(seed).witnesses:
            pairs = _orbit_pairs(T, members)
            if len(pairs) == n // 2 - len(members):
                for picks in product(*pairs):
                    producers.setdefault(members.union(picks), []).append(T)
        report = extend_reports[p, q]
        assert {frozenset(r.consonant) for r in report.partitions} == set(producers)
        for record in report.partitions:
            K, D = frozenset(record.consonant), frozenset(record.dissonant)
            made = producers[K]
            assert find_affine_for_partition(Dichotomy(system.ring, K, D), seed) == made
            assert not any(fixed_points(U) for U in made), (n, K)
            first = AffineMap(system.ring, record.multiplier, record.offset)
            assert (first, record.strong_witness_count) == (made[0], len(made)), (n, K)
        halves += len(report.partitions)
    assert halves == 7968


def test_extend_merges_the_maximal_sets_of_each_reaching_witness(extend_reports):
    """On the public API alone: extend's halves are the first record of each
    K over the --maximal reports of the reaching weak witnesses (those whose
    sets halve Z_n), in (h, w) order, re-sorted by (h, w, K)."""
    for p, q in extend_reports:
        system, seed, graph = _setup(p, q)
        n = system.n
        first = {}
        for T in enumerate_weak_witnesses(seed).witnesses:
            report = maximal_consonant_extension(seed, T)
            if 2 * len(report.partitions[0].consonant) == n:
                for record in report.partitions:
                    first.setdefault(record.consonant, record)
        expected = sorted(first.values(), key=lambda r: (r.multiplier, r.offset, r.consonant))
        assert extend_reports[p, q].partitions == tuple(expected), (p, q)
    assert len(extend_reports) == 12


def test_the_strong_witness_counts_sum_to_the_accepted_subsets(extend_reports):
    """Each reaching weak witness is a strong witness of exactly the
    2^needed halves it makes, and of no other half. So a search's
    strong_witness_counts sum to its note "extension subsets accepted across
    witnesses", len(reaching) * 2^needed. Each record's own (h, w) sends K
    onto D."""
    sums = {}
    for (p, q), report in extend_reports.items():
        note = next(line for line in report.notes if line.startswith("extension subsets accepted"))
        sums[p, q] = sum(record.strong_witness_count for record in report.partitions)
        assert sums[p, q] == int(note.rpartition(": ")[2]), (p, q)
        ring = ModRing(report.n)
        for record in report.partitions:
            T = AffineMap(ring, record.multiplier, record.offset)
            assert set(map(T, record.consonant)) == set(record.dissonant), (p, q, record)
    assert sums == {
        (5, 2): 4, (7, 2): 32, (9, 2): 192, (11, 2): 1024, (13, 2): 5120,
        (15, 2): 24576, (4, 3): 4, (8, 3): 1536, (10, 3): 16384, (5, 4): 256,
        (7, 4): 7168, (6, 5): 16384,
    }


# The partitions of least oriented score on each system of extend_reports:
# one where --refine finds a winner, else the size of the tie.
REFINE_LEAST = {
    (5, 2): 2, (7, 2): 2, (9, 2): 2, (11, 2): 2, (13, 2): 2, (15, 2): 2,
    (4, 3): 1, (8, 3): 1, (10, 3): 1, (5, 4): 6, (7, 4): 8, (6, 5): 1,
}


def test_refine_has_a_winner_on_four_systems_and_a_tie_on_eight(capsys, extend_reports):
    """Each score is recomputed by the torus closed form, not by
    oriented_path_length: x = a*p + b*q with 0 <= a < q and 0 <= b < p lies
    a + b oriented steps from 0. A tie raises AmbiguousRefinementError
    naming the tied halves in report order, and the CLI exits 2."""
    least = {}
    for (p, q), report in extend_reports.items():
        system, seed, graph = _setup(p, q)

        def length(x):
            return x * pow(p, -1, q) % q + x * pow(q, -1, p) % p

        scores = [
            sum(length(z) for z in set(record.consonant) - seed.members)
            for record in report.partitions
        ]
        lowest = min(scores)
        best = [r for r, score in zip(report.partitions, scores) if score == lowest]
        least[p, q] = len(best)
        oriented = CayleyGraph(system.generator_set, oriented=True)
        if len(best) == 1:
            refined = minimal_oriented_refinement(report, oriented)
            assert sorted(refined.consonant) == list(best[0].consonant), (p, q)
            assert sorted(refined.dissonant) == list(best[0].dissonant), (p, q)
        else:
            with pytest.raises(AmbiguousRefinementError) as info:
                minimal_oriented_refinement(report, oriented)
            assert info.value.ties == [record.consonant for record in best], (p, q)
    assert least == REFINE_LEAST
    assert main(["counterpoint", "search", "--refine", "-p", "5", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.count("\n")) == ("", 1)
    assert captured.err.startswith("error: tied partitions: [(")


def test_extend_raises_when_the_recount_disagrees_with_the_enumerator(capsys, monkeypatch):
    """One count off by one in the shared enumerator is caught by extend's
    recount: the library raises AssertionError and the CLI exits 1 with one
    line."""
    real = counterpoint._extensions

    def off_by_one(*args):
        records = real(*args)
        r = records[-1]
        records[-1] = PartitionRecord(
            r.consonant, r.dissonant, r.multiplier, r.offset, r.strong_witness_count + 1
        )
        return records

    monkeypatch.setattr(counterpoint, "_extensions", off_by_one)
    with pytest.raises(AssertionError):
        extend_to_partitions(SEED12)
    capsys.readouterr()
    code = main(["counterpoint", "search", "-p", "5", "-q", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1, err


def test_extend_raises_when_a_first_witness_has_a_fixed_point(monkeypatch):
    """extend's recount runs over the weak witnesses that fix no residue
    only; a record that names a weak witness with a fixed point as its
    first witness is still an AssertionError."""
    real = counterpoint._extensions
    fixing = next(T for T in enumerate_weak_witnesses(SEED12).witnesses if fixed_points(T))

    def names_a_fixing_map(*args):
        records = real(*args)
        r = records[-1]
        records[-1] = PartitionRecord(
            r.consonant, r.dissonant, fixing.multiplier, fixing.offset, r.strong_witness_count
        )
        return records

    monkeypatch.setattr(counterpoint, "_extensions", names_a_fixing_map)
    with pytest.raises(AssertionError):
        extend_to_partitions(SEED12)


def test_extend_raises_when_a_record_s_d_meets_its_k(capsys, monkeypatch):
    """extend checks that each record's K and its own D split Z_n: one
    residue of K moved into D, with the first witness and count left as they
    were, is an AssertionError, and the CLI exits 1 with one line."""
    real = counterpoint._extensions

    def moves_a_residue_of_k_into_d(*args):
        records = real(*args)
        r = records[-1]
        dissonant = tuple(sorted(r.consonant[:1] + r.dissonant[1:]))
        records[-1] = PartitionRecord(
            r.consonant, dissonant, r.multiplier, r.offset, r.strong_witness_count
        )
        return records

    monkeypatch.setattr(counterpoint, "_extensions", moves_a_residue_of_k_into_d)
    with pytest.raises(AssertionError):
        extend_to_partitions(SEED12)
    capsys.readouterr()
    code = main(["counterpoint", "search", "-p", "5", "-q", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1, err


def test_the_fixed_point_free_weak_witnesses_are_those_that_reach_a_half():
    """A strong witness T of a half (T(K) = D) fixes no residue: T(z) = z
    puts z in both K and D, or in neither. For every even system with
    n <= 400 whose seed fits in a half, the weak witnesses that fix no
    residue are exactly those with n/2 - |seed| free orbit pairs."""
    systems = 0
    for p, q in SYSTEMS_TO_400:
        system, seed, graph = _setup(p, q)
        n, members = system.n, seed.members
        if n % 2 or 2 * len(members) > n:
            continue
        witnesses = enumerate_weak_witnesses(seed).witnesses
        free = [T for T in witnesses if not fixed_points(T)]
        assert free == [
            T for T in witnesses if len(_orbit_pairs(T, members)) == n // 2 - len(members)
        ], (p, q)
        systems += 1
    assert systems == 351


@settings(max_examples=5, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_the_strong_witnesses_of_a_half_fix_no_residue(extend_reports, rnd):
    """No strong witness of one of extend's halves has a fixed point. Each
    example samples 20 halves of each system with n > 26 in extend_reports;
    every half with n <= 26 is checked in
    test_a_half_is_strong_under_exactly_the_witnesses_that_produce_it."""
    for p, q in extend_reports:
        system, seed, graph = _setup(p, q)
        if system.n <= 26:
            continue
        for record in rnd.sample(extend_reports[p, q].partitions, 20):
            dichotomy = Dichotomy(system.ring, frozenset(record.consonant), frozenset(record.dissonant))
            assert not any(fixed_points(U) for U in find_affine_for_partition(dichotomy, seed))


def test_the_involutive_isometries_have_two_or_four_multipliers():
    """For every system with n <= 200, the multipliers h of the table (h^2 = 1,
    hS = S) are {1, -1} when q = 2 and {1, -1, u, -u}, u != +-1, otherwise."""
    systems = [
        (p, q) for p in range(3, 101) for q in range(2, p)
        if p * q <= 200 and math.gcd(p, q) == 1
    ]
    assert (len(systems), sum(q == 2 for p, q in systems)) == (201, 49)
    for p, q in systems:
        system = system_from_factors(p, q)
        n = system.n
        table = _involutive_isometries(system.symmetric_generator_set)
        multipliers = {T.multiplier for T in table}
        assert {1, n - 1} <= multipliers, (p, q)
        others = multipliers - {1, n - 1}
        if q == 2:
            assert not others, (p, q, sorted(others))
        else:
            u = min(others)
            assert others == {u, n - u} and u * u % n == 1, (p, q, sorted(others))


@pytest.fixture(scope="module")
def maximal_reports_24_to_30():
    """(system, graph, table, report) for every weak witness of the even
    systems with 24 <= n <= 30, past the reach of the all-subsets oracle."""
    reports = []
    for p, q in SMALL_SYSTEMS:
        system, seed, graph = _setup(p, q)
        if system.n % 2 or system.n < 24:
            continue
        table = _involutive_isometries(seed.generators)
        for T in enumerate_weak_witnesses(seed).witnesses:
            reports.append((system, graph, table, maximal_consonant_extension(seed, T)))
    return reports


@settings(max_examples=10, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_maximal_counts_agree_with_satisfies_strong(maximal_reports_24_to_30, rnd):
    """Under every weak witness, a sampled record and the one with the most
    strong witnesses, recounted with satisfies_strong over the whole table;
    a set that does not halve Z_n counts 0."""
    for system, graph, table, report in maximal_reports_24_to_30:
        n, records = system.n, report.partitions
        most = max(records, key=lambda r: r.strong_witness_count)
        for record in (rnd.choice(records), most):
            if 2 * len(record.consonant) < n:
                assert record.strong_witness_count == 0
                continue
            assert sorted(record.consonant + record.dissonant) == list(range(n))
            dichotomy = Dichotomy(system.ring, frozenset(record.consonant), frozenset(record.dissonant))
            expected = sum(satisfies_strong(U, dichotomy, graph) for U in table)
            assert record.strong_witness_count == expected, (n, report.witnesses, record)


def test_extension_rejects_odd_modulus():
    with pytest.raises(NoStrongDichotomyError):
        extend_to_partitions(SEED15)


def test_strong_implies_weak():
    """T(K)=D with K' inside K forces T(K') off K'."""
    report = extend_to_partitions(SEED12)
    for record in report.partitions:
        T = AffineMap(RING12, record.multiplier, record.offset)
        assert SEED12.members <= set(record.consonant)
        assert satisfies_weak(T, SEED12, G12)


def test_maximal_extension_z15():
    T = AffineMap(ModRing(15), 14, 1)
    report = maximal_consonant_extension(SEED15, T)
    consonants = {r.consonant for r in report.partitions}
    assert consonants == {
        (0, 2, 3, 5, 7, 10, 12),
        (0, 2, 3, 5, 9, 10, 12),
        (0, 3, 5, 7, 10, 12, 14),
        (0, 3, 5, 9, 10, 12, 14),
    }
    chosen = next(r for r in report.partitions if r.consonant == (0, 2, 3, 5, 7, 10, 12))
    assert set(chosen.dissonant) == {1, 13, 11, 6, 4, 14, 9}
    for record in report.partitions:
        assert 8 not in record.consonant
        assert 8 not in record.dissonant
        assert len(record.consonant) == 7
        assert not (set(record.consonant) & set(record.dissonant))
        assert record.strong_witness_count == 0


def test_maximal_extension_images_stay_disjoint():
    T = AffineMap(ModRing(15), 14, 1)
    report = maximal_consonant_extension(SEED15, T)
    for record in report.partitions:
        image = {T(x) for x in record.consonant}
        assert not (image & set(record.consonant))
        assert image == set(record.dissonant)


def test_maximal_extension_requires_weak_witness():
    with pytest.raises(ValueError):
        maximal_consonant_extension(SEED15, AffineMap(ModRing(15), 1, 0))


def test_refinement_returns_classical_partition():
    report = extend_to_partitions(SEED12)
    oriented = CayleyGraph(S12.generator_set, oriented=True)
    refined = minimal_oriented_refinement(report, oriented)
    assert refined.consonant == FUX.consonant
    assert refined.dissonant == FUX.dissonant


def test_refinement_scores_from_oriented_lengths():
    oriented = CayleyGraph(S12.generator_set, oriented=True)
    assert oriented.oriented_path_length(0, 7) == 2
    assert oriented.oriented_path_length(0, 1) == 4
    assert oriented.oriented_path_length(0, 5) == 5
    assert oriented.oriented_path_length(0, 11) == 3


def test_refinement_tie_is_an_error():
    base = (0, 3, 4, 8, 9)
    # 1 and 2 both sit at oriented length 4 from 0
    records = tuple(
        PartitionRecord(
            tuple(sorted(base + (extra,))),
            tuple(sorted(set(range(12)) - set(base) - {extra})),
            1,
            0,
            0,
        )
        for extra in (1, 2)
    )
    report = SearchReport(12, (3, 4, 8, 9), 0, (), records, ())
    oriented = CayleyGraph(S12.generator_set, oriented=True)
    with pytest.raises(AmbiguousRefinementError):
        minimal_oriented_refinement(report, oriented)


def test_refinement_requires_oriented_graph_and_partitions():
    report = extend_to_partitions(SEED12)
    with pytest.raises(ValueError):
        minimal_oriented_refinement(report, G12)
    empty = SearchReport(12, (3, 4, 8, 9), 0, (), (), ())
    oriented = CayleyGraph(S12.generator_set, oriented=True)
    with pytest.raises(ValueError):
        minimal_oriented_refinement(empty, oriented)


def test_negation_offsets_outside_sumset_are_weak_witnesses():
    """Every coprime-factor system with n <= 100."""
    for q in range(2, 11):
        for p in range(q + 1, 101):
            n = p * q
            if n > 100 or math.gcd(p, q) != 1:
                continue
            S = GeneratorSet(ModRing(n), (p, q)).symmetrized()
            report = enumerate_weak_witnesses(ConsonantSeed(S))
            members = frozenset({0} | set(S.elements))
            outside = set(range(n)) - set(sumset(members, members, ModRing(n)))
            keys = set(_keys(report.witnesses))
            for w in outside:
                assert (n - 1, w) in keys


def test_strong_search_report_shape():
    report = strong_search_report(FUX, SEED12)
    assert report.n == 12
    assert report.examined == 48
    assert _keys(report.witnesses) == [(5, 2)]
    assert len(report.partitions) == 1
    record = report.partitions[0]
    assert record.consonant == (0, 3, 4, 7, 8, 9)
    assert record.strong_witness_count == 1


def test_report_json_schema():
    report = enumerate_weak_witnesses(SEED12)
    data = report.to_dict()
    assert set(data) == {"n", "S", "examined", "witnesses", "partitions", "notes"}
    assert data["S"] == [3, 4, 8, 9]
    assert data["witnesses"][0] == {"h": 5, "w": 2}
    ext = extend_to_partitions(SEED12).to_dict()
    first = ext["partitions"][0]
    assert set(first) == {"K", "D", "h", "w", "strong_witness_count"}
    assert sorted(first["K"] + first["D"]) == list(range(12))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.booleans(), st.randoms(use_true_random=False))
def test_searches_agree_with_the_per_map_oracles(pq, paired, rnd):
    """Each search against its per-map predicate over all |U(n)|*n maps."""
    system, seed, graph = _setup(*pq)
    ring, n = system.ring, system.n
    maps = [AffineMap(ring, h, w) for h in units(ring) for w in range(n)]
    if paired and n % 2 == 0:
        # One of each pair {z, 1-z}, so that x -> 1-x is a strong witness.
        K = frozenset(rnd.choice((z, (1 - z) % n)) for z in range(1, n // 2 + 1))
    else:
        K = frozenset(rnd.sample(range(n), n // 2))
    dichotomy = Dichotomy(ring, K, frozenset(range(n)) - K)
    assert find_affine_for_partition(dichotomy, seed) == [
        T for T in maps if satisfies_strong(T, dichotomy, graph)
    ]
    report = enumerate_weak_witnesses(seed)
    assert list(report.witnesses) == [
        T for T in maps if satisfies_weak(T, seed, graph)
    ]
    involutive = sum(is_involution(T) and is_isometry_bruteforce(graph, T) for T in maps)
    assert f"involutive isometries among candidates: {involutive}" in report.notes


def test_the_strong_dichotomies_of_z12(capsys):
    """Every half of Z_12 with a strong witness, found two ways: over the
    table every search filters, and by satisfies_strong over all 48 affine
    maps, which on Z_12 are all isometries. Up to them the 288 halves with
    one witness fall into Mazzola's 6 classes (The Topos of Music, 2002)."""
    table = _involutive_isometries(SEED12.generators)
    affine = [AffineMap(RING12, h, w) for h in units(RING12) for w in range(12)]
    assert (len(table), len(affine)) == (24, 48)
    assert all(is_isometry_bruteforce(G12, T) for T in affine)
    counts = {}
    for half in combinations(range(12), 6):
        K = frozenset(half)
        dichotomy = Dichotomy(RING12, K, frozenset(range(12)) - K)
        witnesses = _keys(T for T in table if _image(T, K) == dichotomy.dissonant)
        assert witnesses == _keys(T for T in affine if satisfies_strong(T, dichotomy, G12))
        if witnesses:
            counts[K] = len(witnesses)
    assert len(counts) == 492
    assert Counter(counts.values()) == {1: 288, 2: 180, 4: 18, 8: 6}
    # A class is named by its least sorted image; an isometry conjugates
    # the witnesses of a half into those of its image, so counts agree.
    classes = {}
    for K, count in counts.items():
        images = [_image(T, K) for T in affine]
        assert {counts[image] for image in images} == {count}
        classes[min(tuple(sorted(image)) for image in images)] = count
    assert len(classes) == 18
    assert Counter(classes.values())[1] == 6
    assert counts[FUX.consonant] == 1
    assert _keys(find_affine_for_partition(FUX, SEED12)) == [(5, 2)]
    assert main(["counterpoint", "search", "-p", "4", "-q", "3"]) == 0
    partitions = json.loads(capsys.readouterr().out)["partitions"]
    assert len(partitions) == 4
    for record in partitions:
        assert record["strong_witness_count"] == counts[frozenset(record["K"])]
