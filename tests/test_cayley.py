"""Graph construction, BFS metric, isometry criteria, DOT export."""

import math
from itertools import combinations

import pytest

from cayleytones.cayley import (
    MAX_MODULUS,
    CayleyGraph,
    GeneratorSet,
    GeneratorSetError,
    UnreachableVertexError,
    export_dot,
    is_isometry_bruteforce,
    is_isometry_by_generators,
)
from cayleytones.modular import AffineMap, ModRing, units

# Every coprime factor pair p > q > 1 for the moduli under test.
SYSTEMS = [
    (6, (3, 2)),
    (10, (5, 2)),
    (12, (4, 3)),
    (15, (5, 3)),
    (20, (5, 4)),
    (30, (6, 5)),
    (30, (10, 3)),
    (30, (15, 2)),
]


def _symmetric_set(n, p, q):
    return GeneratorSet(ModRing(n), (p, q)).symmetrized()


def test_symmetrize_examples():
    assert _symmetric_set(12, 4, 3).elements == (3, 4, 8, 9)
    assert _symmetric_set(10, 5, 2).elements == (2, 5, 8)
    assert _symmetric_set(15, 5, 3).elements == (3, 5, 10, 12)


def test_symmetric_flag():
    ring = ModRing(12)
    assert not GeneratorSet(ring, (3, 4)).is_symmetric
    assert GeneratorSet(ring, (3, 4, 8, 9)).is_symmetric
    # n/2 is its own inverse
    assert GeneratorSet(ModRing(10), (5,)).is_symmetric


def test_generator_set_rejects_zero():
    with pytest.raises(ValueError):
        GeneratorSet(ModRing(12), (0, 3))


def test_is_generating_examples():
    assert GeneratorSet(ModRing(12), (3, 4)).is_generating()
    assert not GeneratorSet(ModRing(12), (3, 9)).is_generating()
    assert GeneratorSet(ModRing(6), (2, 3)).is_generating()


def _reachable_from_zero(n, steps):
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for s in steps:
            for u in ((v + s) % n, (v - s) % n):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return seen


@pytest.mark.parametrize("n", range(2, 13))
def test_is_generating_matches_reachability_on_every_subset(n):
    nonzero = range(1, n)
    for size in range(len(nonzero) + 1):
        for steps in combinations(nonzero, size):
            expected = len(_reachable_from_zero(n, steps)) == n
            assert GeneratorSet(ModRing(n), steps).is_generating() == expected, steps


def _fewest_steps_from(n, source, steps):
    """Breadth-first search from source: fewest steps to each reached residue."""
    found, frontier = {source: 0}, [source]
    while frontier:
        following = []
        for v in frontier:
            for s in steps:
                u = (v + s) % n
                if u not in found:
                    found[u] = found[v] + 1
                    following.append(u)
        frontier = following
    return found


def _assert_matches_reference(query, n, steps):
    for a in range(n):
        fewest = _fewest_steps_from(n, a, steps)
        for b in range(n):
            if b in fewest:
                assert query(a, b) == fewest[b], (a, b)
            else:
                with pytest.raises(UnreachableVertexError):
                    query(a, b)


# (6, (3, 2)) oriented is the directed Z_6 graph on steps 2 and 3; (3, 9)
# does not generate Z_12, so most pairs there are unreachable.
@pytest.mark.parametrize("n,factors", SYSTEMS + [(12, (3, 9))])
@pytest.mark.parametrize("oriented", [False, True])
def test_distances_match_a_search_from_every_source(n, factors, oriented):
    G = CayleyGraph(GeneratorSet(ModRing(n), factors), oriented=oriented)
    both_ways = [s for p in factors for s in (p, -p)]
    _assert_matches_reference(G.distance, n, both_ways)
    if oriented:
        _assert_matches_reference(G.oriented_path_length, n, factors)


def test_distance_examples():
    G = CayleyGraph(_symmetric_set(10, 5, 2), oriented=False)
    assert G.distance(0, 6) == 2
    assert G.distance(0, 2) == 1
    for x in range(10):
        assert G.distance(x, x) == 0


def test_oriented_path_length_examples():
    G6 = CayleyGraph(GeneratorSet(ModRing(6), (2, 3)), oriented=True)
    assert G6.oriented_path_length(1, 3) == 1
    assert G6.oriented_path_length(3, 1) == 2
    G12 = CayleyGraph(GeneratorSet(ModRing(12), (3, 4)), oriented=True)
    assert G12.oriented_path_length(0, 9) == 3
    assert G12.oriented_path_length(0, 7) == 2


def test_oriented_graph_answers_the_symmetric_metric():
    G = CayleyGraph(GeneratorSet(ModRing(6), (2, 3)), oriented=True)
    assert G.distance(1, 3) == 1
    assert G.distance(3, 1) == 1


def test_unreachable_vertex_raises():
    G = CayleyGraph(GeneratorSet(ModRing(12), (3, 9)), oriented=False)
    with pytest.raises(UnreachableVertexError):
        G.distance(0, 1)
    # The message names the vertices reduced mod n.
    oriented = CayleyGraph(GeneratorSet(ModRing(12), (3, 9)), oriented=True)
    with pytest.raises(UnreachableVertexError, match="^no oriented path from 0 to 1$"):
        oriented.oriented_path_length(0, 1)
    with pytest.raises(UnreachableVertexError, match="^no path from 0 to 1$"):
        oriented.distance(12, 13)


def test_oriented_path_length_requires_an_oriented_graph():
    G = CayleyGraph(GeneratorSet(ModRing(12), (3, 9)), oriented=False)
    with pytest.raises(ValueError, match="^oriented path length requires an oriented graph$"):
        G.oriented_path_length(0, 3)


def test_bruteforce_on_a_graph_that_does_not_generate():
    G = CayleyGraph(GeneratorSet(ModRing(12), (3, 9)), oriented=True)
    with pytest.raises(ValueError, match="^map must send residues to residues$"):
        is_isometry_bruteforce(G, lambda x: x + 12)
    # Unreachable pairs compare equal: turning one coset of {0, 3, 6, 9}
    # keeps every distance, and squaring does not.
    assert is_isometry_bruteforce(G, lambda x: (x + 3) % 12 if x % 3 == 1 else x)
    assert not is_isometry_bruteforce(G, lambda x: x * x % 12)


def test_modulus_cap():
    big = GeneratorSet(ModRing(MAX_MODULUS), (1,))
    CayleyGraph(big, oriented=True)
    with pytest.raises(ValueError):
        CayleyGraph(GeneratorSet(ModRing(MAX_MODULUS + 1), (1,)), oriented=True)


@pytest.mark.parametrize("n,factors", SYSTEMS)
def test_generator_criterion_matches_bruteforce(n, factors):
    """f(S)=S against all-pairs distance comparison, every automorphism."""
    p, q = factors
    S = _symmetric_set(n, p, q)
    G = CayleyGraph(S, oriented=False)
    ring = ModRing(n)
    for h in units(ring):
        f = AffineMap(ring, h, 0)
        assert is_isometry_by_generators(f, S) == is_isometry_bruteforce(G, f)


def test_three_times_is_not_an_isometry_mod_ten():
    S = _symmetric_set(10, 5, 2)
    G = CayleyGraph(S, oriented=False)
    f = AffineMap(ModRing(10), 3, 0)
    assert not is_isometry_by_generators(f, S)
    assert not is_isometry_bruteforce(G, f)


def test_generator_criterion_requires_symmetric_generating_set():
    ring = ModRing(12)
    with pytest.raises(GeneratorSetError):
        is_isometry_by_generators(AffineMap(ring, 5, 0), GeneratorSet(ring, (3, 4)))
    with pytest.raises(GeneratorSetError):
        is_isometry_by_generators(AffineMap(ring, 5, 0), GeneratorSet(ring, (3, 9)))
    with pytest.raises(ValueError, match="^map and generator set use different moduli$"):
        is_isometry_by_generators(AffineMap(ModRing(10), 3, 0), _symmetric_set(12, 4, 3))


@pytest.mark.parametrize("n,factors", [s for s in SYSTEMS if s[0] <= 15])
def test_offset_of_isometry_stays_isometry(n, factors):
    """Adding any offset to a set-preserving automorphism preserves d."""
    p, q = factors
    S = _symmetric_set(n, p, q)
    G = CayleyGraph(S, oriented=False)
    ring = ModRing(n)
    for h in units(ring):
        f = AffineMap(ring, h, 0)
        if not is_isometry_by_generators(f, S):
            continue
        for w in range(n):
            assert is_isometry_bruteforce(G, lambda x: (w + h * x) % n)


@pytest.mark.parametrize("n,factors", SYSTEMS)
def test_metric_axioms_and_translation_invariance(n, factors):
    p, q = factors
    G = CayleyGraph(_symmetric_set(n, p, q), oriented=False)
    d = [[G.distance(a, b) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            assert d[a][b] == d[b][a]
            assert (d[a][b] == 0) == (a == b)
            assert d[a][b] == d[(a + 1) % n][(b + 1) % n]
            for c in range(n):
                assert d[a][c] <= d[a][b] + d[b][c]


@pytest.mark.parametrize("n,factors", SYSTEMS)
def test_generator_step_has_distance_one(n, factors):
    p, q = factors
    S = _symmetric_set(n, p, q)
    G = CayleyGraph(S, oriented=False)
    for g in range(n):
        for w in S:
            assert G.distance(g, (g + w) % n) == 1


def test_dot_oriented_shape():
    G = CayleyGraph(GeneratorSet(ModRing(12), (3, 4)), oriented=True)
    dot = export_dot(G)
    assert dot.startswith("digraph")
    assert dot.count(" -> ") == 24
    assert '0 -> 3 [label="+3"];' in dot
    assert '0 -> 4 [label="+4"];' in dot


def test_dot_unoriented_lists_each_edge_once():
    G = CayleyGraph(GeneratorSet(ModRing(6), (2, 3)), oriented=False)
    dot = export_dot(G)
    assert dot.startswith("graph")
    # steps {2,3,4}: six 2-edges plus three 3-edges (3 = 6/2 pairs up)
    assert dot.count(" -- ") == 9
    seen = set()
    for line in dot.splitlines():
        if " -- " not in line:
            continue
        left, right = line.split("[")[0].split(" -- ")
        pair = frozenset((int(left), int(right)))
        assert pair not in seen
        seen.add(pair)


def _parent_export_dot(G):
    """export_dot as it was written before its two branches were merged:
    one loop per graph kind; kept as the reference for the bytes."""
    n = G.ring.n
    lines = []
    if G.oriented:
        lines.append("digraph cayley {")
        for v in range(n):
            lines.append(f"  {v};")
        for v in range(n):
            for w in G.steps:
                lines.append(f'  {v} -> {(v + w) % n} [label="+{w}"];')
    else:
        lines.append("graph cayley {")
        for v in range(n):
            lines.append(f"  {v};")
        for w in G.steps:
            inverse = (n - w) % n
            if w > inverse:
                continue
            for v in range(n):
                u = (v + w) % n
                if w == inverse and v > u:
                    continue
                lines.append(f'  {v} -- {u} [label="+{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("oriented", [True, False], ids=["oriented", "unoriented"])
def test_dot_bytes_match_the_two_branch_writer(oriented):
    checked = 0
    for n in range(2, 21):
        ring = ModRing(n)
        for size in (1, 2, 3):
            for steps in combinations(range(1, n), size):
                G = CayleyGraph(GeneratorSet(ring, steps), oriented=oriented)
                assert export_dot(G) == _parent_export_dot(G), (n, steps)
                checked += 1
    assert checked == 6175


# Every valid musical system (coprime p > q > 1) with n = p*q <= 400.
TORUS_SYSTEMS = [
    (p, q) for q in range(2, 20) for p in range(q + 1, 201)
    if p * q <= 400 and math.gcd(p, q) == 1
]


def test_the_metric_is_that_of_a_torus():
    """Z_pq is Z_q x Z_p by x = a*p + b*q, with a = x/p mod q and b = x/q
    mod p, and the step graph is the torus C_q x C_p: d(0, x) is
    min(a, q-a) + min(b, p-b), and the oriented length from 0 is a + b."""
    assert len(TORUS_SYSTEMS) == 486
    for p, q in TORUS_SYSTEMS:
        n = p * q
        G = CayleyGraph(GeneratorSet(ModRing(n), (p, q)), oriented=True)
        p_inv, q_inv = pow(p, -1, q), pow(q, -1, p)
        for x in range(n):
            a, b = x * p_inv % q, x * q_inv % p
            assert (a * p + b * q) % n == x
            assert G.distance(0, x) == min(a, q - a) + min(b, p - b), (p, q, x)
            assert G.oriented_path_length(0, x) == a + b, (p, q, x)


def _automorphisms_fixing_zero(n, steps):
    """Count the bijections f of Z_n with f(0) = 0 that keep x ~ y exactly
    when f(x) ~ f(y), where x ~ y when y - x is a step, by backtracking in
    breadth-first order."""
    neighbours = [{(x + s) % n for s in steps} for x in range(n)]
    order, seen = [0], {0}
    for x in order:
        for y in sorted(neighbours[x] - seen):
            seen.add(y)
            order.append(y)
    parent = {y: next(x for x in order if y in neighbours[x]) for y in order[1:]}

    def extend(f, used, i):
        if i == n:
            return 1
        y = order[i]
        total = 0
        for image in neighbours[f[parent[y]]] - used:
            if all((z in neighbours[y]) == (f[z] in neighbours[image]) for z in order[:i]):
                f[y] = image
                total += extend(f, used | {image}, i + 1)
                del f[y]
        return total

    return extend({0: 0}, {0}, 1)


def test_every_automorphism_of_a_system_graph_is_affine():
    """On all 100 valid systems with n <= 117, the automorphisms of the
    unoriented graph that fix 0 are as many as the isometric multipliers
    h (hS = S), 2 when q = 2 and 4 otherwise. So every automorphism, and
    every isometry, is x -> hx + w."""
    # The count sees maps that are not affine: K_4 and K_3,3 as Cayley graphs.
    assert _automorphisms_fixing_zero(4, (1, 2, 3)) == 6
    assert _automorphisms_fixing_zero(6, (1, 3, 5)) == 12
    systems = [(p, q) for p, q in TORUS_SYSTEMS if p * q <= 117]
    assert len(systems) == 100
    for p, q in systems:
        n, ring = p * q, ModRing(p * q)
        S = _symmetric_set(n, p, q)
        multipliers = [
            h for h in units(ring) if is_isometry_by_generators(AffineMap(ring, h, 0), S)
        ]
        assert len(multipliers) == (2 if q == 2 else 4), (p, q)
        assert _automorphisms_fixing_zero(n, S.elements) == len(multipliers), (p, q)
