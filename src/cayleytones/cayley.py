"""Cayley graphs of Z_n: construction, BFS metric, and isometry tests."""

from __future__ import annotations

import math
from collections import deque

from ._value import value_type
from .modular import AffineMap, ModRing

# Far beyond musical use. It bounds the loops over every residue, the
# note-frequency ladder RenderPlan climbs one step and one octave at a time,
# and the O(n^2) pair loop in is_isometry_bruteforce.
MAX_MODULUS = 4096


class UnreachableVertexError(ValueError):
    """Raised when no path exists between two queried vertices."""


class GeneratorSetError(ValueError):
    """Raised when an operation requires a symmetric or generating set."""


@value_type
class GeneratorSet:
    """Nonzero residues used as edge steps; stored sorted and deduplicated."""

    ring: ModRing
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.ring.n
        reduced = [e % n for e in self.elements]
        if any(e == 0 for e in reduced):
            raise ValueError("generator sets must not contain 0")
        object.__setattr__(self, "elements", tuple(sorted(set(reduced))))

    @property
    def is_symmetric(self) -> bool:
        members = set(self.elements)
        return all((self.ring.n - s) % self.ring.n in members for s in members)

    def symmetrized(self) -> "GeneratorSet":
        """This set joined with the inverse -s of each element s."""
        n = self.ring.n
        extra = [(n - s) % n for s in self.elements]
        return GeneratorSet(self.ring, self.elements + tuple(extra))

    def is_generating(self) -> bool:
        """True iff the closure of {0} under +-steps covers all of Z_n.

        That closure is the subgroup gcd(n, S)*Z_n, so it is all of Z_n
        exactly when gcd(n, S) = 1.
        """
        return math.gcd(self.ring.n, *self.elements) == 1

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _word_lengths(n: int, steps: tuple[int, ...]) -> list[int]:
    """Fewest steps summing to each residue, or -1 where no sum reaches it:
    one search from 0, read at (b - a) mod n for the path from a to b."""
    lengths = [0] + [-1] * (n - 1)
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        for w in steps:
            u = (v + w) % n
            if lengths[u] < 0:
                lengths[u] = lengths[v] + 1
                frontier.append(u)
    return lengths


class CayleyGraph:
    """Graph on Z_n with an edge g -> g+w per step w.

    An unoriented graph is the oriented graph over the symmetrized step
    set; dropping arrows and adding inverse steps are the same operation.
    Immutable: path lengths are read from word lengths made at construction.
    """

    def __init__(self, generators: GeneratorSet, oriented: bool = True):
        if generators.ring.n > MAX_MODULUS:
            raise ValueError(f"modulus above supported maximum {MAX_MODULUS}")
        self.ring = generators.ring
        self.generators = generators
        self.oriented = oriented
        n = generators.ring.n
        symmetric = generators.symmetrized().elements
        # The effective step set (symmetrized when unoriented).
        self.steps = generators.elements if oriented else symmetric
        self._metric = _word_lengths(n, symmetric)
        self._forward = _word_lengths(n, self.steps) if oriented else self._metric

    def distance(self, a: int, b: int) -> int:
        """Shortest unoriented path length; the graph metric d(a, b)."""
        n = self.ring.n
        d = self._metric[(b - a) % n]
        if d < 0:
            raise UnreachableVertexError(f"no path from {a % n} to {b % n}")
        return d

    def oriented_path_length(self, a: int, b: int) -> int:
        """Shortest directed path length; may be asymmetric."""
        if not self.oriented:
            raise ValueError("oriented path length requires an oriented graph")
        n = self.ring.n
        d = self._forward[(b - a) % n]
        if d < 0:
            raise UnreachableVertexError(f"no oriented path from {a % n} to {b % n}")
        return d


def is_isometry_bruteforce(G: CayleyGraph, f) -> bool:
    """Check d(x, y) = d(f(x), f(y)) over all vertex pairs.

    f may be any callable on residues; d is the metric, on oriented graphs
    too, and an unreachable pair only matches another unreachable pair.
    """
    n = G.ring.n
    image = [f(x) for x in range(n)]
    if any(not isinstance(y, int) or not 0 <= y < n for y in image):
        raise ValueError("map must send residues to residues")
    d = G._metric
    for x in range(n):
        for y in range(x + 1, n):
            if d[(y - x) % n] != d[(image[y] - image[x]) % n]:
                return False
    return True


def is_isometry_by_generators(f: AffineMap, S: GeneratorSet) -> bool:
    """Isometry test via the criterion hS = S on the multiplier h of f.

    Valid only for symmetric generating sets, which is exactly when the
    criterion is equivalent to preserving the graph metric. The offset
    plays no part: a translation preserves every distance.
    """
    if f.ring != S.ring:
        raise ValueError("map and generator set use different moduli")
    if not S.is_symmetric:
        raise GeneratorSetError("criterion requires a symmetric generator set")
    if not S.is_generating():
        raise GeneratorSetError("criterion requires a generating set")
    n = S.ring.n
    return {(f.multiplier * s) % n for s in S.elements} == set(S.elements)


def export_dot(G: CayleyGraph) -> str:
    """DOT text with vertices 0..n-1 and edges labeled '+w'."""
    n = G.ring.n
    if G.oriented:
        kind, arrow = "digraph", "->"
        edges = ((v, w) for v in range(n) for w in G.steps)
    else:
        # Each undirected edge once: under its step w <= n - w, and at
        # w = n/2 from its smaller end.
        kind, arrow = "graph", "--"
        edges = ((v, w) for w in G.steps if 2 * w <= n
                 for v in range(n if 2 * w < n else n // 2))
    lines = [f"{kind} cayley {{"]
    lines += (f"  {v};" for v in range(n))
    lines += (f'  {v} {arrow} {(v + w) % n} [label="+{w}"];' for v, w in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
