"""Cayley graphs of Z_n: construction, BFS metric, and isometry tests."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .modular import AffineMap, ModRing

# All-pairs distance tables stay small up to this modulus; far beyond musical use.
MAX_MODULUS = 4096


class UnreachableVertexError(ValueError):
    """Raised when no path exists between two queried vertices."""


class GeneratorSetError(ValueError):
    """Raised when an operation requires a symmetric or generating set."""


@dataclass(frozen=True)
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


class CayleyGraph:
    """Graph on Z_n with an edge g -> g+w per step w.

    An unoriented graph is the oriented graph over the symmetrized step
    set; dropping arrows and adding inverse steps are the same operation.
    Immutable after construction except the distance cache, which is
    filled idempotently (safe for concurrent readers).
    """

    def __init__(self, generators: GeneratorSet, oriented: bool = True):
        if generators.ring.n > MAX_MODULUS:
            raise ValueError(f"modulus above supported maximum {MAX_MODULUS}")
        self.ring = generators.ring
        self.generators = generators
        self.oriented = oriented
        self._steps = (
            generators.elements if oriented else generators.symmetrized().elements
        )
        self._rows: dict[int, list[int]] = {}
        self._unoriented: "CayleyGraph | None" = None if oriented else self

    @property
    def steps(self) -> tuple[int, ...]:
        """The effective step set (symmetrized when unoriented)."""
        return self._steps

    def unoriented_view(self) -> "CayleyGraph":
        if self._unoriented is None:
            self._unoriented = CayleyGraph(self.generators, oriented=False)
        return self._unoriented

    def _value(self, x: int) -> int:
        return x % self.ring.n

    def _row(self, source: int) -> list[int]:
        row = self._rows.get(source)
        if row is None:
            n = self.ring.n
            row = [-1] * n
            row[source] = 0
            frontier = deque([source])
            while frontier:
                v = frontier.popleft()
                for w in self._steps:
                    u = (v + w) % n
                    if row[u] < 0:
                        row[u] = row[v] + 1
                        frontier.append(u)
            self._rows[source] = row
        return row

    def distance(self, a: int, b: int) -> int:
        """Shortest unoriented path length; the graph metric d(a, b)."""
        if self.oriented:
            return self.unoriented_view().distance(a, b)
        a, b = self._value(a), self._value(b)
        d = self._row(a)[b]
        if d < 0:
            raise UnreachableVertexError(f"no path from {a} to {b}")
        return d

    def oriented_path_length(self, a: int, b: int) -> int:
        """Shortest directed path length; may be asymmetric."""
        if not self.oriented:
            raise ValueError("oriented path length requires an oriented graph")
        a, b = self._value(a), self._value(b)
        d = self._row(a)[b]
        if d < 0:
            raise UnreachableVertexError(f"no oriented path from {a} to {b}")
        return d


def is_isometry_bruteforce(G: CayleyGraph, f) -> bool:
    """Check d(x, y) = d(f(x), f(y)) over all vertex pairs.

    f may be any callable on residues; the graph is queried through its
    unoriented view.
    """
    graph = G.unoriented_view()
    n = graph.ring.n
    image = [f(x) for x in range(n)]
    if any(not isinstance(y, int) or not 0 <= y < n for y in image):
        raise ValueError("map must send residues to residues")
    for x in range(n):
        row = graph._row(x)
        frow = graph._row(image[x])
        for y in range(x + 1, n):
            if row[y] != frow[image[y]]:
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
