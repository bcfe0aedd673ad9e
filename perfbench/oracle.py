"""Independent arithmetic on Z_pq used to build and check benchmark inputs.

Nothing here imports cayleytones: distances come from a breadth-first
search of the Cayley graph, and the isometries are found by comparing
distances, not by the generator criterion the library uses.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache


def systems(max_n: int) -> list[tuple[int, int]]:
    """Every valid (p, q) with p > q > 1 coprime and p*q <= max_n, by n."""
    return [
        (p, q)
        for n in range(6, max_n + 1)
        for q in range(2, n)
        for p in range(q + 1, n)
        if p * q == n and math.gcd(p, q) == 1
    ]


def _bfs(n: int, steps: tuple[int, ...]) -> list[int]:
    dist = [-1] * n
    dist[0] = 0
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        for w in steps:
            u = (v + w) % n
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


class System:
    """The musical system on Z_pq with its metric and involutive isometries."""

    def __init__(self, p: int, q: int):
        n = p * q
        self.p, self.q, self.n = p, q, n
        self.S = tuple(sorted({p, q, n - p, n - q}))
        self.seed = frozenset((0,) + self.S)
        self.dist = _bfs(n, self.S)
        self.odist = _bfs(n, (p, q))
        self.units = [h for h in range(1, n) if math.gcd(h, n) == 1]
        # x -> hx + w preserves d(x, y) = dist[y - x] iff h preserves dist.
        preserving = [
            h for h in self.units if all(self.dist[h * z % n] == self.dist[z] for z in range(n))
        ]
        # Involutive isometries x -> hx + w: h^2 = 1 and (h + 1) w = 0, sorted by (h, w).
        self.table = [
            (h, w)
            for h in preserving
            if h * h % n == 1
            for w in range(n)
            if (h + 1) * w % n == 0
        ]

    def image(self, h: int, w: int, xs) -> frozenset[int]:
        return frozenset((h * x + w) % self.n for x in xs)

    def strong_witnesses(self, K) -> list[tuple[int, int]]:
        K = frozenset(K)
        D = frozenset(range(self.n)) - K
        return [(h, w) for h, w in self.table if self.image(h, w, K) == D]

    def weak_witnesses(self) -> list[tuple[int, int]]:
        return [(h, w) for h, w in self.table if not self.image(h, w, self.seed) & self.seed]

    def fixed_point_free(self) -> list[tuple[int, int]]:
        """Involutive isometries without fixed points; each pairs all of Z_n."""
        return [
            (h, w)
            for h, w in self.table
            if all((h * x + w) % self.n != x for x in range(self.n))
        ]

    def orbit_pairs(self, h: int, w: int, pool) -> list[tuple[int, int]]:
        return sorted({tuple(sorted((z, (h * z + w) % self.n))) for z in pool})

    def free_pairs(self, h: int, w: int) -> list[tuple[int, int]]:
        """The orbit pairs a maximal extension under hx + w chooses from:
        residues outside the seed, its image and the fixed points. A maximal
        search makes one set per choice, 2^len of them."""
        image = self.image(h, w, self.seed)
        fixed = {x for x in range(self.n) if (h * x + w) % self.n == x}
        return self.orbit_pairs(h, w, set(range(self.n)) - self.seed - image - fixed)

    def distance(self, a: int, b: int, oriented: bool) -> int:
        return (self.odist if oriented else self.dist)[(b - a) % self.n]

    def refine_score(self, K) -> int:
        """Oriented length from 0 to each consonance added to the seed."""
        return sum(self.odist[z] for z in set(K) - self.seed)


@lru_cache(maxsize=None)
def system(p: int, q: int) -> System:
    return System(p, q)
