"""Output checks. Each returns None when an op's output is right, else why not.

The arithmetic comes from oracle.py. Where the benchmark is asked to
compare with the library's own slow oracles (satisfies_strong,
satisfies_weak), the comparison runs on a seeded sample, because each
scans all |U(n)|*n affine maps.
"""

from __future__ import annotations

import json
import wave

from oracle import system
from workloads import EXPECTED_PARTITIONS

SAMPLE_RATE = 44100

# Exit-2 errors that are documented outcomes, not failures.
DOCUMENTED_EXIT_2 = {
    "refine": "error: tied partitions",
    "maximal": "admits no weak witness",
}


def one_line_error(stderr: str) -> bool:
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


class LibraryOracle:
    """The library's brute-force checks over every affine map, memoized."""

    def __init__(self, package_modules):
        self.cp, self.cayley, self.modular = package_modules
        self._weak: dict = {}
        self._strong: dict = {}

    def _graph(self, sys_):
        ring = self.modular.ModRing(sys_.n)
        return ring, self.cayley.CayleyGraph(self.cayley.GeneratorSet(ring, sys_.S), oriented=False)

    def _maps(self, ring):
        return [self.modular.AffineMap(ring, h, w) for h in self.modular.units(ring) for w in range(ring.n)]

    def strong(self, sys_, K) -> list[tuple[int, int]]:
        key = (sys_.p, sys_.q, frozenset(K))
        if key not in self._strong:
            ring, graph = self._graph(sys_)
            dichotomy = self.cp.Dichotomy(ring, frozenset(K), frozenset(range(sys_.n)) - frozenset(K))
            self._strong[key] = [
                (T.multiplier, T.offset) for T in self._maps(ring) if self.cp.satisfies_strong(T, dichotomy, graph)
            ]
        return self._strong[key]

    def weak(self, sys_) -> list[tuple[int, int]]:
        key = (sys_.p, sys_.q)
        if key not in self._weak:
            ring, graph = self._graph(sys_)
            seed = self.cp.ConsonantSeed(self.cayley.GeneratorSet(ring, sys_.S))
            self._weak[key] = [
                (T.multiplier, T.offset) for T in self._maps(ring) if self.cp.satisfies_weak(T, seed, graph)
            ]
        return self._weak[key]


def _maps(report) -> list[tuple[int, int]]:
    return [(m["h"], m["w"]) for m in report["witnesses"]]


def _partition_errors(sys_, record, full: bool, seeded: bool = True) -> str | None:
    """|K| = n/2 (when full), seed in K (when seeded), and (h, w) an
    involutive isometry mapping K onto D."""
    K, D = record["K"], record["D"]
    h, w = record["h"], record["w"]
    if K != sorted(set(K)) or D != sorted(set(D)):
        return f"K or D not sorted and distinct: {K} {D}"
    if full and (len(K) * 2 != sys_.n or sorted(K + D) != list(range(sys_.n))):
        return f"not a half/half partition: {K} {D}"
    if seeded and not sys_.seed <= set(K):
        return f"K={K} misses the seed {sorted(sys_.seed)}"
    if (h, w) not in sys_.table:
        return f"{h}x+{w} is not an involutive isometry"
    if sys_.image(h, w, K) != set(D):
        return f"{h}x+{w} does not map K={K} onto D"
    return None


def check_extend(op, report, rng, lib) -> str | None:
    sys_ = system(op["p"], op["q"])
    if report["S"] != list(sys_.S) or report["n"] != sys_.n:
        return f"wrong system in report: n={report['n']} S={report['S']}"
    if _maps(report) != sys_.weak_witnesses():
        return "weak witnesses differ from the involutive isometries that move the seed off itself"
    records = report["partitions"]
    if len({tuple(r["K"]) for r in records}) != len(records):
        return "duplicate partitions"
    expected = EXPECTED_PARTITIONS.get((op["p"], op["q"]))
    if expected is not None and len(records) != expected:
        return f"{len(records)} partitions, expected {expected}"
    for record in records:
        error = _partition_errors(sys_, record, full=True)
        if error:
            return error
        if record["strong_witness_count"] != len(sys_.strong_witnesses(record["K"])):
            return f"strong_witness_count wrong for K={record['K']}"
    for record in rng.sample(records, min(3, len(records))):
        if record["strong_witness_count"] != len(lib.strong(sys_, record["K"])):
            return f"strong_witness_count disagrees with satisfies_strong for K={record['K']}"
    return None


def check_refine(op, code, stdout, stderr, partitions) -> str | None:
    """partitions: the K lists the extend op on the same system reported."""
    sys_ = system(op["p"], op["q"])
    scores = [sys_.refine_score(K) for K in partitions]
    best = min(scores)
    winners = [K for K, score in zip(partitions, scores) if score == best]
    if code == 2:
        return None if len(winners) > 1 else f"reported a tie, but K={winners[0]} wins alone"
    if len(winners) > 1:
        return f"picked one of {len(winners)} tied partitions"
    result = json.loads(stdout)
    if result["K"] != winners[0] or result["D"] != sorted(set(range(sys_.n)) - set(winners[0])):
        return f"refined to K={result['K']}, expected {winners[0]}"
    return None


def check_strong(op, report, sample, lib) -> str | None:
    sys_ = system(op["p"], op["q"])
    K = op["K"]
    expected = sys_.strong_witnesses(K)
    if _maps(report) != expected:
        return f"strong witnesses {_maps(report)} != {expected}"
    if sample and lib.strong(sys_, K) != expected:
        return "strong witnesses disagree with satisfies_strong"
    records = report["partitions"]
    if len(records) != (1 if expected else 0):
        return f"{len(records)} partition records for {len(expected)} witnesses"
    for record in records:
        error = _partition_errors(sys_, record, full=True, seeded=False)
        if error:
            return error
        if (record["h"], record["w"]) != expected[0] or record["strong_witness_count"] != len(expected):
            return "record does not carry the first witness and the witness count"
    return None


def check_weak(op, report, lib) -> str | None:
    sys_ = system(op["p"], op["q"])
    if _maps(report) != sys_.weak_witnesses():
        return "weak witnesses differ from the involutive isometries that move the seed off itself"
    if _maps(report) != lib.weak(sys_):
        return "weak witnesses differ from the maps satisfies_weak accepts"
    return None


def check_maximal(op, report, rng, lib) -> str | None:
    sys_ = system(op["p"], op["q"])
    h, w = op["map"]
    if _maps(report) != [(h, w)]:
        return f"report is for {_maps(report)}, not {h}x+{w}"
    pairs = sys_.free_pairs(h, w)
    records = report["partitions"]
    if len(records) != 2 ** len(pairs) or len({tuple(r["K"]) for r in records}) != len(records):
        return f"{len(records)} maximal sets, expected 2^{len(pairs)} distinct"
    for record in records:
        if len(record["K"]) != len(sys_.seed) + len(pairs):
            return f"K={record['K']} is not maximal"
        if (record["h"], record["w"]) != (h, w):
            return "record carries another map"
        error = _partition_errors(sys_, record, full=False)
        if error:
            return error
        full = len(record["K"]) + len(record["D"]) == sys_.n
        strong = len(sys_.strong_witnesses(record["K"])) if full else 0
        if record["strong_witness_count"] != strong:
            return f"strong_witness_count wrong for K={record['K']}"
    full_records = [r for r in records if len(r["K"]) + len(r["D"]) == sys_.n]
    for record in rng.sample(full_records, min(2, len(full_records))):
        if record["strong_witness_count"] != len(lib.strong(sys_, record["K"])):
            return f"strong_witness_count disagrees with satisfies_strong for K={record['K']}"
    return None


def _scale_and_chords(op, result) -> str | None:
    p, q, n = op["p"], op["q"], op["p"] * op["q"]
    first, second = (p, q) if op["quality"] == "major" else (q, p)
    root = op["root"] % n
    if op["kind"] == "chords":
        triad, big = result["triad"], result["largest_within_octave"]
        if triad["notes"] != [root, (root + first) % n, (root + first + second) % n]:
            return f"triad {triad['notes']} wrong"
        steps = big["steps"]
        if any(s != (first, second)[i % 2] for i, s in enumerate(steps)):
            return f"largest chord steps {steps} do not alternate"
        if sum(steps) > n or sum(steps) + (first, second)[len(steps) % 2] <= n:
            return f"largest chord steps {steps} are not the longest within the octave"
        return None
    notes, backbone = result["notes"], result["backbone"]
    if notes[0] != root or notes[-1] != root:
        return f"scale {notes} does not start and end at the root"
    if not set(backbone["notes"]) <= set(notes):
        return "scale misses backbone notes"
    if any(s != (first, second)[i % 2] for i, s in enumerate(backbone["steps"])):
        return f"backbone steps {backbone['steps']} do not alternate"
    legs = [(b - a) % n for a, b in zip(notes[:-2], notes[1:-1])]
    if any(leg not in (1, 2) for leg in legs):
        return f"scale {notes} has a step outside 1 and 2"
    return None


def check_music(op, stdout) -> str | None:
    p, q, n = op["p"], op["q"], op["p"] * op["q"]
    result = json.loads(stdout)
    kind = op["kind"]
    if kind == "distance":
        expected = system(p, q).distance(op["a"], op["b"], op["oriented"])
        return None if result["length"] == expected else f"length {result['length']} != {expected}"
    if kind == "validate":
        expected = {"n": n, "p": p, "q": q, "s": op["s"], "f0": op["f0"]}
        return None if result == expected else f"{result} != {expected}"
    if kind == "circle":
        step = (p + q) % n
        sequence = [i * step % n for i in range(n + 1)]
        ok = result["step"] == step and result["sequence"] == sequence and result["trivial"] == (step == 1)
        return None if ok else "circle of fifths wrong"
    if kind == "chords" and "quality" not in op:
        if len(result) != 15 or any(not set(e["steps"]) <= {p, q} for e in result):
            return "chord catalog is not 15 patterns over {p, q}"
        return None
    return _scale_and_chords(op, result)


def expected_frames(plan: dict) -> int:
    return sum(round(SAMPLE_RATE * event["duration"]) for event in plan["events"])


def check_wav(path, plan: dict, numpy) -> str | None:
    """Mono 16-bit 44.1 kHz with Σ round(44100·duration) frames; rests
    silent and sounding events not."""
    with wave.open(str(path), "rb") as handle:
        shape = (handle.getnchannels(), handle.getsampwidth(), handle.getframerate())
        frames = handle.getnframes()
        data = numpy.frombuffer(handle.readframes(frames), dtype="<i2")
    if shape != (1, 2, SAMPLE_RATE):
        return f"WAV is channels/width/rate {shape}, expected (1, 2, {SAMPLE_RATE})"
    if frames != expected_frames(plan):
        return f"{frames} frames, expected {expected_frames(plan)}"
    at = 0
    for event in plan["events"]:
        count = round(SAMPLE_RATE * event["duration"])
        peak = int(numpy.abs(data[at : at + count].astype(numpy.int32)).max())
        if (event["kind"] == "rest") != (peak == 0) or peak > 32767:
            return f"event at frame {at} ({event['kind']}) has peak {peak}"
        at += count
    return None


def check_render(stdout, plan) -> str | None:
    result = json.loads(stdout)
    if result["samples"] != expected_frames(plan) or result["sample_rate"] != SAMPLE_RATE:
        return f"reported {result['samples']} samples at {result['sample_rate']} Hz"
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum below 11 samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
