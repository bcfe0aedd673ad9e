"""Acceptance suite: ten end-to-end reproductions of the headline results.

Each criterion prints one "[acceptance NN] PASS" or "[acceptance NN] FAIL"
line (visible under pytest -s). A FAIL line is always followed by the
assertion error that produced it.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from cayleytones.audio import SAMPLE_RATE, ToneSpec, note_frequency, pure_tone, read_wav, write_wav
from cayleytones.cayley import (
    CayleyGraph,
    is_isometry_bruteforce,
    is_isometry_by_generators,
)
from cayleytones.counterpoint import (
    ConsonantSeed,
    NoStrongDichotomyError,
    enumerate_weak_witnesses,
    extend_to_partitions,
    find_affine_for_partition,
    fux_dichotomy,
    maximal_consonant_extension,
    minimal_oriented_refinement,
    strong_search_report,
)
from cayleytones.modular import AffineMap, ModRing, is_involution, units
from cayleytones.music import (
    MAJOR,
    MINOR,
    circle_of_fifths,
    largest_chord_within_octave,
    scale,
    system_from_factors,
)

SYSTEMS = [
    system_from_factors(p, q)
    for p, q in [(3, 2), (5, 2), (4, 3), (5, 3), (5, 4), (6, 5), (10, 3), (15, 2)]
]


@contextmanager
def criterion(number: int):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL")
        raise
    print(f"[acceptance {number:02d}] PASS")


def _graph(system, oriented=False):
    steps = system.generator_set if oriented else system.symmetric_generator_set
    return CayleyGraph(steps, oriented=oriented)


def _seed(system):
    return ConsonantSeed(system.symmetric_generator_set)


def test_criterion_01_fux_scan():
    """All 48 affine maps over Z_12 yield exactly one strong witness, 5x+2."""
    with criterion(1):
        system = system_from_factors(4, 3)
        report = strong_search_report(fux_dichotomy(), _seed(system))
        assert report.examined == 48
        assert [(t.multiplier, t.offset) for t in report.witnesses] == [(5, 2)]


def test_criterion_02_twelve_tone_partitions():
    """Seed extension recovers exactly four partitions, one witness each."""
    with criterion(2):
        system = system_from_factors(4, 3)
        report = extend_to_partitions(_seed(system))
        found = {
            tuple(sorted(rec.consonant)): (rec.multiplier, rec.offset)
            for rec in report.partitions
        }
        assert found == {
            (0, 3, 4, 7, 8, 9): (5, 2),
            (0, 1, 3, 4, 8, 9): (5, 2),
            (0, 3, 4, 5, 8, 9): (5, 10),
            (0, 3, 4, 8, 9, 11): (5, 10),
        }
        assert all(rec.strong_witness_count == 1 for rec in report.partitions)


def test_criterion_03_ten_tone_partitions():
    """Z_10 weak witnesses include 9x+1 and 9x+9; four exact extensions."""
    with criterion(3):
        system = system_from_factors(5, 2)
        weak = enumerate_weak_witnesses(_seed(system))
        pairs = {(t.multiplier, t.offset) for t in weak.witnesses}
        assert {(9, 1), (9, 9)} <= pairs
        report = extend_to_partitions(_seed(system))
        assert {frozenset(rec.consonant) for rec in report.partitions} == {
            frozenset({0, 2, 5, 8, 4}),
            frozenset({0, 2, 5, 8, 7}),
            frozenset({0, 2, 5, 8, 6}),
            frozenset({0, 2, 5, 8, 3}),
        }


def test_criterion_04_fifteen_tone_maximal():
    """Z_15: multiplier-14 witnesses at w in {1,4,11,14}; maximal sets avoid 8."""
    with criterion(4):
        system = system_from_factors(5, 3)
        seed = _seed(system)
        weak = enumerate_weak_witnesses(seed)
        offsets = {t.offset for t in weak.witnesses if t.multiplier == 14}
        assert offsets == {1, 4, 11, 14}
        witness = AffineMap(ModRing(15), 14, 1)
        report = maximal_consonant_extension(seed, witness)
        families = {frozenset(rec.consonant) for rec in report.partitions}
        classical_k = frozenset({0, 3, 5, 10, 12, 2, 7})
        assert classical_k in families
        for rec in report.partitions:
            assert 8 not in rec.consonant
            if frozenset(rec.consonant) == classical_k:
                assert frozenset(rec.dissonant) == {1, 13, 11, 6, 4, 14, 9}
        with pytest.raises(NoStrongDichotomyError):
            extend_to_partitions(seed)


def test_criterion_05_isometry_oracle_equivalence():
    """Generator criterion h*S=S agrees with brute force for every unit."""
    with criterion(5):
        checked = 0
        for system in SYSTEMS:
            graph = _graph(system)
            gens = system.symmetric_generator_set
            for h in units(system.ring):
                f = AffineMap(system.ring, h, 0)
                assert is_isometry_by_generators(f, gens) == is_isometry_bruteforce(
                    graph, f
                )
                checked += 1
        assert checked == sum(len(units(s.ring)) for s in SYSTEMS)


def test_criterion_06_metric_properties():
    """Symmetry, identity, triangle inequality, translation invariance."""
    with criterion(6):
        for system in SYSTEMS:
            graph = _graph(system)
            n = system.n
            d = [[graph.distance(a, b) for b in range(n)] for a in range(n)]
            for a in range(n):
                assert d[a][a] == 0
                for b in range(n):
                    assert d[a][b] == d[b][a]
                    assert (d[a][b] == 0) == (a == b)
                    assert d[a][b] == d[0][(b - a) % n]
                    for c in range(n):
                        assert d[a][c] <= d[a][b] + d[b][c]


GOLDEN_SCALES = {
    (12, MAJOR): (0, 2, 4, 5, 7, 9, 11, 0),
    (12, MINOR): (0, 2, 3, 5, 7, 8, 10, 0),
    (10, MAJOR): (0, 2, 4, 5, 7, 0),
    (10, MINOR): (0, 2, 4, 6, 7, 0),
    (15, MAJOR): (0, 2, 4, 5, 7, 8, 10, 12, 13, 0),
    (15, MINOR): (0, 2, 3, 5, 7, 8, 10, 11, 0),
    (30, MAJOR): (0, 2, 4, 6, 8, 10, 11, 13, 15, 17, 19, 21, 22, 24, 26, 28, 0),
    (30, MINOR): (0, 2, 4, 5, 7, 9, 11, 12, 14, 16, 18, 20, 22, 24, 26, 27, 0),
}


def test_criterion_07_sequence_goldens():
    """Circles of fifths, the golden scales, and the largest chords."""
    with criterion(7):
        assert circle_of_fifths(system_from_factors(4, 3)).sequence[:12] == (
            0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10, 5,
        )
        assert circle_of_fifths(system_from_factors(5, 2)).sequence[:10] == (
            0, 7, 4, 1, 8, 5, 2, 9, 6, 3,
        )
        assert circle_of_fifths(system_from_factors(3, 2)).sequence[:6] == (
            0, 5, 4, 3, 2, 1,
        )
        by_modulus = {(3, 2): 6, (5, 2): 10, (4, 3): 12, (5, 3): 15, (6, 5): 30}
        for (p, q), n in by_modulus.items():
            system = system_from_factors(p, q)
            for quality in (MAJOR, MINOR):
                if (n, quality) in GOLDEN_SCALES:
                    assert scale(system, 0, quality).notes == GOLDEN_SCALES[n, quality]
        z12 = system_from_factors(4, 3)
        assert largest_chord_within_octave(z12, 0, MAJOR).notes == (0, 4, 7, 11)
        z15 = system_from_factors(5, 3)
        assert largest_chord_within_octave(z15, 1, MINOR).notes == (1, 4, 9, 12)
        z30 = system_from_factors(6, 5)
        assert largest_chord_within_octave(z30, 0, MAJOR).notes == (
            0, 6, 11, 17, 22, 28,
        )


def test_criterion_08_involution_law():
    """Algebraic involution test matches pointwise T(T(x))=x for n <= 30."""
    with criterion(8):
        for n in range(2, 31):
            ring = ModRing(n)
            for h in units(ring):
                for w in range(n):
                    T = AffineMap(ring, h, w)
                    pointwise = all(T(T(x)) == x for x in range(n))
                    assert is_involution(T) == pointwise


def test_criterion_09_audio_properties(tmp_path):
    """Sample counts, amplitude range, spectral peak, WAV fidelity, ratios."""
    with criterion(9):
        buf = pure_tone(ToneSpec(440.0, 1.0))
        assert len(buf) == 44100
        assert np.all(np.abs(buf.samples) <= 1.0)
        spectrum = np.abs(np.fft.rfft(buf.samples))
        freqs = np.fft.rfftfreq(len(buf), 1.0 / SAMPLE_RATE)
        assert abs(freqs[int(np.argmax(spectrum))] - 440.0) < 1.0
        path = tmp_path / "tone.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768
        for system in SYSTEMS:
            step = system.s ** (1.0 / system.n)
            for k in range(1, system.n + 1):
                ratio = note_frequency(system, k) / note_frequency(system, k - 1)
                assert abs(ratio - step) / step <= 1e-12


def test_criterion_10_oriented_refinement():
    """Oriented path lengths single out the Fux dichotomy among the four."""
    with criterion(10):
        system = system_from_factors(4, 3)
        oriented = _graph(system, oriented=True)
        assert oriented.oriented_path_length(0, 7) == 2
        assert oriented.oriented_path_length(0, 9) == 3
        report = extend_to_partitions(_seed(system))
        choice = minimal_oriented_refinement(report, oriented)
        assert choice.consonant == fux_dichotomy().consonant
        assert choice.dissonant == fux_dichotomy().dissonant
