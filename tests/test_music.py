"""Systems, chords, scales, circles, and the interval reference table."""

import math
from fractions import Fraction

import pytest

from cayleytones.music import (
    MAJOR,
    MINOR,
    Chord,
    InvalidChordError,
    MusicalSystem,
    SystemValidationError,
    chord_catalog,
    chord_from_steps,
    circle_of_fifths,
    interval_table,
    largest_chord_within_octave,
    scale,
    system_from_factors,
    triad,
    validate_system,
)

Z12 = system_from_factors(4, 3)
Z10 = system_from_factors(5, 2)
Z15 = system_from_factors(5, 3)
Z30 = system_from_factors(6, 5)
Z6 = system_from_factors(3, 2)


@pytest.mark.parametrize(
    "kwargs,code",
    [
        (dict(n=4, p=4, q=1), "factor_range"),
        (dict(n=12, p=3, q=4), "factor_order"),
        (dict(n=8, p=4, q=2), "coprime"),
        (dict(n=13, p=4, q=3), "product"),
        (dict(n=1009 * 997, p=1009, q=997), "modulus"),
        (dict(n=12, p=4, q=3, s=1.0), "octave"),
        (dict(n=12, p=4, q=3, f0=0.0), "frequency"),
    ],
)
def test_validation_error_codes(kwargs, code):
    with pytest.raises(SystemValidationError) as err:
        MusicalSystem(**kwargs)
    assert err.value.code == code


def test_validate_system_swaps_factor_order():
    system = validate_system(12, 3, 4)
    assert (system.p, system.q) == (4, 3)
    assert system_from_factors(3, 4).p == 4


def test_generator_sets():
    assert Z12.generator_set.elements == (3, 4)
    assert Z12.symmetric_generator_set.elements == (3, 4, 8, 9)
    assert Z10.symmetric_generator_set.elements == (2, 5, 8)


def test_triads():
    assert triad(Z12, 0, MAJOR).notes == (0, 4, 7)
    assert triad(Z12, 0, MINOR).notes == (0, 3, 7)
    assert triad(Z12, 2, MAJOR).notes == (2, 6, 9)
    assert triad(Z10, 0, MAJOR).notes == (0, 5, 7)


def test_triad_rejects_unknown_quality():
    with pytest.raises(ValueError):
        triad(Z12, 0, "sus4")
    with pytest.raises(ValueError):
        largest_chord_within_octave(Z12, 0, "dim")


def test_chord_from_steps_examples():
    dominant = chord_from_steps(Z12, 0, (4, 3, 3))
    assert dominant.notes == (0, 4, 7, 10)
    assert dominant.quality == MAJOR
    tall = chord_from_steps(Z15, 0, (5, 3, 5))
    assert tall.notes == (0, 5, 8, 13)


def test_chord_quality_classification():
    assert chord_from_steps(Z12, 0, (4, 3)).quality == MAJOR
    assert chord_from_steps(Z12, 0, (3, 4)).quality == MINOR
    assert chord_from_steps(Z12, 0, (3, 3)).quality is None
    assert chord_from_steps(Z12, 0, (4,)).quality == "dyad"


def test_chord_rejects_bad_steps():
    with pytest.raises(InvalidChordError):
        chord_from_steps(Z12, 0, (5, 3))
    with pytest.raises(InvalidChordError):
        chord_from_steps(Z12, 0, ())


def test_chord_closure_allowed_only_at_the_end():
    closed = chord_from_steps(Z12, 0, (3, 3, 3, 3))
    assert closed.notes == (0, 3, 6, 9, 0)
    with pytest.raises(InvalidChordError):
        chord_from_steps(Z12, 0, (4, 4, 4, 3))  # returns to 0 mid-walk


def test_chord_notes_must_match_walk():
    with pytest.raises(InvalidChordError):
        Chord(Z12, 0, MAJOR, (4, 3), (0, 4, 8))


def test_within_octave_flag():
    assert chord_from_steps(Z12, 0, (4, 3, 4)).is_within_octave
    assert not chord_from_steps(Z12, 0, (4, 3, 4, 3)).is_within_octave


def test_largest_chords_golden():
    assert largest_chord_within_octave(Z12, 0, MAJOR).notes == (0, 4, 7, 11)
    assert largest_chord_within_octave(Z15, 1, MINOR).notes == (1, 4, 9, 12)
    assert largest_chord_within_octave(Z30, 0, MAJOR).notes == (0, 6, 11, 17, 22, 28)


def test_largest_chord_alternates_strictly():
    """Z_10 minor alternation runs 2,5,2 and stops at step sum 9."""
    chord = largest_chord_within_octave(Z10, 0, MINOR)
    assert chord.steps == (2, 5, 2)
    assert chord.notes == (0, 2, 7, 9)
    assert sum(chord.steps) <= 10
    assert sum(chord.steps) + 5 > 10


def test_circle_golden_sequences():
    assert circle_of_fifths(Z12).sequence[:12] == (0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10, 5)
    assert circle_of_fifths(Z10).sequence[:10] == (0, 7, 4, 1, 8, 5, 2, 9, 6, 3)
    assert circle_of_fifths(Z6).sequence[:6] == (0, 5, 4, 3, 2, 1)


def test_circle_closes_and_is_not_trivial_by_default():
    circle = circle_of_fifths(Z12)
    assert circle.sequence[-1] == 0
    assert circle.step == 7
    assert not circle.trivial


def test_trivial_circle():
    circle = circle_of_fifths(Z6, pair=(3, 4))
    assert circle.trivial
    assert circle.sequence[:6] == (0, 1, 2, 3, 4, 5)


def test_circle_rejects_foreign_pair():
    with pytest.raises(ValueError):
        circle_of_fifths(Z12, pair=(5, 4))
    with pytest.raises(ValueError, match="^step 8 does not cycle through Z_12$"):
        circle_of_fifths(Z12, pair=(4, 4))


@pytest.mark.parametrize("p,q", [(4, 3), (5, 2), (5, 3), (6, 5), (15, 2), (25, 8), (31, 27)])
def test_circle_is_a_permutation(p, q):
    system = system_from_factors(p, q)
    circle = circle_of_fifths(system)
    assert sorted(circle.sequence[: system.n]) == list(range(system.n))
    assert circle.sequence[-1] == 0


GOLDEN_SCALES = [
    (Z12, MAJOR, (0, 2, 4, 5, 7, 9, 11, 0)),
    (Z12, MINOR, (0, 2, 3, 5, 7, 8, 10, 0)),
    (Z10, MAJOR, (0, 2, 4, 5, 7, 0)),
    (Z10, MINOR, (0, 2, 4, 6, 7, 0)),
    (Z15, MAJOR, (0, 2, 4, 5, 7, 8, 10, 12, 13, 0)),
    (Z15, MINOR, (0, 2, 3, 5, 7, 8, 10, 11, 0)),
    (Z30, MAJOR, (0, 2, 4, 6, 8, 10, 11, 13, 15, 17, 19, 21, 22, 24, 26, 28, 0)),
    (Z30, MINOR, (0, 2, 4, 5, 7, 9, 11, 12, 14, 16, 18, 20, 22, 24, 26, 27, 0)),
]


@pytest.mark.parametrize("system,quality,want", GOLDEN_SCALES)
def test_scales_golden(system, quality, want):
    assert scale(system, 0, quality).notes == want


def test_scale_translation_covariance():
    for quality in (MAJOR, MINOR):
        base = scale(Z12, 0, quality).notes
        for root in range(12):
            shifted = scale(Z12, root, quality).notes
            assert shifted == tuple((x + root) % 12 for x in base)


@pytest.mark.parametrize("system,quality,want", GOLDEN_SCALES)
def test_scale_steps_are_one_or_two_until_the_close(system, quality, want):
    got = scale(system, 0, quality)
    inner = got.notes[:-1]
    diffs = [(b - a) % system.n for a, b in zip(inner, inner[1:])]
    assert all(d in (1, 2) for d in diffs)
    assert got.notes[0] == got.notes[-1] == 0
    # backbone notes appear in the scale, in order
    positions = [got.notes.index(x) for x in got.backbone.notes[:-1]]
    assert positions == sorted(positions)


def test_chords_and_scales_of_every_system_up_to_1024():
    """The largest chord alternates and fills the octave as far as one more
    step allows; both scales step by 1 or 2 and pass through their
    backbone's notes in order, and their backbones match in length (the
    scales need not: Z_15's major has 10 notes, its minor 9)."""
    systems = [
        MusicalSystem(p * q, p, q)
        for p in range(3, 513)
        for q in range(2, min(p, 1024 // p + 1))
        if math.gcd(p, q) == 1
    ]
    assert len(systems) == 1539
    for system in systems:
        n = system.n
        for quality, (a, b) in ((MAJOR, (system.p, system.q)), (MINOR, (system.q, system.p))):
            steps = largest_chord_within_octave(system, 0, quality).steps
            assert steps == tuple(b if i % 2 else a for i in range(len(steps)))
            assert sum(steps) <= n < sum(steps) + (b if len(steps) % 2 else a)
        scales = [scale(system, 0, quality) for quality in (MAJOR, MINOR)]
        assert len(scales[0].backbone.notes) == len(scales[1].backbone.notes)
        for got in scales:
            inner = got.notes[:-1]
            assert {(y - x) % n for x, y in zip(inner, inner[1:])} <= {1, 2}
            positions = [inner.index(x) for x in got.backbone.notes[:-1]]
            assert positions == sorted(set(positions))


def test_scale_rejects_unknown_quality():
    with pytest.raises(ValueError):
        scale(Z12, 0, "dorian")


def test_catalog_classic_names_only_on_twelve():
    classic = chord_catalog(Z12)
    assert len(classic) == 15
    assert classic[0].name == "Major Triad"
    assert classic[0].steps == (4, 3)
    assert classic[5].name == "Dominant 7th Chord"
    assert classic[5].steps == (4, 3, 3)
    generic = chord_catalog(Z10)
    assert generic[0].name == "major triad"
    assert generic[0].steps == (5, 2)


def test_catalog_patterns_walk_without_self_intersection():
    for entry in chord_catalog(Z12):
        chord = chord_from_steps(Z12, 0, entry.steps)
        assert len(set(chord.notes[:-1])) == len(chord.notes[:-1])


def test_interval_table_exact_fractions():
    rows = interval_table()
    assert len(rows) == 12
    by_index = {row.index: row for row in rows}
    assert by_index[0].pythagorean == Fraction(1)
    assert by_index[0].deviation == 0.0
    assert by_index[1].pythagorean == Fraction(256, 243)
    assert by_index[7].pythagorean == Fraction(3, 2)
    assert by_index[7].name == "fifth"
    assert by_index[7].deviation < 0.002
    assert by_index[6].pythagorean == Fraction(729, 512)
    assert by_index[11].pythagorean == Fraction(243, 128)


def test_interval_deviations_are_small_but_nonzero():
    for row in interval_table():
        if row.index == 0:
            continue
        assert 0 < row.deviation < 0.012
