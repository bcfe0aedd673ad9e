"""Musical systems on Z_n with n = p*q: chords, scales, circles of fifths."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ._value import value_type
from .cayley import MAX_MODULUS, GeneratorSet
from .modular import ModRing

# fractions is imported by interval_table alone, so that the subcommands
# that print no intervals start without it; annotations name it only.
if TYPE_CHECKING:
    from fractions import Fraction

MAJOR = "major"
MINOR = "minor"
DYAD = "dyad"


class SystemValidationError(ValueError):
    """A musical-system parameter check failed; `code` names which one."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class InvalidChordError(ValueError):
    """Raised for steps outside {p, q} or a self-intersecting path."""


@value_type
class MusicalSystem:
    """n notes per octave of ratio s, built on coprime steps p > q > 1.

    Note k sounds at f0 * s^(k/n); the generators p and q provide the
    chord steps and, summed, the circle-of-fifths step. n = p*q is at most
    MAX_MODULUS.
    """

    n: int
    p: int
    q: int
    s: float = 2.0
    f0: float = 440.0

    def __post_init__(self) -> None:
        if self.p <= 1 or self.q <= 1:
            raise SystemValidationError(
                "factor_range", f"factors must exceed 1, got p={self.p}, q={self.q}"
            )
        if self.q >= self.p:
            raise SystemValidationError(
                "factor_order", f"factors must satisfy p > q, got p={self.p}, q={self.q}"
            )
        if math.gcd(self.p, self.q) != 1:
            raise SystemValidationError(
                "coprime", f"factors must be coprime, gcd({self.p},{self.q}) != 1"
            )
        if self.n != self.p * self.q:
            raise SystemValidationError(
                "product", f"n must equal p*q, got n={self.n}, p*q={self.p * self.q}"
            )
        if self.n > MAX_MODULUS:
            raise SystemValidationError(
                "modulus", f"modulus above supported maximum {MAX_MODULUS}"
            )
        if not self.s > 1:
            raise SystemValidationError("octave", f"octave ratio must exceed 1, got {self.s}")
        if not math.isfinite(self.s):
            raise SystemValidationError("octave", f"octave ratio must be finite, got {self.s}")
        if not self.f0 > 0:
            raise SystemValidationError("frequency", f"base frequency must be positive, got {self.f0}")
        if not math.isfinite(self.f0):
            raise SystemValidationError("frequency", f"base frequency must be finite, got {self.f0}")

    @property
    def ring(self) -> ModRing:
        return ModRing(self.n)

    @property
    def generator_set(self) -> GeneratorSet:
        return GeneratorSet(self.ring, (self.p, self.q))

    @property
    def symmetric_generator_set(self) -> GeneratorSet:
        return self.generator_set.symmetrized()

    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "s": self.s, "f0": self.f0}


def validate_system(
    n: int, p: int, q: int, s: float = 2.0, f0: float = 440.0
) -> MusicalSystem:
    """Build a MusicalSystem, swapping factors given in the wrong order.

    Factors out of range are not swapped, so the error names them as given.
    {p, q} always generates Z_n: the factors are coprime and n = p*q, so
    gcd(n, p, q) = 1.
    """
    if q > p > 1:
        p, q = q, p
    return MusicalSystem(n, p, q, s, f0)


def system_from_factors(p: int, q: int, s: float = 2.0, f0: float = 440.0) -> MusicalSystem:
    """validate_system with n derived as p*q."""
    return validate_system(p * q, p, q, s, f0)


def _classify_quality(system: MusicalSystem, steps: tuple[int, ...]) -> Optional[str]:
    if len(steps) < 2:
        return DYAD
    first, second = steps[0], steps[1]
    if (first, second) == (system.p, system.q):
        return MAJOR
    if (first, second) == (system.q, system.p):
        return MINOR
    return None


@value_type
class Chord:
    """A non-self-intersecting walk with steps in {p, q}, possibly closing."""

    system: MusicalSystem
    root: int
    quality: Optional[str]
    steps: tuple[int, ...]
    notes: tuple[int, ...]

    def __post_init__(self) -> None:
        walk = [self.root % self.system.n]
        for w in self.steps:
            walk.append((walk[-1] + w) % self.system.n)
        if tuple(walk) != self.notes:
            raise InvalidChordError("notes do not follow from root and steps")

    @property
    def is_within_octave(self) -> bool:
        return sum(self.steps) <= self.system.n

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "root": self.root,
            "quality": self.quality,
            "steps": list(self.steps),
            "notes": list(self.notes),
        }


def chord_from_steps(system: MusicalSystem, root: int, steps) -> Chord:
    """Walk the steps from the root, rejecting any early revisit.

    The last note may equal the root (a closed chord); any other repeat
    is a self-intersection. Quality comes from the first two steps, with
    single-step chords labeled dyads.
    """
    steps = tuple(int(w) for w in steps)
    if not steps:
        raise InvalidChordError("a chord needs at least one step")
    allowed = {system.p, system.q}
    for w in steps:
        if w not in allowed:
            raise InvalidChordError(f"step {w} not in {{{system.q},{system.p}}}")
    root = root % system.n
    notes = [root]
    for i, w in enumerate(steps):
        nxt = (notes[-1] + w) % system.n
        closing = i == len(steps) - 1 and nxt == root
        if nxt in notes and not closing:
            raise InvalidChordError(f"path revisits note {nxt} before closing")
        notes.append(nxt)
    return Chord(system, root, _classify_quality(system, steps), steps, tuple(notes))


def triad(system: MusicalSystem, root: int, quality: str) -> Chord:
    """Major: root -> root+p -> root+p+q. Minor: root -> root+q -> root+q+p."""
    if quality == MAJOR:
        return chord_from_steps(system, root, (system.p, system.q))
    if quality == MINOR:
        return chord_from_steps(system, root, (system.q, system.p))
    raise ValueError(f"quality must be {MAJOR!r} or {MINOR!r}, got {quality!r}")


def _alternating_steps(system: MusicalSystem, quality: str, count: int) -> tuple[int, ...]:
    first, second = (system.p, system.q) if quality == MAJOR else (system.q, system.p)
    return tuple(first if i % 2 == 0 else second for i in range(count))


def _max_alternating_count(system: MusicalSystem, quality: str) -> int:
    """Steps the strictly alternating chord fits with total <= n."""
    first, second = (system.p, system.q) if quality == MAJOR else (system.q, system.p)
    total = 0
    count = 0
    while True:
        nxt = first if count % 2 == 0 else second
        if total + nxt > system.n:
            return count
        total += nxt
        count += 1


def largest_chord_within_octave(system: MusicalSystem, root: int, quality: str) -> Chord:
    """Extend the triad by strictly alternating steps while the step sum
    stays within one octave (at most n)."""
    if quality not in (MAJOR, MINOR):
        raise ValueError(f"quality must be {MAJOR!r} or {MINOR!r}, got {quality!r}")
    count = _max_alternating_count(system, quality)
    return chord_from_steps(system, root, _alternating_steps(system, quality, count))


@value_type
class CircleOfFifths:
    """The orbit of 0 under repeated addition of a generator-pair sum."""

    system: MusicalSystem
    step: int
    sequence: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return self.step == 1

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "step": self.step,
            "sequence": list(self.sequence),
            "trivial": self.trivial,
        }


def circle_of_fifths(
    system: MusicalSystem, pair: Optional[tuple[int, int]] = None
) -> CircleOfFifths:
    """Sequence [i * (a+b) mod n] for i = 0..n; entry n closes at 0.

    The pair defaults to (p, q); any pair drawn from {p, q, n-p, n-q}
    is accepted, since each variant still has a sum coprime to n.
    """
    n = system.n
    if pair is None:
        pair = (system.p, system.q)
    variants = {system.p, system.q, n - system.p, n - system.q}
    a, b = pair[0] % n, pair[1] % n
    if a not in variants or b not in variants:
        raise ValueError(f"pair {pair} not drawn from generators {sorted(variants)}")
    step = (a + b) % n
    if math.gcd(step, n) != 1:
        raise ValueError(f"step {step} does not cycle through Z_{n}")
    sequence = tuple((i * step) % n for i in range(n + 1))
    return CircleOfFifths(system, step, sequence)


@value_type
class Scale:
    """An octave-closing note sequence built around a backbone chord."""

    system: MusicalSystem
    root: int
    quality: str
    notes: tuple[int, ...]
    backbone: Chord

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "root": self.root,
            "quality": self.quality,
            "notes": list(self.notes),
            "backbone": {
                "steps": list(self.backbone.steps),
                "notes": list(self.backbone.notes),
            },
        }


def _leg_offsets(width: int, pattern: str) -> list[int]:
    """Offsets of inserted notes inside one leg of the given width.

    'trailing' puts the single 1-step last ('2..21'), 'leading' first
    ('12..2'); even widths take 2-steps only.
    """
    if width % 2 == 0:
        return list(range(2, width, 2))
    if pattern == "leading":
        return [1] + list(range(3, width, 2))
    return list(range(2, width, 2))


def _scale_backbone(system: MusicalSystem, root: int, quality: str) -> Chord:
    """Backbone chord for a scale.

    Major and minor scales pair up with equal note counts, so the minor
    backbone reuses the major's step count with the step order swapped.
    """
    count = _max_alternating_count(system, MAJOR)
    return chord_from_steps(system, root, _alternating_steps(system, quality, count))


def scale(system: MusicalSystem, root: int, quality: str) -> Scale:
    """Fill the backbone chord's legs with 1/2-steps and close at the root.

    Even legs take 2-steps only. Odd p-legs end with the 1-step. Odd
    q-legs end with the 1-step, except that minor scales with even p
    alternate it to the front on every second q-leg, and the classic
    (p,q)=(4,3) major scale leads with it. The closing leg back to the
    root is never filled.
    """
    if quality not in (MAJOR, MINOR):
        raise ValueError(f"quality must be {MAJOR!r} or {MINOR!r}, got {quality!r}")
    backbone = _scale_backbone(system, root, quality)
    p, q, n = system.p, system.q, system.n
    classic_major = quality == MAJOR and (p, q) == (4, 3)
    notes = [backbone.notes[0]]
    q_legs_seen = 0
    for start, width in zip(backbone.notes, backbone.steps):
        if width == q and width % 2 == 1:
            if quality == MINOR and p % 2 == 0:
                pattern = "trailing" if q_legs_seen % 2 == 0 else "leading"
            elif classic_major:
                pattern = "leading"
            else:
                pattern = "trailing"
            q_legs_seen += 1
        else:
            pattern = "trailing"
        for offset in _leg_offsets(width, pattern):
            notes.append((start + offset) % n)
        notes.append((start + width) % n)
    notes.append(backbone.notes[0])
    return Scale(system, backbone.notes[0], quality, tuple(notes), backbone)


# The classic twelve-note catalog; 'p'/'q' substitute to +4/+3 there.
_CATALOG = (
    ("Major Triad", "major triad", ("p", "q")),
    ("Minor Triad", "minor triad", ("q", "p")),
    ("Diminished Triad", "diminished triad", ("q", "q")),
    ("Augmented Triad", "augmented triad", ("p", "p")),
    ("Major 7th Chord", "major seventh", ("p", "q", "p")),
    ("Dominant 7th Chord", "dominant seventh", ("p", "q", "q")),
    ("Minor 7th Chord", "minor seventh", ("q", "p", "q")),
    ("Fully Diminished 7th Chord", "fully diminished seventh", ("q", "q", "q")),
    ("Half Diminished 7th Chord", "half diminished seventh", ("q", "q", "p")),
    ("Augmented Major 7th Chord", "augmented major seventh", ("p", "p", "q")),
    ("Major 9th", "major ninth", ("p", "q", "p", "q")),
    ("Minor 9th", "minor ninth", ("q", "p", "q", "p")),
    ("Dominant 9", "dominant ninth", ("p", "q", "q", "p")),
    ("Dominant Flat 9", "dominant flat ninth", ("p", "q", "q", "q")),
    ("Half Diminished Flat 9", "half diminished flat ninth", ("q", "q", "p", "q")),
)


@value_type
class CatalogEntry:
    name: str
    steps: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"name": self.name, "steps": list(self.steps)}


def chord_catalog(system: MusicalSystem) -> list[CatalogEntry]:
    """Named step patterns: the classic names for twelve notes, generic
    names with p/q substituted otherwise."""
    classic = (system.p, system.q) == (4, 3)
    table = []
    for classic_name, generic_name, symbols in _CATALOG:
        steps = tuple(system.p if sym == "p" else system.q for sym in symbols)
        table.append(CatalogEntry(classic_name if classic else generic_name, steps))
    return table


@value_type
class IntervalRow:
    index: int
    name: str
    pythagorean: Fraction
    temperate: float
    deviation: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "pythagorean": f"{self.pythagorean.numerator}/{self.pythagorean.denominator}",
            "temperate": self.temperate,
            "deviation": self.deviation,
        }


# (index, name, Pythagorean ratio as numerator and denominator)
_INTERVALS = (
    (0, "unison", (1, 1)),
    (1, "minor second", (256, 243)),
    (2, "major second", (9, 8)),
    (3, "minor third", (32, 27)),
    (4, "major third", (81, 64)),
    (5, "fourth", (4, 3)),
    (6, "tritone", (729, 512)),
    (7, "fifth", (3, 2)),
    (8, "minor sixth", (128, 81)),
    (9, "major sixth", (27, 16)),
    (10, "minor seventh", (16, 9)),
    (11, "major seventh", (243, 128)),
)


def interval_table() -> tuple[IntervalRow, ...]:
    """The twelve-interval reference comparing Pythagorean exact ratios
    with equal-temperament ratios 2^(i/12)."""
    from fractions import Fraction

    rows = []
    for index, name, (numerator, denominator) in _INTERVALS:
        temperate = 2.0 ** (index / 12)
        # float(Fraction(a, b)) is a / b, the value log2 took from the Fraction.
        deviation = abs(math.log2(numerator / denominator) - index / 12)
        rows.append(
            IntervalRow(index, name, Fraction(numerator, denominator), temperate, deviation)
        )
    return tuple(rows)
