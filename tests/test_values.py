"""The contract every frozen value type keeps: construction by position, by
keyword and with defaults, immutability, equality and hashing by fields,
normalisation on construction, and the repr format."""

from fractions import Fraction

import numpy as np
import pytest

from cayleytones.audio import (
    Envelope,
    RenderEvent,
    RenderPlan,
    SampleBuffer,
    ToneSpec,
    envelope_from_dict,
)
from cayleytones.cayley import GeneratorSet
from cayleytones.counterpoint import ConsonantSeed, Dichotomy, PartitionRecord, SearchReport
from cayleytones.modular import AffineMap, ModRing
from cayleytones.music import (
    CatalogEntry,
    Chord,
    CircleOfFifths,
    IntervalRow,
    MusicalSystem,
    Scale,
)

Z12 = MusicalSystem(12, 4, 3)
RING = ModRing(12)
S = GeneratorSet(RING, (3, 4, 8, 9))
TRIAD = Chord(Z12, 0, "major", (4, 3), (0, 4, 7))
NOTE = RenderEvent("note", 0.5, ((0, 0),))

# Each class with its field names in order and one valid value for each.
CASES = [
    (Dichotomy, ("ring", "consonant", "dissonant"), (RING, frozenset({0, 3}), frozenset({1, 2}))),
    (ConsonantSeed, ("generators",), (S,)),
    (
        PartitionRecord,
        ("consonant", "dissonant", "multiplier", "offset", "strong_witness_count"),
        ((0, 3), (1, 2), 11, 1, 2),
    ),
    (
        SearchReport,
        ("n", "generators", "examined", "witnesses", "partitions", "notes"),
        (12, (3, 4, 8, 9), 8, (AffineMap(RING, 11, 1),), (), ("a note",)),
    ),
    (GeneratorSet, ("ring", "elements"), (RING, (3, 4))),
    (ModRing, ("n",), (12,)),
    (AffineMap, ("ring", "multiplier", "offset"), (RING, 5, 1)),
    (MusicalSystem, ("n", "p", "q", "s", "f0"), (12, 4, 3, 2.0, 440.0)),
    (Chord, ("system", "root", "quality", "steps", "notes"), (Z12, 0, "major", (4, 3), (0, 4, 7))),
    (CircleOfFifths, ("system", "step", "sequence"), (Z12, 7, (0, 7, 2))),
    (Scale, ("system", "root", "quality", "notes", "backbone"), (Z12, 0, "major", (0, 2, 4), TRIAD)),
    (CatalogEntry, ("name", "steps"), ("Major Triad", (4, 3))),
    (
        IntervalRow,
        ("index", "name", "pythagorean", "temperate", "deviation"),
        (7, "fifth", Fraction(3, 2), 1.5, 0.002),
    ),
    (ToneSpec, ("frequency", "duration"), (440.0, 0.5)),
    (SampleBuffer, ("samples", "sample_rate"), (np.zeros(3), 8000)),
    (Envelope, ("attack", "decay", "sustain_level", "release"), (0.01, 0.02, 0.5, 0.03)),
    (RenderEvent, ("kind", "duration", "notes"), ("chord", 0.2, ((0, 0), (4, 1)))),
    (RenderPlan, ("system", "events", "envelope", "modulation_depth"), (Z12, (NOTE,), Envelope(), 0.5)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# Its field is an array, which has no single truth value and no hash.
HASHABLE = [case for case in CASES if case[0] is not SampleBuffer]
HASHABLE_IDS = [cls.__name__ for cls, _, _ in HASHABLE]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _same_fields(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


def test_every_value_type_is_covered():
    assert len(CASES) == len(set(IDS)) == 18


@pytest.mark.parametrize("cls, names, args", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, args):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    for obj in (by_keyword, mixed):
        assert _same_fields(_fields(obj, names), _fields(by_position, names))


def test_defaults_fill_trailing_fields():
    assert _fields(MusicalSystem(12, 4, 3), ("s", "f0")) == (2.0, 440.0)
    assert _fields(Envelope(), ("attack", "decay", "sustain_level", "release")) == (
        0.02, 0.05, 0.8, 0.05,
    )
    assert Envelope(release=0.1) == Envelope(0.02, 0.05, 0.8, 0.1)
    assert RenderEvent("rest", 1.0).notes == ()
    plan = RenderPlan(Z12, (NOTE,))
    assert (plan.envelope, plan.modulation_depth) == (None, 0.0)
    assert SampleBuffer(np.zeros(2)).sample_rate == 44100


@pytest.mark.parametrize("cls, names, args", CASES, ids=IDS)
def test_missing_unknown_and_repeated_arguments_raise_type_error(cls, names, args):
    if cls is not Envelope:  # every Envelope field has a default
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], args[1:])))
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, None)


@pytest.mark.parametrize("cls, names, args", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, args):
    obj = cls(*args)
    before = _fields(obj, names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, args[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert _same_fields(_fields(obj, names), before)


@pytest.mark.parametrize("cls, names, args", HASHABLE, ids=HASHABLE_IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, names, args):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, names))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, args", HASHABLE, ids=HASHABLE_IDS)
def test_other_classes_with_the_same_fields_never_compare_equal(cls, names, args):
    obj = cls(*args)
    twin = type("Twin", (cls,), {})(*args)
    assert obj != twin and twin != obj
    assert obj != _fields(obj, names)
    assert obj.__eq__(object()) is NotImplemented


def test_unequal_fields_give_unequal_objects():
    assert MusicalSystem(12, 4, 3) != MusicalSystem(12, 4, 3, 3.0)
    assert AffineMap(RING, 5, 0) != AffineMap(RING, 5, 1)
    assert Envelope() != Envelope(attack=0.0)


def test_sample_buffers_compare_by_rate_and_samples_and_are_unhashable():
    buffer = SampleBuffer(np.array([0.0, 0.5, -0.25]), 8000)
    assert buffer == SampleBuffer([-0.0, 0.5, -0.25], 8000) and not buffer != buffer
    assert buffer != SampleBuffer(buffer.samples, 44100)
    assert buffer != SampleBuffer([0.0, 0.5, 0.25], 8000)
    assert buffer != SampleBuffer([0.0, 0.5], 8000)
    assert buffer != type("Twin", (SampleBuffer,), {})(buffer.samples, 8000)
    assert buffer.__eq__((buffer.samples, 8000)) is NotImplemented
    with pytest.raises(TypeError, match="unhashable type: 'SampleBuffer'"):
        hash(buffer)


def test_envelope_from_dict_reads_each_field_by_name_with_its_default():
    assert envelope_from_dict({}) == Envelope()
    values = {"attack": 0.1, "decay": 0.2, "sustain_level": 0.3, "release": 0.4}
    assert envelope_from_dict(values) == Envelope(**values)
    with pytest.raises(ValueError, match="unknown key 'hold' in envelope"):
        envelope_from_dict(dict(values, hold=9))
    with pytest.raises(ValueError, match="release must be a number, got 'x'"):
        envelope_from_dict({"release": "x"})


def test_post_init_still_normalises():
    T = AffineMap(ModRing(12), 19, -1)
    assert (T.multiplier, T.offset) == (7, 11)
    assert repr(T) == "7x+11 (mod 12)"
    assert T == AffineMap(ModRing(12), 7, 11)
    assert GeneratorSet(RING, (9, 3, 15, 4, 3)).elements == (3, 4, 9)
    split = Dichotomy(RING, [0, 3], (1, 2))
    assert type(split.consonant) is type(split.dissonant) is frozenset
    assert split == Dichotomy(RING, frozenset({0, 3}), frozenset({1, 2}))
    buffer = SampleBuffer([0.0, 0.5])
    assert buffer.samples.dtype == np.float64 and not buffer.samples.flags.writeable


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="modulus must be an integer >= 2, got 1"):
        ModRing(1)
    with pytest.raises(ValueError, match="multiplier 2 is not a unit mod 12"):
        AffineMap(RING, 2, 0)
    with pytest.raises(ValueError, match="seed requires a symmetric generator set"):
        ConsonantSeed(GeneratorSet(RING, (3, 4)))
    with pytest.raises(ValueError, match="unknown event kind 'hum'"):
        RenderEvent("hum", 1.0)


def test_repr_pins():
    assert repr(MusicalSystem(12, 4, 3)) == "MusicalSystem(n=12, p=4, q=3, s=2.0, f0=440.0)"
    assert repr(ModRing(12)) == "ModRing(12)"
    assert repr(Envelope()) == (
        "Envelope(attack=0.02, decay=0.05, sustain_level=0.8, release=0.05)"
    )


@pytest.mark.parametrize(
    "cls, names, args", [c for c in CASES if c[0] not in (ModRing, AffineMap)],
    ids=[i for i in IDS if i not in ("ModRing", "AffineMap")],
)
def test_repr_names_every_field_in_order(cls, names, args):
    obj = cls(*args)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, _fields(obj, names)))
    assert repr(obj) == f"{cls.__name__}({shown})"
