"""Residue arithmetic, units, affine maps (automorphisms are offset 0)."""

import pytest
from hypothesis import given, strategies as st

from cayleytones.modular import (
    AffineMap,
    ModRing,
    fixed_points,
    is_involution,
    units,
)

rings = st.integers(min_value=2, max_value=64).map(ModRing)


def test_ring_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        ModRing(1)
    with pytest.raises(ValueError):
        ModRing(0)


def test_units_examples():
    assert units(ModRing(12)) == [1, 5, 7, 11]
    assert units(ModRing(10)) == [1, 3, 7, 9]
    assert units(ModRing(2)) == [1]
    assert len(units(ModRing(15))) == 8


@given(rings)
def test_units_closed_under_product_and_inverse(ring):
    U = set(units(ring))
    for a in U:
        assert any((a * b) % ring.n == 1 for b in U), "unit without inverse"
        for b in U:
            assert (a * b) % ring.n in U


def _automorphisms(ring):
    return [AffineMap(ring, h, 0) for h in units(ring)]


def test_automorphism_counts():
    assert [f.multiplier for f in _automorphisms(ModRing(12))] == [1, 5, 7, 11]
    assert len(_automorphisms(ModRing(15))) == 8
    assert [f.multiplier for f in _automorphisms(ModRing(2))] == [1]


@given(rings)
def test_automorphisms_are_bijective_morphisms(ring):
    n = ring.n
    for f in _automorphisms(ring):
        image = [f(x) for x in range(n)]
        assert sorted(image) == list(range(n))
        for x in range(n):
            for y in range(0, n, max(1, n // 7)):
                assert f((x + y) % n) == (f(x) + f(y)) % n


def test_automorphism_rejects_non_unit():
    with pytest.raises(ValueError):
        AffineMap(ModRing(12), 4, 0)
    with pytest.raises(ValueError):
        AffineMap(ModRing(12), 3, 1)


def test_affine_apply_examples():
    r = ModRing(12)
    T = AffineMap(r, 5, 2)
    assert T(0) == 2
    T15 = AffineMap(ModRing(15), 14, 1)
    assert T15(8) == 8


def test_involution_examples():
    r = ModRing(12)
    assert is_involution(AffineMap(r, 5, 2))
    for w in range(12):
        assert is_involution(AffineMap(r, 11, w))
    assert not is_involution(AffineMap(r, 1, 3))


@pytest.mark.parametrize("n", range(2, 31))
def test_involution_law_matches_pointwise(n):
    """h^2 = 1 and (h+1)w = 0 against squaring the map, exhaustively."""
    ring = ModRing(n)
    for h in units(ring):
        for w in range(n):
            T = AffineMap(ring, h, w)
            pointwise = all(T(T(x)) == x for x in range(n))
            assert is_involution(T) == pointwise


@given(rings)
def test_negation_is_always_an_involution(ring):
    T = AffineMap(ring, ring.n - 1, 0)
    assert is_involution(T)
    for x in range(ring.n):
        assert T(x) == (-x) % ring.n
        assert T(T(x)) == x


def test_fixed_points_examples():
    r = ModRing(12)
    assert fixed_points(AffineMap(r, 11, 10)) == frozenset({5, 11})
    pts = fixed_points(AffineMap(r, 7, 6))
    assert 3 in pts
    assert pts == frozenset({1, 3, 5, 7, 9, 11})
    assert fixed_points(AffineMap(r, 1, 0)) == frozenset(range(12))


def test_fixed_point_z15_example():
    assert fixed_points(AffineMap(ModRing(15), 14, 1)) == frozenset({8})


def test_affine_normal_form():
    r = ModRing(12)
    T = AffineMap(r, 17, 14)
    assert (T.multiplier, T.offset) == (5, 2)
