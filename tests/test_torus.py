"""Geometry configuration: index sets, weights, tangent data."""

import pytest

from eck.algebra import Character
from eck.torus import GeometryConfig, ambient_weights


def coeffs(ws):
    return [w.coeffs for w in ws]


def test_even_geometry_shape():
    geo = GeometryConfig(4)
    assert geo.m == 2 and not geo.odd and geo.arity == 3
    assert geo.indices == (-2, -1, 1, 2)


def test_odd_geometry_shape():
    geo = GeometryConfig(3)
    assert geo.m == 1 and geo.odd and geo.arity == 2
    assert geo.indices == (-1, 0, 1)


def test_ambient_weights_small():
    assert coeffs(ambient_weights(2)) == [(1, -1), (1, 1)]
    assert coeffs(ambient_weights(3)) == [(1, -1), (1, 0), (1, 1)]


def test_ambient_weights_n5_multiset():
    got = set(coeffs(ambient_weights(5)))
    assert got == {(1, 0, -1), (1, -1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)}


def test_opposite_indices_have_opposite_projective_weights():
    geo = GeometryConfig(7)
    for i in range(1, geo.m + 1):
        assert geo.proj_weight(-i) == -geo.proj_weight(i)
    assert geo.proj_weight(0) == Character.zero(geo.arity)


def test_zero_index_only_for_odd():
    with pytest.raises(ValueError):
        GeometryConfig(4).proj_weight(0)


def test_tangent_weights_n2():
    geo = GeometryConfig(2)
    assert coeffs(geo.tangent_weights(1)) == [(0, -2)]
    assert coeffs(geo.tangent_weights(-1)) == [(0, 2)]


def test_tangent_weights_n3():
    geo = GeometryConfig(3)
    assert set(coeffs(geo.tangent_weights(0))) == {(0, 1), (0, -1)}
    assert set(coeffs(geo.tangent_weights(1))) == {(0, -1), (0, -2)}


def test_tangent_weights_n4_point1():
    geo = GeometryConfig(4)
    assert set(coeffs(geo.tangent_weights(1))) == {(0, -1, 1), (0, -2, 0), (0, -1, -1)}


def test_tangent_counts():
    for n in range(2, 9):
        geo = GeometryConfig(n)
        assert all(len(geo.tangent_weights(i)) == n - 1 for i in geo.indices)
        total = sum(len(geo.tangent_weights(i)) for i in geo.indices)
        assert total == n * (n - 1)


def test_tangent_weights_never_zero():
    for n in range(2, 9):
        geo = GeometryConfig(n)
        for i in geo.indices:
            assert all(any(w.coeffs) for w in geo.tangent_weights(i))


def test_involution_symmetry():
    for n in range(2, 9):
        geo = GeometryConfig(n)
        for i in geo.indices:
            mirrored = sorted(w.scaled(-1).coeffs for w in geo.tangent_weights(-i))
            assert sorted(w.coeffs for w in geo.tangent_weights(i)) == mirrored


def test_indices_for_subspaces():
    geo = GeometryConfig(8)
    assert geo.indices_for(4) == (-2, -1, 1, 2)
    assert geo.indices_for(8) == geo.indices
    with pytest.raises(ValueError):
        geo.indices_for(5)  # parity mismatch
    with pytest.raises(ValueError):
        geo.indices_for(10)  # larger than ambient


def test_indices_for_odd_chain():
    geo = GeometryConfig(7)
    assert geo.indices_for(3) == (-1, 0, 1)
    assert geo.indices_for(1) == (0,)


def test_affine_weight_adds_cone_character():
    geo = GeometryConfig(5)
    assert geo.affine_weight(0) == geo.t
    assert geo.affine_weight(2) == geo.t + geo.proj_weight(2)


def test_rejects_negative_dimension():
    with pytest.raises(ValueError):
        GeometryConfig(-1)
