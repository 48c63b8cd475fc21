import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballfix.errors import DomainError, InvalidCombinationError, InvalidDimensionError
from ballfix.geometry import (
    TOL_GEOM,
    ConvexCombination,
    PointSet,
    as_vector,
    check_in_ball,
    jung_radius,
    min_enclosing_ball,
    pairwise_diameter,
    random_ball_points,
    regular_simplex_vertices,
)


def test_jung_radius_known_values():
    assert jung_radius(1) == pytest.approx(2.0, abs=1e-12)
    assert jung_radius(2) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert jung_radius(3) == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)


def test_jung_radius_monotone_towards_sqrt2():
    values = [jung_radius(n) for n in range(1, 33)]
    for smaller, larger in zip(values[1:], values[:-1]):
        assert smaller < larger
        assert smaller > math.sqrt(2.0)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_jung_radius_rejects_bad_dimension(bad):
    with pytest.raises((InvalidDimensionError, TypeError)):
        jung_radius(bad)


def test_regular_simplex_dim1_is_signed_pair():
    verts = regular_simplex_vertices(1)
    assert verts.points.shape == (2, 1)
    np.testing.assert_allclose(verts.points.ravel(), [-1.0, 1.0], atol=TOL_GEOM)
    assert verts.diameter == pytest.approx(2.0, abs=TOL_GEOM)


def test_regular_simplex_dim2_geometry():
    verts = regular_simplex_vertices(2).points
    assert verts.shape == (3, 2)
    np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, atol=TOL_GEOM)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(verts[i] - verts[j]) == pytest.approx(
                jung_radius(2), abs=TOL_GEOM)
            # mutual angle 120 degrees
            assert verts[i] @ verts[j] == pytest.approx(-0.5, abs=TOL_GEOM)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_regular_simplex_gram_and_centroid(n):
    verts = regular_simplex_vertices(n).points
    gram = verts @ verts.T
    expected = -np.ones((n + 1, n + 1)) / n
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(gram, expected, atol=TOL_GEOM)
    np.testing.assert_allclose(verts.mean(axis=0), np.zeros(n), atol=TOL_GEOM)


def test_diameter_examples():
    assert pairwise_diameter(np.array([[0.0, 0.0]])) == 0.0
    assert pairwise_diameter(np.array([[-1.0], [1.0]])) == pytest.approx(2.0)
    assert regular_simplex_vertices(2).diameter == pytest.approx(
        math.sqrt(3.0), abs=TOL_GEOM)


def test_pairwise_diameter_memory_is_bounded_in_the_dimension_too():
    # 201 points in 200-D: one unchunked block of differences is 62 MiB
    pts = random_ball_points(np.random.default_rng(3), 200, 201)
    tracemalloc.start()
    try:
        value = pairwise_diameter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    direct = max(float(((p - pts) ** 2).sum(axis=1).max()) for p in pts)
    assert value == math.sqrt(direct)


def test_pointset_caches_diameter():
    ps = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert ps.diameter == pytest.approx(5.0)
    assert ps.dim == 2
    assert len(ps) == 2


def test_min_enclosing_ball_symmetric_pair():
    ball = min_enclosing_ball(np.array([[-1.0], [1.0]]))
    np.testing.assert_allclose(ball.center, [0.0], atol=TOL_GEOM)
    assert ball.radius == pytest.approx(1.0, abs=TOL_GEOM)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_enclosing_ball_of_inscribed_simplex(n):
    verts = regular_simplex_vertices(n)
    ball = min_enclosing_ball(verts)
    assert np.linalg.norm(ball.center) == pytest.approx(0.0, abs=1e-7)
    assert ball.radius == pytest.approx(1.0, abs=1e-7)


def test_min_enclosing_ball_equilateral_triangle_circumradius():
    # Independent oracle: circumradius of an equilateral triangle of side s
    # is s / sqrt(3).
    side = 1.0
    tri = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]])
    ball = min_enclosing_ball(tri)
    assert ball.radius == pytest.approx(side / math.sqrt(3.0), abs=TOL_GEOM)


def test_min_enclosing_ball_random_sets_jung_bound_and_minimality():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 11))
        pts = random_ball_points(rng, dim, count)
        ball = min_enclosing_ball(pts)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert dists.max() <= ball.radius + TOL_GEOM          # containment
        assert ball.radius <= pairwise_diameter(pts) / jung_radius(dim) + TOL_GEOM
        if count > 1:
            # shrinking by 10 * TOL_GEOM must exclude at least one point
            assert dists.max() > ball.radius - 10.0 * TOL_GEOM


def eval_combination(c: ConvexCombination) -> np.ndarray:
    """The combination as a Euclidean point."""
    return c.weights @ c.points


def jung_nearest(c: ConvexCombination) -> tuple[int, float]:
    """Index and distance of the support point nearest to the combination."""
    dists = np.linalg.norm(c.points - eval_combination(c), axis=1)
    i = int(np.argmin(dists))
    return i, float(dists[i])


def test_eval_combination_examples():
    single = ConvexCombination(points=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    np.testing.assert_allclose(eval_combination(single), [1.0, 0.0])
    mid = ConvexCombination(points=np.array([[-1.0], [1.0]]), weights=np.array([0.5, 0.5]))
    np.testing.assert_allclose(eval_combination(mid), [0.0])
    verts = regular_simplex_vertices(2)
    centroid = ConvexCombination(points=verts.points, weights=np.full(3, 1.0 / 3.0))
    assert np.linalg.norm(eval_combination(centroid)) <= TOL_GEOM


@pytest.mark.parametrize(
    "weights",
    [np.array([0.5, 0.4]), np.array([0.5, -0.5, 1.0]), np.array([1.0, 1e-11 - 0.0])],
)
def test_convex_combination_rejects_bad_weights(weights):
    points = np.zeros((weights.shape[0], 2))
    with pytest.raises(InvalidCombinationError):
        ConvexCombination(points=points, weights=weights)


def test_convex_combination_rejects_length_mismatch():
    with pytest.raises(InvalidCombinationError):
        ConvexCombination(points=np.zeros((3, 2)), weights=np.array([0.5, 0.5]))


def test_jung_nearest_examples():
    single = ConvexCombination(points=np.array([[0.3, 0.4]]), weights=np.array([1.0]))
    assert jung_nearest(single) == (0, 0.0)

    # uniform weights on the inscribed simplex scaled by eps/R_n: every
    # vertex ends up exactly eps/R_n from the centroid
    for n in (1, 2, 3):
        eps = 1.0
        scale = eps / jung_radius(n)
        verts = regular_simplex_vertices(n).points * scale
        c = ConvexCombination(points=verts, weights=np.full(n + 1, 1.0 / (n + 1)))
        _, dist = jung_nearest(c)
        assert dist == pytest.approx(scale, abs=TOL_GEOM)

    mid = ConvexCombination(points=np.array([[-1.0], [1.0]]), weights=np.array([0.5, 0.5]))
    _, dist = jung_nearest(mid)
    assert dist == pytest.approx(1.0, abs=TOL_GEOM)  # = diameter 2 / jung_radius(1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dim=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=1, max_value=10),
)
def test_jung_nearest_bound_random(seed, dim, count):
    rng = np.random.default_rng(seed)
    pts = random_ball_points(rng, dim, count)
    weights = rng.exponential(size=count)
    c = ConvexCombination(points=pts, weights=weights / weights.sum())
    _, dist = jung_nearest(c)
    assert dist <= pairwise_diameter(pts) / jung_radius(dim) + TOL_GEOM


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=4),
)
def test_combination_stays_inside_simplex_facets(seed, n):
    # every facet of the inscribed simplex supports the halfspace
    # {y : <y, x_i> >= -1/n}; convex combinations must satisfy all of them
    rng = np.random.default_rng(seed)
    verts = regular_simplex_vertices(n).points
    weights = rng.exponential(size=n + 1)
    c = ConvexCombination(points=verts, weights=weights / weights.sum())
    p = eval_combination(c)
    assert np.all(verts @ p >= -1.0 / n - TOL_GEOM)


def test_check_in_ball_takes_a_vector_or_rows():
    np.testing.assert_array_equal(check_in_ball([0.6, 0.8]), [0.6, 0.8])
    check_in_ball(np.array([[0.0, 1.0 + TOL_GEOM / 2], [0.3, 0.4]]))
    with pytest.raises(DomainError, match="point of norm 1.01 lies outside the unit ball"):
        check_in_ball([1.01, 0.0])
    with pytest.raises(DomainError, match="some value of norm 2.0 lies outside"):
        check_in_ball(np.array([[0.0, 0.5], [0.0, 2.0]]), "some value")
    with pytest.raises(DomainError, match="norm nan"):
        check_in_ball([float("nan"), 0.0])


@pytest.mark.parametrize("shape", [(1,), (3,), (17,), (5, 2), (40, 7)])
def test_check_in_ball_reports_numpys_norm_to_the_last_bit(shape):
    # the check sums squares as np.linalg.norm does, so the reported norm
    # is numpy's, bit for bit
    rng = np.random.default_rng(sum(shape))
    for scale in (1.0 + 2e-9, 1.5, 3.0):
        arr = rng.standard_normal(shape)
        arr *= scale / np.max(np.linalg.norm(arr, axis=-1))
        with pytest.raises(DomainError) as exc:
            check_in_ball(arr)
        assert str(exc.value) == (f"point of norm {float(np.max(np.linalg.norm(arr, axis=-1)))} "
                                  "lies outside the unit ball")


@pytest.mark.parametrize("coords", [[1e200, -1e200], [1.7e308], [0.0, 1e-320], 0.5])
def test_as_vector_passes_finite_coordinates_whose_squares_overflow(coords):
    np.testing.assert_array_equal(as_vector(coords), np.atleast_1d(np.asarray(coords, float)))


@pytest.mark.parametrize("coords", [[1e200, math.nan], [math.inf], [-math.inf, 0.0], [math.nan]])
def test_as_vector_rejects_every_non_finite_coordinate(coords):
    with pytest.raises(ValueError, match="vector coordinates must be finite"):
        as_vector(coords)
