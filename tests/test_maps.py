import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from ballfix import geometry
from ballfix.errors import BudgetExceededError, DomainError, InvalidDimensionError
from ballfix.geometry import DEFAULT_BUDGET, TOL_GEOM, jung_radius, random_ball_points
from ballfix.maps import (
    ConstantMap,
    ExtremalMap,
    IdentityMap,
    SampledMap,
    StepMap1D,
    discontinuity_witness_1d,
    eps_fixed_indices,
    image_diameter,
    neighborhood_diameter,
    sample_map_on_grid,
)


# --- step map ----------------------------------------------------------------


def test_step_eval_branches():
    m = StepMap1D(1.0)
    assert m(-0.5) == 0.5
    assert m(0.0) == 0.5              # boundary belongs to the left branch
    assert StepMap1D(2.0)(0.3) == -1.0


def test_step_eval_domain_error():
    with pytest.raises(DomainError):
        StepMap1D(1.0)(1.5)


@pytest.mark.parametrize("eps", [0.0, -1.0, 2.5, 3.0])
def test_eps_range_rejected(eps):
    with pytest.raises(DomainError):
        StepMap1D(eps)
    with pytest.raises(DomainError):
        ExtremalMap(dim=2, eps=eps)


def test_step_batch_matches_scalar():
    m = StepMap1D(0.8)
    xs = np.linspace(-1, 1, 17)[:, None]
    np.testing.assert_allclose(m.batch(xs).ravel(), [m(float(x))[0] for x in xs.ravel()])


# --- extremal map ------------------------------------------------------------


def test_voronoi_index_examples():
    m = ExtremalMap(dim=2, eps=1.0)
    for i in range(3):
        assert m.batch_index(m.vertices[i][None, :])[0] == i
    assert m.batch_index(np.zeros((1, 2)))[0] == 0  # tie at the center
    assert m.batch_index((0.9 * m.vertices[2])[None, :])[0] == 2


def reference_batch_index(m, xs):
    """ExtremalMap.batch_index written out row by row over one product
    xs @ V^T: the lowest i whose x.v_i is within the slack
    (dim + 2) * machine eps * ||x||_1 of the largest."""
    out = []
    for x, dots in zip(xs, xs @ m.vertices.points.T):
        slack = (m.dim + 2) * sys.float_info.epsilon * np.sum(np.abs(x))
        out.append(min(i for i, d in enumerate(dots) if d >= np.max(dots) - slack))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_batch_index_is_the_written_out_rule(dim):
    # random points, the origin, points on cell walls and points moved off a
    # wall by less than the slack, where a tie goes to the lower index
    m = ExtremalMap(dim=dim, eps=1.0)
    rng = np.random.default_rng(40 + dim)
    verts = m.vertices.points
    walls, nudged = [], []
    for _ in range(200):
        i, j = sorted(rng.choice(dim + 1, size=2, replace=False))
        x = 0.9 * random_ball_points(rng, dim, 1)[0]
        normal = verts[i] - verts[j]
        wall = x - (x @ normal) / (normal @ normal) * normal
        walls.append(wall)
        # x.(v_i - v_j) = -1e-16 * ||x||_1 favours j, by less than the slack
        nudged.append(wall - 1e-16 * np.abs(wall).sum() * normal / (normal @ normal))
    xs = np.concatenate([random_ball_points(rng, dim, 500), np.zeros((1, dim)), walls, nudged])
    expected = reference_batch_index(m, xs)
    assert m.batch_index(xs).tolist() == expected
    assert m.batch(xs).tobytes() == m.image_points().points[expected].tobytes()
    if dim > 1:  # the 1-D wall is the origin, whose tie argmax breaks alike
        assert (np.array(expected) != (xs @ verts.T).argmax(axis=1)).any()  # ties decided


@pytest.mark.parametrize("xs, kind, message", [
    ([[0.1, math.nan, 0.0]], ValueError, "point coordinates must be finite"),
    ([[math.inf, 0.0, 0.0]], ValueError, "point coordinates must be finite"),
    ([[0.1, 0.2]], InvalidDimensionError, "2-D points for a 3-D map"),
    (np.zeros((0, 3)), InvalidDimensionError, "expected an (m, n) point array, got shape (0, 3)"),
    ([0.1, 0.2, 0.3], InvalidDimensionError, "1-D points for a 3-D map"),
])
def test_the_batch_entry_rejects_bad_rows(xs, kind, message):
    # NaN, inf, a wrong width, no rows, and a vector (read as a column of
    # 1-D points) fail with the errors the maps' batch always raised
    m = ExtremalMap(dim=3, eps=1.0)
    for call in (m.batch, m.batch_index):
        with pytest.raises(ValueError) as err:
            call(np.array(xs, dtype=float))
        assert (type(err.value), str(err.value)) == (kind, message)


def test_extremal_eval_examples():
    m1 = ExtremalMap(dim=1, eps=1.0)
    assert m1(np.array([-0.2]))[0] == pytest.approx(0.5, abs=TOL_GEOM)

    m2 = ExtremalMap(dim=2, eps=1.0)
    np.testing.assert_allclose(
        m2(np.zeros(2)), -m2.scale * m2.vertices[0], atol=TOL_GEOM)
    assert m2.scale == pytest.approx(1.0 / math.sqrt(3.0), abs=TOL_GEOM)

    m3 = ExtremalMap(dim=3, eps=2.0)
    x = 0.99 * m3.vertices[1]
    out = m3(x)
    np.testing.assert_allclose(out, -(2.0 / jung_radius(3)) * m3.vertices[1], atol=TOL_GEOM)
    assert np.linalg.norm(out) == pytest.approx(2.0 / jung_radius(3), abs=TOL_GEOM)


def test_extremal_value_norms():
    # every value has norm exactly eps/jung_radius(dim); inside the unit
    # ball whenever eps <= jung_radius(dim)
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for eps in (0.5, 1.0, 2.0):
            m = ExtremalMap(dim=n, eps=eps)
            pts = rng.standard_normal((100, n))
            pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
            norms = np.linalg.norm(m.batch(pts), axis=1)
            np.testing.assert_allclose(norms, eps / jung_radius(n), atol=TOL_GEOM)
            if eps <= jung_radius(n):
                assert norms.max() <= 1.0 + TOL_GEOM


def test_extremal_rejects_bad_dim():
    with pytest.raises(InvalidDimensionError):
        ExtremalMap(dim=0, eps=1.0)


def test_image_diameter_examples():
    assert image_diameter(StepMap1D(1.0)) == 1.0       # exact
    assert image_diameter(StepMap1D(2.0)) == 2.0
    for n in (1, 2, 3, 4):
        for eps in (0.1, 1.0, 2.0):
            assert image_diameter(ExtremalMap(dim=n, eps=eps)) == pytest.approx(
                eps, abs=TOL_GEOM)
    constant = sample_map_on_grid(ConstantMap(np.array([0.2, 0.1])), 2, 0.25)
    assert image_diameter(constant) == 0.0


def test_extremal_map_defers_its_diameter_until_asked(monkeypatch):
    # the simplex's diameter is jung_radius(dim) in closed form; building
    # the map must not pay the quadratic pairwise scan for it
    calls = []
    real = geometry.pairwise_diameter
    monkeypatch.setattr(geometry, "pairwise_diameter",
                        lambda pts: calls.append(1) or real(pts))
    m = ExtremalMap(dim=200, eps=1.0)
    assert calls == []
    assert image_diameter(m) == pytest.approx(1.0, abs=TOL_GEOM)
    assert len(calls) == 1


def test_step_and_extremal_agree_in_dim1():
    # the step map is the 1-D extremal map: +eps/2 on x <= 0 (-0.0 too),
    # -eps/2 on x > 0, however close to the origin
    step = StepMap1D(1.0)
    low = ExtremalMap(dim=1, eps=1.0)                  # origin goes to vertex -1
    xs = list(np.linspace(-1.0, 1.0, 81)) + [-0.0, 1e-13, 2e-13, 2.4e-13]
    for x in xs:
        expected = 0.5 if x <= 0.0 else -0.5
        assert low(np.array([x]))[0] == step(float(x))[0] == expected


def test_extremal_ties_on_the_3d_x_axis_go_to_vertex_1():
    # x.v_1, x.v_2 and x.v_3 are equal but for rounding on the +x axis
    m = ExtremalMap(dim=3, eps=1.0)
    ks = np.arange(1, 21)
    for s in (1e-9, 1e-3, 0.05):
        pts = np.zeros((ks.size, 3))
        pts[:, 0] = ks * s
        np.testing.assert_array_equal(m.batch_index(pts), 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 32])
def test_extremal_displacement_meets_the_bound_to_rounding(dim):
    # near the origin and on cell walls, where ties up to rounding decide
    # the cell, no point moves by less than eps/R_n
    m = ExtremalMap(dim=dim, eps=1.0)
    rng = np.random.default_rng(dim)
    count = 2000
    dirs = rng.standard_normal((count, dim))
    verts = m.vertices.points
    i = rng.integers(0, dim + 1, count)
    j = (i + rng.integers(1, dim + 1, count)) % (dim + 1)
    normal = verts[i] - verts[j]
    on_wall = dirs - ((dirs * normal).sum(axis=1) / (normal * normal).sum(axis=1))[:, None] * normal
    if dim > 1:  # the 1-D wall is the origin
        dirs[count // 2:] = on_wall[count // 2:]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 10.0 ** rng.uniform(-16.0, -6.0, count)
    radii[::4] = rng.uniform(0.0, 1.0, radii[::4].size)
    pts = dirs * radii[:, None]
    disp = np.linalg.norm(m.batch(pts) - pts, axis=1)
    assert float((disp - 1.0 / jung_radius(dim)).min()) >= -1e-15


def test_extremal_min_displacement_respects_bound():
    # no grid point moves by less than eps/jung_radius(dim)
    for n, ppa in ((1, 401), (2, 101), (3, 41)):
        m = ExtremalMap(dim=n, eps=1.0)
        axis = np.linspace(-1, 1, ppa)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        disp = np.linalg.norm(pts - m.batch(pts), axis=1)
        assert disp.min() >= 1.0 / jung_radius(n) - TOL_GEOM


# --- sampled maps and the modulus --------------------------------------------


def test_sampled_map_validation():
    with pytest.raises(DomainError):
        SampledMap(np.array([[1.5]]), np.array([[0.0]]), covering_radius=0.1)
    with pytest.raises(DomainError):
        SampledMap(np.array([[0.5]]), np.array([[1.5]]), covering_radius=0.1)
    with pytest.raises(ValueError):
        SampledMap(np.array([[0.5]]), np.array([[0.0], [0.1]]), covering_radius=0.1)
    with pytest.raises(ValueError, match="got nan"):
        SampledMap(np.array([[0.5]]), np.array([[0.0]]), covering_radius=float("nan"))


def _built_in_maps():
    sampled = sample_map_on_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.1, eps=1.0)
    return [StepMap1D(1.0), ExtremalMap(dim=2, eps=1.0), ExtremalMap(dim=3, eps=0.7),
            ConstantMap(np.array([0.2, -0.1, 0.3])), IdentityMap(2), sampled]


@pytest.mark.parametrize("m", _built_in_maps(), ids=lambda m: f"{type(m).__name__}-{m.dim}d")
def test_every_map_evaluates_a_point_as_a_batch_of_one(m):
    for x in random_ball_points(np.random.default_rng(2), m.dim, 200):
        np.testing.assert_array_equal(m(x), m.batch(x[None])[0])
    outside = np.zeros(m.dim)
    outside[0] = 1.01
    with pytest.raises(DomainError, match="outside the unit ball"):
        m(outside)


@pytest.mark.parametrize("m", _built_in_maps(), ids=lambda m: f"{type(m).__name__}-{m.dim}d")
def test_every_map_rejects_points_of_another_dimension(m):
    # IdentityMap(2) returned a 3-vector, ConstantMap its own value, and
    # ExtremalMap failed in numpy's matmul
    for width in {1, m.dim + 1} - {m.dim}:
        point = np.full(width, 0.1)
        with pytest.raises(InvalidDimensionError, match=f"{width}-D points for a {m.dim}-D map"):
            m(point)
        with pytest.raises(InvalidDimensionError, match=f"{width}-D points for a {m.dim}-D map"):
            m.batch(np.tile(point, (3, 1)))


@pytest.mark.parametrize("dim", [0, -1, 1.5, True])
def test_identity_map_rejects_a_bad_dimension(dim):
    with pytest.raises(InvalidDimensionError):
        IdentityMap(dim)


def covering_probe(points, probes, seed=0):
    """Max distance from `probes` uniform ball points to `points`: the
    covering radius holds on these probes iff it is at least this."""
    probe_points = random_ball_points(np.random.default_rng(seed), points.shape[1], probes)
    return float(cKDTree(points).query(probe_points)[0].max())


def test_sampled_map_grid_is_within_the_default_budget():
    # 201^8 points: numpy's "array is too big" ValueError before the grid
    # shared the oracle's budget
    with pytest.raises(BudgetExceededError, match=r"grid of 201\^8 points") as err:
        sample_map_on_grid(ConstantMap(np.zeros(8)), 8, 0.01)
    assert err.value.limit == DEFAULT_BUDGET


@pytest.mark.parametrize("spacing", [3.0, 2.5, 0.0, -0.1, float("nan")])
def test_sampled_map_spacing_outside_zero_two_is_a_domain_error(spacing):
    # spacing 3 in 1-D gave one sample at -1 with covering_radius 1.0, while
    # +1 is 2 away
    with pytest.raises(DomainError, match=r"spacing must lie in \(0, 2\]"):
        sample_map_on_grid(StepMap1D(1.0), 1, spacing)


def test_sampled_map_at_the_widest_spacing_covers_the_ball():
    sm = sample_map_on_grid(ConstantMap(np.zeros(2)), 2, 2.0)
    assert len(sm) == 4
    assert covering_probe(sm.points, 2000) <= sm.covering_radius


def test_sampled_map_covering_probe():
    sm = sample_map_on_grid(StepMap1D(1.0), 1, 0.01)
    assert covering_probe(sm.points, 2000) <= sm.covering_radius


@pytest.mark.parametrize("dim, spacing", [(2, 0.1), (3, 0.13)])
def test_sampled_map_covering_probe_in_higher_dims(dim, spacing):
    # the declared radius holds near the sphere too, where the cells
    # straddle the boundary
    sm = sample_map_on_grid(ConstantMap(np.zeros(dim)), dim, spacing)
    assert covering_probe(sm.points, 20000) <= sm.covering_radius


@pytest.mark.parametrize("f, dim, spacing", [
    (StepMap1D(1.0), 1, 0.01),
    (ExtremalMap(dim=2, eps=1.0), 2, 0.1),
])
def test_sampled_map_evaluates_at_the_nearest_sample(f, dim, spacing):
    sm = sample_map_on_grid(f, dim, spacing, eps=1.0)
    probes = random_ball_points(np.random.default_rng(5), dim, 500)
    nearest = np.argmin(np.linalg.norm(probes[:, None, :] - sm.points[None, :, :], axis=-1),
                        axis=1)
    expected = sm.values[nearest]
    np.testing.assert_array_equal(sm.batch(probes), expected)
    for x, fx in zip(probes, expected):
        np.testing.assert_array_equal(sm(x), fx)


def test_modulus_estimate_examples():
    constant = sample_map_on_grid(ConstantMap(np.zeros(1)), 1, 0.05)
    assert neighborhood_diameter(constant.points, constant.values, 0.3) == 0.0

    step = sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0)
    assert neighborhood_diameter(step.points, step.values, 0.05) == pytest.approx(
        1.0, abs=TOL_GEOM)

    positive = SampledMap(step.points[step.points[:, 0] > 0],
                          step.values[step.points[:, 0] > 0],
                          covering_radius=1.0)
    assert neighborhood_diameter(positive.points, positive.values, 0.05) == 0.0


def test_modulus_estimate_monotone_in_radius():
    step = sample_map_on_grid(StepMap1D(1.0), 1, 0.02)
    values = [neighborhood_diameter(step.points, step.values, r)
              for r in (0.01, 0.05, 0.1, 0.5, 1.0)]
    assert values == sorted(values)
    assert max(values) <= image_diameter(step) + TOL_GEOM


# --- 1-D discontinuity witness -----------------------------------------------


@pytest.fixture(scope="module")
def step_grid():
    return sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0)


def test_witness_found_below_half_eps(step_grid):
    w = discontinuity_witness_1d(step_grid, 0.45, 0.0101)
    assert w is not None
    assert w.right_point == pytest.approx(0.0, abs=1e-12)
    assert w.left_point == pytest.approx(0.01, abs=1e-9)
    assert w.image_gap == pytest.approx(1.0, abs=1e-12)
    gap_bound = 2 * 0.45 - abs(w.left_point - w.right_point)
    assert w.image_gap > gap_bound


def test_no_witness_above_half_eps(step_grid):
    # above eps/2 the grid contains displaced-by-at-most-eps_prime samples,
    # so no adjacent opposite-mover pair exists
    for eps_prime in (0.55, 0.6):
        assert discontinuity_witness_1d(step_grid, eps_prime, 0.0101) is None
        fixed = eps_fixed_indices(step_grid, eps_prime)
        assert fixed.size > 0
        xs = step_grid.points[fixed, 0]
        assert np.all(np.abs(xs) <= eps_prime - 0.5 + 1e-12)


def test_witness_none_when_one_side_empty():
    class Clamp:
        def batch(self, xs):
            return np.clip(xs + 0.9, -1.0, 1.0)

    sm = sample_map_on_grid(Clamp(), 1, 0.01)
    assert discontinuity_witness_1d(sm, 0.5, 0.011) is None
    fixed = eps_fixed_indices(sm, 0.5)
    assert fixed.size > 0
    # the right boundary point is exactly fixed
    assert np.any(np.isclose(sm.points[fixed, 0], 1.0))


def test_witness_dimension_and_argument_errors(step_grid):
    sm2 = sample_map_on_grid(ConstantMap(np.zeros(2)), 2, 0.5)
    with pytest.raises(InvalidDimensionError):
        discontinuity_witness_1d(sm2, 0.4, 0.1)
    with pytest.raises(DomainError):
        discontinuity_witness_1d(step_grid, -0.1, 0.1)
    with pytest.raises(DomainError):
        discontinuity_witness_1d(step_grid, 0.4, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=0.2, max_value=2.0),
    ratio=st.floats(min_value=0.05, max_value=0.95),
)
def test_witness_inequality_whenever_found(eps, ratio):
    # whichever outcome, a returned witness always satisfies the two-sided
    # displacement rearrangement
    eps_prime = ratio * eps / 2.0
    sm = sample_map_on_grid(StepMap1D(eps), 1, 0.01, eps=eps)
    w = discontinuity_witness_1d(sm, eps_prime, 0.0101)
    assert w is not None  # below eps/2 the step map has no near-fixed samples
    assert w.image_gap > 2 * eps_prime - abs(w.left_point - w.right_point)
