"""The shared ball lattice and neighborhood diameter against reference
implementations: the point constructions the grid builders used before
they shared `geometry.ball_lattice`, a Kuhn simplex found by search and a
KD-tree over every projected vertex for the lazy sample grid, and a direct
neighborhood scan."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ballfix import maps
from ballfix.errors import BudgetExceededError, DomainError
from ballfix.geometry import random_ball_points
from ballfix.maps import (
    ConstantMap,
    ExtremalMap,
    IdentityMap,
    neighborhood_diameter,
    sample_map_on_grid,
)
from ballfix.oracle import GridSpec, ball_grid, iter_ball_grid
from ballfix.pipeline import averaged_map_eval, build_sample_grid, embed


def reference_spacing(dim, alpha):
    return alpha / math.sqrt(dim) * 0.5


def reference_sample_grid_points(dim, alpha):
    spacing = reference_spacing(dim, alpha)
    half_count = int(math.ceil(1.0 / spacing))
    axis = np.arange(-half_count, half_count + 1) * spacing
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    inside = pts[norms <= 1.0]
    half_diag = spacing * math.sqrt(dim) / 2.0
    shell = (norms > 1.0) & (norms <= 1.0 + half_diag)
    projected = pts[shell] / norms[shell, None]
    return np.concatenate([inside, projected], axis=0)


def reference_ball_grid_slabs(dim, points_per_axis):
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    half_diag = 2.0 / (points_per_axis - 1) * math.sqrt(dim) / 2.0
    if dim == 1:
        return [axis[:, None]]
    rest = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in rest], axis=1)
    slabs = []
    for x0 in axis:
        slab = np.concatenate([np.full((rest.shape[0], 1), x0), rest], axis=1)
        norms = np.linalg.norm(slab, axis=1)
        inside = slab[norms <= 1.0]
        shell = (norms > 1.0) & (norms <= 1.0 + half_diag)
        projected = slab[shell] / norms[shell, None]
        chunk = np.concatenate([inside, projected], axis=0)
        if chunk.shape[0]:
            slabs.append(chunk)
    return slabs


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [1.0, 0.6, 0.37])
def test_sample_grid_points_match_reference(dim, alpha):
    grid = build_sample_grid(ConstantMap(np.zeros(dim)), dim, alpha).materialize()
    assert np.array_equal(grid.points, reference_sample_grid_points(dim, alpha))


class CountingSmoothMap:
    """A smooth self-map of the ball with a distinct value at every lattice
    point, counting its batch calls and rows."""

    def __init__(self, dim):
        self.dim, self.calls, self.rows = dim, 0, 0

    def batch(self, xs):
        self.calls += 1
        self.rows += xs.shape[0]
        return 0.5 * np.sin(3.0 * xs + np.arange(self.dim)) / math.sqrt(self.dim)


def lattice_probes(rng, dim, alpha, count):
    """Uniform ball points, points within alpha of the sphere, and points on it."""
    near = random_ball_points(rng, dim, count)
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    on_sphere = near[: count // 4].copy()
    near *= 1.0 - alpha * rng.random((count, 1))
    return np.concatenate([random_ball_points(rng, dim, count), near, on_sphere])


def reference_kuhn_simplex(u):
    """The Kuhn simplex holding u, by search over every axis order: the
    order in which u - floor(u) has nonincreasing coordinates.  Returns its
    integer vertices and the barycentric weights of u, solved for."""
    base = np.floor(u)
    frac = u - base
    dim = u.shape[0]
    for order in itertools.permutations(range(dim)):
        if all(frac[a] >= frac[b] for a, b in zip(order, order[1:])):
            break
    vertices = [base.copy()]
    for axis in order:
        vertices.append(vertices[-1].copy())
        vertices[-1][axis] += 1.0
    vertices = np.array(vertices)
    system = np.vstack([np.ones(dim + 1), vertices.T])
    weights = np.linalg.solve(system, np.concatenate([[1.0], u]))
    return vertices, weights


def projected(vertices, spacing):
    pts = vertices * spacing
    return pts / np.maximum(np.linalg.norm(pts, axis=1), 1.0)[:, None]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [1.0, 0.6, 0.37])
def test_lazy_grid_matches_kdtree_reference(dim, alpha):
    spacing = reference_spacing(dim, alpha)
    # every vertex of the cube one step beyond [-1, 1]^dim, projected
    half = int(math.ceil(1.0 / spacing)) + 1
    cube = np.stack([g.ravel() for g in np.meshgrid(*([np.arange(-half, half + 1)] * dim),
                                                     indexing="ij")], axis=1)
    tree = cKDTree(projected(cube, spacing))
    f, values = CountingSmoothMap(dim), CountingSmoothMap(dim)
    grid = build_sample_grid(f, dim, alpha)
    assert grid.spacing == spacing
    touched = set()
    for y in lattice_probes(np.random.default_rng(dim + int(100 * alpha)), dim, alpha, 60):
        vertices, weights = reference_kuhn_simplex(y / spacing)
        # a Kuhn simplex: consecutive vertices differ by distinct unit vectors
        steps = np.diff(vertices, axis=0)
        assert np.array_equal(steps[np.argsort(steps.argmax(axis=1))], np.eye(dim))
        assert np.abs(weights @ vertices * spacing - y).max() <= 1e-12
        kept = weights > 1e-12
        emb = embed(y, grid)
        # the support: the vertices of positive weight, with their weights
        assert np.all(emb.weights > 0.0)
        assert abs(emb.weights.sum() - 1.0) <= 1e-12
        assert emb.support.size == kept.sum()
        np.testing.assert_allclose(emb.weights, weights[kept], rtol=0, atol=1e-12)
        assert np.array_equal(grid.points[emb.support], projected(vertices[kept], spacing))
        assert np.abs(emb.weights @ vertices[kept] * spacing - y).max() <= 1e-12
        # every support point is a projected vertex strictly within alpha/2 of y
        near = tree.query_ball_point(y, alpha / 2.0)
        assert {tuple(p) for p in grid.points[emb.support]} <= {tuple(p) for p in tree.data[near]}
        assert np.linalg.norm(grid.points[emb.support] - y, axis=1).max() < alpha / 2.0
        expected = emb.weights @ values.batch(grid.points[emb.support])
        assert np.abs(averaged_map_eval(y, grid) - expected).max() <= 1e-12
        touched |= {tuple(v) for v in vertices[kept]}
        calls = f.calls
        averaged_map_eval(y.copy(), grid)
        assert f.calls == calls
    assert len(grid) == len(touched) == f.rows


def reference_embed(y, grid):
    """The numpy form of `embed`: the slots of the Kuhn simplex holding y
    with positive weight, in order, and those weights."""
    u = np.asarray(y, dtype=float) / grid.spacing
    base = np.floor(u)
    frac = u - base
    order = np.argsort(-frac, kind="stable")
    rank = np.empty(grid.dim, dtype=np.int64)
    rank[order] = np.arange(grid.dim)
    steps = np.arange(grid.dim + 1)[:, None] > rank[None, :]
    descending = frac[order]
    weights = np.concatenate([[1.0], descending]) - np.concatenate([descending, [0.0]])
    kept = np.flatnonzero(weights > 0.0)
    return grid.touch(base.astype(np.int64) + steps[kept]), weights[kept]


def embed_probes(rng, dim, spacing, count):
    """Random ball points; points on Kuhn faces, with tied fractional parts
    (repeated coordinates) and with coordinates on lattice hyperplanes; and
    lattice vertices."""
    uniform = random_ball_points(rng, dim, count)
    faces = 0.8 / math.sqrt(dim) * random_ball_points(rng, dim, count)  # in the ball when tied
    for y in faces:
        tied = rng.choice(dim, size=rng.integers(1, dim + 1), replace=False)
        y[tied] = y[tied[0]]
        flat = rng.choice(dim, size=rng.integers(0, dim), replace=False)
        y[flat] = spacing * np.round(y[flat] / spacing)
    half = int(0.9 / spacing / math.sqrt(dim))
    vertices = spacing * rng.integers(-half, half + 1, size=(count, dim)).astype(float)
    return np.concatenate([uniform, faces, vertices])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_embed_matches_the_numpy_reference(dim):
    grid = build_sample_grid(CountingSmoothMap(dim), dim, 0.4, max_points=10**12)
    sizes = set()
    for y in embed_probes(np.random.default_rng(100 + dim), dim, grid.spacing, 40):
        support, weights = reference_embed(y, grid)
        emb = embed(y, grid)
        assert emb.support.tolist() == support
        assert emb.weights.tobytes() == weights.tobytes()
        assert np.array_equal(emb.points, grid.points[support])
        sizes.add(emb.support.size)
    # the faces and vertices give supports below the full dim + 1 vertices
    assert 1 in sizes and dim + 1 in sizes


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_a_batch_with_a_bad_value_leaves_the_grid_unchanged(bad):
    class Poisoned(CountingSmoothMap):
        """Gives `bad` in every coordinate at points with x_0 > 0."""

        def batch(self, xs):
            values = super().batch(xs)
            values[xs[:, 0] > 0.0] = bad
            return values

    f = Poisoned(2)
    grid = build_sample_grid(f, 2, 0.6)
    grid.touch([(-1, 0), (-2, 1)])
    points, values = grid.points.copy(), grid.values.copy()
    with pytest.raises(DomainError):
        grid.touch([(-1, 0), (-3, 0), (1, 0)])
    assert len(grid) == 2
    assert np.array_equal(grid.points, points) and np.array_equal(grid.values, values)
    # neither new key of the failed batch was kept: each is evaluated again
    calls = f.calls
    with pytest.raises(DomainError):
        grid.touch([(1, 0)])
    assert grid.touch([(-3, 0)]) == [2]
    assert (f.calls, len(grid)) == (calls + 2, 3)


def test_memo_keys_do_not_depend_on_the_integer_dtype():
    # numpy 1.x on Windows makes np.arange rows int32: the same vertex must
    # still be sampled once, whatever the dtype of the row that touches it
    f = CountingSmoothMap(2)
    grid = build_sample_grid(f, 2, 0.6)
    slot = grid.touch(np.array([[3, -1]], dtype=np.int32))
    assert grid.touch(np.array([[3, -1]], dtype=np.int64)) == slot
    assert grid.value((3, -1)) == grid.values[slot[0]].tolist()
    assert (f.calls, f.rows, len(grid)) == (1, 1, 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("points_per_axis", [2, 7, 10, 21])
def test_ball_grid_slabs_match_reference(dim, points_per_axis):
    spec = GridSpec(dim=dim, points_per_axis=points_per_axis)
    slabs = list(iter_ball_grid(spec))
    expected = reference_ball_grid_slabs(dim, points_per_axis)
    assert len(slabs) == len(expected)
    for slab, ref in zip(slabs, expected):
        assert np.array_equal(slab, ref)


@pytest.mark.parametrize("spacing", [0.5, 0.13, 0.01])
def test_one_dimensional_sampled_map_keeps_the_full_interval(spacing):
    # 1-D sampled maps are unchanged by the shell projection: the interval
    # grid ends exactly at -1 and 1
    sm = sample_map_on_grid(ConstantMap(np.zeros(1)), 1, spacing)
    count = int(np.floor(2.0 / spacing)) + 1
    assert np.array_equal(sm.points, np.linspace(-1.0, 1.0, count)[:, None])


@pytest.mark.parametrize("dim, spacing", [(1, 0.01), (2, 0.05), (2, 0.3), (3, 0.13)])
def test_sampled_map_points_are_the_ball_grid(dim, spacing):
    # one grid over [-1, 1]^n: a sampled map's points are the oracle's
    # ball grid, slab by slab, and its covering radius the grid's
    # half-diagonal
    spec = GridSpec(dim=dim, points_per_axis=math.floor(2.0 / spacing) + 1)
    sm = sample_map_on_grid(ExtremalMap(dim=dim, eps=1.0), dim, spacing)
    assert np.array_equal(sm.points, ball_grid(spec))
    assert sm.covering_radius == spec.grid_step * math.sqrt(dim) / 2.0


def direct_scan(points, values, r):
    best = 0.0
    for idx in cKDTree(points).query_ball_point(points, r):
        v = values[idx]
        best = max(best, float(np.linalg.norm(v[:, None] - v[None, :], axis=-1).max()))
    return best


@pytest.mark.parametrize("r", [0.05, 0.1])
def test_neighborhood_diameter_few_values_matches_direct_scan(r):
    pts = random_ball_points(np.random.default_rng(7), 2, 3000)
    quantized = np.round(2.0 * pts) / 2.0
    assert np.unique(quantized, axis=0).shape[0] <= 64
    assert neighborhood_diameter(pts, quantized, r) == direct_scan(pts, quantized, r)
    lattice = ball_grid(GridSpec(dim=2, points_per_axis=51))
    values = ExtremalMap(dim=2, eps=1.0).batch(lattice)
    assert neighborhood_diameter(lattice, values, r) == direct_scan(lattice, values, r)


@pytest.mark.parametrize("r", [0.05, 0.1])
def test_neighborhood_diameter_many_values_matches_direct_scan(r):
    pts = random_ball_points(np.random.default_rng(8), 2, 2000)
    values = 0.5 * pts + 0.1 * np.sin(7.0 * pts[:, ::-1])
    assert np.unique(values, axis=0).shape[0] > 64
    assert neighborhood_diameter(pts, values, r) == direct_scan(pts, values, r)


def test_the_neighborhood_scan_stops_at_the_grid_budget(monkeypatch):
    lattice = ball_grid(GridSpec(dim=2, points_per_axis=21))
    values = IdentityMap(2).batch(lattice)
    assert np.unique(values, axis=0).shape[0] == 357  # over 64 values: the scan runs
    assert neighborhood_diameter(lattice, values, 0.25) == direct_scan(lattice, values, 0.25)
    monkeypatch.setattr(maps, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceededError, match="budget of 100 evaluations") as err:
        neighborhood_diameter(lattice, values, 0.25)
    assert err.value.limit == 100
