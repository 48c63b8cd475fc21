"""Self-maps of the unit ball with controlled discontinuity.

Houses the discontinuous reference construction (the Voronoi extremal
map, whose 1-D case is the step map), finitely sampled maps, and
diagnostics: image diameters, radius-r neighborhood image diameters, and
the 1-D two-sided discontinuity-witness search.  Every map has `batch`
for rows of points, which grids and sweeps use, and one shared
`__call__` for one point of the ball.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import BudgetExceededError, DomainError, InvalidDimensionError
from .geometry import (
    DEFAULT_BUDGET,
    GridSpec,
    PointSet,
    as_points,
    as_vector,
    ball_grid,
    check_dim,
    check_eps,
    check_in_ball,
    jung_radius,
    pairwise_diameter,
    regular_simplex_vertices,
)

__all__ = [
    "ConstantMap",
    "DiscontinuityWitness1D",
    "ExtremalMap",
    "IdentityMap",
    "SampledMap",
    "StepMap1D",
    "discontinuity_witness_1d",
    "eps_fixed_indices",
    "image_diameter",
    "neighborhood_diameter",
    "sample_map_on_grid",
]


class _BallMap:
    """Every map's `batch` takes rows of width `dim` (checked by `_rows`),
    and its one `__call__` takes a point in the ball as a batch of one row."""

    def _rows(self, xs) -> np.ndarray:
        xs = as_points(xs)
        if xs.shape[1] != self.dim:
            raise InvalidDimensionError(f"{xs.shape[1]}-D points for a {self.dim}-D map")
        return xs

    def __call__(self, x) -> np.ndarray:
        return self.batch(check_in_ball(as_vector(x))[None, :])[0]


@dataclass(frozen=True)
class ExtremalMap(_BallMap):
    """Piecewise-constant self-map built on the Voronoi cells of an inscribed
    regular simplex.

    Each point of cell i is sent to -scale * x_i where x_i is the cell's
    site and scale = eps / jung_radius(dim), both computed once.  The image
    is a shrunken reflected copy of the vertex set, so its diameter is
    exactly eps, while every point of the ball is displaced by at least
    eps / jung_radius(dim): the construction showing that bound cannot be
    improved.

    For eps > jung_radius(dim) the image pokes outside the unit ball
    (value norms equal eps / jung_radius(dim)); the sharp self-map regime
    is eps <= jung_radius(dim).

    A point on a cell wall, up to rounding, goes to the lowest vertex index,
    so the bound holds to rounding.  In dim 1 the sites are exactly -1 and
    +1, and the map is the step map: +eps/2 on x <= 0, -eps/2 on x > 0.
    """

    dim: int
    eps: float
    vertices: PointSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "eps", check_eps(self.eps))
        object.__setattr__(self, "vertices", regular_simplex_vertices(self.dim))
        object.__setattr__(self, "scale", self.eps / jung_radius(self.dim))
        object.__setattr__(self, "_image", PointSet(-self.scale * self.vertices.points))

    def batch_index(self, xs: np.ndarray) -> np.ndarray:
        xs = self._rows(xs)
        # The sites are unit vectors, so the largest x.v_i is the nearest
        # site.  A computed x.v_i is off by at most about dim * ||x||_1 times
        # half the machine epsilon (|v_ij| <= 1), so two that differ by less
        # than `slack` tie up to rounding; a tie goes to the lowest index.
        dots = xs @ self.vertices.points.T
        slack = (self.dim + 2) * sys.float_info.epsilon * np.abs(xs).sum(axis=1, keepdims=True)
        return (dots >= dots.max(axis=1, keepdims=True) - slack).argmax(axis=1)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return self._image.points.take(self.batch_index(xs), axis=0)

    def image_points(self) -> PointSet:
        return self._image


def StepMap1D(eps: float) -> ExtremalMap:
    """The 1-D extremal map: +eps/2 on x <= 0, -eps/2 on x > 0.  Its image
    diameter is exactly eps, yet no point moves by less than eps/2."""
    return ExtremalMap(dim=1, eps=eps)


@dataclass(frozen=True)
class ConstantMap(_BallMap):
    """Sends every point to a fixed value; 0-continuous test map."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", check_in_ball(as_vector(self.value), "value"))

    @property
    def dim(self) -> int:
        return self.value.shape[0]

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return np.tile(self.value, (self._rows(xs).shape[0], 1))

    def image_points(self) -> PointSet:
        return PointSet(self.value[None, :])


@dataclass(frozen=True)
class IdentityMap(_BallMap):
    """Fixes every point; continuous test map."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return self._rows(xs).copy()


@dataclass(frozen=True)
class SampledMap(_BallMap):
    """A map known only through samples: points z in the ball paired with
    values f(z), plus a covering radius r_cov promising every point of the
    ball lies within r_cov of some sample.  Evaluated anywhere, it returns
    the value at the nearest sample (piecewise constant on the Voronoi
    cells of the samples).

    The covering radius is caller-supplied metadata.
    """

    points: np.ndarray
    values: np.ndarray
    covering_radius: float
    eps: float | None = None

    def __post_init__(self):
        pts = as_points(self.points)
        vals = as_points(self.values)
        if vals.shape != pts.shape:
            raise ValueError(f"points shape {pts.shape} != values shape {vals.shape}")
        check_in_ball(pts, "some sample point")
        check_in_ball(vals, "some sample value")
        object.__setattr__(self, "covering_radius", float(self.covering_radius))
        if not self.covering_radius >= 0:  # NaN too
            raise ValueError(f"covering radius must be nonnegative, got {self.covering_radius}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if self.eps is not None:
            object.__setattr__(self, "eps", check_eps(self.eps))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.points)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return self.values[self._tree.query(self._rows(xs))[1]]

    def image_points(self) -> PointSet:
        return PointSet(np.unique(self.values, axis=0))


def sample_map_on_grid(f, dim: int, spacing: float, eps: float | None = None) -> SampledMap:
    """Sample a map on the ball grid of floor(2/spacing) + 1 points per axis
    (geometry.ball_grid, within its default budget; 1-D: the full
    interval).  Covering radius is the half-diagonal of a grid cell."""
    if not 0.0 < spacing <= 2.0:
        raise DomainError(f"spacing must lie in (0, 2], got {spacing}")
    spec = GridSpec(dim, int(np.floor(2.0 / spacing)) + 1)
    pts = ball_grid(spec)
    return SampledMap(pts, f.batch(pts), spec.grid_step * np.sqrt(dim) / 2.0, eps)


@dataclass(frozen=True)
class DiscontinuityWitness1D:
    """A close pair certifying a jump: `right_point` is a sample the map
    moves right by more than the target displacement, `left_point` one it
    moves left by more than that, and `image_gap` = f(right) - f(left).

    Whenever such a pair exists, image_gap > 2 * target - |left - right|
    by the triangle-style rearrangement of the two displacement bounds.
    """

    right_point: float
    left_point: float
    image_gap: float


def image_diameter(m) -> float:
    """Diameter of a map's (finite) image set.

    Exact eps for the step map, eps up to floating error for ExtremalMap
    in dim > 1, and the diameter of the distinct values for a SampledMap.
    """
    if hasattr(m, "image_points"):
        return m.image_points().diameter
    raise TypeError(f"no finite image set known for {type(m).__name__}")


def neighborhood_diameter(points: np.ndarray, values: np.ndarray, r: float) -> float:
    """Max over points z of the diameter of the values within distance r
    of z.  Exact from per-value nearest-distance fields for few distinct
    values (the constructed maps); otherwise a direct neighborhood scan of
    at most geometry.DEFAULT_BUDGET (10M) visited points, or BudgetExceededError."""
    distinct, labels = np.unique(values, axis=0, return_inverse=True)
    k = distinct.shape[0]
    if k == 1:
        return 0.0
    if k <= 64 and k * points.shape[0] <= (1 << 27):
        # A value pair contributes iff some point is within r of a point
        # carrying each; nearest-distance fields decide that exactly.
        near = np.empty((k, points.shape[0]), dtype=bool)
        for label in range(k):
            tree = cKDTree(points[labels == label])
            near[label] = tree.query(points, workers=-1)[0] <= r
        pair_dist = np.linalg.norm(distinct[:, None, :] - distinct[None, :, :], axis=-1)
        best = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                if np.any(near[a] & near[b]):
                    best = max(best, float(pair_dist[a, b]))
        return best
    tree = cKDTree(points)
    best = 0.0
    scanned = 0
    for idx in tree.query_ball_point(points, r):
        scanned += len(idx)
        if scanned > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"neighborhood scan exceeded the budget of {DEFAULT_BUDGET} evaluations",
                limit=DEFAULT_BUDGET, required=scanned)
        if len(idx) > 1:
            best = max(best, pairwise_diameter(values[idx]))
    return best


def eps_fixed_indices(m: SampledMap, eps_prime: float) -> np.ndarray:
    """Indices of samples displaced by at most eps_prime."""
    disp = np.linalg.norm(m.points - m.values, axis=1)
    return np.flatnonzero(disp <= eps_prime)


def discontinuity_witness_1d(m: SampledMap, eps_prime: float,
                             resolution: float) -> DiscontinuityWitness1D | None:
    """Search a sampled 1-D map for adjacent samples moved in opposite
    directions by more than eps_prime.

    Samples are split into right-movers (f(x) - x > eps_prime) and
    left-movers (x - f(x) > eps_prime); a witness is the first adjacent
    pair, one from each side, within `resolution` of each other.  Returns
    None when no such pair exists, in which case the grid either has a
    sample displaced by at most eps_prime (report it via
    eps_fixed_indices) or one side is empty entirely.
    """
    if m.dim != 1:
        raise InvalidDimensionError(f"witness search is 1-D only, got dim {m.dim}")
    if eps_prime <= 0:
        raise DomainError(f"target displacement must be positive, got {eps_prime}")
    if resolution <= 0:
        raise DomainError(f"resolution must be positive, got {resolution}")
    order = np.argsort(m.points[:, 0], kind="stable")
    xs = m.points[order, 0]
    fx = m.values[order, 0]
    right = fx - xs > eps_prime
    left = xs - fx > eps_prime
    if not right.any() or not left.any():
        return None
    straddle = (right[:-1] & left[1:]) | (left[:-1] & right[1:])
    close = np.abs(xs[1:] - xs[:-1]) <= resolution
    hits = np.flatnonzero(straddle & close)
    if hits.size == 0:
        return None
    i = int(hits[0])
    a, b = (i, i + 1) if right[i] else (i + 1, i)
    return DiscontinuityWitness1D(
        right_point=float(xs[a]),
        left_point=float(xs[b]),
        image_gap=float(fx[a] - fx[b]),
    )
