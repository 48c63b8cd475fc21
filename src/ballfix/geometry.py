"""Euclidean geometry on the unit ball.

Provides the Jung constant, inscribed regular simplices, point-set
diameters, exact minimal enclosing balls for small dimensions, validated
convex combinations, and the ball lattice and grid with its budget rule.

All operations are pure functions; vectors are plain numpy float arrays
treated as immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, DomainError
from .errors import InvalidCombinationError, InvalidDimensionError

# Tolerance for geometric identities (double precision leaves ~6 digits of
# headroom at desk scale) and for convex-weight normalization.
TOL_GEOM = 1e-9
TOL_WEIGHTS = 1e-12

# Every self-map of the ball has image diameter at most 2, so discontinuity
# scales outside (0, 2] are caller mistakes and are rejected, not clamped.
EPS_MAX = 2.0
DEFAULT_BUDGET = 10_000_000  # points in the cube of a ball grid

__all__ = [
    "DEFAULT_BUDGET",
    "TOL_GEOM",
    "TOL_WEIGHTS",
    "Ball",
    "ConvexCombination",
    "GridSpec",
    "PointSet",
    "as_points",
    "as_vector",
    "ball_grid",
    "ball_lattice",
    "check_dim",
    "check_eps",
    "check_grid_budget",
    "check_in_ball",
    "check_weights",
    "cube_lattice",
    "iter_ball_grid",
    "jung_radius",
    "min_enclosing_ball",
    "pairwise_diameter",
    "random_ball_points",
    "regular_simplex_vertices",
]


def check_dim(n) -> int:
    """The dimension as an int; rejects anything but a positive integer."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def check_eps(eps) -> float:
    """The discontinuity scale as a float; rejects anything outside (0, 2]."""
    eps = float(eps)
    if not (0.0 < eps <= EPS_MAX):
        raise DomainError(f"discontinuity scale must lie in (0, {EPS_MAX}], got {eps}")
    return eps


def check_in_ball(points, what: str = "point") -> np.ndarray:
    """The points (a vector or rows) as floats; DomainError if any lies
    outside the unit ball by more than TOL_GEOM.  NaN fails too."""
    arr = np.asarray(points, dtype=float)
    norms = np.sqrt((arr * arr).sum(-1))  # np.linalg.norm's own sum, so its bits
    if not (norms <= 1.0 + TOL_GEOM).all():
        raise DomainError(f"{what} of norm {float(np.max(norms))} lies outside the unit ball")
    return arr


def as_vector(coords) -> np.ndarray:
    """Coerce to a finite 1-D float vector (scalars become 1-vectors)."""
    v = np.asarray(coords, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise InvalidDimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):  # numpy's isfinite costs more on a short vector
        raise ValueError("vector coordinates must be finite")
    return v


def as_points(points) -> np.ndarray:
    """Coerce to a nonempty (m, n) float array of points with a common dim."""
    if isinstance(points, PointSet):
        return points.points
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise InvalidDimensionError(f"expected an (m, n) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def pairwise_diameter(points) -> float:
    """Max pairwise Euclidean distance, exact up to floating arithmetic.

    Chunked so a block holds about 2^20 coordinate differences (at least
    one row), whatever the count and dimension; quadratic in time.
    """
    pts = as_points(points)
    m = pts.shape[0]
    if m == 1:
        return 0.0
    chunk = max(1, (1 << 20) // (m * pts.shape[1]))
    best = 0.0
    for start in range(0, m, chunk):
        block = pts[start:start + chunk]
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


@dataclass(frozen=True)
class PointSet:
    """A nonempty finite point configuration, its diameter cached on first use."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", as_points(self.points))

    @cached_property
    def diameter(self) -> float:
        return pairwise_diameter(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self.points[i]


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")


def jung_radius(n: int) -> float:
    """Diameter of the regular n-simplex inscribed in the unit sphere of R^n.

    Equals sqrt(2(n+1)/n): 2 in dimension 1, sqrt(3) in dimension 2,
    decreasing monotonically towards sqrt(2).  Jung's theorem: any set of
    diameter d lies in a closed ball of radius d / jung_radius(n).
    """
    check_dim(n)
    return math.sqrt(2.0 * (n + 1) / n)


def regular_simplex_vertices(n: int) -> PointSet:
    """Vertices of a regular n-simplex inscribed in the unit sphere of R^n.

    Returns n+1 unit vectors with pairwise inner product -1/n, pairwise
    distance jung_radius(n), and centroid at the origin.  Construction:
    take the n+1 standard basis vectors of R^(n+1), subtract their
    centroid, express them in an orthonormal basis of the sum-zero
    hyperplane, and rescale to unit norm.  Rows are sorted
    lexicographically so the ordering is reproducible; for n = 1 this
    yields (-1,), (+1,).
    """
    n = check_dim(n)
    centered = np.eye(n + 1) - 1.0 / (n + 1)
    # The first n centered basis vectors are linearly independent and span
    # the sum-zero hyperplane; QR gives an orthonormal basis of it.
    basis, _ = np.linalg.qr(centered[:, :n])
    verts = centered @ basis                       # (n+1, n), common norm sqrt(n/(n+1))
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    order = np.lexsort(verts.T[::-1])              # primary key: first coordinate
    return PointSet(verts[order])


# --- ball lattice and grid --------------------------------------------------


def cube_lattice(axis: np.ndarray, dim: int) -> np.ndarray:
    """All points of axis^dim as rows, the last coordinate varying fastest."""
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ball_lattice(pts: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows with norm <= 1, then the rows within a cell half-diagonal
    outside the sphere projected radially onto it, both in input order.
    Returns the indices of the kept rows and the lattice points, in that
    order.  Projection onto the ball is 1-Lipschitz, so the lattice's
    covering radius survives, and the sphere, where behavior changes, is
    sampled."""
    norms = np.linalg.norm(pts, axis=1)
    half_diag = spacing * math.sqrt(pts.shape[1]) / 2.0
    inside = np.flatnonzero(norms <= 1.0)
    shell = np.flatnonzero((norms > 1.0) & (norms <= 1.0 + half_diag))
    return (np.concatenate([inside, shell]),
            np.concatenate([pts[inside], pts[shell] / norms[shell, None]], axis=0))


def check_grid_budget(per_axis: int, dim: int, budget: int, alpha: float | None = None) -> None:
    """DomainError for a budget below 1 or NaN; BudgetExceededError if per_axis^dim exceeds it."""
    if not budget >= 1:  # NaN too
        raise DomainError(f"grid budget must be at least 1, got {budget}")
    if per_axis ** dim > budget:
        raise BudgetExceededError(
            f"grid{'' if alpha is None else f' for alpha={alpha}'} of {per_axis}^{dim} points "
            f"exceeds the budget of {budget}", limit=budget, required=per_axis ** dim)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid over [-1, 1]^dim, clipped to the ball."""

    dim: int
    points_per_axis: int

    def __post_init__(self):
        check_dim(self.dim)
        if self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be at least 2, got {self.points_per_axis}")

    @property
    def grid_step(self) -> float:
        return 2.0 / (self.points_per_axis - 1)


def iter_ball_grid(spec: GridSpec, budget: int = DEFAULT_BUDGET):
    """Yield the ball lattice of the grid in slabs of constant first
    coordinate, deterministic order; one slab at a time keeps memory at a
    slab's size."""
    check_grid_budget(spec.points_per_axis, spec.dim, budget)
    axis = np.linspace(-1.0, 1.0, spec.points_per_axis)
    if spec.dim == 1:
        yield ball_lattice(axis[:, None], spec.grid_step)[1]
        return
    rest = cube_lattice(axis, spec.dim - 1)
    for x0 in axis:
        slab = np.concatenate([np.full((rest.shape[0], 1), x0), rest], axis=1)
        _, chunk = ball_lattice(slab, spec.grid_step)
        if chunk.shape[0]:
            yield chunk


def ball_grid(spec: GridSpec) -> np.ndarray:
    """Materialized grid within DEFAULT_BUDGET (use the iterator for large sweeps)."""
    return np.concatenate(list(iter_ball_grid(spec)), axis=0)


def random_ball_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform samples from the unit ball (Gaussian direction, radial cdf)."""
    gauss = rng.standard_normal((count, dim))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    return gauss * (rng.random((count, 1)) ** (1.0 / dim))


# --- minimal enclosing ball -------------------------------------------------
#
# Exact Welzl-style solver: points are inserted in their given order
# (deterministic, no shuffling) and each containment failure pins the
# offending point to the boundary, nesting at most dim+2 levels deep.
# Intended for dim <= 4 and up to a few thousand points.

_REL_EPS = 1e-14


def _circumball(boundary: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all boundary points on its sphere.

    The center lies in the affine hull of the boundary points; solving
    ||c - b_i|| = ||c - b_0|| reduces to a Gram system of size <= dim.
    """
    b0 = boundary[0]
    if len(boundary) == 1:
        return b0, 0.0
    rel = np.asarray(boundary[1:]) - b0
    gram = rel @ rel.T
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    try:
        t = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        t = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    center = b0 + t @ rel
    radius = float(np.max(np.linalg.norm(np.asarray(boundary) - center, axis=1)))
    return center, radius


def _in_ball(center: np.ndarray, radius: float, p: np.ndarray) -> bool:
    return float(np.linalg.norm(p - center)) <= radius * (1.0 + _REL_EPS) + _REL_EPS


def _welzl(points: np.ndarray, boundary: list[np.ndarray], dim: int) -> tuple[np.ndarray, float]:
    if boundary:
        center, radius = _circumball(boundary)
        if len(boundary) == dim + 1:
            return center, radius
    else:
        center, radius = None, 0.0
    for i in range(points.shape[0]):  # as_points leaves at least one, so center is set
        p = points[i]
        if center is None or not _in_ball(center, radius, p):
            center, radius = _welzl(points[:i], boundary + [p], dim)
    return center, radius


def min_enclosing_ball(points) -> Ball:
    """The unique smallest closed ball containing every point.

    By Jung's theorem its radius is at most diameter / jung_radius(dim).
    """
    pts = as_points(points)
    center, radius = _welzl(pts, [], pts.shape[1])
    return Ball(center=center, radius=radius)


# --- convex combinations ----------------------------------------------------


@dataclass(frozen=True)
class ConvexCombination:
    """A weighted average sum_i w_i x_i with strictly positive weights
    summing to one (within TOL_WEIGHTS)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise InvalidCombinationError(
                f"{pts.shape[0]} points but {w.shape[0]} weights")
        check_weights(w.tolist())
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def support_diameter(self) -> float:
        return pairwise_diameter(self.points)


def check_weights(weights: list[float]) -> None:
    """Strictly positive weights summing to one within TOL_WEIGHTS, or InvalidCombinationError."""
    if not all(map((0.0).__lt__, weights)):  # NaN fails too
        raise InvalidCombinationError("weights must be strictly positive")
    total = sum(weights)
    if abs(total - 1.0) > TOL_WEIGHTS:
        raise InvalidCombinationError(
            f"weights sum to {total!r}, expected 1 within {TOL_WEIGHTS}")

