"""Constructive search for near-fixed points of discontinuous ball maps.

The chain: sample f at the vertices of the Kuhn (Freudenthal)
triangulation of the lattice s*Z^n, s = alpha/(2 sqrt(n)), each vertex
sampled at its radial projection onto the ball, so every simplex has
diameter alpha/2.  The averaged map F weights the sampled values of the
simplex holding a point by its barycentric coordinates there: F is a
continuous, piecewise-linear self-map of the ball, affine on each
simplex.  An exact fixed point y of F is solved for directly in the
simplex at the start, or else found by Merrill's restart algorithm, which
follows a path of completely labelled simplices.  F(y) is then a convex
combination of the values at the vertices of one simplex, all within
alpha/2 of y, so by Jung's theorem
some sample there is displaced by less than the requested bound; the
triangle-inequality chain certifying this is returned as a checkable
certificate, which carries the fixed point it came from.  f is evaluated
only at the vertices the path touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import add, mul, sub

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.spatial import cKDTree

from .errors import (
    BudgetExceededError,
    CertificateError,
    DomainError,
    HypothesisError,
    InvalidDimensionError,
    NoConvergenceError,
    SolverError,
)
from .geometry import (
    TOL_GEOM,
    ConvexCombination,
    as_vector,
    ball_lattice,
    check_dim,
    check_eps,
    check_grid_budget,
    check_in_ball,
    cube_lattice,
    check_weights,
    jung_radius,
)

DEFAULT_GRID_BUDGET = 2_000_000
DEFAULT_EVAL_BUDGET = 100_000  # pivots of the fixed-point path

__all__ = [
    "EmbeddedPoint",
    "EpsFixedPointCertificate",
    "FixedPointResult",
    "PipelineParams",
    "PipelineRun",
    "RipsEdgeViolation",
    "SampleGrid",
    "averaged_map_eval",
    "build_sample_grid",
    "embed",
    "extract_certificate",
    "find_fixed_point",
    "run_pipeline",
    "simplicial_image_check",
]


def _check_hypothesis(dim: int, eps: float, eps_prime: float) -> float:
    """jung_radius(dim), once eps is in (0, 2] and eps_prime finite, above eps/R."""
    radius = jung_radius(dim)
    check_eps(eps)
    if not math.isfinite(eps_prime):
        raise DomainError(f"eps_prime must be finite, got {eps_prime}")
    if eps_prime <= eps / radius:
        raise HypothesisError(
            f"eps_prime={eps_prime} must exceed eps/jung_radius(dim)={eps / radius}")
    return radius


@dataclass(frozen=True)
class PipelineParams:
    """Validated parameter bundle for one pipeline run.

    eps is the discontinuity scale of the input map, eps_prime the bound to
    certify, gamma the image-diameter slack, alpha the sampling/Rips scale,
    and fp_tol the fixed-point residual the solver must reach.  They close
    the certificate chain, written once, in chain_bound:

        (eps + gamma)/R + alpha/2 + fp_tol < eps_prime,   R = jung_radius(dim).

    derive is the one place a run derives them; params built directly are
    validated alike.  R, from the one hypothesis check, is kept as `radius`,
    which is not a field, so not in asdict.
    """

    dim: int
    eps: float
    eps_prime: float
    gamma: float
    alpha: float
    fp_tol: float

    def __post_init__(self):
        if "radius" not in vars(self):  # derive sets the R of the hypothesis it checked
            vars(self)["radius"] = _check_hypothesis(self.dim, self.eps, self.eps_prime)
        slack = self.radius * self.eps_prime - self.eps
        if not (0.0 < self.gamma < slack):
            raise DomainError(f"gamma={self.gamma} outside (0, {slack})")
        if self.alpha <= 0 or self.fp_tol <= 0:
            raise DomainError("alpha and fp_tol must be positive")
        if not self.certificate_bound < self.eps_prime:
            raise DomainError(
                f"certificate chain bound {self.certificate_bound} does not undercut "
                f"eps_prime={self.eps_prime}; decrease alpha or fp_tol")

    @classmethod
    @lru_cache(maxsize=256, typed=True)
    def derive(cls, dim: int, eps: float, eps_prime: float) -> PipelineParams:
        """A run's params: gamma an eighth of the slack R*eps_prime - eps, fp_tol
        min(1e-6, gamma/(2R)), alpha at most eps and alpha/2 99% of the room the
        chain leaves, halved while rounding keeps it open; HypothesisError for a
        gap doubles cannot resolve (gamma rounds to 0, or no alpha closes it).
        A scale is derived once (memoized by value and type) and shared: params are immutable."""
        radius = _check_hypothesis(dim, eps, eps_prime)
        # 1/8: the exact Jung check needs margin only for rounding; a failure halves alpha
        gamma = (radius * eps_prime - eps) / 8.0

        def below_precision(why: str) -> HypothesisError:  # formatted only when raised
            return HypothesisError(f"eps_prime={eps_prime} exceeds eps/jung_radius(dim)="
                                   f"{eps / radius} by less than double precision can "
                                   f"resolve: {why}")
        if not gamma > 0:
            raise below_precision(f"the slack gamma rounds to {gamma}")
        if gamma == math.inf:  # the chain would be inf - inf at every alpha
            raise DomainError(f"eps_prime={eps_prime} overflows the slack R*eps_prime - eps")
        fp_tol = min(1e-6, gamma / (2.0 * radius))
        room = eps_prime - cls.chain_bound(radius, eps, gamma, 0.0, fp_tol)
        alpha = min(float(eps), 0.99 * 2.0 * room)  # 0.99: the 1% absorbs rounding
        while not cls.chain_bound(radius, eps, gamma, alpha, fp_tol) < eps_prime:
            alpha /= 2.0
            if alpha == 0.0:
                raise below_precision("no alpha > 0 closes the certificate chain")
        params = cls.__new__(cls)
        vars(params).update(dim=dim, eps=eps, eps_prime=eps_prime, gamma=gamma, alpha=alpha,
                            fp_tol=fp_tol, radius=radius)
        params.__post_init__()
        return params

    def with_half_alpha(self) -> PipelineParams:
        """These params with alpha halved, validated anew: the retry after a failed Jung check."""
        return replace(self, alpha=self.alpha / 2.0)

    @staticmethod
    def chain_bound(radius: float, eps: float, gamma: float, alpha: float, fp_tol: float) -> float:
        """(eps + gamma)/R + alpha/2 + fp_tol, R = radius, which must undercut eps_prime."""
        return (eps + gamma) / radius + alpha / 2.0 + fp_tol

    @property
    def jung_term_bound(self) -> float:  # the chain's first term: the others add exactly 0
        return self.chain_bound(self.radius, self.eps, self.gamma, 0.0, 0.0)

    @property
    def certificate_bound(self) -> float:
        return self.chain_bound(self.radius, self.eps, self.gamma, self.alpha, self.fp_tol)


class SampleGrid:
    """The vertices s*k (k an integer row) of the Kuhn triangulation of
    spacing s = alpha/(2 sqrt(dim)), sampled lazily: f is evaluated in
    batch at the radial projection onto the ball of each vertex the first
    time it is touched, and the value is kept by the vertex's integer row.

    `points` and `values` hold the touched samples in first-touch order;
    `materialize` touches the ball lattice of the vertices
    (geometry.ball_lattice), in its order.  The cube of vertices over
    [-1, 1]^dim must fit `max_points`.
    """

    def __init__(self, f, dim: int, alpha: float, max_points: int = DEFAULT_GRID_BUDGET):
        dim = check_dim(dim)
        if not 0.0 < alpha < math.inf:  # NaN too
            raise DomainError(f"alpha must be positive and finite, got {alpha}")
        spacing = alpha / math.sqrt(dim) / 2.0
        if not spacing >= 2.0 ** -1022:  # normal, so that 1/spacing and y/spacing stay finite
            raise BudgetExceededError(f"grid for alpha={alpha} needs a spacing of {spacing}, "
                                      "below double precision at any budget", limit=max_points)
        half_count = int(math.ceil(1.0 / spacing))
        check_grid_budget(2 * half_count + 1, dim, max_points, alpha)
        self.f, self.dim, self.alpha, self.spacing = f, dim, float(alpha), spacing
        self._half_count = half_count
        self._slots: dict[tuple[int, ...], int] = {}
        self._point_rows, self._rows = [], []  # the point and value rows, by slot
        self._embedded: tuple[tuple[float, ...] | None, EmbeddedPoint | None] = (None, None)

    @property
    def points(self) -> np.ndarray:
        return np.array(self._point_rows, dtype=float).reshape(-1, self.dim)

    @property
    def values(self) -> np.ndarray:
        return np.array(self._rows, dtype=float).reshape(-1, self.dim)

    def __len__(self) -> int:
        return len(self._rows)

    def touch(self, ks) -> list[int]:
        """Slots of the vertices with the given distinct integer rows (tuples,
        lists or an integer array); f is evaluated in one batch at the
        projections of the new ones."""
        keys = list(map(tuple, ks.tolist() if isinstance(ks, np.ndarray) else ks))
        new = [key for key in keys if key not in self._slots]
        if new:
            self._sample(new)
        return list(map(self._slots.__getitem__, keys))

    def _sample(self, keys: list[tuple[int, ...]]) -> None:
        """Slot the new distinct vertices `keys`, f evaluated in one batch."""
        rows = [list(map(self.spacing.__mul__, key)) for key in keys]
        pts = np.array(rows)
        if max(map(math.hypot, *zip(*rows))) > 1.0 - 1e-9:  # numpy's norm, for its bits
            pts /= np.maximum(np.linalg.norm(pts, axis=1), 1.0)[:, None]
            rows = pts.tolist()
        values = np.asarray(self.f.batch(pts), dtype=float).reshape(pts.shape).tolist()
        if not all(map((1.0 + TOL_GEOM).__ge__, map(math.hypot, *zip(*values)))):  # NaN too
            raise DomainError("some sample value lies outside the unit ball")
        self._slots.update(zip(keys, range(len(self._rows), len(self._rows) + len(keys))))
        self._point_rows += rows
        self._rows += values

    def value(self, key: tuple[int, ...]) -> list[float]:
        """The value row of the vertex with integer row `key`, sampled if new."""
        if key not in self._slots:
            self._sample([key])
        return self._rows[self._slots[key]]

    def materialize(self) -> SampleGrid:
        """Touch the ball lattice of the vertices, in its order; returns the grid."""
        axis = np.arange(-self._half_count, self._half_count + 1)
        k = cube_lattice(axis, self.dim)
        rows, _ = ball_lattice(k * self.spacing, self.spacing)
        self.touch(k[rows])
        return self


@dataclass(frozen=True)
class EmbeddedPoint:
    """A point expressed in the Kuhn triangulation: the slots of the
    vertices of its simplex with positive barycentric weight, their sample
    points, and those weights.  Every support point lies strictly within
    alpha/2 of the embedded point, so the support spans a simplex of the
    Rips complex VR(grid; alpha)."""

    support: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    @property
    def combination(self) -> ConvexCombination:
        return ConvexCombination(points=self.points, weights=self.weights)


@dataclass(frozen=True)
class FixedPointResult:
    """A point y with residual ||F(y) - y||, found after `pivots` pivots."""

    y: np.ndarray
    residual: float
    pivots: int = 0


@dataclass(frozen=True)
class RipsEdgeViolation:
    """An edge of the sample Rips complex whose image is too long."""

    i: int
    j: int
    domain_distance: float
    image_distance: float


@dataclass(frozen=True)
class EpsFixedPointCertificate:
    """A sample z displaced by less than the requested bound, with the
    terms of the triangle-inequality chain that prove it:

        ||f(z) - z|| <= jung_term + residual + anchor_term
                     <= (eps+gamma)/R + fp_tol + alpha/2 < eps_prime.

    trace is the fixed point of the averaged map it came from, and
    support_index the grid slot of z.
    """

    z: np.ndarray
    fz: np.ndarray
    displacement: float
    bound: float
    trace: FixedPointResult
    support_index: int
    jung_term: float = 0.0
    anchor_term: float = 0.0


def build_sample_grid(f, dim: int, alpha: float,
                      max_points: int = DEFAULT_GRID_BUDGET) -> SampleGrid:
    """The lazy sample grid of f whose Kuhn simplices have diameter alpha/2.

    The budget is checked up front against the whole cube of vertices; f
    is evaluated at most once per vertex, when it is first touched.
    """
    return SampleGrid(f, dim, alpha, max_points=max_points)


def _kuhn_simplex(u: list[float]) -> tuple[list[tuple[int, ...]], list[int], list[float]]:
    """The Kuhn simplex holding the point u of lattice coordinates: its
    vertices, from the base floor(u) one unit step along each axis in
    decreasing order of the fractional parts f of u; those axes; and the
    barycentric weights of u, 1 - f_(1), f_(1) - f_(2), ..., f_(n)."""
    vertex = list(map(math.floor, u))
    frac = list(map(sub, u, vertex))
    axes = sorted(range(len(u)), key=frac.__getitem__, reverse=True)  # stable: ties keep order
    vertices = [tuple(vertex)]
    for axis in axes:
        vertex[axis] += 1
        vertices.append(tuple(vertex))
    descending = [1.0, *map(frac.__getitem__, axes), 0.0]
    return vertices, axes, list(map(sub, descending, descending[1:]))


def embed(y, grid: SampleGrid) -> EmbeddedPoint:
    """Barycentric embedding of y into the Kuhn triangulation of the grid.

    y must be a finite vector of the grid's dimension in the unit ball,
    checked as as_vector and check_in_ball check it and with their errors;
    a float row of norm at most 1 (math.hypot) passes at once.  The simplex
    holding u = y/s and the barycentric weights of u there come from
    _kuhn_simplex.  Vertices of weight 0 are dropped, so the embedding is
    continuous in y.  The grid keeps the last embedding, which the
    certificate reuses for the fixed point.
    """
    fast = type(y) is np.ndarray and y.dtype == float and y.ndim == 1
    y = tuple((y if fast else as_vector(y)).tolist())
    if y == grid._embedded[0]:
        return grid._embedded[1]
    if len(y) != grid.dim or not math.hypot(*y) <= 1.0:  # NaN too
        as_vector(y)  # its errors come first
        if len(y) != grid.dim:
            raise InvalidDimensionError(f"point of dimension {len(y)} for a {grid.dim}-D grid")
        check_in_ball(y, "embedded point")
    vertices, _, weights = _kuhn_simplex([x / grid.spacing for x in y])
    kept = [j for j, w in enumerate(weights) if w > 0.0]
    support = grid.touch([vertices[j] for j in kept])
    points = np.array([grid._point_rows[k] for k in support])
    emb = EmbeddedPoint(np.array(support), points, np.array([weights[j] for j in kept]))
    grid._embedded = (y, emb)
    return emb


def simplicial_image_check(grid: SampleGrid, bound: float) -> RipsEdgeViolation | None:
    """Verify every Rips edge of the sample set maps to a short segment.

    Materializes the grid and checks ||f(z) - f(z')|| <= bound for all
    samples with ||z - z'|| <= grid.alpha; edges determine all Rips
    simplices, so this bounds every simplex image diameter.  Returns None
    on success, else the worst violating edge.  An oracle for the tests:
    the pipeline checks the one simplex it certifies, in
    extract_certificate.
    """
    points, values = grid.materialize().points, grid.values
    pairs = cKDTree(points).query_pairs(grid.alpha, output_type="ndarray")
    if pairs.shape[0] == 0:
        return None
    image_d = np.linalg.norm(values[pairs[:, 0]] - values[pairs[:, 1]], axis=1)
    worst = int(np.argmax(image_d))
    if float(image_d[worst]) <= bound:
        return None
    i, j = int(pairs[worst, 0]), int(pairs[worst, 1])
    return RipsEdgeViolation(i, j, float(np.linalg.norm(points[i] - points[j])),
                             float(image_d[worst]))


def averaged_map_eval(y, grid: SampleGrid) -> np.ndarray:
    """The averaged map F(y): barycentric weights applied to the sampled
    values of the simplex holding y.  A convex combination of ball points,
    hence in the ball; continuous and piecewise linear."""
    emb = embed(y, grid)
    return emb.weights @ np.array([grid._rows[k] for k in emb.support.tolist()])


def find_fixed_point(F, grid: SampleGrid,
                     max_pivots: int = DEFAULT_EVAL_BUDGET) -> FixedPointResult:
    """A fixed point of the averaged map F of the grid, exact up to
    rounding, by Merrill's restart algorithm (Merrill 1972; Todd 1976,
    LNEMS 124).

    One path (see _merrill_path) per level, of spacing 2^L s (within a
    factor sqrt(2) of 0.5/sqrt(n), s the grid's spacing), 2^(L-2) s,
    2^(L-4) s, ... down to s, each started next to the fixed point of the
    level before: a path's length grows with the distance from its start
    to the fixed point in cells, so every level takes a few pivots where
    one path at spacing s would cross up to 1/s cells.  The coarse
    lattices are sublattices of the grid's, so their samples are grid
    samples.

    Before any path, and again after each flat level but the last (its
    fixed point is the one value v of its weighted level-1 vertices, hence
    v at every spacing), the grid's own Kuhn simplex at the next start (the
    origin, then v) is solved directly (_kuhn_fixed_point): F is affine
    there, and when that simplex holds a fixed point it is the result, with
    no pivots counted and no level left to run.  NoConvergenceError means
    only that max_pivots, counted over all levels, ran out.  F is called
    for the residual.
    """
    n, s = grid.dim, grid.spacing
    y, pivots, reached = (0.0,) * n, 0, True
    direct = _kuhn_fixed_point(grid, _start(y, s))
    top = 0 if direct else max(0, round(math.log2(0.5 / (math.sqrt(n) * s))))
    pending = [] if direct else sorted({2 ** max(top - 2 * j, 0) for j in range(top + 1)})
    while pending and direct is None and reached:
        step = pending.pop()
        y, used, reached, flat = _merrill_path(grid, step, _start(tuple(y), step * s),
                                               max_pivots - pivots)
        pivots += used
        if reached and flat and pending:
            direct = _kuhn_fixed_point(grid, _start(tuple(y), s))
    y = np.array(y if direct is None else direct)
    r = F(y) - y
    residual = math.sqrt(r.dot(r))  # np.linalg.norm's own formula, so its bits
    if not reached:
        raise NoConvergenceError(
            f"fixed-point path exhausted {max_pivots} pivots; residual {residual:.3g} "
            "at its last point",
            best_point=y, best_residual=residual)
    return FixedPointResult(y, residual, pivots)


# The start of a solve or path in cells of spacing h at y: y moved by distinct
# irrational fractions of a cell (start facets stay nondegenerate), in the ball
# by numpy's norm (so is every zero on the path).  Memoized with its Kuhn simplex
# (as tuples, as it is shared): every run at one scale starts at the origin.
@lru_cache(maxsize=256)
def _start(y: tuple[float, ...], h: float) -> tuple[float, ...]:
    c = tuple(x + h * (1e-3 * ((i * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0))
              for i, x in enumerate(y, 1))
    if math.hypot(*c) > 1.0 - 1e-9:
        c = tuple((np.array(c) / max(1.0, float(np.linalg.norm(c)))).tolist())
    return c


@lru_cache(maxsize=256)
def _start_simplex(c: tuple[float, ...], h: float):
    return tuple(map(tuple, _kuhn_simplex([x / h for x in c])))


def _kuhn_fixed_point(grid: SampleGrid, c: list[float]) -> list[float] | None:
    """The fixed point of the averaged map F in the grid's Kuhn simplex of
    c, or None if that simplex holds none.  F is affine there, so its
    fixed point y = sum_k lambda_k s x_k solves the (n+1)x(n+1) system
    [1 ... 1; v_k - s x_k] lambda = e_0 over the simplex's vertices s x_k
    and their values v_k, the system of Merrill's final basis; y lies in
    the simplex when the system is nonsingular and every lambda_k >= 0.
    f is evaluated at the vertices in one batch.  scipy's LAPACK dgesv solves
    the system, as it does the path's basis at every pivot, so the last bits
    of y are LAPACK's."""
    s = grid.spacing
    vertices = _start_simplex(tuple(c), s)[0]
    values = [grid._rows[k] for k in grid.touch(vertices)]
    columns = [[1.0, *map(sub, value, map(s.__mul__, v))] for value, v in zip(values, vertices)]
    _, _, weights, info = dgesv(np.array(columns).T, [1.0] + [0.0] * grid.dim)
    weights = weights.tolist()
    # singular (info > 0), or outside; a 0 on a face solves to about -1e-17: clip
    if info or not all(map((-1e-12).__le__, weights)):
        return None
    return _barycentre(s, [max(w, 0.0) for w in weights], vertices)


def _barycentre(h: float, weights: list[float], vertices: list[tuple[int, ...]]) -> list[float]:
    """h * sum_k w_k x_k / sum_k w_k over the integer vertices x_k of a simplex."""
    total = _sum(weights)
    return [h * _sum(map(mul, weights, column)) / total for column in zip(*vertices)]


def _sum(xs) -> float:  # left to right from 0.0 on every Python: 3.12's sum compensates
    return reduce(add, xs, 0.0)


def _merrill_path(grid: SampleGrid, step: int, c: tuple[float, ...],
                  max_pivots: int) -> tuple[list[float], int, bool, bool]:
    """Merrill's path on the Freudenthal triangulation of R^n x [0, 1] with
    spacing h = step * s in space and one step in time, from c.

    A vertex (x, 0) is labelled c - x, and a vertex (x, 1) is labelled
    f(pi x) - x, pi the projection onto the ball.  A facet is completely
    labelled when 0 is a convex combination of its labels.  The one such
    facet at level 0 is the Kuhn simplex of c; from there each pivot brings
    the vertex opposite the current facet into the basis and drops the one
    the lexicographic ratio test picks, until the facet's zero reaches
    level 1, where it is a fixed point of the level's averaged map.  Every
    zero on the path is a convex combination of c and ball points, so the
    path stays bounded and ends after finitely many pivots.  Returns the
    last zero (in space), the pivots used, whether it is at level 1, and
    whether it is flat there: its weighted level-1 vertices share a value.
    """
    n, s, h = grid.dim, grid.spacing, step * grid.spacing
    # The slab simplex over the Kuhn simplex of c: its space axes, then time
    # (axis n).  A vertex is its grid row, the key of its sample, then its
    # level times step: a step along any axis adds +-step at that index.
    vertices, axes, weights = _start_simplex(tuple(c), h)
    perm = [*axes, n]
    verts = [tuple([step * x for x in v]) + (0,) for v in vertices]
    verts.append(verts[-1][:n] + (step,))
    # The path mostly ends over the start simplex: sample its vertices in one batch.
    grid.touch([v[:n] for v in verts[:n + 1]])
    # The basis: its [1; label] columns, the first n + 1 those of the Kuhn
    # simplex of c, whose zero has the barycentric weights of c/h there; and
    # the vertex behind each column.  row_of maps simplex positions to
    # columns (-1 for the vertex about to enter).  s * x is h * (x / step)
    # to the bit, as step is a power of 2.
    basis = np.array([[1.0] + [t - s * x for t, x in zip(c, v)] for v in verts[:n + 1]]).T
    rhs = np.eye(n + 1, 2, order="F")  # columns e_0 and, at each pivot, the entering a
    held = verts[:n + 1]
    row_of = list(range(n + 1)) + [-1]
    enter = n + 1

    for pivots in range(1, max_pivots + 1):
        v = verts[enter]
        rhs[:, 1] = [1.0, *map(sub, grid.value(v[:n]) if v[n] else c, map(s.__mul__, v))]
        # The zero's weights w = B^-1 e_0 and d = B^-1 a, from a fresh LU of
        # the basis B at every pivot: an inverse carried from pivot to pivot
        # drifts, as the basis has condition about 1/h.
        _, _, solved, info = dgesv(basis, rhs)
        if info:
            raise SolverError(f"singular basis at pivot {pivots} of a path of spacing {h:g}")
        w, d = solved.T.tolist()
        tol = 1e-12 * max(map(abs, d))
        # Lexicographic ratio test, exact in floats: the lexicographically
        # smallest row of B^-1 over its entry of d, its first entry (that of
        # w) deciding unless tied.  Some d_i > tol, as d sums to a_0 = 1.
        ratios = [wi / di if di > tol else math.inf for wi, di in zip(w, d)]
        least = min(ratios)
        r = ratios.index(least)
        if ratios.count(least) > 1:
            inverse = dgesv(basis, np.eye(n + 1))[2].tolist()
            r = min((i for i, q in enumerate(ratios) if q == least),
                    key=lambda i: [x / d[i] for x in inverse[i]])
        basis[:, r] = rhs[:, 1]
        weights = [x - di * least for x, di in zip(w, d)]  # one elimination step
        weights[r] = least
        held[r] = v
        # The facet's zero is at time sum(weights at level 1): at time 1, up
        # to rounding, it is a fixed point.  Degenerate maps (values on
        # lattice faces) get there before the whole facet reaches level 1.
        # A facet wholly at level 1 ends the path whatever its weights sum
        # to: at spacing h they carry rounding of order 1/h, and a missed
        # end would pivot to a vertex at time 2.
        at_top = [x for x, u in zip(weights, held) if u[n]]
        if len(at_top) > n or _sum(at_top) >= 1.0 - 1e-12:
            tops = [grid.value(u[:n]) for x, u in zip(weights, held) if u[n] and x > 0]
            flat = all(value == tops[0] for value in tops)
            space = [[x // step for x in u[:n]] for u in held if u[n]]
            return _barycentre(h, at_top, space), pivots, True, flat
        leave = row_of.index(r)
        row_of[enter], row_of[leave] = r, -1
        # Replace the leaving vertex (Freudenthal pivot rules): the entering
        # one is its neighbour moved one step along an axis of perm.
        if leave == 0:
            perm, row_of = perm[1:] + perm[:1], row_of[1:] + row_of[:1]
            verts, enter, axis, by = verts[1:] + verts[-1:], n + 1, perm[-1], step
        elif leave == n + 1:
            perm, row_of = perm[-1:] + perm[:-1], row_of[-1:] + row_of[:-1]
            verts, enter, axis, by = verts[:1] + verts[:-1], 0, perm[0], -step
        else:
            perm[leave - 1], perm[leave] = perm[leave], perm[leave - 1]
            verts[leave] = verts[leave - 1]
            enter, axis, by = leave, perm[leave - 1], step
        v = verts[enter]
        verts[enter] = v[:axis] + (v[axis] + by,) + v[axis + 1:]
    return _barycentre(h, weights, [[x // step for x in u[:n]] for u in held]), \
        max(max_pivots, 0), False, False


def extract_certificate(fp: FixedPointResult, grid: SampleGrid,
                        params: PipelineParams) -> EpsFixedPointCertificate:
    """Turn a fixed point of the averaged map into a certified sample.

    Over the embedding support of y, picks the sample whose value is
    nearest to F(y); Jung's theorem bounds that distance by
    (eps+gamma)/R because the support image has diameter at most
    eps+gamma.  With ||F(y) - y|| <= fp_tol and the sample within alpha/2
    of y, the triangle inequality certifies the displacement.  Both checks
    are exact, with no slack: the Jung term against its bound, the sample's
    displacement against eps_prime.  A residual above fp_tol is a
    SolverError: the solver returned a point that is not a fixed point.
    """
    if fp.residual > params.fp_tol:
        raise SolverError(
            f"residual {fp.residual} exceeds fp_tol={params.fp_tol}; not a usable fixed point")
    emb = embed(fp.y, grid)
    weights, support = emb.weights.tolist(), emb.support.tolist()
    check_weights(weights)
    rows = [grid._rows[k] for k in support]
    image = [_sum(map(mul, weights, column)) for column in zip(*rows)]
    distances = [math.dist(row, image) for row in rows]
    jung_term = min(distances)
    if not jung_term <= params.jung_term_bound:
        raise CertificateError(
            f"nearest support image at {jung_term}, above the Jung bound "
            f"{params.jung_term_bound}; alpha is too coarse for this map")
    i = support[distances.index(jung_term)]
    z, fz = grid._point_rows[i], grid._rows[i]
    anchor_term = math.dist(z, fp.y.tolist())
    displacement = math.dist(fz, z)
    if not displacement < params.eps_prime:
        raise CertificateError(
            f"certified displacement {displacement} is not below eps_prime={params.eps_prime}")
    return EpsFixedPointCertificate(np.array(z), np.array(fz), displacement, params.eps_prime,
                                    fp, i, jung_term, anchor_term)


@dataclass(frozen=True)
class PipelineRun:
    """Everything one pipeline invocation produced, for reporting and for
    independent re-verification of the certificate."""

    params: PipelineParams
    grid: SampleGrid
    certificate: EpsFixedPointCertificate
    displacement_recheck: float


def run_pipeline(f, dim: int, eps: float, eps_prime: float,
                 grid_budget: int = DEFAULT_GRID_BUDGET) -> PipelineRun:
    """End-to-end certificate search for a map of discontinuity scale eps.

    PipelineParams.derive, the one place the certificate chain is derived,
    checks eps_prime > eps / jung_radius(dim) and picks gamma, fp_tol and
    alpha.  extract_certificate certifies the fixed point of the averaged
    map on the lazy grid; while its Jung check fails alpha is halved, until
    the grid budget stops a map that is not eps-continuous.  The
    certificate's displacement is re-evaluated directly on f.  What precedes f
    depends on the scale alone, so is derived once per scale and shared (immutable).
    """
    params = PipelineParams.derive(dim, eps, eps_prime)
    while True:
        grid = build_sample_grid(f, dim, params.alpha, max_points=grid_budget)
        fixed_point = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid)
        try:
            certificate = extract_certificate(fixed_point, grid, params)
        except CertificateError:
            params = params.with_half_alpha()  # not yet "sufficiently small"
            continue
        recheck = math.dist(as_vector(f(certificate.z)).tolist(), certificate.z.tolist())
        return PipelineRun(params=params, grid=grid, certificate=certificate,
                           displacement_recheck=recheck)
