"""Constructive search for near-fixed points of discontinuous ball maps.

The chain: sample the ball densely enough that radius-alpha/2 balls cover
it, embed each query point into the nerve of that cover by tent-function
weights (a point of the Vietoris-Rips complex VR(samples; alpha)), push the
weights onto the sampled values, and average back into the ball.  The
composite map F is continuous, so it has a fixed point; near that fixed
point some sample is displaced by less than the requested bound, and the
triangle-inequality chain certifying this is returned as a checkable
certificate.  The samples form a lazy lattice: f is evaluated only where
the fixed-point search looks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BudgetExceededError,
    CertificateError,
    CoveringViolationError,
    DomainError,
    HypothesisError,
    InvalidDimensionError,
    NoConvergenceError,
)
from .geometry import (
    TOL_GEOM,
    ConvexCombination,
    as_vector,
    ball_lattice,
    check_dim,
    cube_lattice,
    jung_nearest,
    jung_radius,
    random_ball_points,
)
from .maps import SampledMap

# Grid spacing is alpha/sqrt(dim) * (1 - GRID_SAFETY).  The safety margin
# keeps every point of the ball strictly inside some tent support, which
# bounds the partition-of-unity denominators away from zero (>=
# GRID_SAFETY * alpha/2) and with it the slopes of the embedding weights.
GRID_SAFETY = 0.5

DEFAULT_GRID_BUDGET = 2_000_000
DEFAULT_EVAL_BUDGET = 100_000

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
    """jung_radius(dim), once eps is in (0, 2] and eps_prime above eps/R."""
    radius = jung_radius(dim)
    if not (0.0 < eps <= 2.0):
        raise DomainError(f"eps must lie in (0, 2], got {eps}")
    if eps_prime <= eps / radius:
        raise HypothesisError(
            f"eps_prime={eps_prime} must exceed eps/jung_radius(dim)={eps / radius}")
    return radius


@dataclass(frozen=True)
class PipelineParams:
    """Validated parameter bundle for one pipeline run.

    eps is the discontinuity scale of the input map, eps_prime the
    displacement bound to certify, gamma the image-diameter slack, alpha
    the sampling/Rips scale, and fp_tol the fixed-point residual the
    solver must reach.  The admissibility chain

        (eps + gamma)/R + alpha/2 + fp_tol < eps_prime,   R = jung_radius(dim)

    extends the exact-arithmetic requirement by the solver residual so the
    certificate inequality stays fully checkable.
    """

    dim: int
    eps: float
    eps_prime: float
    gamma: float
    alpha: float
    fp_tol: float

    def __post_init__(self):
        radius = _check_hypothesis(self.dim, self.eps, self.eps_prime)
        if not (0.0 < self.gamma < radius * self.eps_prime - self.eps):
            raise DomainError(
                f"gamma={self.gamma} outside (0, {radius * self.eps_prime - self.eps})")
        if self.alpha <= 0 or self.fp_tol <= 0:
            raise DomainError("alpha and fp_tol must be positive")
        slack = (self.eps + self.gamma) / radius + self.alpha / 2.0 + self.fp_tol
        if not slack < self.eps_prime:
            raise DomainError(
                f"certificate chain bound {slack} does not undercut eps_prime={self.eps_prime}; "
                "decrease alpha or fp_tol")

    @property
    def jung_term_bound(self) -> float:
        return (self.eps + self.gamma) / jung_radius(self.dim)

    @property
    def certificate_bound(self) -> float:
        return self.jung_term_bound + self.alpha / 2.0 + self.fp_tol


class SampleGrid:
    """The ball lattice of an axis grid of the given spacing
    (geometry.ball_lattice over spacing times the integer indices within
    +-ceil(1/spacing) per axis), sampled lazily: f is evaluated in batch
    at a lattice point the first time an embedding touches it, and the
    value is kept by integer lattice index.

    `points` and `values` hold the touched samples in first-touch order;
    `materialize` touches the whole lattice, in ball_lattice order.  The
    cube must fit `max_points`, which keeps the lattice keys within int64.
    """

    def __init__(self, f, dim: int, alpha: float, spacing: float,
                 max_points: int = DEFAULT_GRID_BUDGET):
        dim = check_dim(dim)
        if alpha <= 0 or spacing <= 0:
            raise DomainError(f"alpha and spacing must be positive, got {alpha} and {spacing}")
        if max_points > np.iinfo(np.int64).max:
            raise DomainError(f"grid budget {max_points} overflows the int64 lattice keys")
        half_count = int(math.ceil(1.0 / spacing))
        per_axis = 2 * half_count + 1
        if per_axis ** dim > max_points:
            raise BudgetExceededError(
                f"grid for alpha={alpha} needs {per_axis ** dim} points, over the "
                f"budget of {max_points}; smallest feasible alpha is about "
                f"{_min_feasible_alpha(dim, max_points):.3g}",
                limit=max_points,
                required=per_axis ** dim,
                min_feasible_alpha=_min_feasible_alpha(dim, max_points),
            )
        self.f = f
        self.dim = dim
        self.alpha = float(alpha)
        self.spacing = float(spacing)
        self._half_count = half_count
        self._half_alpha = self.alpha / 2.0
        self._half_diag = self.spacing * math.sqrt(dim) / 2.0
        # A sample within alpha/2 of y is, before projection, within
        # `reach` of y, hence within reach/spacing + sqrt(dim)/2 index
        # units of round(y/spacing).
        self._reach = self._half_alpha + self._half_diag
        offsets = _index_ball(dim, self._reach / self.spacing + math.sqrt(dim) / 2.0,
                              2 * half_count)
        # Row-major mixed-radix key of each cube index, below per_axis**dim;
        # the key of c + offset is c @ radix plus the offset's key.
        self._radix = per_axis ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._offsets = offsets.astype(float)
        self._offset_keys = (offsets + half_count) @ self._radix
        # Sorted keys of the touched samples with each one's slot, ended by a
        # sentinel above every key so that a searchsorted position is valid.
        self._keys = np.array([np.iinfo(np.int64).max])
        self._slots = np.array([-1])
        self._points = np.empty((0, dim))
        self._values = np.empty((0, dim))

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def sampled(self) -> SampledMap:
        """The touched samples as a SampledMap with covering radius alpha/2."""
        return SampledMap(self._points, self._values, covering_radius=self.alpha / 2.0,
                          eps=getattr(self.f, "eps", None))

    def __len__(self) -> int:
        return self._points.shape[0]

    def near(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The samples strictly within alpha/2 of y, in ball_lattice order:
        their slots, points and tents alpha/2 - ||z - y||."""
        c = np.rint(y / self.spacing)
        k = c + self._offsets
        pts = k * self.spacing
        near_sphere = math.sqrt(y @ y) + self._reach > 1.0
        if near_sphere:  # geometry.ball_lattice on the candidates, row for row
            norms = np.sqrt((pts * pts).sum(axis=1))
            member = ((norms <= 1.0 + self._half_diag)
                      & (np.abs(k).max(axis=1) <= self._half_count))
            pts = pts / np.maximum(norms, 1.0)[:, None]
        d = pts - y
        tents = self._half_alpha - np.sqrt((d * d).sum(axis=1))
        if near_sphere:
            kept = np.flatnonzero((tents > 0.0) & member)
            kept = kept[np.argsort(norms[kept] > 1.0, kind="stable")]
        else:  # every candidate within alpha/2 of y is inside the ball
            kept = np.flatnonzero(tents > 0.0)
        pts = pts[kept]
        keys = self._offset_keys[kept] + int(c.astype(np.int64) @ self._radix)
        return self._touch(keys, pts), pts, tents[kept]

    def materialize(self) -> SampleGrid:
        """Touch every lattice point, in ball_lattice order; returns the grid."""
        axis = np.arange(-self._half_count, self._half_count + 1)
        k = cube_lattice(axis, self.dim)
        rows, pts = ball_lattice(k * self.spacing, self.spacing)
        self._touch((k[rows] + self._half_count) @ self._radix, pts)
        return self

    def _touch(self, keys: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Slots of the lattice points with the given (distinct) keys and
        sample points; f is evaluated in one batch at the new ones."""
        pos = np.searchsorted(self._keys, keys)
        found = self._keys[pos] == keys
        if found.all():
            return self._slots[pos]
        slots = np.empty(keys.shape[0], dtype=np.int64)
        slots[found] = self._slots[pos[found]]
        new = np.flatnonzero(~found)
        # SampledMap checks the values: shape, finite, inside the ball.
        fresh = SampledMap(pts[new], self.f.batch(pts[new]), covering_radius=self._half_alpha)
        slots[new] = np.arange(len(self), len(self) + new.size)
        self._points = np.concatenate([self._points, fresh.points])
        self._values = np.concatenate([self._values, fresh.values])
        order = np.argsort(keys[new])
        at = np.searchsorted(self._keys, keys[new][order])
        self._keys = np.insert(self._keys, at, keys[new][order])
        self._slots = np.insert(self._slots, at, slots[new][order])
        return slots


def _index_ball(dim: int, radius: float, bound: int) -> np.ndarray:
    """Integer vectors of norm <= radius and entries within +-bound, in
    row-major order; built axis by axis so no box of the full radius is
    materialized."""
    r = min(int(math.floor(radius)), bound)
    offsets = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dim):
        rows = np.repeat(offsets, 2 * r + 1, axis=0)
        last = np.tile(np.arange(-r, r + 1, dtype=np.int64), offsets.shape[0])
        offsets = np.concatenate([rows, last[:, None]], axis=1)
        offsets = offsets[(offsets * offsets).sum(axis=1) <= radius * radius]
    return offsets


@dataclass(frozen=True)
class EmbeddedPoint:
    """A point expressed in the nerve of the sample cover: support slots
    into the grid, their points, and the tent weights over them.  The
    support has diameter at most alpha (all members lie within alpha/2 of
    the embedded point), i.e. it spans a Rips simplex of VR(grid; alpha)."""

    support: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    @property
    def combination(self) -> ConvexCombination:
        return ConvexCombination(points=self.points, weights=self.weights)


@dataclass(frozen=True)
class FixedPointResult:
    """A point y with residual ||F(y) - y||; residual <= fp_tol on success."""

    y: np.ndarray
    residual: float
    evaluations: int = 0


@dataclass(frozen=True)
class RipsEdgeViolation:
    """An edge of the sample Rips complex whose image is too long."""

    i: int
    j: int
    domain_distance: float
    image_distance: float


@dataclass(frozen=True)
class CertificateTrace:
    """Where the certificate came from: the fixed point of the averaged map,
    its residual, and the index of the certified sample in the grid."""

    y: np.ndarray
    residual: float
    support_index: int


@dataclass(frozen=True)
class EpsFixedPointCertificate:
    """A sample z displaced by less than the requested bound, with the
    terms of the triangle-inequality chain that prove it:

        ||f(z) - z|| <= jung_term + residual + anchor_term
                     <= (eps+gamma)/R + fp_tol + alpha/2 < eps_prime.
    """

    z: np.ndarray
    fz: np.ndarray
    displacement: float
    bound: float
    trace: CertificateTrace
    jung_term: float = 0.0
    anchor_term: float = 0.0


def _min_feasible_alpha(dim: int, max_points: int) -> float:
    per_axis = max(2.0, max_points ** (1.0 / dim))
    spacing = 2.0 / (per_axis - 1.0)
    return spacing * math.sqrt(dim) / (1.0 - GRID_SAFETY)


def build_sample_grid(f, dim: int, alpha: float,
                      max_points: int = DEFAULT_GRID_BUDGET) -> SampleGrid:
    """The lazy sample grid of f fine enough that alpha/2-balls centered at
    the samples cover the unit ball.

    The samples are the ball lattice of the grid (geometry.ball_lattice),
    so the shell just outside the sphere is projected onto it and the
    covering bound holds.  The budget is checked up front against the whole
    cube; f is evaluated at most once per sample, when it is first touched.
    """
    spacing = alpha / math.sqrt(dim) * (1.0 - GRID_SAFETY)
    return SampleGrid(f, dim, alpha, spacing, max_points=max_points)


def embed(y, grid: SampleGrid) -> EmbeddedPoint:
    """Tent-weight embedding of y into the nerve of the sample cover.

    Support: samples strictly within alpha/2 of y.  Weights: the tents
    alpha/2 - ||z - y||, normalized to sum one; they vanish exactly where a
    sample leaves the support, so the embedding is continuous in y.
    """
    y = as_vector(y)
    if y.shape[0] != grid.dim:
        raise InvalidDimensionError(f"point of dimension {y.shape[0]} for a {grid.dim}-D grid")
    if float(np.linalg.norm(y)) > 1.0 + TOL_GEOM:
        raise DomainError("embedding is defined on the unit ball only")
    support, points, tents = grid.near(y)
    if support.size == 0:
        raise CoveringViolationError(
            f"no sample within {grid.alpha / 2.0} of {y}; the grid does not cover the ball")
    return EmbeddedPoint(support=support, points=points, weights=tents / tents.sum())


def simplicial_image_check(grid: SampleGrid, bound: float,
                           alpha: float | None = None) -> RipsEdgeViolation | None:
    """Verify every Rips edge of the sample set maps to a short segment.

    Materializes the grid and checks ||f(z) - f(z')|| <= bound for all
    samples with ||z - z'|| <= alpha; edges determine all Rips simplices,
    so this bounds every simplex image diameter.  Returns None on success,
    else the worst violating edge.  An oracle for the tests: the pipeline
    checks the one simplex it certifies, in extract_certificate.
    """
    alpha = grid.alpha if alpha is None else float(alpha)
    points, values = grid.materialize().points, grid.values
    pairs = cKDTree(points).query_pairs(alpha, output_type="ndarray")
    if pairs.shape[0] == 0:
        return None
    image_d = np.linalg.norm(values[pairs[:, 0]] - values[pairs[:, 1]], axis=1)
    worst = int(np.argmax(image_d))
    if float(image_d[worst]) <= bound:
        return None
    i, j = int(pairs[worst, 0]), int(pairs[worst, 1])
    return RipsEdgeViolation(
        i=i,
        j=j,
        domain_distance=float(np.linalg.norm(points[i] - points[j])),
        image_distance=float(image_d[worst]),
    )


def averaged_map_eval(y, grid: SampleGrid) -> np.ndarray:
    """The averaged pushforward F(y): embedding weights applied to the
    sampled values.  A convex combination of ball points, hence in the
    ball; continuous wherever the embedding is."""
    emb = embed(y, grid)
    return emb.weights @ grid.values[emb.support]


def _ball_grid_points(dim: int, per_axis: int, center: np.ndarray, span: float) -> np.ndarray:
    pts = center + cube_lattice(np.linspace(-span, span, per_axis), dim)
    norms = np.linalg.norm(pts, axis=1)
    outside = norms > 1.0
    pts[outside] /= norms[outside, None]
    return np.unique(pts, axis=0)


def find_fixed_point(F, dim: int, fp_tol: float = 1e-6,
                     max_evals: int = DEFAULT_EVAL_BUDGET,
                     seed: int = 0) -> FixedPointResult:
    """Locate y with ||F(y) - y|| <= fp_tol for a continuous self-map F of
    the ball.

    Strategy: damped iteration y <- y + t (F(y) - y) with residual
    backtracking on t, multistarted from a coarse ball grid, then a
    coarse-to-fine residual grid search around the best candidate with
    damped polishing at every level.  A zero-residual point exists, so
    refinement terminates; if the evaluation budget runs out first a
    NoConvergenceError carries the best point found (never a nonexistence
    claim).
    """
    if fp_tol <= 0:
        raise DomainError(f"fp_tol must be positive, got {fp_tol}")
    state = {"evals": 0, "best_y": None, "best_r": math.inf}

    def probe(y: np.ndarray) -> tuple[float, np.ndarray]:
        """One budgeted evaluation: residual norm and step direction."""
        if state["evals"] >= max_evals:
            raise NoConvergenceError(
                f"fixed-point search exhausted {max_evals} evaluations; "
                f"best residual {state['best_r']:.3g}",
                best_point=state["best_y"], best_residual=state["best_r"])
        state["evals"] += 1
        d = F(y) - y
        r = float(np.linalg.norm(d))
        if r < state["best_r"]:
            state["best_y"], state["best_r"] = y.copy(), r
        return r, d

    def damped(y: np.ndarray, max_steps: int = 120) -> None:
        t = 1.0
        for _ in range(max_steps):
            r, d = probe(y)
            if r <= fp_tol:
                return
            while t > 1e-7:
                cand = y + t * d  # convex combination: stays in the ball
                if probe(cand)[0] < r:
                    y = cand
                    t = min(1.0, 2.0 * t)
                    break
                t *= 0.5
            else:
                return  # no damping level makes progress from here

    starts = [np.zeros(dim)]
    starts += list(0.5 * np.eye(dim)) + list(-0.5 * np.eye(dim))
    starts += list(random_ball_points(np.random.default_rng(seed), dim, 6))

    for y0 in starts:
        damped(np.asarray(y0, dtype=float))
        if state["best_r"] <= fp_tol:
            return FixedPointResult(state["best_y"], state["best_r"], state["evals"])

    # Coarse global pass, then shrink around the running best.
    per_axis = 9 if dim <= 2 else 7
    for pt in _ball_grid_points(dim, per_axis, np.zeros(dim), 1.0):
        probe(pt)
    span = 2.0 / (per_axis - 1)
    while state["best_r"] > fp_tol and span > 1e-13:
        for pt in _ball_grid_points(dim, per_axis, state["best_y"], span):
            probe(pt)
        damped(state["best_y"])
        span *= 0.4
    if state["best_r"] > fp_tol:
        raise NoConvergenceError(
            f"fixed-point refinement stalled at residual {state['best_r']:.3g}",
            best_point=state["best_y"], best_residual=state["best_r"])
    return FixedPointResult(state["best_y"], state["best_r"], state["evals"])


def extract_certificate(fp: FixedPointResult, grid: SampleGrid,
                        params: PipelineParams) -> EpsFixedPointCertificate:
    """Turn a fixed point of the averaged map into a certified sample.

    Over the embedding support of y, picks the sample whose value is
    nearest to F(y); Jung's theorem bounds that distance by
    (eps+gamma)/R because the support image has diameter at most
    eps+gamma.  With ||F(y) - y|| <= fp_tol and the sample within alpha/2
    of y, the triangle inequality certifies the displacement.
    """
    if fp.residual > params.fp_tol:
        raise DomainError(
            f"residual {fp.residual} exceeds fp_tol={params.fp_tol}; not a usable fixed point")
    emb = embed(fp.y, grid)
    j, jung_term = jung_nearest(
        ConvexCombination(points=grid.values[emb.support], weights=emb.weights))
    if jung_term > params.jung_term_bound + TOL_GEOM:
        raise CertificateError(
            f"nearest support image at {jung_term}, above the Jung bound "
            f"{params.jung_term_bound}; alpha is too coarse for this map")
    i = int(emb.support[j])
    z = grid.points[i]
    fz = grid.values[i]
    anchor_term = float(np.linalg.norm(z - fp.y))
    displacement = float(np.linalg.norm(fz - z))
    if displacement > params.certificate_bound + TOL_GEOM:
        raise CertificateError(
            f"certified displacement {displacement} exceeds the chain bound "
            f"{params.certificate_bound}")
    return EpsFixedPointCertificate(
        z=z,
        fz=fz,
        displacement=displacement,
        bound=params.eps_prime,
        trace=CertificateTrace(y=fp.y, residual=fp.residual, support_index=i),
        jung_term=jung_term,
        anchor_term=anchor_term,
    )


@dataclass(frozen=True)
class PipelineRun:
    """Everything one pipeline invocation produced, for reporting and for
    independent re-verification of the certificate."""

    params: PipelineParams
    grid: SampleGrid
    fixed_point: FixedPointResult
    certificate: EpsFixedPointCertificate
    displacement_recheck: float


def run_pipeline(f, dim: int, eps: float, eps_prime: float,
                 fp_tol: float = 1e-6,
                 grid_budget: int = DEFAULT_GRID_BUDGET,
                 seed: int = 0) -> PipelineRun:
    """End-to-end certificate search for a map of discontinuity scale eps.

    Requires eps_prime > eps / jung_radius(dim) (below that bound extremal
    maps admit no certificate).  Picks gamma as half the available slack
    and alpha from eps so that the certificate chain arithmetic closes,
    then solves for a fixed point of the averaged map on the lazy grid.
    extract_certificate checks the Jung term on the support at that fixed
    point; while it fails alpha is halved, until the grid budget stops a
    map that is not eps-continuous.  The returned certificate's
    displacement is re-evaluated directly on f, not trusted from grid
    internals.
    """
    radius = _check_hypothesis(dim, eps, eps_prime)
    gamma = (radius * eps_prime - eps) / 2.0
    arithmetic_room = gamma / radius - fp_tol  # required: alpha/2 < this
    if arithmetic_room <= 0:
        raise DomainError(
            f"fp_tol={fp_tol} leaves no alpha satisfying the certificate chain; "
            f"reduce it below {gamma / radius}")
    alpha = float(eps)
    while alpha / 2.0 >= arithmetic_room:
        alpha /= 2.0
    while True:
        params = PipelineParams(dim=dim, eps=eps, eps_prime=eps_prime,
                                gamma=gamma, alpha=alpha, fp_tol=fp_tol)
        grid = build_sample_grid(f, dim, alpha, max_points=grid_budget)
        fixed_point = find_fixed_point(lambda y: averaged_map_eval(y, grid), dim,
                                       fp_tol=fp_tol, max_evals=DEFAULT_EVAL_BUDGET, seed=seed)
        try:
            certificate = extract_certificate(fixed_point, grid, params)
        except CertificateError:
            alpha /= 2.0  # not yet "sufficiently small"
            continue
        recheck = float(np.linalg.norm(
            as_vector(f(certificate.z)) - certificate.z))
        return PipelineRun(params=params, grid=grid, fixed_point=fixed_point,
                           certificate=certificate, displacement_recheck=recheck)
