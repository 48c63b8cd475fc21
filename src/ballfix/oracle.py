"""Independent brute-force verification sweeps.

Everything here stays deliberately separate from the pipeline: exhaustive
displacement minima over clipped grids, grid-scale modulus estimates,
randomized nearest-support checks, and tightness reports comparing the
extremal construction against its theoretical bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .geometry import (
    TOL_GEOM,
    ball_lattice,
    check_dim,
    cube_lattice,
    jung_radius,
    pairwise_diameter,
    random_ball_points,
)
from .maps import ExtremalMap, neighborhood_diameter

DEFAULT_BUDGET = 10_000_000
_SET_SIZE = 10  # each Jung trial draws 1.._SET_SIZE points

__all__ = [
    "DEFAULT_BUDGET",
    "GridSpec",
    "JungCounterexample",
    "TightnessReport",
    "ball_grid",
    "displacement_rows",
    "iter_ball_grid",
    "jung_random_test",
    "min_displacement_grid",
    "modulus_grid",
    "tightness_report",
]


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
    def total_points(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def grid_step(self) -> float:
        return 2.0 / (self.points_per_axis - 1)


def iter_ball_grid(spec: GridSpec, budget: int = DEFAULT_BUDGET):
    """Yield the ball lattice of the grid in slabs of constant first
    coordinate, deterministic order; one slab at a time keeps memory at a
    slab's size."""
    if budget < 1:
        raise DomainError(f"grid budget must be at least 1, got {budget}")
    if spec.total_points > budget:
        raise BudgetExceededError(
            f"grid of {spec.points_per_axis}^{spec.dim} points exceeds the budget of {budget}",
            limit=budget, required=spec.total_points)
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


def ball_grid(spec: GridSpec, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Materialized grid (use the iterator for large sweeps)."""
    return np.concatenate(list(iter_ball_grid(spec, budget)), axis=0)


def displacement_rows(f, spec: GridSpec, budget: int = DEFAULT_BUDGET):
    """Yield each slab of the ball grid with ||x - f(x)|| for its rows."""
    for chunk in iter_ball_grid(spec, budget):
        yield chunk, np.linalg.norm(chunk - f.batch(chunk), axis=1)


def min_displacement_grid(f, spec: GridSpec,
                          budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of ||x - f(x)|| over the grid; first minimizer in
    scan order wins, so results are reproducible."""
    best_val = math.inf
    best_point = None
    for chunk, disp in displacement_rows(f, spec, budget):
        i = int(np.argmin(disp))
        if float(disp[i]) < best_val:
            best_val = float(disp[i])
            best_point = chunk[i].copy()
    return best_point, best_val


@dataclass(frozen=True)
class TightnessReport:
    """Grid-scale comparison of the extremal map's minimum displacement
    against its theoretical optimum eps / jung_radius(dim)."""

    dim: int
    eps: float
    points_per_axis: int
    grid_step: float
    min_displacement: float
    argmin: np.ndarray
    theoretical_bound: float
    gap: float


def tightness_report(dim: int, eps: float, points_per_axis: int = 201,
                     budget: int = DEFAULT_BUDGET) -> TightnessReport:
    """Sweep the extremal map and report how closely the grid minimum
    approaches eps / jung_radius(dim) from above."""
    spec = GridSpec(dim=dim, points_per_axis=points_per_axis)
    extremal = ExtremalMap(dim=dim, eps=eps)
    argmin, value = min_displacement_grid(extremal, spec, budget=budget)
    bound = eps / jung_radius(dim)
    return TightnessReport(
        dim=dim,
        eps=eps,
        points_per_axis=spec.points_per_axis,
        grid_step=spec.grid_step,
        min_displacement=value,
        argmin=argmin,
        theoretical_bound=bound,
        gap=value - bound,
    )


@dataclass(frozen=True)
class JungCounterexample:
    """A configuration violating the nearest-support bound (must never
    occur; any instance is a bug, not new mathematics)."""

    points: np.ndarray
    weights: np.ndarray
    combination_point: np.ndarray
    nearest_distance: float
    bound: float


def jung_random_test(dim: int, trials: int, seed: int = 0) -> JungCounterexample | None:
    """Randomized certification that every convex combination of a point set
    lies within diameter / jung_radius(dim) of some member.

    Returns None when all trials pass, else the first counterexample.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    radius = jung_radius(dim)
    for _ in range(trials):
        count = int(rng.integers(1, _SET_SIZE + 1))
        pts = random_ball_points(rng, dim, count)
        weights = rng.exponential(size=count)
        weights /= weights.sum()
        y = weights @ pts
        nearest = float(np.linalg.norm(pts - y, axis=1).min())
        bound = pairwise_diameter(pts) / radius
        if nearest > bound + TOL_GEOM:
            return JungCounterexample(points=pts, weights=weights, combination_point=y,
                                      nearest_distance=nearest, bound=bound)
    return None


def modulus_grid(f, r: float, spec: GridSpec, budget: int = DEFAULT_BUDGET) -> float:
    """Ball-based modulus estimate on the exhaustive grid: the largest image
    diameter over radius-r neighborhoods of grid points (see
    maps.neighborhood_diameter; the budget also caps the neighborhood scan).
    """
    if r <= spec.grid_step:
        raise DomainError(
            f"neighborhood radius {r} must exceed the grid step {spec.grid_step}")
    pts = ball_grid(spec, budget)
    return neighborhood_diameter(pts, f.batch(pts), r, budget)
