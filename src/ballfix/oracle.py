"""Independent brute-force verification sweeps.

Everything here stays deliberately separate from the pipeline: exhaustive
displacement minima over the ball grid (built in geometry, and its names
re-exported here), grid-scale modulus estimates, randomized
nearest-support checks, and tightness reports comparing the extremal
construction against its theoretical bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    DEFAULT_BUDGET,
    TOL_GEOM,
    GridSpec,
    ball_grid,
    iter_ball_grid,
    jung_radius,
    pairwise_diameter,
    random_ball_points,
)
from .maps import ExtremalMap, neighborhood_diameter

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
    return TightnessReport(
        dim=dim,
        eps=eps,
        points_per_axis=spec.points_per_axis,
        grid_step=spec.grid_step,
        min_displacement=value,
        argmin=argmin,
        theoretical_bound=extremal.scale,
        gap=value - extremal.scale,
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


def modulus_grid(f, r: float, spec: GridSpec) -> float:
    """Ball-based modulus estimate on the exhaustive grid: the largest image
    diameter over radius-r neighborhoods of grid points (see
    maps.neighborhood_diameter, whose scan the default grid budget caps).
    """
    if r <= spec.grid_step:
        raise DomainError(
            f"neighborhood radius {r} must exceed the grid step {spec.grid_step}")
    pts = ball_grid(spec)
    return neighborhood_diameter(pts, f.batch(pts), r)
