"""Seeded input maps: quantized affine self-maps of the unit ball.

    f(x) = round(clip(c + g Q x) / delta) * delta

Q is a Haar-random orthogonal matrix, |c| <= 0.2, and clip projects
radially onto the ball of radius 1 - delta*sqrt(n)/2, so rounding to the
delta-lattice keeps every value inside the unit ball.  The continuous part
is g-Lipschitz and rounding moves each coordinate by at most delta/2, so
every small enough neighbourhood has an image of diameter at most
delta*sqrt(n): that is the declared eps.  Neighbourhoods of radius below
delta / (2 g) already meet that bound.
"""

from __future__ import annotations

import math

import numpy as np

C_MAX = 0.2


class QuantizedMap:
    """Exposes `dim`, `eps`, `batch` and `__call__`, like the built-in maps."""

    def __init__(self, q, c, gain: float, delta: float):
        self.q = np.asarray(q, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.gain = float(gain)
        self.delta = float(delta)
        self.dim = self.q.shape[0]
        self.eps = self.delta * math.sqrt(self.dim)
        self._radius = 1.0 - self.eps / 2.0

    def batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        u = self.c + self.gain * (xs @ self.q.T)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        u = u * np.minimum(1.0, self._radius / np.maximum(norms, np.finfo(float).tiny))
        return np.round(u / self.delta) * self.delta

    def __call__(self, x) -> np.ndarray:
        return self.batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]

    def continuity_radius(self) -> float:
        """A neighbourhood radius at which the declared eps already holds."""
        return self.delta / (2.0 * self.gain)


def random_orthogonal(rng: np.random.Generator, dim: int, det: float | None = None) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed),
    conditioned on its determinant when `det` is given."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if det is not None and np.linalg.det(q) * det < 0:
        q[:, 0] = -q[:, 0]
    return q


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of `count` equal slices of [0, 1), shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def quantized_maps(rng: np.random.Generator, count: int, dim: int, delta: float,
                   gain_low: float, gain_high: float) -> list[QuantizedMap]:
    """`count` maps with Haar Q, |c| <= C_MAX and gain in [gain_low, gain_high).

    The draws are stratified: gains and |c| are Latin-hypercube samples and
    half of the Q are rotations, the other half reflections.  Each map keeps
    the distribution of an independent draw, while the mix of easy and hard
    maps varies less from one seed to the next.
    """
    gains = gain_low + (gain_high - gain_low) * _strata(rng, count)
    radii = C_MAX * _strata(rng, count)
    dets = np.where(_strata(rng, count) < 0.5, 1.0, -1.0)
    out = []
    for gain, radius, det in zip(gains, radii, dets):
        q = random_orthogonal(rng, dim, det)
        direction = rng.standard_normal(dim)
        out.append(QuantizedMap(q, radius * direction / np.linalg.norm(direction), gain, delta))
    return out


def quantized_map(rng: np.random.Generator, dim: int, delta: float,
                  gain_low: float, gain_high: float) -> QuantizedMap:
    return quantized_maps(rng, 1, dim, delta, gain_low, gain_high)[0]


def jung_trial_sets(seed: int, dim: int, trials: int,
                    points_per_set: int = 10) -> list[np.ndarray]:
    """The point sets `oracle.jung_random_test(dim, trials, points_per_set,
    seed)` draws: the same stream of 1..points_per_set uniform ball points,
    with the combination weights drawn and dropped."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(trials):
        count = int(rng.integers(1, points_per_set + 1))
        gauss = rng.standard_normal((count, dim))
        gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
        sets.append(gauss * rng.random((count, 1)) ** (1.0 / dim))
        rng.exponential(size=count)
    return sets
