"""Merrill's restart algorithm on the Kuhn triangulation: exact fixed
points of the averaged map on the maps the damped iteration it replaced
stalled on, on degenerate maps, far from the start, and under a pivot
budget; and the direct solve of the grid's own Kuhn simplex that runs
before any path."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfix import pipeline
from ballfix.errors import NoConvergenceError, SolverError
from ballfix.geometry import jung_radius
from ballfix.maps import ConstantMap, ExtremalMap, IdentityMap
from ballfix.pipeline import (
    PipelineParams,
    _kuhn_fixed_point,
    _kuhn_simplex,
    averaged_map_eval,
    build_sample_grid,
    extract_certificate,
    find_fixed_point,
    run_pipeline,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.inputs import quantized_map, quantized_maps  # noqa: E402

# The certify-coarse pool of the benchmark: its seed, then 480 1-D maps and
# 240 2-D maps, drawn in that order.
POOL_SEED = 20251214
# The 2-D pool maps on which the damped iteration stalled above fp_tol.
STALLED = (51, 72, 81, 99, 111, 137, 148, 175, 198)


def coarse_pool():
    rng = np.random.default_rng(POOL_SEED)
    return {1: quantized_maps(rng, 480, 1, 0.2, 2.0, 4.0),
            2: quantized_maps(rng, 240, 2, 0.3, 2.0, 4.0)}


# Certificates recorded as hex floats by the numpy form of the grid, embed
# and the level starts; the list form must reproduce them bit for bit.
# `PYTHONPATH=src python tests/test_solver.py` rewrites them, for an output
# change recorded in docs/schemas.md only.
CERTIFICATES = Path(__file__).with_name("certificates.json")


def recorded_cases():
    """(name, map, dim, eps') of each recorded certificate: the five cases
    certify-fine certifies (its contraction drawn from seed 0), then every
    40th 1-D and every 20th 2-D map of the coarse pool, at eps' = 1.6 eps/R_n."""
    contraction = quantized_map(np.random.default_rng(0), 2, 0.1, 0.5, 0.9)
    for dim, eps_prime in ((2, 0.60), (2, 0.62), (3, 0.75), (3, 0.80)):
        yield f"extremal-{dim}d-{eps_prime:.2f}", ExtremalMap(dim=dim, eps=1.0), dim, eps_prime
    yield "quantized-2d-contraction", contraction, 2, contraction.eps / jung_radius(2) + 0.025
    for dim, pool in coarse_pool().items():
        for k in range(0, len(pool), len(pool) // 12):
            yield f"quantized-{dim}d-{k:03d}", pool[k], dim, 1.6 * pool[k].eps / jung_radius(dim)


def certificate_record(f, dim, eps_prime):
    run = run_pipeline(f, dim, f.eps, eps_prime)
    cert = run.certificate
    return {"z": [x.hex() for x in cert.z.tolist()],
            "y": [x.hex() for x in cert.trace.y.tolist()],
            "residual": cert.trace.residual.hex(),
            "support_index": cert.support_index,
            "pivots": cert.trace.pivots,
            "grid_points": len(run.grid)}


def test_certificates_match_the_recorded_bits():
    recorded = json.loads(CERTIFICATES.read_text())
    cases = list(recorded_cases())
    assert [name for name, *_ in cases] == list(recorded)
    for name, f, dim, eps_prime in cases:
        assert certificate_record(f, dim, eps_prime) == recorded[name], name


def neumaier_sum(xs):
    """The builtin sum of floats from Python 3.12 on: Neumaier's compensated
    sum, the compensation added at the end when nonzero and finite (equal
    to CPython 3.12.1's on every sum of the benchmark's certificates)."""
    total, compensation = 0.0, 0.0
    for x in xs:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_the_recorded_bits_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.10 and 3.11 add floats left to right, 3.12 compensates: the
    # pins must hold with either sum, so the solver adds left to right itself
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # a left-to-right sum gives 0.0
    monkeypatch.setattr(pipeline, "sum", neumaier_sum, raising=False)
    test_certificates_match_the_recorded_bits()


def certify(f, dim):
    """run_pipeline at eps' = 1.6 eps/R_n, with the residual and a fresh
    f(z) displacement checked."""
    eps_prime = 1.6 * f.eps / jung_radius(dim)
    run = run_pipeline(f, dim, f.eps, eps_prime)
    cert = run.certificate
    assert cert.trace.residual <= 1e-12
    assert float(np.linalg.norm(f(cert.z) - cert.z)) < eps_prime
    return run


def _paths(monkeypatch, direct=True):
    """The spacings, in grid cells, of the paths that run from here on;
    with direct=False the direct solve of the grid's Kuhn simplex finds
    nothing, so the paths must."""
    steps, path = [], pipeline._merrill_path

    def spy(grid, step, *args):
        steps.append(step)
        return path(grid, step, *args)

    monkeypatch.setattr(pipeline, "_merrill_path", spy)
    if not direct:
        monkeypatch.setattr(pipeline, "_kuhn_fixed_point", lambda grid, c: None)
    return steps


@pytest.mark.parametrize("index", STALLED)
def test_maps_the_damped_iteration_stalled_on_certify(monkeypatch, index):
    # on maps 51, 72 and 99 the direct solve alone certifies: the path must too
    paths = _paths(monkeypatch, direct=False)
    certify(coarse_pool()[2][index], 2)
    assert paths


def test_whole_coarse_pool_certifies():
    for dim, pool in coarse_pool().items():
        for f in pool:
            certify(f, dim)


def test_restart_schedule_certifies_the_fine_contraction_in_few_pivots():
    # certify-fine's quantized contraction over seeds 0-40, two of which
    # stalled under the damped iteration: quartering the spacing per level
    # takes at most 32 pivots here
    for seed in range(41):
        f = quantized_map(np.random.default_rng(seed), 2, 0.1, 0.5, 0.9)
        eps_prime = f.eps / jung_radius(2) + 0.025
        run = run_pipeline(f, 2, f.eps, eps_prime)
        assert run.certificate.trace.pivots <= 40, seed
        assert float(np.linalg.norm(f(run.certificate.z) - run.certificate.z)) < eps_prime, seed


@pytest.mark.parametrize("seed, count, dim, delta, index, margin", [
    (97, 100, 2, 0.1, 39, 1.6),
    (5044, 40, 3, 0.3, 25, 2.0),
    (5047, 40, 3, 0.4, 36, 1.3),
])
def test_lattice_aligned_values_end_the_path(monkeypatch, seed, count, dim, delta, index,
                                            margin):
    # Quantized values are lattice vertices on some level, so a path's zero
    # can reach time 1 on a facet that still has level-0 vertices, of
    # weight 0 up to rounding.  Waiting for a facet wholly at level 1
    # cycled on these maps; ending at time 1 certifies them in few pivots.
    # (The direct solve alone certifies seeds 5044 and 5047: it is off.)
    paths = _paths(monkeypatch, direct=False)
    f = quantized_maps(np.random.default_rng(seed), count, dim, delta, 2.0, 4.0)[index]
    eps_prime = margin * f.eps / jung_radius(dim)
    run = run_pipeline(f, dim, f.eps, eps_prime)
    assert run.certificate.trace.residual <= 1e-12
    assert run.certificate.trace.pivots <= 1000
    assert float(np.linalg.norm(f(run.certificate.z) - run.certificate.z)) < eps_prime
    assert paths


@pytest.mark.parametrize("seed, count, dim, delta", [
    (99, 600, 2, 0.3),
    (98, 150, 3, 0.4),
    (97, 100, 2, 0.1),
])
def test_stress_sets_certify(seed, count, dim, delta):
    # expansive quantized maps, many of them flat on their coarse levels
    for f in quantized_maps(np.random.default_rng(seed), count, dim, delta, 2.0, 4.0):
        run = certify(f, dim)
        assert run.certificate.trace.pivots <= 500


def _solve(f, dim, alpha, **kwargs):
    grid = build_sample_grid(f, dim, alpha)
    result = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid, **kwargs)
    return grid, result


@pytest.mark.parametrize("dim", range(1, 7))
def test_identity_terminates(dim):
    # every point of the ball is fixed: the labels are degenerate everywhere,
    # so the least ratio ties and the lexicographic rule picks the pivots
    grid = build_sample_grid(IdentityMap(dim), dim, 0.3, max_points=10**40)
    result = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid)
    assert result.residual <= 1e-12
    assert (result.pivots, len(grid)) == (2, 3 * dim + 1)
    np.testing.assert_allclose(averaged_map_eval(result.y, grid), result.y, atol=1e-12)
    run = run_pipeline(IdentityMap(dim), dim, 1.0, 0.9, grid_budget=10**40)
    assert run.certificate.displacement <= run.params.alpha / 2.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constant_map_on_a_lattice_vertex_terminates(dim):
    _, result = _solve(ConstantMap(np.zeros(dim)), dim, 0.3)
    assert result.residual <= 1e-12
    np.testing.assert_allclose(result.y, np.zeros(dim), atol=1e-12)
    run = run_pipeline(ConstantMap(np.zeros(dim)), dim, 1.0, 0.9)
    assert run.displacement_recheck <= run.params.alpha / 2.0


@pytest.mark.parametrize("dim, face", [
    (1, [0.5]),
    (2, [0.5, 0.0]),  # the middle of an axis edge
    (2, [0.5, 0.5]),  # the middle of a diagonal edge
    (3, [0.5, 0.5, 0.0]),
    (3, [2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),  # inside a triangle
])
def test_constant_map_on_a_kuhn_face_terminates(dim, face):
    alpha = 0.3
    value = alpha / math.sqrt(dim) / 2.0 * np.array(face)
    grid, result = _solve(ConstantMap(value), dim, alpha)
    assert result.residual <= 1e-12
    np.testing.assert_allclose(result.y, value, atol=1e-12)
    params = PipelineParams(dim=dim, eps=0.1, eps_prime=0.3, gamma=0.01, alpha=alpha,
                            fp_tol=1e-9)
    cert = extract_certificate(result, grid, params)
    np.testing.assert_allclose(cert.fz, value, atol=1e-15)


def test_a_pivot_budget_of_one_raises():
    # the fixed point is far from the start simplex, so a path must run
    with pytest.raises(NoConvergenceError) as err:
        _solve(ConstantMap((0.7, -0.5)), 2, 0.2, max_pivots=1)
    assert "1 pivots" in str(err.value)
    assert np.linalg.norm(err.value.best_point) <= 1.0
    assert err.value.best_residual >= 0.0


def test_a_singular_path_basis_raises(monkeypatch):
    # LAPACK reports an exactly zero pivot of the LU (info > 0): the direct
    # solve finds nothing, and the path names the singular basis
    monkeypatch.setattr(pipeline, "dgesv", lambda a, b: (None, None, np.zeros(np.shape(b)), 1))
    with pytest.raises(SolverError, match="singular basis at pivot 1 of a path"):
        _solve(ExtremalMap(dim=2, eps=1.0), 2, 0.1)


def test_a_new_path_vertex_costs_one_batch_call_of_one_row(monkeypatch):
    # the path evaluates no vertex ahead of itself: a vertex it enters costs
    # one batch call of one row if new and none if touched, and every row
    # evaluated is a new sample, so no vertex is evaluated twice
    m = ExtremalMap(dim=3, eps=1.0)
    batches, entered = [], []

    class Recording:
        dim, eps = m.dim, m.eps

        def batch(self, xs):
            batches.append(len(xs))
            return m.batch(xs)

        def __call__(self, x):
            return m(x)

    value = pipeline.SampleGrid.value

    def spy(grid, key):
        before = len(batches)
        row = value(grid, key)
        entered.append(batches[before:])
        return row

    monkeypatch.setattr(pipeline.SampleGrid, "value", spy)
    run = run_pipeline(Recording(), 3, 1.0, 0.75)
    assert [1] in entered and all(calls in ([], [1]) for calls in entered)
    assert sum(batches) == len(run.grid)


def test_the_fixed_point_needs_few_pivots_and_samples():
    # the path is short: tens of pivots and samples, not a search of the lattice
    grid, result = _solve(ExtremalMap(dim=3, eps=1.0), 3, 0.1)
    assert result.residual <= 1e-12
    assert result.pivots <= 50
    assert len(grid) <= 30


def test_restarts_keep_a_far_fixed_point_cheap():
    # the fixed point is about 240 cells of spacing 0.0035 from the start;
    # coarse to fine, each level takes a few pivots
    c = np.array([0.7, -0.5])
    grid, result = _solve(ConstantMap(c), 2, 0.01)
    assert grid.spacing * 240 < np.linalg.norm(c)
    np.testing.assert_allclose(result.y, c, atol=1e-12)
    assert result.pivots <= 60
    assert len(grid) <= 40


def test_a_path_ends_at_the_top_of_its_slab(monkeypatch):
    # At spacing h = 1.7e-7 the basis inverse has entries near 1/h, so the
    # weights of the last level's facet, wholly at level 1, sum to 1 - 2e-11.
    # The path must end there: pivoting on to a vertex at time 2 returned a
    # point 0.144 from its image.  (The start simplex holds the fixed point,
    # so the direct solve is off.)
    paths = _paths(monkeypatch, direct=False)
    grid = build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 2.0 ** -21, max_points=10**15)
    assert grid.spacing == pytest.approx(1.686e-7, rel=1e-3)
    result = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid)
    assert result.residual <= 1e-12
    assert result.pivots <= 120
    assert len(grid) <= 64
    assert paths[-1] == 1


def test_a_grid_whose_cube_overflows_int64_solves():
    # the cube of this 10-D grid has 255^10 (about 1.2e24) vertices, past
    # int64; lattice keys are Python ints, so a budget that large is usable
    grid = build_sample_grid(ExtremalMap(dim=10, eps=1.0), 10, 0.05, max_points=10**40)
    result = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid)
    assert result.residual <= 1e-12
    assert result.pivots <= 400
    assert len(grid) <= 400


def _levels(monkeypatch, f, dim, alpha, direct=True):
    """The spacings, in grid cells, of the levels find_fixed_point runs."""
    steps = _paths(monkeypatch, direct)
    _, result = _solve(f, dim, alpha)
    assert result.residual <= 1e-12
    return steps


class HoleMap:
    """v everywhere except strictly within r of v, where it is -v: the
    coarse levels see only v, the fine ones the hole around it."""

    def __init__(self, v, r):
        self.v, self.r = np.array(v, dtype=float), r
        self.dim, self.eps = len(v), 2.0 * float(np.linalg.norm(self.v))

    def batch(self, xs):
        inside = np.linalg.norm(np.asarray(xs, dtype=float) - self.v, axis=1) < self.r
        return np.where(inside[:, None], -self.v, self.v)

    def __call__(self, x):
        return self.batch(np.asarray(x, dtype=float)[None])[0]


def test_a_flat_level_drops_the_next_one(monkeypatch):
    # the coarse levels see only v, whose grid simplex lies in the hole, so
    # the direct solve at v fails; no level is dropped after the flat one,
    # and the spacing shrinks by 4 as on every level
    assert _levels(monkeypatch, HoleMap((0.31,), 0.1), 1, 1 / 256) == [256, 64, 16, 4, 1]


def test_a_flat_level_is_solved_directly_at_its_value(monkeypatch):
    # the first level ends on the one value, whose grid simplex holds the
    # fixed point: the direct solve there ends the schedule (128, 32, 8, 2, 1)
    assert _levels(monkeypatch, ConstantMap((0.31, -0.17)), 2, 0.01) == [128]


def test_without_the_direct_solve_flat_levels_drop_to_the_grid(monkeypatch):
    # every level ends on the one value: after each flat level the spacing
    # shrinks by 4, down to the grid's
    assert _levels(monkeypatch, ConstantMap((0.31, -0.17)), 2, 0.01,
                   direct=False) == [128, 32, 8, 2, 1]


def test_levels_that_are_not_flat_keep_the_schedule(monkeypatch):
    # the 2-D start simplex holds the fixed point, the 3-D one does not
    assert _levels(monkeypatch, ExtremalMap(dim=2, eps=1.0), 2, 1 / 64) == []
    assert _levels(monkeypatch, ExtremalMap(dim=3, eps=1.0), 3, 1 / 8) == [8, 2, 1]


def test_without_the_direct_solve_levels_keep_the_schedule(monkeypatch):
    assert _levels(monkeypatch, ExtremalMap(dim=2, eps=1.0), 2, 1 / 64,
                   direct=False) == [64, 16, 4, 1]


def test_a_hole_under_a_flat_level_costs_few_pivots():
    # every level after the flat one starts at v, the hole's centre;
    # jumping straight to the grid's spacing took 106 pivots here
    f, alpha = HoleMap((0.31,), 0.1), 1 / 256
    grid, result = _solve(f, 1, alpha)
    assert result.residual <= 1e-12
    assert result.pivots <= 25
    params = PipelineParams(dim=1, eps=f.eps, eps_prime=0.33, gamma=0.02, alpha=alpha,
                            fp_tol=1e-9)
    cert = extract_certificate(result, grid, params)
    assert float(np.linalg.norm(f(cert.z) - cert.z)) < params.eps_prime


def test_a_fixed_point_in_the_start_simplex_runs_no_path(monkeypatch):
    paths = _paths(monkeypatch)
    grid, result = _solve(ExtremalMap(dim=2, eps=1.0), 2, 1 / 64)
    assert paths == []
    assert result.pivots == 0
    assert len(grid) == 3
    assert result.residual <= 1e-12


@pytest.mark.parametrize("f", [
    # every value is its vertex: the system is singular (numpy's LinAlgError)
    *(IdentityMap(dim) for dim in range(1, 6)),
    ConstantMap((0.7, -0.5)),  # the fixed point is far: some lambda_k < 0
])
def test_a_start_simplex_without_a_fixed_point_falls_back_to_the_path(monkeypatch, f):
    grid = build_sample_grid(f, f.dim, 0.2, max_points=10**9)
    assert _kuhn_fixed_point(grid, [k * 1e-3 * grid.spacing for k in range(1, f.dim + 1)]) is None
    paths = _paths(monkeypatch)
    result = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid)
    assert paths
    assert result.residual <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 10),
       delta=st.sampled_from([0.02, 0.1, 0.3]), gain=st.floats(0.3, 4.0),
       alpha=st.sampled_from([0.3, 0.05, 0.01]),
       shift=st.lists(st.floats(-1.5, 1.5), min_size=10, max_size=10))
def test_a_direct_solution_is_a_fixed_point_in_the_simplex_of_c(seed, dim, delta, gain, alpha,
                                                                 shift):
    # start points within a cell or so of a fixed point of F, so that the
    # simplex of c often holds one
    f = quantized_map(np.random.default_rng(seed), dim, delta, gain, gain)
    grid = build_sample_grid(f, dim, alpha, max_points=10**40)
    s = grid.spacing
    c = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid).y + s * np.array(shift[:dim])
    c = (c / max(1.0, float(np.linalg.norm(c)))).tolist()
    y = _kuhn_fixed_point(grid, c)
    if y is None:
        return
    vertices, axes, _ = _kuhn_simplex([x / s for x in c])
    # y/s lies in the simplex: 1 >= g_(axes[0]) >= ... >= g_(axes[-1]) >= 0
    # for its offsets g from the base vertex
    g = [1.0] + [y[a] / s - vertices[0][a] for a in axes] + [0.0]
    assert all(a >= b - 1e-9 for a, b in zip(g, g[1:])), (c, y)
    assert float(np.linalg.norm(averaged_map_eval(y, grid) - np.array(y))) <= 1e-12


@pytest.mark.parametrize("f, tol", [
    *(pytest.param(ExtremalMap(dim=dim, eps=1.0), 1e-15, id=str(dim)) for dim in range(1, 11)),
    # fixed points on a face of their simplex: its weight of 0 solves to
    # about -1e-17, which must count as 0
    *(pytest.param(quantized_map(np.random.default_rng(1), dim, 0.1, 2.0, 4.0), 1.3e-15,
                   id=f"quantized-{dim}") for dim in (2, 5, 9)),
])
def test_the_simplex_of_a_fixed_point_solves_back_to_it(f, tol):
    # F is affine on the grid simplex holding its fixed point y, so the
    # direct solve there, an (n+1)x(n+1) system, returns y
    grid = build_sample_grid(f, f.dim, 0.05, max_points=10**40)
    y = find_fixed_point(lambda y: averaged_map_eval(y, grid), grid).y
    direct = _kuhn_fixed_point(grid, y.tolist())
    assert direct is not None
    assert np.abs(np.array(direct) - y).max() <= tol


if __name__ == "__main__":
    CERTIFICATES.write_text(json.dumps(
        {name: certificate_record(f, dim, eps_prime)
         for name, f, dim, eps_prime in recorded_cases()}, indent=1) + "\n")
