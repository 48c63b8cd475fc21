import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ballfix import maps, pipeline
from ballfix.errors import (
    BudgetExceededError,
    DomainError,
    HypothesisError,
    InvalidDimensionError,
    NoConvergenceError,
    SolverError,
)
from ballfix.geometry import TOL_GEOM, TOL_WEIGHTS, jung_radius, random_ball_points
from ballfix.maps import ConstantMap, ExtremalMap, IdentityMap, StepMap1D
from ballfix.pipeline import (
    PipelineParams,
    SampleGrid,
    averaged_map_eval,
    build_sample_grid,
    embed,
    extract_certificate,
    find_fixed_point,
    run_pipeline,
    simplicial_image_check,
)


class BigJumpMap:
    """Jump of size `gap` across the hyperplane x0 = 0."""

    def __init__(self, gap):
        self.left = np.array([gap / 2.0, 0.0])
        self.right = np.array([-gap / 2.0, 0.0])

    def __call__(self, x):
        return self.left if x[0] <= 0 else self.right

    def batch(self, xs):
        return np.where((xs[:, 0] <= 0)[:, None], self.left, self.right)


# --- parameters ---------------------------------------------------------------


def test_pipeline_params_validation():
    good = PipelineParams(dim=1, eps=1.0, eps_prime=0.55, gamma=0.05,
                          alpha=0.02, fp_tol=1e-6)
    assert good.jung_term_bound == pytest.approx(1.05 / 2.0)
    with pytest.raises(HypothesisError):
        PipelineParams(dim=1, eps=1.0, eps_prime=0.5, gamma=0.01, alpha=0.01, fp_tol=1e-6)
    with pytest.raises(DomainError):  # gamma above the slack R*eps' - eps
        PipelineParams(dim=1, eps=1.0, eps_prime=0.55, gamma=0.2, alpha=0.01, fp_tol=1e-6)
    with pytest.raises(DomainError):  # alpha too large for the chain
        PipelineParams(dim=1, eps=1.0, eps_prime=0.55, gamma=0.05, alpha=0.2, fp_tol=1e-6)
    with pytest.raises(DomainError):
        PipelineParams(dim=1, eps=3.0, eps_prime=1.6, gamma=0.05, alpha=0.01, fp_tol=1e-6)


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)


def test_a_run_checks_its_hypothesis_and_computes_r_once(monkeypatch):
    # PipelineParams.derive checks the hypothesis and keeps R, once per
    # scale; the chain, the Jung bound and the run's own params read it, and
    # the extremal map's batches read the image it computed at construction
    PipelineParams.derive.cache_clear()
    f = ExtremalMap(dim=3, eps=1.0)
    calls = {}
    _counting(monkeypatch, pipeline, "jung_radius", calls)
    _counting(monkeypatch, pipeline, "_check_hypothesis", calls)
    _counting(monkeypatch, maps, "jung_radius", calls)
    run = run_pipeline(f, 3, 1.0, 0.75)
    assert run.displacement_recheck < 0.75
    assert calls == {"jung_radius": 1, "_check_hypothesis": 1}
    assert run.params.radius == jung_radius(3)
    assert sorted(dataclasses.asdict(run.params)) == [
        "alpha", "dim", "eps", "eps_prime", "fp_tol", "gamma"]
    calls.clear()
    again = run_pipeline(f, 3, 1.0, 0.75)  # the same scale: derived already
    assert calls == {} and again.params is run.params
    assert again.certificate.z.tolist() == run.certificate.z.tolist()
    run_pipeline(f, 3, 1.0, 0.8)  # a new scale
    assert calls == {"jung_radius": 1, "_check_hypothesis": 1}


def test_derived_params_keep_their_callers_types():
    # the memo keys on types as well as values: 1 == 1.0, but an int eps
    # reports as an int
    PipelineParams.derive.cache_clear()
    for first, second in ((1, 1.0), (1.0, 1), (np.float64(1.0), 1.0)):
        for eps in (first, second, first):
            params = PipelineParams.derive(1, eps, 0.6)
            assert type(dataclasses.asdict(params)["eps"]) is type(eps)
            assert params.alpha == PipelineParams.derive(1, 1.0, 0.6).alpha


@pytest.mark.parametrize("args, error, message", [
    ((1, 1.0, 0.5), HypothesisError, "must exceed eps/jung_radius"),
    ((1, 1.0, 1e308), DomainError, "overflows the slack"),
    ((1, 3.0, 2.0), DomainError, "discontinuity scale must lie in"),
    ((0, 1.0, 0.6), InvalidDimensionError, "dimension must be a positive integer"),
    ((2, 1.0, 1.0 / math.sqrt(3.0) + 1e-17), HypothesisError, "must exceed"),
])
def test_an_invalid_scale_raises_the_same_error_on_every_call(monkeypatch, args, error,
                                                               message):
    # errors are not memoized: each call checks the hypothesis afresh
    PipelineParams.derive.cache_clear()
    calls = {}
    _counting(monkeypatch, pipeline, "_check_hypothesis", calls)
    raised = []
    for _ in range(3):
        with pytest.raises(error, match=message) as exc:
            PipelineParams.derive(*args)
        raised.append((type(exc.value), str(exc.value)))
    assert raised == raised[:1] * 3
    assert calls == {"_check_hypothesis": 3}
    assert PipelineParams.derive.cache_info().currsize == 0


def test_the_memo_of_scales_is_bounded():
    PipelineParams.derive.cache_clear()
    bound = PipelineParams.derive.cache_info().maxsize
    for k in range(bound + 10):
        PipelineParams.derive(1, 1.0, 0.6 + k * 1e-3)
    assert PipelineParams.derive.cache_info().currsize == bound


class SteepMap1D:
    """x -> c - slope (x - c), clipped to [-1, 1]: continuous, with its
    fixed point c off the lattice."""

    dim = 1

    def __init__(self, slope, c):
        self.slope, self.c = slope, c

    def batch(self, xs):
        return np.clip(self.c - self.slope * (xs - self.c), -1.0, 1.0)

    def __call__(self, x):
        return self.batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


def test_the_jung_retry_halves_alpha_exactly_and_keeps_gamma_and_fp_tol():
    # at slope 40 a simplex of the first two alphas maps wider than eps + gamma
    first = PipelineParams.derive(1, 0.1, 0.06)
    run = run_pipeline(SteepMap1D(40.0, 0.3141592), 1, 0.1, 0.06)
    assert run.params == dataclasses.replace(first, alpha=first.alpha / 4.0)
    assert run.params.radius == first.radius
    assert run.displacement_recheck < 0.06


def test_a_jung_retry_never_comes_back_from_the_memo():
    # the halved params of a retry belong to that run: the next run at the
    # scale starts again from the derived alpha and halves it again
    PipelineParams.derive.cache_clear()
    first = PipelineParams.derive(1, 0.1, 0.06)
    runs = [run_pipeline(SteepMap1D(40.0, 0.3141592), 1, 0.1, 0.06) for _ in range(2)]
    assert PipelineParams.derive(1, 0.1, 0.06) is first
    assert first.alpha == runs[0].params.alpha * 4.0
    assert runs[0].params == runs[1].params and runs[0].params is not runs[1].params
    assert runs[0].certificate.z.tolist() == runs[1].certificate.z.tolist()
    assert PipelineParams.derive.cache_info().currsize == 1


def test_the_retry_params_are_those_built_directly():
    params = PipelineParams.derive(2, 1.0, 0.62)
    half = params.with_half_alpha()
    assert half == PipelineParams(2, 1.0, 0.62, params.gamma, params.alpha / 2.0, params.fp_tol)
    assert half.certificate_bound < params.certificate_bound < 0.62
    tiny = dataclasses.replace(params, alpha=math.ulp(0.0))
    with pytest.raises(DomainError, match="alpha and fp_tol must be positive"):
        tiny.with_half_alpha()  # alpha underflows to 0


def test_derived_params_equal_the_same_params_built_directly():
    for dim, eps, eps_prime in ((1, 1.0, 0.55), (3, 0.5, 0.35),
                                (8, 1.0, 1.0 / jung_radius(8) + 1e-12)):
        params = PipelineParams.derive(dim, eps, eps_prime)
        direct = PipelineParams(**dataclasses.asdict(params))
        assert direct == params and direct.radius == params.radius
        assert direct.certificate_bound == params.certificate_bound < eps_prime
        assert params.jung_term_bound == (eps + params.gamma) / jung_radius(dim)


def test_an_eps_prime_whose_slack_overflows_is_a_domain_error():
    # R * 1e308 overflows in 1-D, where the alpha loop once ran forever
    with pytest.raises(DomainError, match="overflows the slack"):
        PipelineParams.derive(1, 1.0, 1e308)
    assert PipelineParams.derive(1, 1.0, 8e307).alpha == 1.0


# --- sample grids ---------------------------------------------------------------


def test_build_sample_grid_interval_cover():
    grid = build_sample_grid(StepMap1D(1.0), 1, 0.2).materialize()
    assert grid.spacing <= 0.1
    xs = np.sort(grid.points[:, 0])
    assert xs[0] <= -1.0 + 0.1 and xs[-1] >= 1.0 - 0.1
    assert np.max(np.diff(xs)) <= 0.1 + 1e-12
    assert _covering_probe(grid.points, 2000) <= 0.1


def _covering_probe(points, probes):
    """Max distance from `probes` uniform ball points (seed 0) to `points`."""
    probe_points = random_ball_points(np.random.default_rng(0), points.shape[1], probes)
    return float(cKDTree(points).query(probe_points)[0].max())


def test_build_sample_grid_planar_cover_probe():
    grid = build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.2).materialize()
    assert _covering_probe(grid.points, 1000) <= 0.1
    # boundary ring present: some samples sit on the sphere
    norms = np.linalg.norm(grid.points, axis=1)
    assert np.isclose(norms.max(), 1.0, atol=1e-12)


def test_build_sample_grid_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 1e-6)
    assert err.value.required > err.value.limit == 2_000_000
    # lattice keys are Python ints: a budget past int64 builds the grid
    assert len(build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.5, max_points=2**63)) == 0
    for budget in (0, -5):  # a negative budget once took a complex root here
        with pytest.raises(DomainError, match="grid budget must be at least 1"):
            build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.5, max_points=budget)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_sample_grid_rejects_a_non_finite_alpha(alpha):
    # nan once escaped as a bare ValueError from int(), and inf built a
    # grid of infinite spacing
    with pytest.raises(DomainError, match=f"alpha must be positive and finite, got {alpha}"):
        build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, alpha)


@pytest.mark.parametrize("eps, eps_prime, budget", [
    (5e-324, 8e307, 2_000_000),  # the spacing rounds to 0: a ZeroDivisionError
    (1e-320, 0.5, 10**1000),  # 1/spacing overflows: an OverflowError from int()
], ids=["spacing-0", "spacing-5e-321"])
def test_a_subnormal_alpha_is_a_budget_error(eps, eps_prime, budget):
    # no budget holds a lattice finer than a normal double resolves
    with pytest.raises(BudgetExceededError, match="below double precision at any budget") as err:
        run_pipeline(StepMap1D(eps), 1, eps, eps_prime, grid_budget=budget)
    assert err.value.limit == budget
    assert len(build_sample_grid(StepMap1D(1.0), 1, 2.0 ** -1021, max_points=10**400)) == 0


def test_run_pipeline_rejects_a_nan_grid_budget():
    # both budget tests were false for NaN, so the run went ahead unbudgeted
    with pytest.raises(DomainError, match="grid budget must be at least 1, got nan"):
        run_pipeline(ExtremalMap(dim=2, eps=1.0), 2, 1.0, 0.62, grid_budget=math.nan)


def test_sample_grid_over_budget_shares_the_oracle_grid_message():
    # per axis 2 * ceil(2 sqrt(2) / 0.5) + 1 = 13 vertices
    with pytest.raises(BudgetExceededError) as err:
        build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.5, max_points=168)
    assert str(err.value) == "grid for alpha=0.5 of 13^2 points exceeds the budget of 168"
    assert (err.value.limit, err.value.required) == (168, 169)
    assert len(build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.5, max_points=169)) == 0


# --- embedding -----------------------------------------------------------------


def _coarse_grid(alpha):
    # identity samples on the Kuhn lattice of spacing alpha/(2 sqrt(2))
    return SampleGrid(IdentityMap(2), 2, alpha)


def test_embed_singleton_support():
    grid = _coarse_grid(alpha=0.2)
    emb = embed(grid.spacing * np.array([-3.0, 0.0]), grid)  # a lattice vertex
    assert list(emb.support) == [0]
    np.testing.assert_allclose(emb.combination.weights, [1.0])


def test_embed_symmetric_pair_weights():
    # y halfway along a lattice edge: its two ends, weighted equally
    grid = _coarse_grid(alpha=0.4)
    emb = embed(grid.spacing * np.array([0.5, 0.0]), grid)
    assert sorted(emb.support) == [0, 1]
    np.testing.assert_allclose(emb.combination.weights, [0.5, 0.5], atol=TOL_WEIGHTS)


def test_embed_covers_every_point_of_the_ball():
    # the Kuhn simplices tile space: no point, on the sphere included, is
    # left without support, however coarse the lattice
    grid = _coarse_grid(alpha=0.8)
    rng = np.random.default_rng(4)
    probes = random_ball_points(rng, 2, 200)
    probes = np.concatenate([probes, probes / np.linalg.norm(probes, axis=1, keepdims=True),
                             [[0.15, 0.15], [0.0, 0.9]]])
    for y in probes:
        emb = embed(y, grid)
        assert emb.support.size >= 1
        assert np.linalg.norm(grid.points[emb.support] - y, axis=1).max() < grid.alpha / 2.0


def test_embed_keeps_the_last_embedding():
    # the certificate reuses the embedding the residual's F(y) computed
    grid = _coarse_grid(alpha=0.2)
    y = np.array([0.13, -0.21])
    first = embed(y, grid)
    assert embed(y, grid) is first
    assert embed(y.tolist(), grid) is first
    other = embed(np.array([0.2, 0.1]), grid)
    assert other is not first
    again = embed(y, grid)
    assert again is not first
    np.testing.assert_array_equal(again.support, first.support)
    np.testing.assert_array_equal(again.weights, first.weights)


def test_embed_rejects_outside_ball():
    grid = _coarse_grid(alpha=0.2)
    with pytest.raises(DomainError):
        embed(np.array([1.2, 0.0]), grid)


def test_embed_rejects_wrong_dimension():
    with pytest.raises(InvalidDimensionError):
        embed(np.zeros(1), _coarse_grid(alpha=0.2))


# Each bad point, the error that as_vector and check_in_ball raise for it
# and its message, on a 2-D grid: embed runs those checks only off its
# fast path, and must raise the same.
_BAD_POINTS = {
    "nan": ([math.nan, 0.0], ValueError, "vector coordinates must be finite"),
    "inf": ([0.0, -math.inf], ValueError, "vector coordinates must be finite"),
    "nan-and-3d": ([math.nan, 0.0, 0.0], ValueError, "vector coordinates must be finite"),
    "norm-1+2e-9": ([1.0 + 2e-9, 0.0], DomainError,
                    "embedded point of norm 1.000000002 lies outside the unit ball"),
    "3d": ([0.1, 0.2, 0.3], InvalidDimensionError, "point of dimension 3 for a 2-D grid"),
    "row": ([[0.1, 0.2]], InvalidDimensionError, "expected a 1-D vector, got shape (1, 2)"),
    "empty": ([], InvalidDimensionError, "expected a 1-D vector, got shape (0,)"),
}


@pytest.mark.parametrize("evaluate", [embed, averaged_map_eval])
@pytest.mark.parametrize("name", _BAD_POINTS)
def test_embed_raises_the_checks_errors_and_samples_nothing(evaluate, name):
    point, error, message = _BAD_POINTS[name]
    grid = _coarse_grid(alpha=0.2)
    for y in (np.array(point), point):
        with pytest.raises(error) as exc:
            evaluate(y, grid)
        assert type(exc.value) is error and str(exc.value) == message
    assert len(grid) == 0


def test_embed_takes_a_point_just_outside_the_sphere_within_tol_geom():
    # norm 1 + TOL_GEOM/2: past the fast path's norm 1, within check_in_ball's bound
    grid = _coarse_grid(alpha=0.2)
    y = np.array([0.0, 1.0 + TOL_GEOM / 2.0])
    emb = embed(y, grid)
    assert emb.weights.sum() == pytest.approx(1.0)
    assert embed(y.tolist(), grid) is emb
    np.testing.assert_allclose(averaged_map_eval(y, grid), y, atol=grid.alpha)


def test_embed_weights_and_support_on_random_probes():
    grid = build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.25)
    rng = np.random.default_rng(11)
    for y in random_ball_points(rng, 2, 500):
        emb = embed(y, grid)
        w = emb.combination.weights
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= TOL_WEIGHTS
        assert emb.combination.support_diameter() <= grid.alpha + TOL_GEOM
        support_d = np.linalg.norm(grid.points[emb.support] - y, axis=1)
        assert support_d.max() < grid.alpha / 2.0


def test_embed_weights_vary_continuously():
    # sweep a segment crossing a cell wall (where support membership churns):
    # per-step weight jumps stay small at step 1e-6
    ex = ExtremalMap(dim=2, eps=1.0)
    grid = build_sample_grid(ex, 2, 0.2)
    v = ex.vertices.points
    wall = v[0] + v[1]
    wall /= np.linalg.norm(wall)
    perp = np.array([-wall[1], wall[0]])
    step = 1e-6
    base = 0.5 * wall - 200 * step * perp
    prev = None
    max_jump = 0.0
    for k in range(401):
        emb = embed(base + k * step * perp, grid)
        weights = dict(zip(emb.support.tolist(), emb.combination.weights.tolist()))
        if prev is not None:
            keys = set(weights) | set(prev)
            max_jump = max(max_jump,
                           max(abs(weights.get(i, 0.0) - prev.get(i, 0.0)) for i in keys))
        prev = weights
    assert max_jump <= 1e-4


# --- simplicial image check -----------------------------------------------------


def test_simplicial_check_constant_passes():
    grid = build_sample_grid(ConstantMap(np.array([0.1, 0.2])), 2, 0.3)
    assert simplicial_image_check(grid, bound=1e-12) is None


def test_simplicial_check_extremal_passes_any_alpha():
    # any two extremal image points are exactly eps apart, so the check
    # passes at bound eps + gamma no matter how walls meet the grid
    ex = ExtremalMap(dim=2, eps=1.0)
    for alpha in (0.4, 0.2, 0.1):
        grid = build_sample_grid(ex, 2, alpha)
        assert simplicial_image_check(grid, bound=1.05) is None


def test_simplicial_check_witnesses_oversized_jump():
    gap = 1.1  # exceeds bound eps + 2*gamma = 1.05
    grid = build_sample_grid(BigJumpMap(gap), 2, 0.2)
    witness = simplicial_image_check(grid, bound=1.05)
    assert witness is not None
    assert witness.image_distance == pytest.approx(gap, abs=TOL_GEOM)
    assert witness.domain_distance <= grid.alpha
    # the violating edge straddles the jump hyperplane
    assert grid.points[witness.i][0] * grid.points[witness.j][0] <= 0


def test_simplicial_check_shrinking_alpha_keeps_pass():
    for alpha in (0.2, 0.1, 0.05):
        grid = build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, alpha)
        assert simplicial_image_check(grid, bound=1.05) is None


# --- averaged map ----------------------------------------------------------------


def test_averaged_map_constant():
    c = np.array([0.25, -0.1])
    grid = build_sample_grid(ConstantMap(c), 2, 0.3)
    rng = np.random.default_rng(5)
    for y in random_ball_points(rng, 2, 50):
        np.testing.assert_allclose(averaged_map_eval(y, grid), c, atol=TOL_GEOM)


def test_averaged_map_singleton_support_returns_sample_value():
    grid = _coarse_grid(alpha=0.2)
    vertex = grid.spacing * np.array([-3.0, 0.0])
    np.testing.assert_allclose(averaged_map_eval(vertex, grid), vertex, atol=1e-15)


def test_averaged_identity_stays_close():
    grid = build_sample_grid(IdentityMap(2), 2, 0.2)
    rng = np.random.default_rng(6)
    for y in random_ball_points(rng, 2, 200):
        out = averaged_map_eval(y, grid)
        assert np.linalg.norm(out - y) <= grid.alpha / 2.0 + TOL_GEOM


def test_averaged_map_output_in_ball():
    grid = build_sample_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.2)
    rng = np.random.default_rng(7)
    for y in random_ball_points(rng, 2, 300):
        assert np.linalg.norm(averaged_map_eval(y, grid)) <= 1.0 + TOL_GEOM


# --- fixed-point search -----------------------------------------------------------


class NegationMap:
    dim = 1

    def batch(self, xs):
        return -xs


def _solve(f, dim, alpha, **kwargs):
    grid = build_sample_grid(f, dim, alpha)
    return grid, find_fixed_point(lambda y: averaged_map_eval(y, grid), grid, **kwargs)


def test_find_fixed_point_constant():
    c = np.array([0.3, -0.2])
    _, result = _solve(ConstantMap(c), 2, 0.3)
    np.testing.assert_allclose(result.y, c, atol=1e-12)
    assert result.residual <= 1e-12


def test_find_fixed_point_negation():
    _, result = _solve(NegationMap(), 1, 0.3)
    np.testing.assert_allclose(result.y, [0.0], atol=1e-12)
    assert result.residual <= 1e-12


def test_find_fixed_point_averaged_extremal():
    grid, result = _solve(ExtremalMap(dim=2, eps=1.0), 2, 0.05)
    assert result.residual <= 1e-12
    # the near-fixed region of the averaged extremal map hugs the origin
    assert np.linalg.norm(result.y) <= 0.05
    np.testing.assert_allclose(averaged_map_eval(result.y, grid), result.y, atol=1e-12)


def test_find_fixed_point_budget_error():
    # the fixed point is far from the start simplex, so a path must run
    with pytest.raises(NoConvergenceError) as err:
        _solve(ConstantMap(np.array([0.7, -0.5])), 2, 0.05, max_pivots=1)
    assert err.value.best_residual is not None
    assert err.value.best_point.shape == (2,)


# --- certificates ------------------------------------------------------------------


def test_extract_certificate_constant_map():
    c = np.array([0.2, 0.1])
    params = PipelineParams(dim=2, eps=1.0, eps_prime=0.7, gamma=0.1,
                            alpha=0.05, fp_tol=1e-9)
    grid, fp = _solve(ConstantMap(c), 2, params.alpha)
    cert = extract_certificate(fp, grid, params)
    assert cert.displacement <= params.alpha / 2.0 + params.fp_tol + TOL_GEOM
    np.testing.assert_allclose(cert.fz, c, atol=TOL_GEOM)


def test_extract_certificate_requires_converged_residual():
    # a residual above fp_tol is the solver's fault, not a validation error
    params = PipelineParams(dim=2, eps=1.0, eps_prime=0.7, gamma=0.1,
                            alpha=0.05, fp_tol=1e-9)
    grid = build_sample_grid(ConstantMap(np.zeros(2)), 2, params.alpha)
    from ballfix.pipeline import FixedPointResult

    with pytest.raises(SolverError, match="exceeds fp_tol") as err:
        extract_certificate(FixedPointResult(np.zeros(2), residual=1.0), grid, params)
    assert not isinstance(err.value, ValueError)
    assert len(grid) == 0


def test_step_map_certificate_matches_analysis():
    # the step map's displacement dips to eps/2 near the origin; a tight
    # eps_prime pins the certificate there
    run = run_pipeline(StepMap1D(1.0), 1, 1.0, 0.52)
    cert = run.certificate
    assert cert.displacement == pytest.approx(0.5, abs=0.02)
    assert abs(cert.z[0]) <= run.params.alpha
    assert run.displacement_recheck < 0.52


def test_run_pipeline_hypothesis_error():
    with pytest.raises(HypothesisError):
        run_pipeline(StepMap1D(1.0), 1, 1.0, 0.49)
    with pytest.raises(HypothesisError):
        run_pipeline(ExtremalMap(dim=2, eps=1.0), 2, 1.0, 1.0 / math.sqrt(3.0))


@pytest.mark.parametrize("eps_prime", [math.nan, math.inf])
def test_run_pipeline_rejects_a_non_finite_eps_prime(eps_prime):
    # a validation error, not a hypothesis one: a non-finite eps' has no
    # gap above eps/R_n to measure
    with pytest.raises(DomainError, match="eps_prime must be finite") as exc:
        run_pipeline(ExtremalMap(dim=2, eps=1.0), 2, 1.0, eps_prime)
    assert not isinstance(exc.value, HypothesisError)


def test_run_pipeline_constant_map():
    run = run_pipeline(ConstantMap(np.array([0.3, 0.0])), 2, 1.0, 0.9)
    assert run.displacement_recheck <= run.params.alpha / 2.0 + 1e-9


@pytest.mark.parametrize("value", [[1.0, 0.0], [0.6, 0.8]])
def test_run_pipeline_certifies_a_fixed_point_on_the_sphere(value):
    # the solver's start at the fixed point lies beyond 1 - 1e-9 and is
    # scaled back into the ball
    run = run_pipeline(ConstantMap(np.array(value)), 2, 1.0, 0.9)
    assert run.displacement_recheck <= run.params.alpha / 2.0


class CallReturns:
    """The constant map of (0.1, 0.2) in batch, whose __call__ (the
    pipeline's recheck of f(z)) returns `value` instead."""

    dim, eps = 2, 1.0

    def __init__(self, value):
        self.value = value

    def batch(self, xs):
        return np.tile([0.1, 0.2], (len(xs), 1))

    def __call__(self, x):
        return self.value


def _dist_error() -> str:
    with pytest.raises(ValueError) as exc:
        math.dist([0.0, 0.0, 0.0], [0.0, 0.0])
    return str(exc.value)


@pytest.mark.parametrize("value, error, message", [
    (np.array([math.nan, 0.2]), ValueError, "vector coordinates must be finite"),
    (np.array([0.1, math.inf]), ValueError, "vector coordinates must be finite"),
    (np.array([math.nan, 0.2, 0.0]), ValueError, "vector coordinates must be finite"),
    (np.array([[0.1, 0.2]]), InvalidDimensionError, "expected a 1-D vector, got shape (1, 2)"),
    (np.array([0.1, 0.2, 0.0]), ValueError, None),
    ([0.1, 0.2, 0.0], ValueError, None),
], ids=["nan", "inf", "nan-and-3d", "row", "3d", "3d-list"])
def test_a_recheck_of_f_z_that_is_no_finite_point_raises(value, error, message):
    with pytest.raises(error) as exc:
        run_pipeline(CallReturns(value), 2, 1.0, 0.8)
    assert type(exc.value) is error
    assert str(exc.value) == (_dist_error() if message is None else message)


@pytest.mark.parametrize("value", [np.array([0.1, 0.2]), [0.1, 0.2], (0.1, 0.2),
                                   np.array([0.1, 0.2], dtype=np.float32)])
def test_the_recheck_reads_f_z_as_as_vector_does(value):
    run = run_pipeline(CallReturns(value), 2, 1.0, 0.8)
    z = run.certificate.z.tolist()
    fz = np.asarray(value, dtype=float).tolist()
    assert run.displacement_recheck == math.dist(fz, z)


def test_run_pipeline_certificate_chain_terms():
    run = run_pipeline(StepMap1D(1.0), 1, 1.0, 0.55)
    params, cert = run.params, run.certificate
    # term-by-term: the three links of the triangle chain
    assert cert.jung_term <= params.jung_term_bound + TOL_GEOM
    assert cert.anchor_term <= params.alpha / 2.0 + TOL_GEOM
    assert cert.trace.residual <= params.fp_tol
    assert cert.displacement <= cert.jung_term + cert.trace.residual + cert.anchor_term + TOL_GEOM
    # z is the sample at support_index
    np.testing.assert_array_equal(run.grid.points[cert.support_index], cert.z)
    np.testing.assert_array_equal(run.grid.values[cert.support_index], cert.fz)
    # independent re-evaluation, not grid internals
    f = StepMap1D(1.0)
    assert abs(f(float(cert.z[0])) - cert.fz[0]) <= TOL_GEOM
    assert run.displacement_recheck < params.eps_prime


def test_a_jump_just_above_the_declared_eps_is_not_certified():
    # values +-(0.5 + 3e-10) declared at eps 1: no point is displaced by
    # less than 0.5 + 3e-10, above eps'.  The Jung term exceeds its bound by
    # 2.4e-10, and the certified displacement eps' by 2e-10; both passed
    # when the checks allowed 1e-9 of slack.
    f = StepMap1D(1.0 + 6e-10)
    with pytest.raises(BudgetExceededError):
        run_pipeline(f, 1, 1.0, 0.5 + 1e-10, grid_budget=10**12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=st.integers(1, 4), eps=st.floats(0.05, 1.4), doublings=st.integers(0, 52),
       extra=st.integers(0, 7))
def test_eps_prime_above_the_bound_never_ends_in_a_domain_error(dim, eps, doublings, extra):
    # any eps' above eps/R_n, from one ulp up: a certificate, a gap below
    # double precision, or a grid over budget
    bound = eps / jung_radius(dim)
    eps_prime = bound + math.ulp(bound) * (2 ** doublings + extra)
    f = ExtremalMap(dim=dim, eps=eps)
    try:
        run = run_pipeline(f, dim, eps, eps_prime, grid_budget=10_000)
    except (HypothesisError, BudgetExceededError):
        return
    assert run.params.certificate_bound < eps_prime
    assert math.dist(f(run.certificate.z), run.certificate.z) < eps_prime


def test_run_pipeline_respects_grid_budget():
    # eps_prime this close to the bound forces alpha below what a
    # 1000-point grid can deliver
    with pytest.raises(BudgetExceededError):
        run_pipeline(StepMap1D(1.0), 1, 1.0, 0.5001, grid_budget=1000)


def _alpha_fills_the_chain(params):
    """alpha is at most eps, closes the certificate chain, and is eps or
    leaves the chain open at 1.02 alpha: no room is left unused."""
    def closes(alpha):
        return PipelineParams.chain_bound(params.radius, params.eps, params.gamma, alpha,
                                          params.fp_tol) < params.eps_prime

    return (params.alpha <= params.eps and closes(params.alpha)
            and (params.alpha == params.eps or not closes(1.02 * params.alpha)))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 10])
@pytest.mark.parametrize("gap", [0.05, 1e-6, 1e-12])
def test_alpha_takes_the_room_the_chain_leaves(dim, gap):
    # the largest eps/2^k below the room would leave up to half of it unused
    eps_prime = 1.0 / jung_radius(dim) + gap
    run = run_pipeline(ExtremalMap(dim=dim, eps=1.0), dim, 1.0, eps_prime, grid_budget=10**1000)
    assert _alpha_fills_the_chain(run.params)
    assert run.displacement_recheck < eps_prime


def test_near_bound_gaps_raise_a_named_cause_in_every_dimension():
    # a few ulps above eps/R rounding may leave the chain less room than the
    # bound says; every such gap must end as a hypothesis or budget failure,
    # never as a DomainError from an alpha <= 0 or a loop that never ends
    for dim in range(1, 33):
        for eps in (0.3, 0.5, 1.0, 1.7, 2.0):
            f, eps_prime = ExtremalMap(dim=dim, eps=eps), eps / jung_radius(dim)
            for _ in range(39):
                eps_prime = math.nextafter(eps_prime, math.inf)
                with pytest.raises((HypothesisError, BudgetExceededError)):
                    run_pipeline(f, dim, eps, eps_prime, grid_budget=1)


def test_the_default_budget_reaches_2d_at_0_58_and_3d_at_0_65_not_4d_at_0_70():
    # alpha/2 takes the room the chain leaves: 2-D at 0.58 fits a 1235^2
    # cube and 3-D at 0.65 a 109^3 cube within the default budget; 4-D and
    # 5-D at 0.70 still need 71^4 and 97^5 cubes, over it
    for dim, eps_prime in ((2, 0.58), (3, 0.65)):
        run = run_pipeline(ExtremalMap(dim=dim, eps=1.0), dim, 1.0, eps_prime)
        assert _alpha_fills_the_chain(run.params)
        assert run.displacement_recheck < eps_prime  # a fresh f(z)
    for dim, side in ((4, 71), (5, 97)):
        with pytest.raises(BudgetExceededError, match=rf"of {side}\^{dim} points"):
            run_pipeline(ExtremalMap(dim=dim, eps=1.0), dim, 1.0, 0.70)


class VoronoiStepMap:
    """Piecewise constant on the Voronoi cells of `sites`: each point takes
    the value of its nearest site."""

    def __init__(self, sites, values):
        self.sites, self.values = sites, values

    def batch(self, xs):
        d2 = ((xs[:, None, :] - self.sites[None, :, :]) ** 2).sum(axis=-1)
        return self.values[np.argmin(d2, axis=1)]

    def __call__(self, x):
        return self.batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), cells=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(0.2, 1.5), gap=st.floats(0.15, 0.4))
def test_random_eps_continuous_maps_certify_term_by_term(dim, cells, seed, eps, gap):
    # a random Voronoi partition of the ball with values in a ball of
    # radius eps/2 inside the unit ball: every image has diameter <= eps
    rng = np.random.default_rng(seed)
    center = (1.0 - eps / 2.0) * random_ball_points(rng, dim, 1)
    values = center + eps / 2.0 * random_ball_points(rng, dim, cells)
    f = VoronoiStepMap(random_ball_points(rng, dim, cells), values)
    eps_prime = eps / jung_radius(dim) + gap
    run = run_pipeline(f, dim, eps, eps_prime)
    cert, params = run.certificate, run.params
    fresh = f(cert.z)
    displacement = float(np.linalg.norm(fresh - cert.z))
    f_at_y = averaged_map_eval(cert.trace.y, run.grid)
    jung_term = float(np.linalg.norm(fresh - f_at_y))
    residual = float(np.linalg.norm(f_at_y - cert.trace.y))
    anchor = float(np.linalg.norm(cert.z - cert.trace.y))
    assert displacement < eps_prime
    assert jung_term <= params.jung_term_bound + 1e-9
    assert anchor <= params.alpha / 2.0 + 1e-9
    assert residual <= params.fp_tol + 1e-9
    assert displacement <= jung_term + residual + anchor + 1e-9


class CountingMap:
    def __init__(self, f):
        self.f, self.rows = f, 0

    def batch(self, xs):
        self.rows += xs.shape[0]
        return self.f.batch(xs)

    def __call__(self, x):
        return self.f(x)


@pytest.mark.parametrize("f, dim, eps, eps_prime", [
    (StepMap1D(1.0), 1, 0.5, 0.3),
    (ExtremalMap(dim=2, eps=1.0), 2, 0.5, 0.35),
])
def test_declared_eps_too_small_ends_in_budget_error(f, dim, eps, eps_prime):
    # the jump is larger than the declared eps, so every alpha fails the
    # local Jung check until the grid budget stops the halving
    counted = CountingMap(f)
    with pytest.raises(BudgetExceededError) as err:
        run_pipeline(counted, dim, eps, eps_prime)
    assert err.value.required > err.value.limit == 2_000_000
    assert counted.rows < 1_000
