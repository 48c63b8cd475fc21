"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

import ballfix as bf
from ballfix.cli import main as cli_main
from ballfix.geometry import TOL_GEOM, pairwise_diameter, random_ball_points
from ballfix.oracle import GridSpec
from ballfix.pipeline import averaged_map_eval, build_sample_grid, embed


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_criterion_1_constants():
    with criterion(1, "Jung constants"):
        assert abs(bf.jung_radius(1) - 2.0) <= 1e-12
        assert abs(bf.jung_radius(2) - math.sqrt(3.0)) <= 1e-12
        assert abs(bf.jung_radius(3) - math.sqrt(8.0 / 3.0)) <= 1e-12
        values = [bf.jung_radius(n) for n in range(1, 33)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > math.sqrt(2.0) for v in values)


def test_criterion_2_optimality_at_desk_scale():
    # tightness at >= 200 points per axis; modulus resolutions chosen per
    # dimension so every radius clears the r > grid-step precondition
    modulus_ppa = {1: 201, 2: 201, 3: 51}
    with criterion(2, "optimality sweeps"):
        for n, eps in ((1, 1.0), (1, 2.0), (2, 1.0), (3, 1.0)):
            report = bf.tightness_report(n, eps, points_per_axis=201)
            bound = eps / bf.jung_radius(n)
            assert bound - 1e-9 <= report.min_displacement <= bound + 2 * report.grid_step, (
                n, eps, report.min_displacement)
            extremal = bf.ExtremalMap(dim=n, eps=eps)
            spec = GridSpec(dim=n, points_per_axis=modulus_ppa[n])
            for r in (0.05, 0.1, 0.2):
                assert bf.modulus_grid(extremal, r, spec) <= eps + 1e-9, (n, eps, r)


PIPELINE_CASES = [
    ("step", 1, 1.0, 0.51),
    ("step", 1, 1.0, 0.55),
    ("step", 1, 1.0, 0.75),
    ("extremal", 2, 1.0, 0.60),
    ("extremal", 2, 1.0, 0.70),
    ("extremal", 3, 1.0, 0.75),
    ("extremal", 4, 1.0, 0.90),
]


def _case_map(kind, n, eps):
    return bf.StepMap1D(eps) if kind == "step" else bf.ExtremalMap(dim=n, eps=eps)


def test_criterion_3_main_theorem_end_to_end():
    with criterion(3, "pipeline certificates"):
        for kind, n, eps, eps_prime in PIPELINE_CASES:
            f = _case_map(kind, n, eps)
            run = bf.run_pipeline(f, n, eps, eps_prime)
            cert, params = run.certificate, run.params
            # independent re-evaluation of the displacement
            fresh = np.atleast_1d(np.asarray(f(cert.z), dtype=float))
            displacement = float(np.linalg.norm(fresh - cert.z))
            assert displacement < eps_prime, (kind, eps_prime, displacement)
            # chain inequality, term by term, against recomputed quantities
            f_at_y = averaged_map_eval(cert.trace.y, run.grid)
            jung_term = float(np.linalg.norm(fresh - f_at_y))
            residual = float(np.linalg.norm(f_at_y - cert.trace.y))
            anchor = float(np.linalg.norm(cert.z - cert.trace.y))
            assert jung_term <= params.jung_term_bound + 1e-9
            assert anchor <= params.alpha / 2.0 + 1e-9
            assert residual <= params.fp_tol + 1e-9
            assert displacement <= jung_term + residual + anchor + 1e-9


def test_criterion_4_sharpness_bracket():
    with criterion(4, "sharpness bracket"):
        run = bf.run_pipeline(bf.ExtremalMap(dim=2, eps=1.0), 2, 1.0, 0.60)
        lower = 1.0 / math.sqrt(3.0) - run.params.alpha / 2.0 - run.params.fp_tol
        assert lower <= run.certificate.displacement <= 0.60
        assert lower <= run.displacement_recheck <= 0.60


def _jung_trial_stream(dim, trials, seed, points_per_set=10):
    """Replays jung_random_test's exact draw sequence, yielding the sets."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        count = int(rng.integers(1, points_per_set + 1))
        pts = random_ball_points(rng, dim, count)
        rng.exponential(size=count)  # the combination weights, unused here
        yield pts


def test_criterion_5_jung_property_suite():
    trials_per_dim = 2500  # 10^4 randomized trials across dims 1..4
    with criterion(5, "randomized Jung suite"):
        for dim in (1, 2, 3, 4):
            assert bf.jung_random_test(dim, trials_per_dim, seed=dim) is None
            for pts in _jung_trial_stream(dim, trials_per_dim, seed=dim):
                ball = bf.min_enclosing_ball(pts)
                assert ball.radius <= pairwise_diameter(pts) / bf.jung_radius(dim) + 1e-9


def test_criterion_6_witness_artifacts():
    with criterion(6, "1-D witness artifacts"):
        grid = bf.sample_map_on_grid(bf.StepMap1D(1.0), 1, 0.01, eps=1.0)
        witness = bf.discontinuity_witness_1d(grid, 0.45, 0.0101)
        assert witness is not None
        assert witness.image_gap > 2 * 0.45 - abs(witness.left_point - witness.right_point)
        # above eps/2 the grid holds a near-fixed sample and no witness is needed
        assert bf.discontinuity_witness_1d(grid, 0.55, 0.0101) is None
        assert bf.eps_fixed_indices(grid, 0.55).size > 0


def test_criterion_7_pipeline_internals():
    with criterion(7, "pipeline internals"):
        extremal = bf.ExtremalMap(dim=2, eps=1.0)
        grid = build_sample_grid(extremal, 2, 0.2)
        rng = np.random.default_rng(123)
        for y in random_ball_points(rng, 2, 10_000):
            emb = embed(y, grid)
            w = emb.combination.weights
            assert np.all(w > 0)
            assert abs(float(w.sum()) - 1.0) <= 1e-12
            assert emb.combination.support_diameter() <= grid.alpha + TOL_GEOM
        for y in random_ball_points(rng, 2, 2_000):
            assert float(np.linalg.norm(averaged_map_eval(y, grid))) <= 1.0 + 1e-9

        # continuity sweep: per-step variation of F bounded by a pinned
        # Lipschitz-style constant (measured slope across cell walls is ~8)
        lipschitz_cap = 50.0
        step = 1e-6
        v = extremal.vertices.points
        wall = v[0] + v[1]
        wall /= np.linalg.norm(wall)
        segments = [(0.5 * wall, np.array([-wall[1], wall[0]]))]
        for _ in range(10):
            a = random_ball_points(rng, 2, 1)[0] * 0.9
            d = rng.standard_normal(2)
            segments.append((a, d / np.linalg.norm(d)))
        for anchor, direction in segments:
            prev = None
            for k in range(-150, 151):
                y = anchor + k * step * direction
                y = y if np.linalg.norm(y) <= 1.0 else y / np.linalg.norm(y)
                out = averaged_map_eval(y, grid)
                if prev is not None:
                    assert float(np.linalg.norm(out - prev)) <= lipschitz_cap * step
                prev = out


def test_criterion_8_cli_determinism_and_formats(tmp_path):
    with criterion(8, "CLI determinism and formats"):
        for argv in (
            ["radius", "--n", "3"],
            ["extremal", "--n", "2", "--eps", "1", "--resolution", "101"],
            ["pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55"],
            ["figure", "--eps", "1"],
        ):
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            assert cli_main(argv + ["--out", str(a)]) == 0
            assert cli_main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

        report_path = tmp_path / "roundtrip.json"
        cli_main(["extremal", "--n", "2", "--eps", "1", "--resolution", "101",
                  "--out", str(report_path)])
        text = report_path.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

        svg_path = tmp_path / "figure.svg"
        cli_main(["figure", "--eps", "1", "--out", str(svg_path)])
        radii = {c.get("id"): float(c.get("r"))
                 for c in ET.parse(svg_path).getroot().iter(
                     "{http://www.w3.org/2000/svg}circle") if c.get("id")}
        ratio = radii["bound-circle"] / radii["unit-circle"]
        assert abs(ratio - 1.0 / math.sqrt(3.0)) <= 1e-6
