import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ballfix import cli, oracle, pipeline
from ballfix.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_HYPOTHESIS,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    _dumps,
    dump_sampled_map,
    load_sampled_map,
    main,
    render_figure,
)
from ballfix.errors import DomainError
from ballfix.maps import ExtremalMap, SampledMap, StepMap1D, sample_map_on_grid
from ballfix.pipeline import run_pipeline

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


# --- radius -------------------------------------------------------------------


def test_radius_table(tmp_path):
    out = tmp_path / "radius.json"
    assert run_cli("radius", "--n", "3", "--out", str(out)) == EXIT_OK
    report = read_json(out)
    assert report["schema_version"] == 1
    rows = {r["n"]: r["jung_radius"] for r in report["rows"]}
    assert rows[1] == pytest.approx(2.0, abs=1e-12)
    assert rows[2] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rows[3] == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)


def test_radius_single_row(tmp_path):
    out = tmp_path / "r1.json"
    assert run_cli("radius", "--n", "1", "--out", str(out)) == EXIT_OK
    assert len(read_json(out)["rows"]) == 1


def test_radius_usage_error():
    assert run_cli("radius", "--n", "0") == EXIT_USAGE


@pytest.mark.parametrize("eps", ["-1", "0", "2.5"])
def test_radius_rejects_eps_outside_the_range(eps, capsys):
    # the same (0, 2] range every other subcommand enforces
    assert run_cli("radius", "--n", "2", "--eps", eps) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"discontinuity scale must lie in (0, 2.0], got {float(eps)}" in captured.err


# --- extremal -----------------------------------------------------------------


def test_extremal_report(tmp_path):
    out = tmp_path / "extremal.json"
    assert run_cli("extremal", "--n", "2", "--eps", "1",
                   "--resolution", "201", "--out", str(out)) == EXIT_OK
    report = read_json(out)
    assert report["image_diameter"] == pytest.approx(1.0, abs=1e-9)
    assert report["theoretical_bound"] == pytest.approx(0.5773502691896258, abs=1e-9)
    assert report["tightness"]["min_displacement"] >= report["theoretical_bound"] - 1e-9


def test_extremal_dim1_eps2_bound(tmp_path):
    out = tmp_path / "e12.json"
    assert run_cli("extremal", "--n", "1", "--eps", "2", "--out", str(out)) == EXIT_OK
    assert read_json(out)["theoretical_bound"] == pytest.approx(1.0, abs=1e-12)


def test_extremal_eps_validation():
    assert run_cli("extremal", "--n", "2", "--eps", "3") == EXIT_USAGE


def test_extremal_csv_dump(tmp_path):
    out = tmp_path / "disp.csv"
    assert run_cli("extremal", "--n", "1", "--eps", "1", "--resolution", "41",
                   "--format", "csv", "--out", str(out)) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0,displacement"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(values) >= 0.5 - 1e-9


# --- pipeline -----------------------------------------------------------------


def test_pipeline_step_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("pipeline", "--map", "step", "--eps", "1",
                   "--eps-prime", "0.55", "--out", str(out)) == EXIT_OK
    report = read_json(out)
    cert = report["certificate"]
    assert cert["displacement"] < 0.55
    assert report["displacement_recheck"] < 0.55
    assert cert["jung_term"] + cert["residual"] + cert["anchor_term"] >= cert["displacement"] - 1e-9


def test_pipeline_schema_example_is_a_real_run(tmp_path):
    argv = ["pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55"]
    doc = (Path(__file__).resolve().parents[1] / "docs" / "schemas.md").read_text()
    heading = f"Output of `ballfix {' '.join(argv)} --out -`:\n\n```json\n"
    example = doc[doc.index(heading) + len(heading):].split("```", 1)[0]
    out = tmp_path / "cert.json"
    assert run_cli(*argv, "--out", str(out)) == EXIT_OK
    assert out.read_text() == example


def test_the_exit_code_table_lists_exactly_the_cli_exit_codes():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "schemas.md").read_text()
    table = doc.split("## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines() if line.startswith("| ")]
    codes = [int(code) for code in rows if code.isdigit()]
    assert len(codes) == len(rows) - 1  # the header is the one row that is not a code
    exits = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert len(set(exits.values())) == len(exits)
    assert sorted(codes) == sorted(exits.values())


def test_pipeline_hypothesis_exit_code():
    assert run_cli("pipeline", "--map", "step", "--eps", "1",
                   "--eps-prime", "0.4") == EXIT_HYPOTHESIS


def test_pipeline_malformed_map_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "dim": 1, "covering_radius": 0.1,
        "points": [[0.0], [0.5]], "values": [[0.1]],
    }))
    assert run_cli("pipeline", "--map-file", str(bad), "--eps", "1",
                   "--eps-prime", "0.6") == EXIT_USAGE


def _step_map_record(**changes) -> dict:
    """The sampled-map record of the 1-D step map at spacing 0.5, changed."""
    return {"schema_version": 1, "dim": 1, "eps": 1.0, "covering_radius": 0.25,
            "points": [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
            "values": [[0.5], [0.5], [0.5], [-0.5], [-0.5]], **changes}


@pytest.mark.parametrize("changes, message", [
    # NaN fails every comparison, so a check of `radius < 0` lets it pass
    # and the run certifies under a covering claim nothing can check
    ({"covering_radius": math.nan}, "covering radius must be nonnegative, got nan"),
    ({"eps": "x"}, "eps must be numeric, got dtype <U1"),
    # float() would read these as 0.2, 1.0 and 0.25, and the run certify;
    # each field is checked by the dtype numpy infers for it
    ({"eps": "0.2"}, "eps must be numeric, got dtype <U3"),
    ({"eps": True}, "eps must be numeric, got dtype bool"),
    ({"covering_radius": "0.25"}, "covering_radius must be numeric, got dtype <U4"),
    ({"covering_radius": True}, "covering_radius must be numeric, got dtype bool"),
    ({"points": [["-1"], ["-0.5"], ["0"], ["0.5"], ["1"]]},
     "points must be numeric, got dtype <U4"),
    ({"values": [[True], [True], [True], [False], [False]]},
     "values must be numeric, got dtype bool"),
    ({"values": [[0.5], [0.5], [None], [-0.5], [-0.5]]},
     "values must be numeric, got dtype object"),
    ({"eps": 3.0}, "discontinuity scale must lie in (0, 2.0], got 3.0"),
    ({"points": [[-1.0], [-0.5], [0.0], [0.5], [1.5]]},
     "some sample point of norm 1.5 lies outside the unit ball"),
    ({"points": [[-1.0], [-0.5], [math.nan], [0.5], [1.0]]}, "point coordinates must be finite"),
    # int() would truncate or convert these to 1, and the step map certify
    ({"dim": 1.9}, "dimension must be a positive integer, got 1.9"),
    ({"dim": True}, "dimension must be a positive integer, got True"),
    ({"dim": "1"}, "dimension must be a positive integer, got '1'"),
    ({"dim": 2}, "points must be an (m, 2) array"),
    ({"points": [-1.0, -0.5, 0.0, 0.5, 1.0]}, "points must be an (m, 1) array"),
    ({"values": [[0.1]]}, "points shape (5, 1) != values shape (1, 1)"),
    # a file of another schema, or of none, is not read as this one
    ({"schema_version": 99}, "schema_version must be 1, got 99"),
    ({"schema_version": None}, "'schema_version'"),
], ids=["nan-covering-radius", "eps-no-number", "eps-string", "eps-true",
        "covering-radius-string", "covering-radius-true", "string-points", "bool-values",
        "null-value", "eps-above-2", "point-outside-the-ball",
        "nan-point", "dim-1.9", "dim-true", "dim-string", "dim-2-for-1d-points",
        "flat-points", "values-not-parallel", "schema-version-99", "no-schema-version"])
def test_a_rejected_map_file_names_itself(tmp_path, capsys, changes, message):
    bad = tmp_path / "bad.json"
    record = {key: value for key, value in _step_map_record(**changes).items()
              if value is not None}  # None drops the field
    bad.write_text(json.dumps(record))
    assert run_cli("pipeline", "--map-file", str(bad), "--eps-prime", "0.6") == EXIT_USAGE
    assert f"malformed sampled-map file {bad}: {message}" in capsys.readouterr().err


def test_a_map_file_that_is_no_json_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1,')
    assert run_cli("pipeline", "--map-file", str(bad), "--eps-prime", "0.6") == EXIT_USAGE
    assert (f"malformed sampled-map file {bad}: Expecting property name"
            in capsys.readouterr().err)


def test_a_map_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"dim": 1}'.encode("utf-16-le"))
    assert run_cli("pipeline", "--map-file", str(bad), "--eps-prime", "0.6") == EXIT_USAGE
    assert (f"malformed sampled-map file {bad}: 'utf-8' codec can't decode byte 0xff"
            in capsys.readouterr().err)


@pytest.mark.parametrize("eps_prime", ["nan", "inf"])
def test_pipeline_non_finite_eps_prime_is_a_usage_error(eps_prime, capsys):
    # not a hypothesis violation (exit 3): a non-finite eps' has no gap
    # above eps/R_n to measure
    assert run_cli("pipeline", "--map", "extremal", "--n", "2", "--eps", "1",
                   "--eps-prime", eps_prime) == EXIT_USAGE
    assert f"eps_prime must be finite, got {eps_prime}" in capsys.readouterr().err


def test_pipeline_missing_map_file(tmp_path):
    assert run_cli("pipeline", "--map-file", str(tmp_path / "nope.json"),
                   "--eps", "1", "--eps-prime", "0.6") == EXIT_IO


def test_pipeline_budget_exit_code():
    # a bound this tight needs a finer grid than the budget allows
    assert run_cli("pipeline", "--map", "step", "--eps", "1",
                   "--eps-prime", "0.5001", "--budget", "1000") == EXIT_BUDGET


@pytest.mark.parametrize("argv, count", [
    # a cube count of more than 4,300 digits, which Python will not print
    (("--map", "constant", "--n", "3000", "--eps-prime", "0.8"), "^3000 points"),
    # a budget past float range, from which the message took a float root
    (("--map", "extremal", "--n", "32", "--eps-prime", "0.6963106238237914",
      "--budget", str(10**400)), "^32 points"),
])
def test_a_grid_of_any_size_over_budget_is_a_budget_error(argv, count, capsys):
    assert run_cli("pipeline", "--eps", "1", *argv) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget error: grid for alpha=")
    assert count in captured.err


def test_a_gap_of_1e_6_is_a_budget_question_not_a_usage_error(capsys):
    # a fixed fp_tol of 1e-6 left no alpha at this gap, and the run exited 2;
    # fp_tol shrinks with the gap, so only the grid budget decides
    argv = ("pipeline", "--map", "extremal", "--n", "1", "--eps", "1",
            "--eps-prime", repr(0.5 + 1e-6), "--out", "-")
    assert run_cli(*argv) == EXIT_BUDGET
    capsys.readouterr()
    assert run_cli(*argv, "--budget", str(10**13)) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["fp_tol"] < 1e-6
    assert report["certificate"]["residual"] <= report["params"]["fp_tol"]
    assert report["displacement_recheck"] < 0.5 + 1e-6
    assert report["grid_points"] <= 40


def _ballfix(*argv):
    """`python -m ballfix` in a subprocess, killed after 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, "-m", "ballfix", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("n, eps_prime, code, cause", [
    # gamma rounds to 0: one ulp above eps/R_3 and eps/R_8
    ("3", "0.6123724356957946", EXIT_HYPOTHESIS, "rounds to 0.0"),
    ("8", "0.6666666666666667", EXIT_HYPOTHESIS, "rounds to 0.0"),
    # the chain closes, on a grid far over budget: three ulps above eps/R_2
    # it leaves alpha/2 one ulp of room, and 1.4e-14 above it 1.2e-14.
    # No input is known to reach "no alpha > 0 closes", so no case tests
    # that exit.
    ("2", "0.5773502691896261", EXIT_BUDGET, "alpha=2.19824158875781e-16"),
    ("2", "0.57735026918964", EXIT_BUDGET, "alpha=2.2861712523081222e-14"),
])
def test_near_bound_gaps_exit_without_a_validation_error_or_a_hang(n, eps_prime, code, cause):
    # each exited 2 with a validation error before; deleting that check
    # alone left the first looping forever
    done = _ballfix("pipeline", "--map", "extremal", "--eps", "1", "--n", n,
                    "--eps-prime", eps_prime)
    assert done.returncode == code, done.stderr
    assert cause in done.stderr
    assert done.stdout == ""


def test_a_subnormal_eps_exits_as_a_budget_error():
    # its lattice spacing is subnormal: the run died with an OverflowError
    done = _ballfix("pipeline", "--map", "step", "--eps", "1e-320", "--eps-prime", "0.5")
    assert done.returncode == EXIT_BUDGET, done.stderr
    assert done.stderr.startswith("budget error: grid for alpha=1e-320 needs a spacing of 5e-321")
    assert done.stdout == ""


def test_a_path_that_reaches_its_slab_top_certifies(capsys):
    # at spacing 1.7e-7 the last level's facet weights sum to 1 - 2e-11; the
    # path used to pivot past level 1 and exit 2 with "residual 0.144"
    eps_prime = 0.5773512691896259
    assert run_cli("pipeline", "--map", "extremal", "--n", "2", "--eps", "1",
                   "--eps-prime", repr(eps_prime), "--budget", str(10**15),
                   "--out", "-") == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["residual"] <= report["params"]["fp_tol"]
    z = np.array(report["certificate"]["z"])
    assert np.linalg.norm(ExtremalMap(dim=2, eps=1.0)(z) - z) < eps_prime
    assert report["displacement_recheck"] < eps_prime


def test_a_residual_above_fp_tol_is_a_solver_error(monkeypatch, capsys):
    # a point the solver returns that is not a fixed point is the solver's
    # fault: exit 6, not the validation error of exit 2
    monkeypatch.setattr(pipeline, "find_fixed_point",
                        lambda F, grid: pipeline.FixedPointResult(np.zeros(2), 1.0))
    assert run_cli("pipeline", "--map", "extremal", "--n", "2", "--eps", "1",
                   "--eps-prime", "0.62") == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: residual 1.0 exceeds fp_tol=")


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55"),
    ("pipeline", "--map", "extremal", "--n", "2", "--eps", "1", "--eps-prime", "0.62"),
    ("extremal", "--n", "2", "--eps", "1", "--resolution", "21"),
    ("verify", "--n", "2", "--resolution", "21", "--trials", "10"),
])
def test_budget_below_one_is_a_usage_error(argv, budget, capsys):
    # was exit 4, or a traceback and exit 1 where a negative budget's root
    # of order dim > 1 came out complex
    assert run_cli(*argv, "--budget", budget) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"grid budget must be at least 1, got {budget}" in captured.err


def test_pipeline_sampled_file_roundtrip(tmp_path):
    sampled = sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0)
    path = tmp_path / "step.json"
    dump_sampled_map(sampled, str(path))
    loaded = load_sampled_map(str(path))
    np.testing.assert_array_equal(loaded.points, sampled.points)
    np.testing.assert_array_equal(loaded.values, sampled.values)
    assert loaded.eps == 1.0
    out = tmp_path / "cert.json"
    assert run_cli("pipeline", "--map-file", str(path),
                   "--eps-prime", "0.6", "--out", str(out)) == EXIT_OK
    assert read_json(out)["certificate"]["displacement"] < 0.6


def test_pipeline_map_file_is_the_map(tmp_path):
    # the library run on the loaded file certifies exactly what the CLI does
    path = tmp_path / "extremal.json"
    dump_sampled_map(sample_map_on_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.05, eps=1.0), str(path))
    out = tmp_path / "cert.json"
    assert run_cli("pipeline", "--map-file", str(path), "--eps-prime", "0.62",
                   "--out", str(out)) == EXIT_OK
    report = read_json(out)
    run = run_pipeline(load_sampled_map(str(path)), 2, 1.0, 0.62)
    assert report["certificate"]["z"] == run.certificate.z.tolist()
    assert report["certificate"]["displacement"] == run.certificate.displacement
    assert report["params"]["alpha"] == run.params.alpha


def test_pipeline_map_file_rejects_other_dimension(tmp_path, capsys):
    path = tmp_path / "extremal.json"
    dump_sampled_map(sample_map_on_grid(ExtremalMap(dim=2, eps=1.0), 2, 0.1, eps=1.0), str(path))
    assert run_cli("pipeline", "--map-file", str(path), "--n", "3",
                   "--eps-prime", "0.62") == EXIT_USAGE
    assert "--n 3" in capsys.readouterr().err
    assert run_cli("pipeline", "--map-file", str(path), "--n", "2",
                   "--eps-prime", "0.62", "--out", str(tmp_path / "cert.json")) == EXIT_OK


@pytest.mark.parametrize("map_args", [
    ("--map", "step"),
    ("--map", "extremal", "--n", "1"),
    ("--map", "identity", "--n", "1"),
    ("--map-file", "FILE"),
])
def test_pipeline_value_only_for_the_constant_map(tmp_path, capsys, map_args):
    path = tmp_path / "step.json"
    dump_sampled_map(sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0), str(path))
    argv = [str(path) if a == "FILE" else a for a in map_args]
    assert run_cli("pipeline", *argv, "--eps", "1", "--eps-prime", "0.6",
                   "--value", "0.1") == EXIT_USAGE
    assert "--value" in capsys.readouterr().err


def test_pipeline_map_file_eps_zero_is_rejected(tmp_path, capsys):
    # an explicit --eps overrides the file's eps, zero included
    path = tmp_path / "step.json"
    dump_sampled_map(sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0), str(path))
    assert run_cli("pipeline", "--map-file", str(path), "--eps", "0",
                   "--eps-prime", "0.6") == EXIT_USAGE
    assert "discontinuity scale must lie in (0, 2.0], got 0.0" in capsys.readouterr().err


# --- verify -------------------------------------------------------------------


def test_verify_report(tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--n", "2", "--eps", "1", "--resolution", "101",
                   "--trials", "300", "--out", str(out)) == EXIT_OK
    report = read_json(out)
    assert report["jung_test"]["passed"] is True
    t = report["tightness"]
    assert -1e-9 <= t["gap"] <= 2 * t["grid_step"]


def test_verify_counterexample_exit(tmp_path, monkeypatch):
    found = oracle.JungCounterexample(
        points=np.array([[0.0, 0.0]]), weights=np.array([1.0]),
        combination_point=np.array([0.5, 0.0]), nearest_distance=0.5, bound=0.0)
    monkeypatch.setattr(oracle, "jung_random_test", lambda *args, **kwargs: found)
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--n", "2", "--resolution", "21", "--trials", "10",
                   "--out", str(out)) == EXIT_COUNTEREXAMPLE
    assert read_json(out)["jung_test"]["passed"] is False


def test_verify_csv_is_the_extremal_csv_without_a_tightness_sweep(tmp_path, monkeypatch):
    sweeps = []
    real = oracle.tightness_report
    monkeypatch.setattr(oracle, "tightness_report",
                        lambda *args, **kwargs: sweeps.append(args) or real(*args, **kwargs))
    verify, extremal = tmp_path / "verify.csv", tmp_path / "extremal.csv"
    assert run_cli("verify", "--n", "2", "--eps", "0.8", "--resolution", "31",
                   "--trials", "50", "--format", "csv", "--out", str(verify)) == EXIT_OK
    assert sweeps == []
    assert run_cli("extremal", "--n", "2", "--eps", "0.8", "--resolution", "31",
                   "--format", "csv", "--out", str(extremal)) == EXIT_OK
    assert verify.read_bytes() == extremal.read_bytes()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_fewer_than_one_trial(trials, capsys):
    assert run_cli("verify", "--n", "2", "--resolution", "21", "--trials", trials) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"trials must be at least 1, got {trials}" in captured.err
    with pytest.raises(DomainError):
        oracle.jung_random_test(2, int(trials))


def test_verify_budget_exit():
    assert run_cli("verify", "--n", "4", "--eps", "1",
                   "--resolution", "500") == EXIT_BUDGET


# --- figure -------------------------------------------------------------------


def _circle_radii(svg_text):
    root = ET.fromstring(svg_text)
    return {c.get("id"): float(c.get("r"))
            for c in root.iter(f"{SVG_NS}circle") if c.get("id")}


def test_figure_radius_ratio(tmp_path):
    out = tmp_path / "figure.svg"
    assert run_cli("figure", "--eps", "1", "--out", str(out)) == EXIT_OK
    radii = _circle_radii(out.read_text())
    ratio = radii["bound-circle"] / radii["unit-circle"]
    assert ratio == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_figure_large_eps_warning(tmp_path):
    out = tmp_path / "figure2.svg"
    assert run_cli("figure", "--eps", "2", "--out", str(out)) == EXIT_OK
    text = out.read_text()
    assert "warning" in text
    radii = _circle_radii(text)
    assert radii["bound-circle"] / radii["unit-circle"] == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-6)


def test_figure_has_three_cells_in_fixed_colors():
    svg = render_figure(1.0)
    for color in ("#1f77b4", "#ff7f0e", "#2ca02c"):
        assert svg.count(color) == 3  # sector fill, image point, vertex dot


def test_figure_io_error():
    assert run_cli("figure", "--eps", "1",
                   "--out", "/nonexistent_dir/figure.svg") == EXIT_IO


# --- determinism and round-trips ------------------------------------------------


DETERMINISM_ARGV = [
    ("radius", "--n", "4"),
    ("extremal", "--n", "2", "--eps", "1", "--resolution", "101"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55"),
    ("verify", "--n", "1", "--eps", "1", "--resolution", "101", "--trials", "100"),
    ("figure", "--eps", "1"),
]

# Exit code and stdout sha256 of each of these, recorded in cli_outputs.json
# (MAP_FILE stands for the 1-D step map sampled at spacing 0.01).
# `PYTHONPATH=src python tests/test_cli.py` rewrites them, for an output
# change recorded in docs/schemas.md only.
CLI_OUTPUTS = Path(__file__).with_name("cli_outputs.json")
PINNED_ARGV = DETERMINISM_ARGV + [
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.51"),
    ("pipeline", "--map", "extremal", "--n", "2", "--eps", "1", "--eps-prime", "0.62"),
    ("pipeline", "--map", "extremal", "--n", "3", "--eps", "1", "--eps-prime", "0.80"),
    ("pipeline", "--map", "constant", "--n", "2", "--eps", "1", "--eps-prime", "0.8",
     "--value", "0.3,0.2"),
    ("pipeline", "--map", "identity", "--n", "3", "--eps", "1", "--eps-prime", "0.8"),
    ("pipeline", "--map", "extremal", "--n", "2", "--eps", "1",
     "--eps-prime", "0.5773512691896259", "--budget", str(10**15)),
    ("pipeline", "--map-file", "MAP_FILE", "--eps-prime", "0.6"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.4"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.5001", "--budget", "1000"),
]


def pinned_outputs(directory: Path) -> dict:
    """{argv: {"exit": code, "stdout_sha256": digest}} of PINNED_ARGV."""
    map_file = directory / "step.json"
    dump_sampled_map(sample_map_on_grid(StepMap1D(1.0), 1, 0.01, eps=1.0), str(map_file))
    outputs = {}
    for argv in PINNED_ARGV:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(*[str(map_file) if a == "MAP_FILE" else a for a in argv],
                           "--out", "-")
        outputs[" ".join(argv)] = {
            "exit": code, "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    return outputs


def test_outputs_match_the_recorded_bytes(tmp_path):
    assert pinned_outputs(tmp_path) == json.loads(CLI_OUTPUTS.read_text())


def test_main_builds_its_parser_once(monkeypatch):
    # main parses with one parser per process; its bytes stay as pinned
    cli._parser.cache_clear()
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    recorded = json.loads(CLI_OUTPUTS.read_text())
    for argv in (("radius", "--n", "4"), ("figure", "--eps", "1"),
                 ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_cli(*argv, "--out", "-")
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        assert {"exit": code, "stdout_sha256": digest} == recorded[" ".join(argv)]
    assert built == [1]
    assert real() is not real()  # the public builder stays uncached


@pytest.mark.parametrize("argv", DETERMINISM_ARGV)
def test_outputs_byte_identical_across_runs(tmp_path, argv):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert run_cli(*argv, "--out", str(first)) == EXIT_OK
    assert run_cli(*argv, "--out", str(second)) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv", [
    ("radius", "--n", "2", "--seed", "1"),
    ("extremal", "--n", "2", "--eps", "1", "--seed", "1"),
    ("figure", "--seed", "1"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55", "--format", "csv"),
    ("figure", "--format", "csv"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55", "--seed", "0"),
    ("pipeline", "--map", "step", "--eps", "1", "--eps-prime", "0.55", "--fp-tol", "1e-6"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dumps_converts_numpy_values():
    report = {
        "float": np.float64(0.1),
        "int": np.int64(3),
        "flag": np.bool_(True),
        "grid": np.arange(4.0).reshape(2, 2),
        "pair": (1, 2.5),
    }
    assert _dumps(report) == (
        '{\n'
        '  "flag": true,\n'
        '  "float": 0.1,\n'
        '  "grid": [\n'
        '    [\n'
        '      0.0,\n'
        '      1.0\n'
        '    ],\n'
        '    [\n'
        '      2.0,\n'
        '      3.0\n'
        '    ]\n'
        '  ],\n'
        '  "int": 3,\n'
        '  "pair": [\n'
        '    1,\n'
        '    2.5\n'
        '  ]\n'
        '}\n')


def test_json_reports_roundtrip_exactly(tmp_path):
    out = tmp_path / "report.json"
    run_cli("extremal", "--n", "2", "--eps", "1", "--resolution", "101",
            "--out", str(out))
    text = out.read_text()
    reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert reparsed == text


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        CLI_OUTPUTS.write_text(json.dumps(pinned_outputs(Path(directory)), indent=1) + "\n")
