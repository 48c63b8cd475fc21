"""The three workloads: seeded case lists, the timed calls into ballfix, and
an independent check of every output.

Each operation times only its call into ballfix.  Its outcome is one of:

* ``ok``: the output passed the check;
* ``budget``, ``no_convergence``, ``certificate``: the pipeline declined
  with the documented error of that name (BudgetExceededError,
  NoConvergenceError, CertificateError; exit code 4 through the CLI counts
  as ``budget``).  The case is uncertified, not wrong;
* ``wrong``: an output failed the check, such as a certificate whose
  displacement, re-evaluated on f, is not below eps';
* ``other``: any other exception.

``wrong`` and ``other`` are failed operations.

An operation that ends in anything but ``ok`` is charged, on top of its own
call time and f-evaluations, the workload's fixed ``CERT_LIMIT_S`` and
``GRID_BUDGET_CHARGE``.  Each limit lies above the slowest case of its
workload that certifies, so a case that goes from declining to certifying
reads as a gain.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from ballfix import cli, errors, geometry, maps, oracle, pipeline

from .inputs import QuantizedMap, jung_trial_sets, quantized_map, quantized_maps
from .spans import CountingMap, Tracer

TOL = 1e-9

# Seconds charged to each uncertified attempt, per workload: above the
# slowest case of the workload that certifies on a 2-vCPU x86-64 host
# (certify-fine 1.6 s, certify-coarse 0.2 s, oracle-verify 1.5 s).
CERT_LIMIT_S = {"certify-fine": 2.5, "certify-coarse": 0.5, "oracle-verify": 5.0}
# f-evaluations charged to each uncertified attempt: the default grid budget
# of run_pipeline, fixed here so that the charge stays put if ballfix
# changes its default.
GRID_BUDGET_CHARGE = 2_000_000
# certify-coarse draws its expansive maps from this seed on every run, so
# that the set of maps the solver declines is the same on every run;
# --seed orders the cases and draws the rest.
COARSE_POOL_SEED = 20251214

_DECLINED = (
    (errors.BudgetExceededError, "budget"),
    (errors.NoConvergenceError, "no_convergence"),
    (errors.CertificateError, "certificate"),
)


def jung_radius(n: int) -> float:
    """R_n = sqrt(2(n+1)/n), computed here rather than taken from ballfix."""
    return math.sqrt(2.0 * (n + 1) / n)


@dataclass
class OpResult:
    name: str
    seconds: float
    status: str
    detail: str = ""
    f_evals: int | None = None  # None where f is built inside ballfix
    f_calls: int = 0  # of f_evals, the single-point calls


def _status(problems: list[str]) -> tuple[str, str]:
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def _run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


# --- checks -------------------------------------------------------------------


def check_chain(z, fresh, displacement_recheck, jung_term, residual, anchor,
                eps: float, gamma: float, alpha: float, fp_tol: float,
                eps_prime: float) -> list[str]:
    """The certificate inequalities, on terms recomputed by the caller."""
    dim = len(z)
    displacement = float(np.linalg.norm(np.asarray(fresh) - np.asarray(z)))
    problems = []
    if not displacement < eps_prime:
        problems.append(f"fresh displacement {displacement} >= eps' {eps_prime}")
    if not displacement_recheck < eps_prime:
        problems.append(f"displacement_recheck {displacement_recheck} >= eps' {eps_prime}")
    if jung_term > (eps + gamma) / jung_radius(dim) + TOL:
        problems.append(f"jung term {jung_term} above (eps+gamma)/R_n")
    if anchor > alpha / 2.0 + TOL:
        problems.append(f"anchor term {anchor} above alpha/2")
    if residual > fp_tol + TOL:
        problems.append(f"residual {residual} above fp_tol")
    if displacement > jung_term + residual + anchor + TOL:
        problems.append("displacement above jung + residual + anchor")
    return problems


def check_run(f, run, eps_prime: float) -> list[str]:
    """Criterion-3 style check of a PipelineRun: f(z) evaluated fresh, and
    the Jung, residual and anchor terms recomputed through averaged_map_eval."""
    cert, params = run.certificate, run.params
    z, y = np.asarray(cert.z), np.asarray(cert.trace.y)
    fresh = np.atleast_1d(np.asarray(f(z), dtype=float))
    f_at_y = pipeline.averaged_map_eval(y, run.grid)
    return check_chain(
        z, fresh, run.displacement_recheck,
        jung_term=float(np.linalg.norm(fresh - f_at_y)),
        residual=float(np.linalg.norm(f_at_y - y)),
        anchor=float(np.linalg.norm(z - y)),
        eps=params.eps, gamma=params.gamma, alpha=params.alpha, fp_tol=params.fp_tol,
        eps_prime=eps_prime)


def tightness_problems(min_displacement: float, dim: int, eps: float,
                       grid_step: float) -> list[str]:
    bound = eps / jung_radius(dim)
    if bound - TOL <= min_displacement <= bound + 2.0 * grid_step:
        return []
    return [f"grid minimum {min_displacement} outside [{bound}, {bound} + 2*{grid_step}]"]


# --- operations ---------------------------------------------------------------


@dataclass
class CertifyCase:
    """run_pipeline on a map handed in through a CountingMap."""

    name: str
    f: object
    dim: int
    eps: float
    eps_prime: float

    def execute(self, tracer: Tracer) -> OpResult:
        proxy = CountingMap(self.f, tracer)
        status, detail, run = "ok", "", None
        with tracer.span("case:" + self.name):
            start = time.perf_counter()
            try:
                run = pipeline.run_pipeline(proxy, self.dim, self.eps, self.eps_prime)
            except Exception as exc:  # every outcome is counted by cause
                status, detail = next(
                    (cause for kind, cause in _DECLINED if isinstance(exc, kind)), "other"), repr(exc)
            seconds = time.perf_counter() - start
        if run is not None:
            with tracer.paused():
                status, detail = _status(check_run(self.f, run, self.eps_prime))
        return OpResult(self.name, seconds, status, detail, proxy.f_evals, proxy.calls)


class NearestSample:
    """The benchmark's own evaluation of a sampled map: the value at the
    nearest sample, with `dim`, `eps`, `batch` and `__call__`."""

    def __init__(self, sampled: maps.SampledMap):
        self.sampled = sampled
        self.dim, self.eps = sampled.dim, sampled.eps
        self._tree = cKDTree(sampled.points)

    def batch(self, xs) -> np.ndarray:
        return self.sampled.values[self._tree.query(np.asarray(xs, dtype=float))[1]]

    def __call__(self, x) -> np.ndarray:
        return self.sampled.values[int(self._tree.query(np.asarray(x, dtype=float))[1])]


@dataclass
class CliCertifyCase:
    """`ballfix pipeline --map-file` on a sampled map written during set-up.

    The check rebuilds the lattice at the reported alpha on the benchmark's
    own nearest-sample evaluation of that map, outside the timed call, and
    recomputes the certificate terms from it as `check_run` does."""

    name: str
    path: Path
    sampled: maps.SampledMap
    eps_prime: float

    def __post_init__(self):
        self.f = NearestSample(self.sampled)
        self._grids: dict[float, pipeline.SampleGrid] = {}

    def grid(self, alpha: float) -> pipeline.SampleGrid:
        if alpha not in self._grids:
            self._grids[alpha] = pipeline.build_sample_grid(
                self.f, self.f.dim, alpha, max_points=GRID_BUDGET_CHARGE)
        return self._grids[alpha]

    def execute(self, tracer: Tracer) -> OpResult:
        argv = ["pipeline", "--map-file", str(self.path), "--eps-prime", repr(self.eps_prime),
                "--out", "-"]
        with tracer.span("case:" + self.name):
            code, out, err, seconds = _run_cli(argv)
        if code == cli.EXIT_BUDGET:
            return OpResult(self.name, seconds, "budget", err.strip())
        if code != cli.EXIT_OK:
            return OpResult(self.name, seconds, "wrong", f"exit code {code}: {err.strip()}")
        report = json.loads(out)
        cert, params = report["certificate"], report["params"]
        z = np.asarray(cert["z"], dtype=float)
        y = np.asarray(cert["fixed_point"], dtype=float)
        with tracer.paused():
            fresh = self.f(z)
            f_at_y = pipeline.averaged_map_eval(y, self.grid(params["alpha"]))
        problems = check_chain(
            z, fresh, report["displacement_recheck"],
            jung_term=float(np.linalg.norm(fresh - f_at_y)),
            residual=float(np.linalg.norm(f_at_y - y)),
            anchor=float(np.linalg.norm(z - y)),
            eps=params["eps"], gamma=params["gamma"], alpha=params["alpha"],
            fp_tol=params["fp_tol"], eps_prime=self.eps_prime)
        if params["eps"] != self.sampled.eps:
            problems.append(f"run used eps {params['eps']}, the file declares {self.sampled.eps}")
        return OpResult(self.name, seconds, *_status(problems))


@dataclass
class TightnessCheck:
    dim: int
    eps: float
    points_per_axis: int

    @property
    def name(self) -> str:
        return f"tightness-{self.dim}d"

    def execute(self, tracer: Tracer) -> OpResult:
        with tracer.span("case:" + self.name):
            start = time.perf_counter()
            report = oracle.tightness_report(self.dim, self.eps, points_per_axis=self.points_per_axis)
            seconds = time.perf_counter() - start
        problems = tightness_problems(report.min_displacement, self.dim, self.eps, report.grid_step)
        return OpResult(self.name, seconds, *_status(problems))


@dataclass
class ModulusCheck:
    """oracle.modulus_grid at radius r stays at or below the declared eps."""

    name: str
    f: object
    r: float
    spec: oracle.GridSpec

    def execute(self, tracer: Tracer) -> OpResult:
        proxy = CountingMap(self.f, tracer)
        with tracer.span("case:" + self.name):
            start = time.perf_counter()
            value = oracle.modulus_grid(proxy, self.r, self.spec)
            seconds = time.perf_counter() - start
        problems = [] if value <= self.f.eps + TOL else [f"modulus {value} above eps {self.f.eps}"]
        return OpResult(self.name, seconds, *_status(problems), proxy.f_evals)


@dataclass
class JungCheck:
    """jung_random_test, then min_enclosing_ball on every set of the same
    trial stream: each radius is at most diameter / R_n."""

    dim: int
    seed: int
    sets: list

    @property
    def name(self) -> str:
        return f"jung-{self.dim}d"

    def execute(self, tracer: Tracer) -> OpResult:
        with tracer.span("case:" + self.name):
            start = time.perf_counter()
            counterexample = oracle.jung_random_test(self.dim, len(self.sets), seed=self.seed)
            balls = [geometry.min_enclosing_ball(pts) for pts in self.sets]
            seconds = time.perf_counter() - start
        problems = [] if counterexample is None else ["jung_random_test found a counterexample"]
        radius = jung_radius(self.dim)
        for pts, ball in zip(self.sets, balls):
            diam = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)))
            reach = float(np.max(np.linalg.norm(pts - ball.center, axis=1)))
            if ball.radius > diam / radius + TOL or reach > ball.radius + TOL:
                problems.append(f"ball of radius {ball.radius} for a set of diameter {diam}")
                break
        return OpResult(self.name, seconds, *_status(problems))


@dataclass
class CliVerifyCheck:
    dim: int
    seed: int

    @property
    def name(self) -> str:
        return f"cli-verify-{self.dim}d"

    def execute(self, tracer: Tracer) -> OpResult:
        argv = ["verify", "--n", str(self.dim), "--eps", "1", "--seed", str(self.seed), "--out", "-"]
        with tracer.span("case:" + self.name):
            code, out, err, seconds = _run_cli(argv)
        if code != cli.EXIT_OK:
            return OpResult(self.name, seconds, "wrong", f"exit code {code}: {err.strip()}")
        report = json.loads(out)
        tight = report["tightness"]
        problems = tightness_problems(tight["min_displacement"], self.dim, 1.0, tight["grid_step"])
        if report["jung_test"]["passed"] is not True:
            problems.append("jung_test.passed is not true")
        return OpResult(self.name, seconds, *_status(problems))


@dataclass
class CliCsvCheck:
    """`ballfix extremal --format csv`: no grid point beats eps/R_n and the
    grid minimum is within two grid steps of it."""

    dim: int
    points_per_axis: int = 201

    @property
    def name(self) -> str:
        return f"cli-extremal-csv-{self.dim}d"

    def execute(self, tracer: Tracer) -> OpResult:
        argv = ["extremal", "--n", str(self.dim), "--eps", "1", "--format", "csv",
                "--resolution", str(self.points_per_axis), "--out", "-"]
        with tracer.span("case:" + self.name):
            code, out, err, seconds = _run_cli(argv)
        if code != cli.EXIT_OK:
            return OpResult(self.name, seconds, "wrong", f"exit code {code}: {err.strip()}")
        header, _, body = out.partition("\n")
        expected = ",".join(f"x{i}" for i in range(self.dim)) + ",displacement"
        if header != expected:
            return OpResult(self.name, seconds, "wrong", f"csv header {header!r}")
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        problems = [] if rows.shape[1] == self.dim + 1 else [f"csv rows of {rows.shape[1]} fields"]
        step = 2.0 / (self.points_per_axis - 1)
        problems += tightness_problems(float(rows[:, -1].min()), self.dim, 1.0, step)
        return OpResult(self.name, seconds, *_status(problems))


# --- workloads ----------------------------------------------------------------


def _extremal(dim: int, eps_prime: float, label: str = "extremal") -> CertifyCase:
    return CertifyCase(f"{label}-{dim}d-{eps_prime:.2f}", maps.ExtremalMap(dim=dim, eps=1.0),
                       dim, 1.0, eps_prime)


def _quantized_case(name: str, f: QuantizedMap, eps_prime: float) -> CertifyCase:
    return CertifyCase(name, f, f.dim, f.eps, eps_prime)


# certify-coarse asks for eps' = COARSE_MARGIN * eps/R_n of its quantized maps.
COARSE_MARGIN = 1.6
# certify-coarse draws this many expansive quantized maps: dim -> (delta, count).
COARSE_MAPS = {1: (0.2, 480), 2: (0.3, 240)}
# certify-fine asks for eps' = eps/R_n + FINE_GAP of its quantized contraction.
FINE_GAP = 0.025


def certify_fine(rng: np.random.Generator) -> list:
    contraction = quantized_map(rng, 2, 0.1, 0.5, 0.9)
    return [
        _extremal(2, 0.60), _extremal(2, 0.62), _extremal(3, 0.75), _extremal(3, 0.80),
        _quantized_case("quantized-2d-contraction", contraction,
                        contraction.eps / jung_radius(2) + FINE_GAP),
        # Beyond the default 2M-point grid budget on the seed.
        _extremal(2, 0.58, "reach"), _extremal(3, 0.65, "reach"),
        _extremal(4, 0.70, "reach"), _extremal(5, 0.70, "reach"),
    ]


def _sampled_file(work_dir: Path, name: str, f, spacing: float) -> maps.SampledMap:
    sampled = maps.sample_map_on_grid(f, f.dim, spacing, eps=f.eps)
    cli.dump_sampled_map(sampled, str(work_dir / f"{name}.json"))
    return sampled


def certify_coarse(rng: np.random.Generator, work_dir: Path) -> list:
    cases = [CertifyCase(f"step-{ep:.2f}", maps.StepMap1D(1.0), 1, 1.0, ep)
             for ep in (0.51, 0.55, 0.75)]
    cases += [_extremal(2, 0.65), _extremal(2, 0.70)]
    # The nearest-sample map of a sampling at spacing h keeps the declared
    # eps when g*h*sqrt(n) < delta.
    f = quantized_map(rng, 1, 0.2, 2.0, 4.0)
    for name, source, spacing, eps_prime in (
            ("cli-quantized-1d", f, f.delta / (3.0 * f.gain), COARSE_MARGIN * f.eps / jung_radius(1)),
            ("cli-extremal-2d", maps.ExtremalMap(dim=2, eps=1.0), 0.05, 0.70)):
        sampled = _sampled_file(work_dir, name, source, spacing)
        cases.append(CliCertifyCase(name, work_dir / f"{name}.json", sampled, eps_prime))
    pool = np.random.default_rng(COARSE_POOL_SEED)
    for dim, (delta, count) in COARSE_MAPS.items():
        for k, f in enumerate(quantized_maps(pool, count, dim, delta, 2.0, 4.0)):
            cases.append(_quantized_case(f"quantized-{dim}d-{k:03d}", f,
                                         COARSE_MARGIN * f.eps / jung_radius(dim)))
    return [cases[i] for i in rng.permutation(len(cases))]


# Radii and resolutions of acceptance criterion 2.
MODULUS_RADII = (0.05, 0.1, 0.2)
MODULUS_POINTS = {1: 201, 2: 201, 3: 51}
JUNG_TRIALS = 2500


def oracle_verify(rng: np.random.Generator, seed: int) -> list:
    checks = [TightnessCheck(dim, 1.0, 201) for dim in (2, 3)]
    for dim, eps in ((1, 1.0), (1, 2.0), (2, 1.0), (3, 1.0)):
        spec = oracle.GridSpec(dim=dim, points_per_axis=MODULUS_POINTS[dim])
        for r in MODULUS_RADII:
            checks.append(ModulusCheck(f"modulus-extremal-{dim}d-eps{eps:g}-r{r:g}",
                                       maps.ExtremalMap(dim=dim, eps=eps), r, spec))
    for dim, delta in ((1, 0.2), (2, 0.3)):
        f = quantized_map(rng, dim, delta, 2.0, 4.0)
        checks.append(ModulusCheck(f"modulus-quantized-{dim}d", f, 0.9 * f.continuity_radius(),
                                   oracle.GridSpec(dim=dim, points_per_axis=201)))
    for dim in (1, 2, 3, 4):
        jung_seed = 10 * seed + dim
        checks.append(JungCheck(dim, jung_seed, jung_trial_sets(jung_seed, dim, JUNG_TRIALS)))
    checks += [CliVerifyCheck(2, seed), CliCsvCheck(2)]
    return checks


def build(workload: str, seed: int, work_dir: Path) -> list:
    """The operations of one pass; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "certify-fine":
        return certify_fine(rng)
    if workload == "certify-coarse":
        return certify_coarse(rng, work_dir)
    if workload == "oracle-verify":
        return oracle_verify(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")
