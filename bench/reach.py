#!/usr/bin/env python3
"""Reach of the pipeline: which certificates the default budgets produce,
which a huge grid budget adds, and at what cost.

    python bench/reach.py --repeats 3 --out BENCH_pipeline.json
    python bench/reach.py --repeats 1 --check BENCH_pipeline.json

Cases: the 1-D step map at eps' = 0.51 and 0.55, and the extremal map in
dims 1-10 at gaps eps' - eps/R_n of 0.05, 0.01, 0.002, 1e-4 and 1e-6, all
at eps = 1; then the 2-D quantized contraction of the certify-fine
benchmark workload (perfbench.inputs.quantized_map on seed 0, delta 0.1,
gains 0.5-0.9) at the same five gaps, whose coarse levels are flat.  These
57 cases run under the default grid budget.  A second block of 71 runs at
a grid budget of 10**1000, so that the up-front cube check never declines
and the solver, not the budget, decides the outcome above 3-D: the
extremal map in 12-, 16-, 24- and 32-D at gaps 0.01, 1e-6, 1e-10 and
1e-12 and in 48-D at gap 0.01 (HUGE_EXTREMAL_GAPS), and random
Voronoi step maps (12 sites drawn uniformly in the ball, each sending its
cell to a value in a ball of radius eps/2, so eps = 0.8; seeds 0-5) in 4-,
8- and 16-D at gaps 1e-4, 1e-8 and 1e-11 (VORONOI_GAPS).  A third block of
28, also at that budget (OFFCENTRE_CASES, about 3 s of the 9-11 s in all
on 2 vCPUs), moves the extremal map's fixed point off the origin
(OffCentreMap): dims 4, 8 and 16 at gaps 0.01, 1e-6 and 1e-10, seeds 0-2,
and 24-D at gap 0.01, seed 0.
The origin is the first vertex every path samples, and there the
origin-centred extremal map already displaces a sample by its bound
eps/R: those rows measure the path, the off-centre rows the search.  Each
row records its `grid_budget`.  Each
case runs `run_pipeline` --repeats times and records its outcome: `ok` (a
fresh f(z) is displaced by less than eps'), `wrong` (it is not), or the
cause the pipeline declined with (`budget`,
`no_convergence`, `certificate`, `domain`, `solver`).  For each case the
median wall time is kept, with the points at which f was evaluated
(`f_evals`: batch rows plus single calls, the pipeline's own recheck of
f(z) included) and the samples touched, the pivots and alpha of a
certificate.  Exits 1 if any case is `wrong`; any other exception
propagates.

With --check COMMITTED.json the fresh rows are also compared with a
committed report, and the run exits 1 when a case's outcome or grid budget
changes, its f_evals or a certificate's pivots grow, or an `ok` case's alpha or
displacement moves (the path draws nothing, so all of these are exact on
every run).  The report is then written only where --out says.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from ballfix.errors import (  # noqa: E402
    BudgetExceededError,
    CertificateError,
    DomainError,
    NoConvergenceError,
    SolverError,
)
from ballfix.geometry import jung_radius, random_ball_points  # noqa: E402
from ballfix.maps import ExtremalMap, SampledMap, StepMap1D  # noqa: E402
from ballfix.pipeline import DEFAULT_GRID_BUDGET, run_pipeline  # noqa: E402
from perfbench.inputs import quantized_map  # noqa: E402
from perfbench.spans import CountingMap  # noqa: E402

GAPS = (0.05, 0.01, 0.002, 1e-4, 1e-6)
HUGE_BUDGET = 10**1000  # no cube of vertices exceeds it
# The extremal rows run at HUGE_BUDGET: dimension -> gaps.
HUGE_EXTREMAL_GAPS = {12: (0.01, 1e-6, 1e-10, 1e-12), 16: (0.01, 1e-6, 1e-10, 1e-12),
                      24: (0.01, 1e-6, 1e-10, 1e-12), 32: (0.01, 1e-6, 1e-10, 1e-12),
                      48: (0.01,)}
# The Voronoi rows, also at HUGE_BUDGET, seeds 0-5 each: (dimension, gap).
VORONOI_GAPS = [(4, 1e-4), (4, 1e-8), (8, 1e-4), (8, 1e-8), (16, 1e-4), (16, 1e-8),
                (4, 1e-11), (8, 1e-11), (16, 1e-11)]
# The off-centre rows, also at HUGE_BUDGET: (dimension, gap, seed).
OFFCENTRE_CASES = [(dim, gap, seed) for dim in (4, 8, 16) for gap in (0.01, 1e-6, 1e-10)
                   for seed in range(3)] + [(24, 0.01, 0)]
# DomainError: the map or the bound is outside what the pipeline accepts.
DECLINED = ((BudgetExceededError, "budget"), (NoConvergenceError, "no_convergence"),
            (CertificateError, "certificate"), (DomainError, "domain"),
            (SolverError, "solver"))


def voronoi_map(seed: int, dim: int, cells: int = 12, eps: float = 0.8) -> SampledMap:
    """Each point of the ball takes the value of its nearest of `cells`
    random sites; the values lie in a ball of radius eps/2 inside the unit
    ball, so every image has diameter at most eps."""
    rng = np.random.default_rng(seed)
    center = (1.0 - eps / 2.0) * random_ball_points(rng, dim, 1)
    values = center + eps / 2.0 * random_ball_points(rng, dim, cells)
    # any two points of the ball lie within 2 of each other
    return SampledMap(random_ball_points(rng, dim, cells), values, covering_radius=2.0, eps=eps)


class OffCentreMap:
    """x -> c + Q E(Q^T (x - c)), E the extremal map of eps 1 and Q
    orthogonal: E moved to centre c and turned by Q.  Its image is E's
    rotated about c, so its diameter is 1, it lies in the ball as long as
    |c| <= 1 - E.scale, and its bound eps/R is attained only at c."""

    def __init__(self, seed: int, dim: int):
        self.extremal = ExtremalMap(dim=dim, eps=1.0)
        self.dim, self.eps = dim, 1.0
        rng = np.random.default_rng(seed)
        self.centre = 0.9 * (1.0 - self.extremal.scale) * random_ball_points(rng, dim, 1)[0]
        self.rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]

    def batch(self, xs: np.ndarray) -> np.ndarray:
        turned = (np.asarray(xs, dtype=float) - self.centre) @ self.rotation
        return self.centre + self.extremal.batch(turned) @ self.rotation.T

    def __call__(self, x) -> np.ndarray:
        return self.batch(np.asarray(x, dtype=float)[None, :])[0]


def cases():
    """(name, map, dim, eps_prime, grid_budget) of every case, in report order."""
    for eps_prime in (0.51, 0.55):
        yield f"step-1d-{eps_prime}", StepMap1D(1.0), 1, eps_prime, DEFAULT_GRID_BUDGET
    for dim in range(1, 11):
        for gap in GAPS:
            yield f"extremal-{dim}d-gap-{gap:g}", ExtremalMap(dim=dim, eps=1.0), dim, \
                1.0 / jung_radius(dim) + gap, DEFAULT_GRID_BUDGET
    contraction = quantized_map(np.random.default_rng(0), 2, 0.1, 0.5, 0.9)
    for gap in GAPS:
        yield f"contraction-2d-gap-{gap:g}", contraction, 2, \
            contraction.eps / jung_radius(2) + gap, DEFAULT_GRID_BUDGET
    for dim, gaps in HUGE_EXTREMAL_GAPS.items():
        for gap in gaps:
            yield f"extremal-{dim}d-gap-{gap:g}", ExtremalMap(dim=dim, eps=1.0), dim, \
                1.0 / jung_radius(dim) + gap, HUGE_BUDGET
    for dim, gap in VORONOI_GAPS:
        for seed in range(6):
            f = voronoi_map(seed, dim)
            yield f"voronoi-{dim}d-seed-{seed}-gap-{gap:g}", f, dim, \
                f.eps / jung_radius(dim) + gap, HUGE_BUDGET
    for dim, gap, seed in OFFCENTRE_CASES:
        yield f"offcentre-{dim}d-seed-{seed}-gap-{gap:g}", OffCentreMap(seed, dim), dim, \
            1.0 / jung_radius(dim) + gap, HUGE_BUDGET


def attempt(f, dim: int, eps_prime: float, grid_budget: int) -> tuple[dict, float]:
    """One pipeline run: its record and its wall time."""
    counted = CountingMap(f)
    start = time.perf_counter()
    try:
        run = run_pipeline(counted, dim, f.eps, eps_prime, grid_budget=grid_budget)
    except tuple(error for error, _ in DECLINED) as exc:
        seconds = time.perf_counter() - start
        cause = next(name for error, name in DECLINED if isinstance(exc, error))
        return {"outcome": cause, "f_evals": counted.f_evals}, seconds
    seconds = time.perf_counter() - start
    z = run.certificate.z
    displacement = float(np.linalg.norm(np.asarray(f(z), dtype=float) - z))
    return {
        "outcome": "ok" if displacement < eps_prime else "wrong",
        "displacement": displacement,
        "f_evals": counted.f_evals,
        "grid_points": len(run.grid),
        "pivots": run.certificate.trace.pivots,
        "alpha": run.params.alpha,
    }, seconds


def measure(repeats: int) -> list[dict]:
    rows = []
    for name, f, dim, eps_prime, grid_budget in cases():
        records, times = zip(*(attempt(f, dim, eps_prime, grid_budget) for _ in range(repeats)))
        # the path draws nothing, so every repeat must agree
        if any(record != records[0] for record in records):
            raise RuntimeError(f"{name}: repeats disagree: {records}")
        rows.append({"case": name, "dim": dim, "eps_prime": eps_prime,
                     "grid_budget": grid_budget, **records[0],
                     "wall_s": statistics.median(times)})
        print(f"{name:28s} {records[0]['outcome']:15s} {statistics.median(times):.4f} s",
              file=sys.stderr)
    return rows


def check(rows: list[dict], committed: list[dict]) -> list[str]:
    """Each way the fresh rows depart from the committed ones."""
    fresh, committed = ({row["case"]: row for row in table} for table in (rows, committed))
    problems = [f"{case}: {key} committed {committed.get(case, {}).get(key)}, "
                f"fresh {fresh.get(case, {}).get(key)}"
                for case in sorted(fresh.keys() | committed.keys())
                for key in ("outcome", "grid_budget")
                if fresh.get(case, {}).get(key) != committed.get(case, {}).get(key)]
    for case in sorted(fresh.keys() & committed.keys()):
        old, new = committed[case], fresh[case]
        # pivots are recorded for certificates only
        problems += [f"{case}: {key} committed {old[key]}, fresh {new.get(key)}"
                     for key in ("f_evals", "pivots") if key in old and new.get(key, 0) > old[key]]
        if old["outcome"] == "ok":
            problems += [f"{case}: {key} committed {old[key]!r}, fresh {new.get(key)!r}"
                         for key in ("alpha", "displacement") if new.get(key) != old[key]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_pipeline.json, none with --check)")
    parser.add_argument("--check", default=None, metavar="COMMITTED.json",
                        help="fail when the fresh rows depart from this report")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    committed = None if args.check is None else json.loads(Path(args.check).read_text())["cases"]
    if args.out is None and committed is None:
        args.out = str(ROOT / "BENCH_pipeline.json")
    rows = measure(args.repeats)
    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        },
        "repeats": args.repeats,
        "cases": rows,
    }
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    wrong = [row["case"] for row in rows if row["outcome"] == "wrong"]
    if wrong:
        print(f"wrong certificates: {', '.join(wrong)}", file=sys.stderr)
    problems = [] if committed is None else check(rows, committed)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if wrong or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
