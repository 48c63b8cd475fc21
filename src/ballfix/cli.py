"""Command-line front end.

Subcommands: radius | extremal | pipeline | verify | figure.  Reports are
JSON (schema documented in docs/schemas.md, carried in each report's
schema_version field) or CSV; the figure subcommand emits an SVG of the
planar extremal construction.  All output is deterministic for a fixed
configuration and seed.  Exit codes: the EXIT_* constants below, whose
meanings are tabled in docs/schemas.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import maps, oracle, pipeline
from .errors import (
    BudgetExceededError,
    DomainError,
    HypothesisError,
    NoConvergenceError,
    SolverError,
)
from .geometry import check_dim, check_eps, jung_radius

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_SOLVER = 6

_SVG_SIZE = 512
_SVG_RADIUS = 240.0
_CELL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c")  # blue, orange, green

__all__ = ["main", "build_parser", "load_sampled_map", "dump_sampled_map", "render_figure"]


# --- serialization helpers --------------------------------------------------


def _numpy_to_json(obj):
    """json.dumps hook for numpy arrays and scalars (np.float64 is a float)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_numpy_to_json) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def load_sampled_map(path: str) -> maps.SampledMap:
    """Read the SampledMap JSON record (schema_version, dim, eps,
    covering_radius, points, values).  SampledMap checks all but the
    version, dim and the points' shape, and every rejection names the file."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
        version = raw["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:  # not true, 1.0 or "1"
            raise DomainError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        dim = check_dim(raw["dim"])
        points, values = np.asarray(raw["points"]), np.asarray(raw["values"])
        for key, value in (("points", points), ("values", values), ("eps", raw.get("eps")),
                           ("covering_radius", raw["covering_radius"])):  # float() reads "1", true
            if value is not None and np.asarray(value).dtype.kind not in "iuf":
                raise DomainError(f"{key} must be numeric, got dtype {np.asarray(value).dtype}")
        if points.ndim != 2 or points.shape[1] != dim:
            raise DomainError(f"points must be an (m, {dim}) array")
        return maps.SampledMap(points, values, covering_radius=raw["covering_radius"],
                               eps=raw.get("eps"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed sampled-map file {path}: {exc}") from exc


def dump_sampled_map(m: maps.SampledMap, path: str) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "dim": m.dim,
        "eps": m.eps,
        "covering_radius": m.covering_radius,
        "points": m.points,
        "values": m.values,
    }
    Path(path).write_text(_dumps(record))


# --- subcommands ------------------------------------------------------------


def _write_csv(header: list[str], rows, out: str | None) -> None:
    """A header line, then each row's Python ints and floats by repr."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _write_output("\n".join(lines) + "\n", out)


def cmd_radius(args) -> int:
    check_dim(args.n)
    check_eps(args.eps)
    rows = [
        {"n": k, "jung_radius": jung_radius(k), "bound": args.eps / jung_radius(k)}
        for k in range(1, args.n + 1)
    ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "report": "radius",
        "eps": args.eps,
        "rows": rows,
    }
    if args.format == "json":
        _write_output(_dumps(report), args.out)
    else:
        _write_csv(list(rows[0]), [r.values() for r in rows], args.out)
    return EXIT_OK


def _write_displacement_csv(extremal: maps.ExtremalMap, args) -> None:
    """One CSV row per ball grid point: its coordinates and displacement."""
    spec = oracle.GridSpec(dim=args.n, points_per_axis=args.resolution)
    rows = (row + [d]
            for chunk, disp in oracle.displacement_rows(extremal, spec, args.budget)
            for row, d in zip(chunk.tolist(), disp.tolist()))
    _write_csv([f"x{i}" for i in range(args.n)] + ["displacement"], rows, args.out)


def cmd_extremal(args) -> int:
    extremal = maps.ExtremalMap(dim=args.n, eps=args.eps)
    if args.format == "csv":
        _write_displacement_csv(extremal, args)
        return EXIT_OK
    report_data = oracle.tightness_report(args.n, args.eps, points_per_axis=args.resolution,
                                          budget=args.budget)
    report = {
        "schema_version": SCHEMA_VERSION,
        "report": "extremal",
        "n": args.n,
        "eps": args.eps,
        "image_diameter": maps.image_diameter(extremal),
        "theoretical_bound": extremal.scale,
        "tightness": asdict(report_data),
    }
    _write_output(_dumps(report), args.out)
    return EXIT_OK


def _build_map(args):
    if args.value is not None and (args.map_file is not None or args.map != "constant"):
        raise DomainError("--value applies only to --map constant")
    if args.map_file is not None:
        sampled = load_sampled_map(args.map_file)
        if args.n not in (None, sampled.dim):
            raise DomainError(f"--n {args.n} does not match the {sampled.dim}-D map file")
        if args.eps is None and sampled.eps is None:
            raise DomainError("sampled-map file carries no eps; pass --eps")
        eps = args.eps if args.eps is not None else sampled.eps
        return sampled, sampled.dim, eps
    if args.eps is None:
        raise DomainError("--eps is required for built-in maps")
    name = args.map
    if name == "step":
        if args.n not in (None, 1):
            raise DomainError("the step map is 1-D; drop --n or pass --n 1")
        return maps.StepMap1D(args.eps), 1, args.eps
    if args.n is None:
        raise DomainError(f"--n is required for the {name} map")
    if name == "extremal":
        return maps.ExtremalMap(dim=args.n, eps=args.eps), args.n, args.eps
    if name == "constant":
        value = np.zeros(args.n)
        if args.value is not None:
            value = np.asarray([float(v) for v in args.value.split(",")], dtype=float)
            if value.shape[0] != args.n:
                raise DomainError(f"--value must have {args.n} coordinates")
        return maps.ConstantMap(value), args.n, args.eps
    return maps.IdentityMap(args.n), args.n, args.eps  # the parser admits no other map


def cmd_pipeline(args) -> int:
    f, dim, eps = _build_map(args)
    run = pipeline.run_pipeline(f, dim, eps, args.eps_prime, grid_budget=args.budget)
    cert = run.certificate
    report = {
        "schema_version": SCHEMA_VERSION,
        "report": "pipeline",
        "map": args.map if args.map_file is None else "sampled-file",
        "params": asdict(run.params),
        "grid_points": len(run.grid),
        "certificate": {
            "z": cert.z,
            "fz": cert.fz,
            "displacement": cert.displacement,
            "bound": cert.bound,
            "fixed_point": cert.trace.y,
            "residual": cert.trace.residual,
            "support_index": cert.support_index,
            "jung_term": cert.jung_term,
            "anchor_term": cert.anchor_term,
        },
        "displacement_recheck": run.displacement_recheck,
    }
    _write_output(_dumps(report), args.out)
    if args.out not in (None, "-"):
        print(
            f"certificate: displacement {cert.displacement:.9f} < {cert.bound} "
            f"at sample {np.array2string(cert.z, precision=6)} "
            f"(residual {cert.trace.residual:.2e}, alpha {run.params.alpha})")
    return EXIT_OK


def cmd_verify(args) -> int:
    passed = oracle.jung_random_test(args.n, args.trials, seed=args.seed) is None
    if args.format == "csv":  # the displacement CSV of `extremal`; no tightness sweep
        _write_displacement_csv(maps.ExtremalMap(dim=args.n, eps=args.eps), args)
    else:
        tightness = oracle.tightness_report(args.n, args.eps, points_per_axis=args.resolution,
                                            budget=args.budget)
        report = {
            "schema_version": SCHEMA_VERSION,
            "report": "verify",
            "tightness": asdict(tightness),
            "jung_test": {
                "dim": args.n,
                "trials": args.trials,
                "seed": args.seed,
                "passed": passed,
            },
        }
        _write_output(_dumps(report), args.out)
    return EXIT_OK if passed else EXIT_COUNTEREXAMPLE


def _svg_point(angle: float, radius: float) -> tuple[float, float]:
    cx = _SVG_SIZE / 2.0
    return (cx + radius * math.cos(angle), cx - radius * math.sin(angle))


def render_figure(eps: float) -> str:
    """SVG of the planar extremal construction: unit circle, the three
    Voronoi sectors in blue/orange/green, their image points, and a dotted
    circle at the optimal displacement radius eps/sqrt(3)."""
    extremal = maps.ExtremalMap(dim=2, eps=eps)
    inner_ratio = eps / math.sqrt(3.0)
    cx = _SVG_SIZE / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'  <rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    angles = [math.atan2(v[1], v[0]) for v in extremal.vertices.points]
    third = 2.0 * math.pi / 3.0
    for i, theta in enumerate(angles):
        x0, y0 = _svg_point(theta - third / 2.0, _SVG_RADIUS)
        x1, y1 = _svg_point(theta + third / 2.0, _SVG_RADIUS)
        parts.append(
            f'  <path d="M {cx:.6f} {cx:.6f} L {x0:.6f} {y0:.6f} '
            f'A {_SVG_RADIUS:.6f} {_SVG_RADIUS:.6f} 0 0 0 {x1:.6f} {y1:.6f} Z" '
            f'fill="{_CELL_COLORS[i]}" fill-opacity="0.35" '
            f'stroke="#888888" stroke-width="1"/>')
    parts.append(
        f'  <circle id="unit-circle" cx="{cx:.6f}" cy="{cx:.6f}" '
        f'r="{_SVG_RADIUS:.6f}" fill="none" stroke="black" stroke-width="1.5"/>')
    parts.append(
        f'  <circle id="bound-circle" cx="{cx:.6f}" cy="{cx:.6f}" '
        f'r="{inner_ratio * _SVG_RADIUS:.6f}" fill="none" stroke="black" '
        f'stroke-width="1" stroke-dasharray="4 4"/>')
    for i, (v, image) in enumerate(zip(extremal.vertices.points, extremal.image_points().points)):
        px = cx + image[0] * _SVG_RADIUS
        py = cx - image[1] * _SVG_RADIUS
        parts.append(
            f'  <circle cx="{px:.6f}" cy="{py:.6f}" r="5" fill="{_CELL_COLORS[i]}" '
            f'stroke="black" stroke-width="0.5"/>')
        vx, vy = cx + v[0] * _SVG_RADIUS, cx - v[1] * _SVG_RADIUS
        parts.append(
            f'  <circle cx="{vx:.6f}" cy="{vy:.6f}" r="3.5" fill="{_CELL_COLORS[i]}"/>')
    if inner_ratio > 1.0:
        parts.append(
            f'  <text x="8" y="20" font-size="13" fill="#aa0000">'
            f'warning: displacement radius {inner_ratio:.6f} exceeds the unit disk</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args) -> int:
    svg = render_figure(args.eps)
    _write_output(svg, args.out)
    if args.out not in (None, "-"):
        print(f"figure written to {args.out}")
    return EXIT_OK


# --- parser and entry point -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballfix",
        description="Near-fixed points of discontinuous self-maps of the unit ball: "
                    "constructions, certificates, and brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=False, seed=False, resolution=None, budget=None):
        """--out on every subcommand; the other flags where it reads them."""
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if resolution is not None:
            p.add_argument("--resolution", type=int, default=resolution,
                           help="grid points per axis")
        if budget is not None:
            p.add_argument("--budget", type=int, default=budget,
                           help="max grid points")

    p = sub.add_parser("radius", help="table of jung_radius(n) and eps/jung_radius(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    common(p, formats=True)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("extremal", help="build the extremal map and certify it on a grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    common(p, formats=True, resolution=201, budget=oracle.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("pipeline", help="run the certificate pipeline on a map")
    p.add_argument("--map", choices=("step", "extremal", "constant", "identity"),
                   default="step")
    p.add_argument("--map-file", default=None,
                   help="path to a sampled-map JSON file (overrides --map)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, required=True)
    p.add_argument("--value", default=None,
                   help="comma-separated constant-map value")
    common(p, budget=pipeline.DEFAULT_GRID_BUDGET)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("verify", help="tightness sweep plus randomized Jung test")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=2000)
    common(p, formats=True, seed=True, resolution=201, budget=oracle.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="SVG of the planar extremal construction")
    p.add_argument("--eps", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_figure)

    return parser


@functools.cache  # one parser per process: parse_args leaves it as it was
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (BudgetExceededError, NoConvergenceError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
