#!/usr/bin/env python3
"""Benchmark of ballfix: one workload per process, closed loop.

    python3 perfbench/run.py --workload certify-fine --seed 1 --seconds 20 --trace 0

Builds the workload's seeded inputs, then runs whole passes over its
operations, one at a time, for about --seconds (no pass is started that is
expected to end later).
Every output is checked.  With --trace 0 the end-to-end metrics are
reported; with --trace 1 passes alternate between untraced and traced, and
the per-layer metrics come from the traced passes.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details, the environment and (with --trace 1) every span are written under
perfbench/out/.  `--workload all` runs each workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("certify-fine", "certify-coarse", "oracle-verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4  # set-up is also timed in this many fresh processes
DECLINED = ("budget", "no_convergence", "certificate")
ANCHOR = "extremal-2d-0.60"  # the ROADMAP baseline case


def pin_threads() -> int:
    """Cap BLAS/OpenMP thread counts at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),  # what cKDTree workers=-1 uses
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


# --- measurement ----------------------------------------------------------------


def run_passes(ops: list, seconds: float, tracer, trace: bool) -> list[dict]:
    """Whole passes over `ops` while the next pass is expected (from the
    median pass so far) to end within `seconds`.  With trace, passes
    alternate untraced and traced, and at least one pass of each kind runs."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 1 + trace or (
            time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes)
            <= seconds):
        traced = trace and len(passes) % 2 == 1
        first, counts = len(tracer.spans), Counter(tracer.counts)
        pass_start = time.perf_counter()
        if traced:
            with tracer.installed():
                results = [execute(op, tracer) for op in ops]
        else:
            results = [execute(op, tracer) for op in ops]
        passes.append({
            "traced": traced,
            "wall_s": time.perf_counter() - pass_start,
            "results": results,
            "spans": (first, len(tracer.spans)),
            "counts": tracer.counts - counts,
        })
    return passes


def execute(op, tracer):
    """One operation; an exception escaping its check counts as `other`."""
    from perfbench.workloads import OpResult
    try:
        return op.execute(tracer)
    except Exception as exc:  # recorded and reported, the run goes on
        return OpResult(op.name, 0.0, "other", repr(exc))


def tail(sorted_times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    n = len(sorted_times)
    if n <= 10:
        return sorted_times[-1], f"max of {n} samples"
    return sorted_times[n - 11], f"p{100.0 * (n - 10) / n:.0f}, 10 of {n} samples beyond"


def rates(passes: list[dict], cert_limit_s: float) -> dict:
    """End-to-end figures over every attempt of the given passes.  An
    attempt that gave no checked cert costs its own call time plus
    `cert_limit_s`, and its own f-evaluations plus the grid-budget charge."""
    from perfbench.workloads import GRID_BUDGET_CHARGE

    def cost_s(r):
        return r.seconds + (0.0 if r.status == "ok" else cert_limit_s)

    results = [r for p in passes for r in p["results"]]
    certs = sum(r.status == "ok" for r in results)
    times = sorted(cost_s(r) for r in results)
    evals = sum((r.f_evals or 0) + (0 if r.status == "ok" else GRID_BUDGET_CHARGE)
                for r in results)
    return {
        "certs_per_s": certs / sum(times),
        "cert_s_p50": statistics.median(times),
        "cert_s_tail": tail(times),
        "f_evals_per_cert": evals / max(certs, 1),
        "certified_frac": certs / len(results),
        "verify_s": statistics.median(sum(cost_s(r) for r in p["results"]) for p in passes),
    }


def layer_metrics(tracer, passes: list[dict]) -> dict:
    """Per-layer figures of each traced pass, median over traced passes."""
    from perfbench.spans import span_totals

    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        first, last = p["spans"]
        totals = span_totals(tracer.spans, range(first, last))
        counts = p["counts"]

        def seconds(name):
            return totals.get(name, {}).get("s", 0.0)

        statuses = Counter(r.status for r in p["results"])
        embeds = counts["pipeline.embed.calls"]
        row = {
            "maps.f_evals": sum(r.f_evals or 0 for r in p["results"]),
            "maps.batch_calls": counts["maps.batch_calls"],
            "maps.eval_s": seconds("maps.batch") + seconds("maps.call"),
            "pipeline.build_sample_grid.calls": counts["pipeline.build_sample_grid.calls"],
            "pipeline.build_sample_grid.points": counts["pipeline.build_sample_grid.points"],
            "pipeline.build_sample_grid.s": seconds("pipeline.build_sample_grid"),
            "pipeline.simplicial_image_check.s": seconds("pipeline.simplicial_image_check"),
            "pipeline.simplicial_image_check.rejects":
                counts["pipeline.simplicial_image_check.rejects"],
            "pipeline.find_fixed_point.s": seconds("pipeline.find_fixed_point"),
            "pipeline.find_fixed_point.F_evals": counts["pipeline.find_fixed_point.F_evals"],
            "pipeline.embed.calls": embeds,
            "pipeline.embed.s": seconds("pipeline.embed"),
            "pipeline.embed.support_mean":
                counts["pipeline.embed.support"] / embeds if embeds else 0.0,
            "pipeline.extract_certificate.s": seconds("pipeline.extract_certificate"),
            "pipeline.fail.budget": statuses["budget"],
            "pipeline.fail.no_convergence": statuses["no_convergence"],
            "pipeline.fail.certificate": statuses["certificate"],
            "pipeline.fail.other": statuses["other"],
            "check.wrong": statuses["wrong"],
            "oracle.tightness_report.s": seconds("oracle.tightness_report"),
            "oracle.modulus_grid.s": seconds("oracle.modulus_grid"),
            "oracle.jung_random_test.s": seconds("oracle.jung_random_test"),
            "geometry.min_enclosing_ball.s": seconds("geometry.min_enclosing_ball"),
            "cli.main.self_s": totals.get("cli.main", {}).get("self_s", 0.0),
        }
        row.update(anchor_row(tracer, p))
        per_pass.append(row)
    return {key: statistics.median(row[key] for row in per_pass) for key in per_pass[0]}


def case_rows(tracer, p: dict) -> dict[str, dict]:
    """Per case of one traced pass: wall time and its split over layers."""
    from perfbench.spans import group_by_root, span_totals

    first, last = p["spans"]
    rows = {}
    results = {r.name: r for r in p["results"]}
    for root, indices in group_by_root(tracer.spans, first, last).items():
        name = tracer.spans[root][0].removeprefix("case:")
        totals = span_totals(tracer.spans, indices)
        rows[name] = {key: totals.get(span, {}).get("s", 0.0) for key, span in (
            ("wall_s", "case:" + name),
            ("build_s", "pipeline.build_sample_grid"),
            ("rips_s", "pipeline.simplicial_image_check"),
            ("solve_s", "pipeline.find_fixed_point"),
            ("certificate_s", "pipeline.extract_certificate"))}
        rows[name]["f_evals"] = results[name].f_evals
        rows[name]["f_calls"] = results[name].f_calls
        rows[name]["status"] = results[name].status
    return rows


def anchor_row(tracer, p: dict) -> dict:
    row = case_rows(tracer, p).get(ANCHOR)
    if row is None:
        return {"anchor.f_evals": 0, "anchor.batch_rows": 0, "anchor.s": 0.0,
                "anchor.lattice_rips_frac": 0.0, "anchor.solve_s": 0.0}
    return {
        "anchor.f_evals": row["f_evals"],
        "anchor.batch_rows": row["f_evals"] - row["f_calls"],
        "anchor.s": row["wall_s"],
        "anchor.lattice_rips_frac": (row["build_s"] + row["rips_s"]) / row["wall_s"],
        "anchor.solve_s": row["solve_s"],
    }


# --- reporting ------------------------------------------------------------------

UNITS = {
    "setup_s": "s", "certs_per_s": "1/s", "cert_s_p50": "s", "cert_s_tail": "s",
    "f_evals_per_cert": "count", "certified_frac": "ratio", "verify_s": "s",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "support_mean")):
        return "ratio"
    if name.startswith("trace.certs_per_s"):
        return "1/s"
    return "count"


def outcome_lines(passes: list[dict]) -> tuple[list[str], int, int]:
    results = [r for p in passes for r in p["results"]]
    statuses = Counter(r.status for r in results)
    failed = statuses["wrong"] + statuses["other"]
    lines = [
        f"check: {'PASS' if failed == 0 else 'FAIL'}  attempted {len(results)}  "
        f"certified {statuses['ok']}  failed {failed} "
        f"(wrong {statuses['wrong']}, other {statuses['other']})",
        "uncertified by cause: " + "  ".join(
            f"pipeline.fail.{cause} {statuses[cause]}" for cause in DECLINED),
    ]
    seen = set()
    for r in results:
        if r.status != "ok" and (r.name, r.status) not in seen:
            seen.add((r.name, r.status))
            lines.append(f"  {r.name}: {r.status} {r.detail[:160]}")
    return lines, len(results), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    nproc = pin_threads()
    setup_start = time.perf_counter()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import spans, workloads
    except ImportError as exc:
        print(f"cannot import the benchmark or ballfix from {ROOT}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT_DIR)
    setup_s = time.perf_counter() - setup_start
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    env = environment(nproc)
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer()
    passes = run_passes(ops, args.seconds, tracer, bool(args.trace))
    cert_limit_s = workloads.CERT_LIMIT_S[args.workload]
    lines, attempted, failed = outcome_lines(passes)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(passes)}  ops/pass {len(ops)}  "
          f"cert_limit_s {cert_limit_s:g}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": len(passes),
              "cert_limit_s": cert_limit_s}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = layer_metrics(tracer, passes)
        values["trace.certs_per_s_traced"] = rates(traced, cert_limit_s)["certs_per_s"]
        values["trace.certs_per_s_untraced"] = rates(
            [p for p in passes if not p["traced"]], cert_limit_s)["certs_per_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        record["cases"] = case_rows(tracer, traced[0])
        if ANCHOR in record["cases"]:
            print(f"{ANCHOR} (first traced pass): " + json.dumps(record["cases"][ANCHOR]))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    else:
        values = rates(passes, cert_limit_s)
        values["cert_s_tail"], tail_note = values["cert_s_tail"]
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        record["setup_samples_s"] = setup_samples
    for name, metric in metrics.items():
        note = f"  ({tail_note})" if name == "cert_s_tail" and not args.trace else ""
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}{note}")
    for line in lines:
        print(line)
    record["metrics"] = metrics
    record["ops"] = [vars(r) for r in passes[0]["results"]]
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=900)
        code = code or done.returncode
    return code


if __name__ == "__main__":
    raise SystemExit(main())
