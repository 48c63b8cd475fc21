#!/usr/bin/env python3
"""A/B of the pipeline against a git revision, in one process.

    python bench/ab.py HEAD~1                 # bits, then 10 timed rounds
    python bench/ab.py HEAD~1 --rounds 0      # bits only

REF's `src/ballfix` (from `git archive`) is imported as `ballfix_ref`,
beside the working tree's `ballfix`; the package imports itself
relatively, so the two copies share nothing.  Every library case of the
certify-fine and certify-coarse benchmark workloads
(`perfbench.workloads.build` on --seed; the CLI map-file cases are left
out) runs `run_pipeline` on both, each on its own copy of the built-in maps
and through a `perfbench.spans.CountingMap`, as the benchmark runs it.

The report first counts the cases whose result differs in any bit: z,
f(z), y, residual, pivots, the chain's terms, alpha, samples touched,
f-evaluations, the displacement recheck, or the error raised.  It then
runs --rounds timed rounds, each case on both copies back to back with
the first copy alternating from case to case and round to round, and prints
per workload the sum over cases of each copy's median time and the median
over cases of the per-case ratio of medians (working tree / REF).  The
last line of standard output is "K of N library cases changed bits".
Both copies run on the machine's speed of the moment, so their ratio is
the figure to read; compare absolute times only within one run.
"""

from __future__ import annotations

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import ballfix  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.spans import CountingMap  # noqa: E402

WORKLOADS = ("certify-fine", "certify-coarse")


def load_ref(ref: str, where: Path):
    """REF's ballfix package, imported as `ballfix_ref` from `where`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src/ballfix"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(where, filter="data")
    (where / "src" / "ballfix").rename(where / "ballfix_ref")
    sys.path.insert(0, str(where))
    return importlib.import_module("ballfix_ref")


def own_map(package, f):
    """f, or the package's own copy of it when it is a built-in map."""
    if isinstance(f, ballfix.maps.ExtremalMap):
        return package.maps.ExtremalMap(dim=f.dim, eps=f.eps)
    return f


def attempt(package, case) -> tuple[str, float]:
    """Every bit of one run_pipeline call, as a string, and its wall time."""
    counted = CountingMap(own_map(package, case.f))
    start = time.perf_counter()
    try:
        run = package.pipeline.run_pipeline(counted, case.dim, case.eps, case.eps_prime)
    except Exception as exc:  # a decline is a result too
        seconds = time.perf_counter() - start
        return f"{type(exc).__name__}: {exc}; f_evals {counted.f_evals}", seconds
    seconds = time.perf_counter() - start
    cert = run.certificate
    fields = (cert.z.tolist(), cert.fz.tolist(), cert.trace.y.tolist(), cert.trace.residual,
              cert.trace.pivots, cert.displacement, cert.jung_term, cert.anchor_term,
              run.params.alpha, len(run.grid), counted.f_evals, run.displacement_recheck)
    return repr(fields), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare with, e.g. HEAD~1")
    parser.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (0: bits only)")
    args = parser.parse_args(argv)
    if args.rounds < 0:
        parser.error("--rounds must be at least 0")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"ref": load_ref(args.ref, Path(tmp)), "tree": ballfix}
        cases = {w: [op for op in workloads.build(w, args.seed, Path(tmp))
                     if isinstance(op, workloads.CertifyCase)] for w in WORKLOADS}
        changed = total = 0
        for workload, ops in cases.items():
            diffs = [op.name for op in ops
                     if attempt(sides["ref"], op)[0] != attempt(sides["tree"], op)[0]]
            changed, total = changed + len(diffs), total + len(ops)
            print(f"{workload}: {len(diffs)} of {len(ops)} cases changed bits"
                  + (f" ({', '.join(diffs[:5])}{', ...' if len(diffs) > 5 else ''})"
                     if diffs else ""))
        for workload, ops in cases.items() if args.rounds else ():
            times = {side: [[] for _ in ops] for side in sides}
            for k in range(args.rounds):
                for i, op in enumerate(ops):
                    # both copies back to back, the first alternating, so that
                    # a change in the machine's speed meets both alike
                    for side in sorted(sides, reverse=bool((k + i) % 2)):
                        times[side][i].append(attempt(sides[side], op)[1])
            medians = {side: [statistics.median(t) for t in times[side]] for side in sides}
            ratio = statistics.median(b / a for a, b in zip(medians["ref"], medians["tree"]))
            print(f"{workload}: {args.rounds} rounds; sum of per-case medians "
                  f"{args.ref} {sum(medians['ref']) * 1e3:.2f} ms, "
                  f"tree {sum(medians['tree']) * 1e3:.2f} ms "
                  f"(x{sum(medians['tree']) / sum(medians['ref']):.3f}); "
                  f"median per-case ratio x{ratio:.3f}")
    print(f"{changed} of {total} library cases changed bits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
