"""The reach gate: bench/reach.py rerun against the committed
BENCH_pipeline.json.  It fails on a wrong certificate or an exception, on
a changed outcome, grid budget or certificate (alpha, displacement), and
on grown f-evaluations or pivots, over all 156 reach cases: 57 under the
default grid budget and 99 at a huge one, in up to 48-D, 28 of them with
the fixed point off the origin and 54 random Voronoi maps (about nine to
eleven seconds on 2 vCPUs)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reach_matches_the_committed_bench(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "reach.py"), "--repeats", "1",
         "--out", str(tmp_path / "BENCH_pipeline.json"),
         "--check", str(ROOT / "BENCH_pipeline.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
