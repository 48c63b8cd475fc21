"""Self-tests of the benchmark: its inputs, its checker and its spans."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from ballfix import maps, oracle, pipeline  # noqa: E402
from perfbench import run, spans, workloads  # noqa: E402
from perfbench.inputs import quantized_map  # noqa: E402


def _params(ops):
    rows = []
    for op in ops:
        f = getattr(op, "f", None)
        q = getattr(f, "q", np.zeros(1))
        c = getattr(f, "c", np.zeros(1))
        rows.append((op.name, getattr(op, "eps_prime", None), q.tobytes(), c.tobytes()))
    return rows


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path)
    again = workloads.build(workload, 7, tmp_path)
    assert _params(first) == _params(again)


def test_seeds_give_different_maps():
    a = quantized_map(np.random.default_rng(1), 2, 0.3, 2.0, 4.0)
    b = quantized_map(np.random.default_rng(2), 2, 0.3, 2.0, 4.0)
    assert not np.array_equal(a.q, b.q)


@pytest.mark.parametrize("dim, delta, gains, seed", [
    (1, 0.2, (2.0, 4.0), 3),
    (2, 0.3, (2.0, 4.0), 4),
    (2, 0.1, (0.5, 0.9), 5),
])
def test_modulus_of_generated_map_within_declared_eps(dim, delta, gains, seed):
    f = quantized_map(np.random.default_rng(seed), dim, delta, *gains)
    spec = oracle.GridSpec(dim=dim, points_per_axis=101)
    r = 0.9 * f.continuity_radius()
    assert r > spec.grid_step
    assert oracle.modulus_grid(f, r, spec) <= f.eps + 1e-9
    values = f.batch(oracle.ball_grid(spec))
    assert np.linalg.norm(values, axis=1).max() <= 1.0 + 1e-12


class _DisagreeingMap:
    """batch follows the extremal map; __call__ returns the point of the unit
    sphere farthest from x, so every point moves by at least 1."""

    def __init__(self):
        self._f = maps.ExtremalMap(dim=2, eps=1.0)
        self.dim, self.eps = 2, 1.0

    def batch(self, xs):
        return self._f.batch(xs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        norm = float(np.linalg.norm(x))
        return -x / norm if norm > 0 else np.eye(2)[0]


def test_checker_fails_a_map_whose_batch_disagrees_with_call():
    case = workloads.CertifyCase("disagree", _DisagreeingMap(), 2, 1.0, 0.70)
    result = case.execute(spans.Tracer())
    assert result.status == "wrong"
    assert "displacement" in result.detail
    good = workloads.CertifyCase("agree", maps.ExtremalMap(dim=2, eps=1.0), 2, 1.0, 0.70)
    assert good.execute(spans.Tracer()).status == "ok"


def test_span_sums_do_not_exceed_wall_time():
    ops = [
        workloads.CertifyCase("step", maps.StepMap1D(1.0), 1, 1.0, 0.55),
        workloads.CertifyCase("extremal", maps.ExtremalMap(dim=2, eps=1.0), 2, 1.0, 0.65),
        workloads.CertifyCase("reach", maps.ExtremalMap(dim=4, eps=1.0), 4, 1.0, 0.70),
    ]
    original = pipeline.build_sample_grid
    tracer = spans.Tracer()
    passes = run.run_passes(ops, 0.0, tracer, trace=True)
    assert pipeline.build_sample_grid is original
    traced = [p for p in passes if p["traced"]]
    assert traced
    for p in traced:
        first, last = p["spans"]
        totals = spans.span_totals(tracer.spans, range(first, last))
        assert {"pipeline.build_sample_grid", "pipeline.embed", "maps.batch"} <= set(totals)
        for name, entry in totals.items():
            assert 0.0 <= entry["self_s"] <= entry["s"] <= p["wall_s"], name
        roots = spans.group_by_root(tracer.spans, first, last)
        assert sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots) <= p["wall_s"]
        assert [r.status for r in p["results"]] == ["ok", "ok", "budget"]
    row = run.layer_metrics(tracer, passes)
    assert row["pipeline.fail.budget"] == 1
    assert row["pipeline.find_fixed_point.F_evals"] > 0


def test_certifying_a_declined_case_reads_as_a_gain():
    """A case that goes from declining to a cert slower than the median one
    must raise certs_per_s and lower the per-attempt figures."""
    limit = 2.5
    fast = [workloads.OpResult(f"fast-{i}", 0.1, "ok", f_evals=1000) for i in range(4)]
    before = fast + [workloads.OpResult("reach", 0.001, "budget", f_evals=0)]
    after = fast + [workloads.OpResult("reach", 2.0, "ok", f_evals=1_500_000)]
    old = run.rates([{"results": before}], limit)
    new = run.rates([{"results": after}], limit)
    assert new["certs_per_s"] > old["certs_per_s"]
    assert new["certified_frac"] > old["certified_frac"]
    assert new["f_evals_per_cert"] < old["f_evals_per_cert"]
    assert new["verify_s"] < old["verify_s"]
    assert new["cert_s_tail"][0] < old["cert_s_tail"][0]


def test_cli_case_is_rechecked_on_a_rebuilt_lattice(tmp_path):
    ops = workloads.build("certify-coarse", 3, tmp_path)
    case = next(op for op in ops if op.name == "cli-quantized-1d")
    assert case.execute(spans.Tracer()).status == "ok"
    alpha = next(iter(case._grids))
    assert len(case.grid(alpha)) > 0
    case.f, case._grids = _Shifted(case.f), {}
    result = case.execute(spans.Tracer())
    assert result.status == "wrong"
    assert "residual" in result.detail


class _Shifted:
    """Moves every value of a map by 0.5: the reported certificate no longer
    holds for it."""

    def __init__(self, f):
        self._f, self.dim, self.eps = f, f.dim, f.eps

    def __call__(self, x):
        return np.clip(self._f(x) + 0.5, -1.0, 1.0)

    def batch(self, xs):
        return np.clip(self._f.batch(xs) + 0.5, -1.0, 1.0)
