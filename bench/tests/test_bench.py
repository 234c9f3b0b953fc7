"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0",
                  "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            float(value)
            printed[name] = unit
    assert printed == wanted


def test_host_drift_cancels_from_scaled_timings():
    plan = {"replicate_steps": 100}

    def result(slowdown):
        passes = [{"traced": False, "calls": [], "wall_s": w * slowdown}
                  for w in (1.0, 1.2, 1.1)]
        return {"passes": passes, "peak_rss_mb": 64.0,
                "kernel_s": [k * slowdown for k in (0.02, 0.021, 0.019, 0.02)]}

    def setups(slowdown):
        return ([s * slowdown for s in (0.5, 0.6, 0.55)],
                [k * slowdown for k in (0.02, 0.022, 0.018, 0.02)])

    fast, _ = run.end_to_end(plan, result(1.0), *setups(1.0))
    slow, extras = run.end_to_end(plan, result(1.8), *setups(1.8))
    for name in ("wall_s", "setup_s", "replicate_steps_per_s"):
        assert slow[name] == pytest.approx(fast[name])
    assert extras["measured_wall_s"] == pytest.approx(1.1 * 1.8)
    assert fast["wall_s"] == pytest.approx(
        1.1 * reference.REFERENCE_S / 0.02)


def _slow_chain_paths(n):
    from urnlab.golden import JORDAN_CHAIN_BASIS, jordan_chain_spec
    from urnlab.sa import linear_paths, run_sa

    spec = jordan_chain_spec(0.3)
    plan = [1 << k for k in range(n.bit_length())]
    ref = run_sa(spec, n, 0, plan).checkpoints
    fast = linear_paths(spec.drift.matrix, spec.theta0, n, 0, plan,
                        replicates=[0], gamma_root=spec.noise.root,
                        basis=JORDAN_CHAIN_BASIS)
    return list(ref), [(k, x[0]) for k, x in fast]


def test_gate_catches_a_perturbed_checkpoint_array():
    ref, fast = _slow_chain_paths(256)
    assert workloads.paths_agree(ref, fast) is None
    k, x = fast[5]
    bad = x.copy()
    bad[1] *= 1.0 + 1e-7
    perturbed = fast[:5] + [(k, bad)] + fast[6:]
    assert "n=32" in workloads.paths_agree(ref, perturbed)


def test_tracer_patches_every_binding_and_restores_them():
    import urnlab.cli
    import urnlab.sa
    import urnlab.verify

    original = urnlab.sa.run_sa
    t = tracer.Tracer()
    t.install()
    try:
        assert urnlab.cli.run_sa is urnlab.sa.run_sa is urnlab.verify.run_sa
        assert urnlab.sa.run_sa is not original
        ref, fast = _slow_chain_paths(64)
    finally:
        t.uninstall()
    assert urnlab.cli.run_sa is urnlab.sa.run_sa is original
    assert t.missing == []
    summary = tracer.summarize(t.spans)
    assert summary["sa.run_sa"]["calls"] == 1
    assert summary["sa.run_sa"]["info"]["replicate_steps"] == 64
    take = summary["rng.BlockSource.take"]
    assert take["calls"] >= 64
    assert tracer.under(t.spans, "rng.BlockSource.take", "sa.run_sa")


def test_tracer_reports_a_missing_function():
    t = tracer.Tracer(targets={("sa", "no_such_engine"): None,
                               ("linalg", "mat_exp"): None})
    t.install()
    t.uninstall()
    assert t.missing == ["sa.no_such_engine"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "verify-urn", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
