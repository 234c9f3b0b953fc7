"""tools/bench_file.py turns paired benchmark records into a BENCH file."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(wall, rss, src_lines, digest, failures=()):
    return {
        "workload": "verify-urn", "seed": 0, "seconds": 20.0, "trace": 0,
        "smoke": False, "src_lines": src_lines,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MiB"}},
        "digests": {"verify": digest}, "failures": list(failures),
        "environment": {"nproc": 2, "threads": 2, "python": "3.11.7",
                        "numpy": "2.4.6", "scipy": "1.17.1"},
    }


def test_bench_file_from_two_records(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "01-verify-urn.json").write_text(
        json.dumps(_record(0.5, 70.0, 4444, "ab")))
    (change / "01-verify-urn.json").write_text(
        json.dumps(_record(0.625, 60.0, 4358, "ab", ["gate x"])))
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(parent), str(change), "-o", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["src_lines"] == {"change": 4358, "parent": 4444}
    assert bench["command"] == ("python3 bench/run.py --workload W --seed S "
                                "--seconds 20 --trace T")
    assert bench["workloads"] == {"verify-urn-seed0": {
        "digests_equal": True,
        "failed": {"change": 1, "parent": 0},
        "metrics": {
            # lower is better for both, as BENCHMARK.json declares
            "peak_rss_mb": {"change_median": 60.0, "change_wins": 1,
                            "parent_iqr": [70.0, 70.0],
                            "parent_median": 70.0, "unit": "MiB"},
            "wall_s": {"change_median": 0.625, "change_wins": 0,
                       "parent_iqr": [0.5, 0.5], "parent_median": 0.5,
                       "unit": "s"}},
        "pairs": 1,
        "seed": 0}}
    assert "traced" not in bench
