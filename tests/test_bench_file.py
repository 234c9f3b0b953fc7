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
        "digests_changed": [],
        "failed": {"change": 1, "parent": 0},
        "metrics": {
            # lower is better for both, as BENCHMARK.json declares
            "peak_rss_mb": {"change_median": 60.0, "change_wins": 1,
                            "gain": True, "parent_iqr": [70.0, 70.0],
                            "parent_median": 70.0, "parent_spread": 0.0,
                            "status": "within", "unit": "MiB",
                            "worse_by": -0.142857},
            # 25% slower is at the bound, not past it
            "wall_s": {"change_median": 0.625, "change_wins": 0,
                       "gain": False, "parent_iqr": [0.5, 0.5],
                       "parent_median": 0.5,
                       "parent_spread": 0.0, "status": "within",
                       "unit": "s", "worse_by": 0.25}},
        "pairs": 1,
        "seed": 0}}
    assert "traced" not in bench


def test_bench_file_names_the_calls_whose_digests_differ(tmp_path):
    for side, mean in (("parent", "cd"), ("change", "ef")):
        (tmp_path / side).mkdir()
        for i in range(2):
            rec = _record(0.5, 70.0, 4444, "ab")
            rec["digests"]["mean"] = mean
            (tmp_path / side / f"{i:02d}-verify-urn.json").write_text(
                json.dumps(rec))
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "-o", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["workloads"]["verify-urn-seed0"]["digests_changed"] == [
        "mean"]


def _wall(tmp_path, parent_walls, change_walls):
    """The BENCH entry of wall_s (bound 0.25, lower is better) over paired
    runs: the parent's and the change's, with peak_rss_mb equal on both
    sides."""
    for side, walls in (("parent", parent_walls), ("change", change_walls)):
        (tmp_path / side).mkdir()
        for i, wall in enumerate(walls):
            (tmp_path / side / f"{i:02d}-verify-urn.json").write_text(
                json.dumps(_record(wall, 70.0, 4444, "ab")))
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "-o", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["verify-urn-seed0"][
        "metrics"]
    assert metrics["peak_rss_mb"]["status"] == "within"
    assert not metrics["peak_rss_mb"]["gain"]  # all ties
    return metrics["wall_s"]


def _verdicts(tmp_path, parent_walls, change_walls):
    wall = _wall(tmp_path, parent_walls, change_walls)
    return wall["status"], wall["worse_by"], wall["parent_spread"]


# a parent whose quartiles are 1.0 and 1.5 around its median 1.0
SPREAD = [0.5, 1.0, 1.0, 1.5, 2.0]


def test_bench_file_status_worse(tmp_path):
    # 30% slower in the median is past the 25% bound, however tight
    assert _verdicts(tmp_path, [1.0] * 5, [1.3] * 5) == ("worse", 0.3, 0.0)


def test_bench_file_status_unresolved(tmp_path):
    # 10% slower is within the bound, but the parent spreads over 50% of
    # its median and the change does not beat every parent run
    assert _verdicts(tmp_path, SPREAD, [1.1] * 5) == ("unresolved", 0.1, 0.5)


def test_bench_file_status_within_when_every_run_is_better(tmp_path):
    # as wide a parent, but every change run beats every parent run
    assert _verdicts(tmp_path, SPREAD, [0.4] * 5) == ("within", -0.6, 0.5)


def test_bench_file_verdict_for_a_higher_is_better_metric():
    verdict = _tool()._verdict
    # 30% fewer steps per second is worse; 30% more is better
    assert verdict([100.0] * 3, [70.0] * 3, False, 0.25) == (
        0.3, 0.0, "worse")
    assert verdict([100.0] * 3, [130.0] * 3, False, 0.25) == (
        -0.3, 0.0, "within")


# ten parent runs with quartiles 1.0 and 1.1 around a median of 1.05
TEN = [0.9, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1, 1.1, 1.1, 1.2]


def test_bench_file_gain_met(tmp_path):
    # the change wins 9 of 10 pairs (one tie) and its median, 0.8, lies
    # 0.25 below the parent's, beyond the parent's IQR of 0.1
    change = [0.8] * 9 + [1.2]
    wall = _wall(tmp_path, TEN, change)
    assert wall["change_wins"] == 9 and wall["gain"]


def test_bench_file_gain_needs_nine_wins_in_ten(tmp_path):
    # as large a gap, but only 8 wins: two pairs are ties
    change = [0.8] * 8 + [1.1, 1.2]
    wall = _wall(tmp_path, TEN, change)
    assert wall["change_wins"] == 8 and not wall["gain"]


def test_bench_file_gain_needs_a_gap_beyond_the_parent_iqr(tmp_path):
    # every pair won, but the medians lie 0.06 apart, inside the IQR of 0.1
    change = [w - 0.06 for w in TEN]
    wall = _wall(tmp_path, TEN, change)
    assert wall["change_wins"] == 10 and not wall["gain"]
