"""Write a BENCH file from paired benchmark records.

    python3 tools/bench_file.py PARENT_DIR CHANGE_DIR -o BENCH_<n>.json

Each directory holds the record JSONs that `bench/run.py` leaves in
`bench/out/records/`, copied there after every run under names that sort
in run order (e.g. `03-verify-urn.json`). Untraced records of one workload
and seed form pairs: the i-th parent record with the i-th change record.
For each pair group the file gives every end-to-end metric's parent and
change medians, the parent's quartiles, and the number of pairs the change
wins, with the better direction read from BENCHMARK.json; the call
labels whose artifact digest in any record differs from the first parent
record's; and the failed operations on each side. Traced records give
per-layer medians. Standard library only.

Each end-to-end metric also carries the no-regression verdict against its
`bound` in BENCHMARK.json:

    worse_by       relative change of the median in the metric's worse
                   direction (negative when the change is better)
    parent_spread  the parent's interquartile range over its median
    status         "worse" when worse_by exceeds the bound; otherwise
                   "unresolved" when parent_spread exceeds the bound and
                   not every change run beats every parent run; otherwise
                   "within"

and the verdict on a claimed gain:

    gain           true when the change wins at least 9 of every 10 pairs
                   (ties count for neither side) and its median beats the
                   parent's by more than the parent's interquartile range
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _records(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    if not out:
        sys.exit(f"bench_file: no record JSONs in {directory}")
    return out


def _groups(records):
    """Records by (trace, label) in run order; label is workload-seedS."""
    groups = {}
    for rec in records:
        label = f"{rec['workload']}-seed{rec['seed']}"
        if rec["smoke"]:
            label += "-smoke"
        groups.setdefault((rec["trace"], label), []).append(rec)
    return groups


def _round(x):
    return float(f"{x:.6g}")


def _quartiles(values):
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _only(values, what):
    values = set(values)
    if len(values) != 1:
        sys.exit(f"bench_file: records disagree on {what}: {sorted(values)}")
    return values.pop()


def _verdict(p, c, lower, bound):
    """(worse_by, parent_spread, status) of parent runs p and change runs
    c; see the module docstring."""
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = _quartiles(p)
    worse_by = (cm - pm if lower else pm - cm) / pm
    spread = (q3 - q1) / pm
    beats = max(c) < min(p) if lower else min(c) > max(p)
    if worse_by > bound:
        status = "worse"
    elif spread > bound and not beats:
        status = "unresolved"
    else:
        status = "within"
    return worse_by, spread, status


def _paired(parent, change, end_to_end):
    if len(parent) != len(change):
        sys.exit(f"bench_file: {parent[0]['workload']} seed "
                 f"{parent[0]['seed']} has {len(parent)} parent and "
                 f"{len(change)} change records")
    metrics = {}
    for name, rec in sorted(parent[0]["metrics"].items()):
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        lower = end_to_end[name]["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        worse_by, spread, status = _verdict(p, c, lower,
                                            end_to_end[name]["bound"])
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = _quartiles(p)
        metrics[name] = {
            "change_median": _round(cm),
            "change_wins": wins,
            "gain": 10 * wins >= 9 * len(p)
                    and (pm - cm if lower else cm - pm) > q3 - q1,
            "parent_iqr": [_round(q1), _round(q3)],
            "parent_median": _round(pm),
            "parent_spread": _round(spread),
            "status": status,
            "unit": rec["unit"],
            "worse_by": _round(worse_by),
        }
    digests = parent[0]["digests"]
    return {
        "digests_changed": sorted(
            {label for r in parent + change
             for label in digests.keys() | r["digests"].keys()
             if r["digests"].get(label) != digests.get(label)}),
        "failed": {"change": sum(len(r["failures"]) for r in change),
                   "parent": sum(len(r["failures"]) for r in parent)},
        "metrics": metrics,
        "pairs": len(parent),
        "seed": parent[0]["seed"],
    }


def _traced(parent, change):
    def medians(records):
        return {name: _round(statistics.median(
                    r["metrics"][name]["value"] for r in records))
                for name in sorted(records[0]["metrics"])}
    return {"change": medians(change), "parent": medians(parent)}


def bench_file(parent_dir, change_dir, benchmark):
    parent, change = _records(parent_dir), _records(change_dir)
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    pg, cg = _groups(parent), _groups(change)
    if set(pg) != set(cg):
        sys.exit("bench_file: the two directories hold different workloads: "
                 f"{sorted(set(pg) ^ set(cg))}")
    env = parent[0]["environment"]
    seconds = _only((r["seconds"] for r in parent + change), "--seconds")
    out = {
        "command": f"python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "host": f"{env['nproc']}-core host, Python {env['python']}, numpy "
                f"{env['numpy']}, scipy {env['scipy']}; bench/run.py "
                f"--threads {env['threads']}",
        "pairs": "the i-th parent record is paired with the i-th change "
                 "record of the same workload and seed, in run order",
        "src_lines": {
            "change": _only((r["src_lines"] for r in change), "src_lines"),
            "parent": _only((r["src_lines"] for r in parent), "src_lines")},
        "workloads": {label: _paired(pg[trace, label], cg[trace, label],
                                     end_to_end)
                      for trace, label in sorted(pg) if not trace},
    }
    traced = {label: _traced(pg[trace, label], cg[trace, label])
              for trace, label in sorted(pg) if trace}
    if traced:
        out["traced"] = traced
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="directory of the parent's records")
    p.add_argument("change", help="directory of the change's records")
    p.add_argument("-o", "--out", required=True, help="BENCH file to write")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    out = bench_file(args.parent, args.change, benchmark)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
