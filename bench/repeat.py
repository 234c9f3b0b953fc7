"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 0-9 [--workloads a,b] [--trace 0|1]
                            [--summary PATH]

For every workload, one run per seed, one after another. For each metric:
the median over the seeds, the quartiles (statistics.quantiles, n=4) and
the spread, the distance between the quartiles as a share of the median.
An end-to-end spread above a third of the metric's bound in
BENCHMARK.json is flagged, as is any run that is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# fields of each run's record that the summary keeps
KEPT = ("digests", "verdicts", "environment", "src_lines", "extras")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, elapsed
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", help="write the summary JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result, elapsed = one_run(spec, workload, seed, args.trace)
            ok = result is not None and result["correct"]
            steady &= ok
            print(f"{workload} seed {seed}: {elapsed:.1f} s"
                  f"{'' if ok else '  NOT CORRECT'}", flush=True)
            record = os.path.join(
                HERE, "out", "records",
                f"{workload}-seed{seed}-trace{args.trace}.json")
            if result is not None:
                with open(record, encoding="utf-8") as fh:
                    rec = json.load(fh)
                result = {**result, **{k: rec[k] for k in KEPT}}
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result})
        values = {}
        for run in runs:
            for name, m in (run["result"] or {}).get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        table = {}
        for name, xs in sorted(values.items()):
            med = statistics.median(xs)
            q1, _, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                         else (xs[0], xs[0], xs[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "n": len(xs)}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  above a third of bound {bounds[name]}"
                steady = False
            print(f"  {name:<48} median {med:<14.6g} spread {spread:.4f}{flag}")
        summary[workload] = {"runs": runs, "metrics": table}
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
