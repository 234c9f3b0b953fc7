"""The urnlab benchmark: one workload, one closed-loop run, one result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; urnlab is imported from its src/. The process makes
the workload's inputs from --seed, probes set-up time in fresh processes,
then starts one fresh workload process that imports urnlab once and runs
passes of the workload through the CLI (urnlab.cli.main in process) and
public library functions until --seconds have passed. One caller, one
workload process at a time. Timings are scaled to a reference host speed
measured beside them (reference.py). It checks the outputs, prints
every metric by name and unit, writes a record under bench/out/records/,
and prints one JSON object as its last line. --trace 1 gives the per-layer
metrics of a traced run instead of the end-to-end ones. See
bench/README.md.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7   # fresh processes whose set-up time gives setup_s
DEADLINE_S = 175.0  # the whole run, probes included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "replicate_steps_per_s": "1/s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env(threads):
    env = dict(os.environ)
    env.pop("URNLAB_SEED", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def _spawn(args, env, deadline):
    """Start a child; returns (seconds to ready, Popen).

    The child writes "ready" on a pipe once it has imported urnlab and
    loaded its configs; the time to that line is its set-up time.
    """
    r, w = os.pipe()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--ready-fd", str(w)] + args,
            pass_fds=(w,), env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    finally:
        os.close(w)
    line = b""
    try:
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                raise BenchError("workload process did not get ready in time")
            chunk = os.read(r, 64)
            if not chunk:
                raise BenchError("workload process exited during set-up")
            line += chunk
    except BaseException:  # never leave the child running
        _stop(proc)
        raise
    finally:
        os.close(r)
    return time.perf_counter() - t0, proc


def _stop(proc):
    proc.kill()
    proc.wait()


def _wait(proc, deadline):
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("workload process ran past the deadline") from None
    except BaseException:  # never leave the child running
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")


def _src_lines():
    total = 0
    for root, dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(plan, result, setups, setup_kernels):
    """The end-to-end metrics of an untraced run, and ungated extras.

    Timings are scaled to the reference host speed (see reference.py):
    measured times, times the host speed that the reference kernel gave
    in the same process in between. Pass time is a mean, for the reason
    host_speed gives; set-up time, whose probes see the host at seven
    moments only, is a median.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    measured_wall = statistics.fmean(p["wall_s"] for p in passes)
    measured_setup = statistics.median(setups)
    speed = reference.host_speed(result["kernel_s"])
    setup_speed = reference.host_speed(setup_kernels)
    wall = measured_wall * speed
    calls = [c for p in passes for c in p["calls"]]
    metrics = {
        "wall_s": wall,
        "setup_s": measured_setup * setup_speed,
        "peak_rss_mb": result["peak_rss_mb"],
        "replicate_steps_per_s": plan["replicate_steps"] / wall,
    }
    extras = {"passes": len(passes), "calls": len(calls),
              "setup_samples": len(setups),
              "replicate_steps_per_pass": plan["replicate_steps"],
              "measured_wall_s": measured_wall,
              "measured_setup_s": measured_setup,
              "host_speed": speed, "setup_host_speed": setup_speed}
    # latency of single analyze calls, ungated: the metric exists on one
    # workload only, and every gated metric must exist on all of them
    analyses = [c["seconds"] * 1e3 for c in calls
                if c["label"].startswith("analyze-")]
    if len(analyses) > 1:
        cuts = statistics.quantiles(analyses, n=100, method="inclusive")
        extras["analyze_p50_ms"] = cuts[49]
        extras["analyze_p95_ms"] = cuts[94]
        extras["analyze_calls"] = len(analyses)
    return metrics, extras


def run(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny R and n, for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "urnlab", "__init__.py")):
        raise BenchError(f"no urnlab sources under {os.path.join(ROOT, 'src')}")
    outdir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    threads = min(os.cpu_count() or 1, 2)
    plan = workloads.make_plan(args.workload, args.seed, args.smoke, outdir,
                               threads)
    plan_path = os.path.join(outdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    env = _child_env(threads)

    # The reference kernel runs here before each probe starts and after
    # the last one has ended, never beside a running child.
    setups = []
    setup_kernels = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_kernels += reference.kernel_times()
            seconds, proc = _spawn(["--plan", plan_path, "--setup-only"],
                                   env, deadline)
            _wait(proc, deadline)
            setups.append(seconds)
        setup_kernels += reference.kernel_times()
    result_path = os.path.join(outdir, "result.json")
    seconds, proc = _spawn(["--plan", plan_path, "--result", result_path,
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], env, deadline)
    setups.append(seconds)
    _wait(proc, deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.trace:
        metrics = {k: v for k, (v, _) in result["layers"].items()}
        units = {k: u for k, (_, u) in result["layers"].items()}
        extras = {"missing_targets": result["missing"]}
    else:
        metrics, extras = end_to_end(plan, result, setups, setup_kernels)
        units = END_TO_END
    failures = result["failures"]
    attempted = result["attempted"]
    extras["failed_ratio"] = len(failures) / attempted

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"threads {threads}: {workloads.WHY[args.workload]}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, value in extras.items():
        print(f"info {name} = {value!r}")
    for label, verdict in result["verdicts"].items():
        print(f"verdict {label} = {json.dumps(verdict, sort_keys=True)}")
    for name, ok in result["gates"].items():
        print(f"gate {name} = {'ok' if ok else 'FAILED'}")
    for failure in failures:
        print(f"failure {failure}")

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "extras": extras,
        "environment": {
            "nproc": os.cpu_count(), "threads": threads,
            "blas": {var: env[var] for var in BLAS_VARS},
            **result["versions"]},
        "src_lines": _src_lines(),
        "digests": result["digests"], "verdicts": result["verdicts"],
        "gates": result["gates"], "failures": failures,
        "setup": result["setup"], "setup_samples_s": setups,
        "pass_walls_s": [[p["wall_s"], p["traced"]] for p in result["passes"]],
        "kernel_s": result["kernel_s"], "setup_kernel_s": setup_kernels,
    }
    records = os.path.join(HERE, "out", "records")
    os.makedirs(records, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def main():
    try:
        return run()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
