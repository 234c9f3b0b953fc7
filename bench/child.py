"""One workload process: import urnlab once, then run passes of the
workload in process and check their outputs.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Writes
"ready" to --ready-fd once set-up (interpreter, import, config load) is
done, and its result as JSON to --result when it ends.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest_dir(path):
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _digest_points(points):
    import numpy as np

    h = hashlib.sha256()
    for n, x in points:
        h.update(str(int(n)).encode())
        h.update(np.ascontiguousarray(x, dtype=float).tobytes())
    return h.hexdigest()


class Runner:
    """Runs passes of one plan and keeps what the parent needs."""

    def __init__(self, plan, cli, workloads, kernel_times):
        self.plan = plan
        self.cli = cli
        self.workloads = workloads
        self.kernel_times = kernel_times
        self.passes = []
        self.failures = []
        self.attempted = 0
        self.digests = {}
        self.verdicts = {}
        self.last_dir = {}
        self.kernel_s = []  # reference kernel times, between calls
        self.unprobed_s = 0.0  # call time since the kernel last ran
        self.tracer = None  # set for the traced passes

    def _call(self, call, outdir):
        """Run one call; returns (seconds, exit status or None, value)."""
        t0 = time.perf_counter()
        try:
            if "cli" in call:
                value = None
                status = self.cli.main(call["cli"] + ["--out", outdir])
            else:
                value = self.workloads.run_library(call["lib"], self.plan)
                status = 0
        except SystemExit as exc:  # argparse rejects its arguments this way
            status, value = exc.code, None
        except Exception:  # a pass must finish so the failure is counted
            traceback.print_exc()
            status, value = None, None
        return time.perf_counter() - t0, status, value

    def run_pass(self, traced):
        index = len(self.passes)
        if self.tracer is not None:
            self.tracer.run = index
        calls = []
        for call in self.plan["calls"]:
            label = call["label"]
            outdir = os.path.join(self.plan["outdir"], f"pass-{index}", label)
            seconds, status, value = self._call(call, outdir)
            self._probe_host(seconds)
            calls.append({"label": label, "seconds": seconds,
                          "status": status})
            self.attempted += 1
            verify = "cli" in call and call["cli"][0] == "verify"
            # exit 1 from verify is a statistical verdict, reported not counted
            if status not in ((0, 1) if verify else (0,)):
                self.failures.append(f"pass {index} {label}: exit {status}")
                continue
            self.last_dir[label] = outdir
            digest = (_digest_dir(outdir) if "cli" in call
                      else _digest_points(value))
            if verify:
                with open(os.path.join(outdir, "verify.json")) as fh:
                    rep = json.load(fh)
                self.verdicts[label] = {
                    "passed": rep["verdict"]["passed"],
                    "min_p_value": rep["verdict"]["min_p_value"],
                    "rel_frobenius": rep["rel_frobenius"]}
            if label not in self.digests:
                self.digests[label] = digest
                continue
            self.attempted += 1
            if digest != self.digests[label]:
                self.failures.append(
                    f"pass {index} {label}: artifact digest differs from pass 0")
        self.passes.append({"traced": traced, "calls": calls,
                            "wall_s": sum(c["seconds"] for c in calls)})

    def _probe_host(self, seconds):
        """Run the reference kernel between calls, outside their timing,
        once a second of calls has passed since it last ran, and for a
        twentieth of that time: its times then sample the whole run evenly,
        and a run of few long calls still gets many of them."""
        self.unprobed_s += seconds
        if self.unprobed_s >= 1.0:
            self._run_kernel()

    def _run_kernel(self):
        self.kernel_s += self.kernel_times(self.unprobed_s / 20)
        self.unprobed_s = 0.0

    def run_for(self, seconds, traced, min_passes):
        """Make passes for about `seconds`: stop before a pass that would
        end past them, once `min_passes` are done."""
        t0 = time.perf_counter()
        done = 0
        while done < min_passes or (
                (time.perf_counter() - t0) * (done + 1) / done <= seconds):
            self.run_pass(traced)
            done += 1
        if self.unprobed_s:  # the last calls get their kernel times too
            self._run_kernel()

    def run_gates(self):
        try:
            gates = self.workloads.run_gates(self.plan, self.last_dir)
        except Exception:  # a gate that crashes is a failed gate
            traceback.print_exc()
            gates = {"gates": "raised " + traceback.format_exc(limit=1)}
        for name, msg in gates.items():
            self.attempted += 1
            if msg is not None:
                self.failures.append(f"gate {name}: {msg}")
        return {name: msg is None for name, msg in gates.items()}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--plan", required=True)
    p.add_argument("--result")
    p.add_argument("--ready-fd", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    t_import = time.perf_counter()
    import numpy
    import scipy
    import urnlab
    # golden is imported here so that its import is set-up, not pass time
    from urnlab import cli, config, golden  # noqa: F401
    import workloads
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(urnlab.__file__).startswith(src + os.sep):
        print(f"bench: urnlab was imported from {urnlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    t_load = time.perf_counter()
    for path in plan["configs"].values():
        config.load_config(path)
    t_ready = time.perf_counter()
    with os.fdopen(args.ready_fd, "w") as fh:
        fh.write("ready\n")
    if args.setup_only:
        return 0

    # imported after set-up, so that set-up time is urnlab's alone
    import reference

    runner = Runner(plan, cli, workloads, reference.kernel_times)
    layers = missing = None
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if args.trace:
            import tracer

            runner.run_for(args.seconds / 2, traced=False, min_passes=1)
            runner.tracer = tracer.Tracer()
            runner.tracer.install()
            try:
                runner.run_for(args.seconds / 2, traced=True, min_passes=1)
                runner.tracer.run = "gates"
                gates = runner.run_gates()
            finally:
                runner.tracer.uninstall()
            missing = runner.tracer.missing
            runner.tracer.write(os.path.join(plan["outdir"], "spans.jsonl"))
            layers = tracer.layer_metrics(runner.tracer.spans, runner.passes,
                                          t_ready - t_load, missing)
        else:
            runner.run_for(args.seconds, traced=False, min_passes=2)
            gates = runner.run_gates()

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "setup": {"interpreter_s": t_import - START,
                  "import_s": t_load - t_import,
                  "config_load_s": t_ready - t_load},
        "passes": runner.passes,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "gates": gates,
        "digests": runner.digests,
        "verdicts": runner.verdicts,
        "kernel_s": runner.kernel_s,
        "peak_rss_mb": usage / 1024.0,
        "layers": layers,
        "missing": missing,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
