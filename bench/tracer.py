"""Outside-in span tracer for urnlab.

The tracer wraps public urnlab functions from the benchmark's own files;
nothing under src/ changes. urnlab uses from-imports, so one function is
bound under several module names (``verify.linear_paths``,
``cli.run_sa`` ...). ``Tracer.install`` replaces every urnlab module binding
of each wrapped function and ``uninstall`` puts the originals back.

Spans stay in memory as (name, start_ns, end_ns, parent, run, info) and are
written out once, when the run ends. A target that a later version renames
or removes is listed in ``missing`` and its metrics read 0.
"""

import functools
import json
import statistics
import sys
import time

def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _replicates(arg):
    try:
        return len(arg)
    except TypeError:
        return int(arg)


def _bulk_info(args, kwargs, result):
    width, count = result.shape
    return {"width": width, "values": width * count}


def _take_info(args, kwargs, result):
    return {"values": int(result.size)}


def _linear_info(args, kwargs, result):
    n = int(_arg(args, kwargs, 2, "n_max"))
    return {"replicate_steps":
            n * _replicates(_arg(args, kwargs, 5, "replicates", 1))}


def _run_sa_info(args, kwargs, result):
    return {"replicate_steps": int(_arg(args, kwargs, 1, "n_max"))}


def _mean_info(args, kwargs, result):
    return {"replicate_steps": int(_arg(args, kwargs, 3, "n_max"))}


def _batch_info(args, kwargs, result):
    n = int(_arg(args, kwargs, 1, "n_max"))
    return {"replicate_steps":
            n * _replicates(_arg(args, kwargs, 4, "replicates"))}


def _mc_info(args, kwargs, result):
    return {"excluded": int(result.excluded),
            "replicates": int(result.replicates)}


def _analyze_info(args, kwargs, result):
    return {"dim": len(_arg(args, kwargs, 0, "Dh"))}


def _flow_info(args, kwargs, result):
    return {"steps": len(result) - 1}


# (module, attribute) -> annotate(args, kwargs, result) or None. An
# annotation records the work done at that boundary (values drawn,
# replicate-steps, matrix size), so ratios are taken where the work happens.
TARGETS = {
    ("rng", "stream_states"): None,
    ("rng", "bulk_uniforms"): _bulk_info,
    ("rng", "bulk_gaussians"): _bulk_info,
    ("rng", "BlockSource.take"): _take_info,
    ("sa", "run_sa"): _run_sa_info,
    ("sa", "linear_paths"): _linear_info,
    ("sa", "exact_mean_recursion"): _mean_info,
    ("urn", "run_urn"): None,
    ("urn", "run_urn_batch"): _batch_info,
    ("urn", "urn_asymptotics"): None,
    ("verify", "mc_sample"): _mc_info,
    ("verify", "make_mc_report"): None,
    ("verify", "ks_normal"): None,
    ("asymptotics", "analyze"): _analyze_info,
    ("asymptotics", "spectral_profile"): None,
    ("asymptotics", "clt_covariance"): None,
    ("asymptotics", "critical_covariance"): None,
    ("asymptotics", "limit_covariance_quadrature"): None,
    ("linalg", "integral_exp_sandwich"): None,
    ("linalg", "mat_exp"): None,
    ("linalg", "solve_lyapunov"): None,
    ("gauss", "simulate_paths"): None,
    ("gauss", "interval_covariance"): None,
    ("ode", "integrate_flow"): _flow_info,
    ("config", "load_config"): None,
    ("report", "emit_report"): None,
    ("report", "write_text"): None,
    ("cli", "main"): None,
}


PREFIX = "urnlab."


class Tracer:
    """Collects nested spans from wrapped functions; single-threaded."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = []
        self.run = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, annotate):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.run, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = None if annotate is None else annotate(args, kwargs, result)
            spans[idx] = (name, start, end, parent, self.run, info)
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind it in every loaded package module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "urnlab" or k.startswith(PREFIX))]
        for (mod_name, attr), annotate in self.targets.items():
            name = f"{mod_name}.{attr}"
            module = sys.modules.get(PREFIX + mod_name)
            owner, _, leaf = attr.rpartition(".")
            holder = module
            if holder is not None and owner:
                holder = getattr(holder, owner, None)
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None or not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, annotate)
            if owner:
                self._patched.append((holder, leaf, fn))
                setattr(holder, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched = []

    def write(self, path):
        """Spans as JSON lines, written once at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, info in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run, "info": info}) + "\n")


def summarize(spans):
    """Per span name: calls, total seconds, self seconds, summed info.

    Self time is a span's duration minus the time its direct children
    cover; spans nest strictly because the program is single-threaded.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, run, info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, parent, run, info) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "info": {}})
        s["calls"] += 1
        s["total_s"] += (end - start) * 1e-9
        s["self_s"] += (end - start - child_ns[i]) * 1e-9
        if info:
            for k, v in info.items():
                s["info"][k] = s["info"].get(k, 0) + v
    return out


def under(spans, name, ancestor):
    """Spans called `name` that run inside a span called `ancestor`."""
    hits = []
    for sp in spans:
        if sp[0] != name:
            continue
        p = sp[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                hits.append(sp)
                break
            p = spans[p][3]
    return hits


WIDTHS = (("w1", 1), ("w64", 64), ("w1024", 1024), ("w4096", 4096))


def _bucket(width):
    """Stream-width bucket: w1 is [1, 64), w64 [64, 1024), w1024
    [1024, 4096), w4096 4096 and up."""
    name = WIDTHS[0][0]
    for label, lo in WIDTHS:
        if width >= lo:
            name = label
    return name


def layer_metrics(spans, passes, config_load_s, missing):
    """Per-layer metrics of a traced run: name -> (value, unit).

    Per-pass figures (counts, seconds per pass) use the spans of the
    traced passes only and are averaged over them. Per-call and per-unit
    figures (ms per call, ns per value) pool every traced call, the
    correctness gates included, so a function the passes never call
    (the quadrature oracle, the step engine on verify-linear) is still
    measured.
    """
    traced = {i for i, p in enumerate(passes) if p["traced"]}
    in_pass = [sp for sp in spans if sp[4] in traced]
    per_pass = summarize(in_pass)
    pooled = summarize(spans)
    k = max(1, len(traced))

    def pp(name, field):
        s = per_pass.get(name)
        return 0.0 if s is None else s[field] / k

    def info(summary, name, key):
        s = summary.get(name)
        return 0 if s is None else s["info"].get(key, 0)

    def per_call(name, scale):
        s = pooled.get(name)
        return 0.0 if s is None else s["total_s"] * scale / s["calls"]

    def per_unit(name, key, scale, field="total_s"):
        units = info(pooled, name, key)
        return 0.0 if not units else pooled[name][field] * scale / units

    out = {}
    for kind, fn in (("gauss", "rng.bulk_gaussians"),
                     ("uniform", "rng.bulk_uniforms")):
        values = info(per_pass, fn, "values") / k
        out[f"rng.{kind}_values"] = (values, "count")
        out[f"rng.{kind}_ns_per_value"] = (per_unit(fn, "values", 1e9), "ns")
        for label, _ in WIDTHS:
            hits = [sp for sp in spans
                    if sp[0] == fn and _bucket(sp[5]["width"]) == label]
            n_values = sum(sp[5]["values"] for sp in hits)
            ns = sum(sp[2] - sp[1] for sp in hits)
            n_pass = sum(sp[5]["values"] for sp in hits if sp[4] in traced)
            out[f"rng.{kind}_values.{label}"] = (n_pass / k, "count")
            out[f"rng.{kind}_ns_per_value.{label}"] = (
                ns / n_values if n_values else 0.0, "ns")
    generated = out["rng.gauss_values"][0] + out["rng.uniform_values"][0]
    consumed = info(per_pass, "rng.BlockSource.take", "values") / k
    out["rng.take_calls"] = (pp("rng.BlockSource.take", "calls"), "count")
    out["rng.take_self_s"] = (pp("rng.BlockSource.take", "self_s"), "s")
    out["rng.seed_s"] = (pp("rng.stream_states", "total_s"), "s")
    out["rng.values_consumed"] = (consumed, "count")
    out["rng.useful_ratio"] = (consumed / generated if generated else 0.0,
                               "ratio")

    out["sa.linear_self_s"] = (pp("sa.linear_paths", "self_s"), "s")
    out["sa.linear_ns_per_replicate_step"] = (
        per_unit("sa.linear_paths", "replicate_steps", 1e9, "self_s"), "ns")
    out["sa.run_sa_us_per_step"] = (
        per_unit("sa.run_sa", "replicate_steps", 1e6), "us")
    out["sa.exact_mean_ns_per_step"] = (
        per_unit("sa.exact_mean_recursion", "replicate_steps", 1e9), "ns")

    out["urn.batch_self_s"] = (pp("urn.run_urn_batch", "self_s"), "s")
    out["urn.batch_ns_per_replicate_step"] = (
        per_unit("urn.run_urn_batch", "replicate_steps", 1e9, "self_s"), "ns")
    out["urn.batch_take_calls"] = (
        len(under(in_pass, "rng.BlockSource.take", "urn.run_urn_batch")) / k,
        "count")
    out["urn.asymptotics_ms"] = (per_call("urn.urn_asymptotics", 1e3), "ms")

    out["verify.mc_sample_self_s"] = (pp("verify.mc_sample", "self_s"), "s")
    out["verify.report_s"] = (pp("verify.make_mc_report", "total_s"), "s")
    reps = info(pooled, "verify.mc_sample", "replicates")
    out["verify.excluded_ratio"] = (
        info(pooled, "verify.mc_sample", "excluded") / reps if reps else 0.0,
        "ratio")

    for dim in (2, 20):
        hits = [sp for sp in spans
                if sp[0] == "asymptotics.analyze" and sp[5]["dim"] == dim]
        out[f"asymptotics.analyze_ms.{dim}x{dim}"] = (
            sum(sp[2] - sp[1] for sp in hits) * 1e-6 / len(hits)
            if hits else 0.0, "ms")
    analyses = pooled.get("asymptotics.analyze", {}).get("calls", 0)
    out["asymptotics.spectral_profile_calls_per_analyze"] = (
        len(under(spans, "asymptotics.spectral_profile",
                  "asymptotics.analyze")) / analyses if analyses else 0.0,
        "count")
    for fn in ("clt_covariance", "critical_covariance",
               "limit_covariance_quadrature"):
        out[f"asymptotics.{fn}_ms"] = (per_call(f"asymptotics.{fn}", 1e3),
                                       "ms")

    out["linalg.sandwich_calls"] = (
        pp("linalg.integral_exp_sandwich", "calls"), "count")
    out["linalg.sandwich_ms"] = (per_call("linalg.integral_exp_sandwich", 1e3),
                                 "ms")
    out["linalg.mat_exp_calls"] = (pp("linalg.mat_exp", "calls"), "count")
    out["linalg.mat_exp_us"] = (per_call("linalg.mat_exp", 1e6), "us")
    out["linalg.lyapunov_ms"] = (per_call("linalg.solve_lyapunov", 1e3), "ms")

    out["gauss.interval_covariance_ms"] = (
        per_call("gauss.interval_covariance", 1e3), "ms")
    out["gauss.simulate_paths_self_s"] = (
        pp("gauss.simulate_paths", "self_s"), "s")
    out["ode.integrate_flow_ms"] = (per_call("ode.integrate_flow", 1e3), "ms")
    out["ode.steps"] = (info(per_pass, "ode.integrate_flow", "steps") / k,
                        "count")

    out["config.load_s"] = (config_load_s, "s")
    out["report.emit_s"] = (pp("report.emit_report", "self_s")
                            + pp("report.write_text", "self_s"), "s")
    out["cli.self_s"] = (pp("cli.main", "self_s"), "s")
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    walls = [passes[i]["wall_s"] for i in traced]
    out["trace.overhead_s"] = (
        statistics.median(walls) - statistics.median(untraced)
        if walls and untraced else 0.0, "s")
    out["trace.missing_targets"] = (len(missing), "count")
    return out
