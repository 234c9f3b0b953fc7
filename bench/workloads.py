"""The benchmark's workloads: inputs made from a seed, the calls of one
pass, and the correctness gates.

Input generation uses only the standard library, so the parent process
can write a plan without importing urnlab or numpy. Everything that runs
urnlab imports it inside the function, in the child process.

Why these four workloads: each layer a later change is expected to touch
(the xoshiro256++ noise blocks, the linear and lockstep engines, the
adaptive exp-sandwich quadrature) does most of the work in one workload
and little in another, so a change can be shown to help where its
mechanism runs and to cost nothing where it does not.
"""

import json
import math
import os
import random

WHY = {
    "verify-linear": "wide-noise Monte Carlo: gaussian blocks at stream "
                     "width ~8000 and the linear closed-form engine "
                     "dominate; 728 MB of refill buffers",
    "verify-urn": "lockstep urn Monte Carlo: one uniform take per step, no "
                  "gaussians, no linear engine; its KS verdict fails at the "
                  "seed commit and is recorded as is",
    "long-path": "single long paths: narrow-width noise ramp, chunked mean "
                 "recursion to 1e8 and the step engine, the suite stages "
                 "that dominate its profile",
    "analyze-gauss": "closed-form analysis mix plus gauss and ode runs: "
                     "adaptive Simpson with mat_exp, Lyapunov and spectral "
                     "profiles dominate; nothing else measures them",
}

FULL = {"verify_R": 2000, "verify_n": 10 ** 4, "path_n": 1 << 21,
        "mean_n": 10 ** 8, "sim_n": 10 ** 5, "gauss_R": 16,
        "gauss_points": 40, "gauss_t": 1e4, "ode_s": 100,
        "drift_dim": 20, "gate_n": 10 ** 4, "mean_gate_n": 10 ** 5}
SMOKE = {"verify_R": 8, "verify_n": 256, "path_n": 1 << 12,
         "mean_n": 10 ** 4, "sim_n": 256, "gauss_R": 2,
         "gauss_points": 5, "gauss_t": 100.0, "ode_s": 10,
         "drift_dim": 20, "gate_n": 256, "mean_gate_n": 10 ** 3}

STANDARD_2X2 = [[1.0, 0.3], [0.0, 0.8]]
EYE2 = [[1.0, 0.0], [0.0, 1.0]]
CRITICAL_JORDAN = [[0.5, -1.0], [0.0, 0.5]]
JORDAN_NOISE = [[1.0, 0.0], [0.0, 0.0]]
CHAIN_BASIS = [[1.0, 0.0], [0.0, -1.0]]
FRIEDMAN = [[0.0, 1.0], [1.0, 0.0]]
MIXING_025 = [[0.75, 0.25], [0.25, 0.75]]
ROTATION = [[0.3, -0.3], [0.3, 0.3]]
# decay start of the pinned damped-decay model: loglog(1/x) = 2 there
DECAY_START = math.exp(-math.e ** 2)


def stable_drift(seed, d):
    """A d x d drift whose eigenvalues all have real part above 1/2.

    Diagonal entries in [1, 2] and off-diagonal entries of at most 0.02,
    so by Gershgorin every eigenvalue lies right of 1 - 0.02 (d - 1).
    """
    rng = random.Random(seed)
    return [[rng.uniform(1.0, 2.0) if i == j else rng.uniform(-0.02, 0.02)
             for j in range(d)] for i in range(d)]


def log_grid(points, t_max):
    return [1.0] + [t_max ** (k / (points - 1)) for k in range(1, points - 1)] + [t_max]


def _sa(drift, noise, **extra):
    d = len(drift)
    return {"kind": "sa", "d": d, "drift": drift, "theta0": [0.0] * d,
            "noise": noise, **extra}


def _urn(matrix):
    return {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
            "adding_rule": {"name": "deterministic", "matrix": matrix}}


def _configs(workload, seed, size):
    """Config documents of a workload, keyed by call label."""
    if workload == "verify-linear":
        return {"verify": {"model": _sa(STANDARD_2X2, EYE2),
                           "run": {"n": size["verify_n"],
                                   "replicates": size["verify_R"]}}}
    if workload == "verify-urn":
        return {"verify": {"model": _urn(FRIEDMAN),
                           "run": {"n": size["verify_n"],
                                   "replicates": size["verify_R"]}}}
    if workload == "long-path":
        run = {"n": size["sim_n"], "replicates": 1}
        return {
            "simulate-rotation": {"model": _sa(ROTATION, EYE2), "run": run},
            "simulate-decay": {"model": {
                "kind": "sa", "d": 1, "theta0": [DECAY_START],
                "drift": {"name": "log-damped-decay", "rho": 0.5}},
                "run": run},
        }
    if workload == "analyze-gauss":
        d = size["drift_dim"]
        eye = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
        grid = log_grid(size["gauss_points"], size["gauss_t"])
        gauss_run = {"replicates": size["gauss_R"]}
        return {
            "analyze-2x2": {"model": _sa(STANDARD_2X2, EYE2)},
            f"analyze-{d}x{d}": {"model": _sa(stable_drift(seed, d), eye)},
            "analyze-jordan": {"model": _sa(CRITICAL_JORDAN, JORDAN_NOISE),
                               "analysis": {"chain_basis": CHAIN_BASIS}},
            "analyze-friedman": {"model": _urn(FRIEDMAN)},
            "analyze-mixing": {"model": _urn(MIXING_025)},
            "gauss-standard": {"model": {"kind": "gauss", "d": 2,
                                         "H": STANDARD_2X2, "gamma": EYE2,
                                         "grid": grid}, "run": gauss_run},
            "gauss-jordan": {"model": {"kind": "gauss", "d": 2,
                                       "H": CRITICAL_JORDAN,
                                       "gamma": JORDAN_NOISE, "grid": grid},
                             "run": gauss_run},
            "ode-friedman": {"model": {"kind": "ode", "d": 2, "H": FRIEDMAN,
                                       "theta0": [0.9, 0.1]},
                             "run": {"n": size["ode_s"]}},
        }
    raise ValueError(f"unknown workload {workload!r}")


def _command(label):
    return label.split("-", 1)[0]


def make_plan(workload, seed, smoke, outdir, threads):
    """Write the workload's configs under outdir and return its plan."""
    size = SMOKE if smoke else FULL
    configs = _configs(workload, seed, size)
    paths = {}
    for label, doc in configs.items():
        path = os.path.join(outdir, "inputs", label + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths[label] = path
    calls = []
    if workload == "long-path":
        calls.append({"label": "linear-jordan-slow", "lib": "linear_paths"})
        calls.append({"label": "mean-inv-sqrt-log", "lib": "exact_mean"})
    for label, path in paths.items():
        calls.append({"label": label,
                      "cli": [_command(label), "--config", path,
                              "--seed", str(seed), "--threads", str(threads)]})
    if workload.startswith("verify"):
        steps = size["verify_R"] * size["verify_n"]
    elif workload == "long-path":
        steps = size["path_n"] + size["mean_n"] + 2 * size["sim_n"]
    else:
        steps = 2 * size["gauss_R"] * (size["gauss_points"] - 1)
    return {"workload": workload, "seed": seed, "smoke": smoke,
            "threads": threads, "size": size, "configs": paths,
            "calls": calls, "replicate_steps": steps, "outdir": outdir}


# ==== library calls (child side) ====

def _dyadic(lo_exp, n):
    out = [1 << k for k in range(lo_exp, n.bit_length()) if (1 << k) <= n]
    if out[-1] != n:
        out.append(n)
    return out


def run_library(name, plan):
    """One library call of a pass; returns a list of (n, array) pairs."""
    from urnlab.golden import (JORDAN_CHAIN_BASIS, jordan_chain_spec,
                               remainder_drive_spec)
    from urnlab.sa import exact_mean_recursion, linear_paths

    size = plan["size"]
    if name == "linear_paths":
        spec = jordan_chain_spec(0.3)
        n = size["path_n"]
        return linear_paths(spec.drift.matrix, spec.theta0, n, plan["seed"],
                            _dyadic(4 if plan["smoke"] else 10, n),
                            replicates=[0], gamma_root=spec.noise.root,
                            basis=JORDAN_CHAIN_BASIS)
    if name == "exact_mean":
        spec = remainder_drive_spec("inv-sqrt-log")
        n = size["mean_n"]
        decades = [10 ** k for k in range(2, 9) if 10 ** k <= n]
        return exact_mean_recursion(spec.drift.matrix, spec.remainder,
                                    spec.theta0, n, checkpoints=decades)
    raise ValueError(f"unknown library call {name!r}")


# ==== correctness gates (child side, outside the timed region) ====

def paths_agree(reference, fast, rtol=1e-9, atol=1e-12):
    """Checkpoint lists [(n, array)] agree to float-summation error.

    Returns None when they do, else a message naming the first mismatch.
    """
    import numpy as np

    if [n for n, _ in reference] != [n for n, _ in fast]:
        return "checkpoint indices differ"
    for (n, a), (_, b) in zip(reference, fast):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.allclose(b, a, rtol=rtol, atol=atol):
            return f"mismatch at n={n}: max |diff| {np.max(np.abs(b - a)):.3g}"
    return None


def gate_linear_vs_step(spec, n, seed, replicates, basis=None):
    """linear_paths against run_sa on the same streams, replicate by
    replicate, at dyadic checkpoints."""
    import numpy as np
    from urnlab.sa import linear_paths, run_sa

    plan = _dyadic(0, n)
    fast = linear_paths(spec.drift.matrix, spec.theta0, n, seed, plan,
                        replicates=replicates, gamma_root=spec.noise.root,
                        basis=basis)
    for i, r in enumerate(replicates):
        ref = run_sa(spec, n, seed, plan, replicate=r).checkpoints
        msg = paths_agree([(k, th) for k, th in ref],
                          [(k, np.asarray(x)[i]) for k, x in fast])
        if msg:
            return f"replicate {r}: {msg}"
    return None


def gate_batch_vs_urn(spec, n, seed, replicates):
    """run_urn_batch against run_urn for each replicate, exactly."""
    import numpy as np
    from urnlab.urn import run_urn, run_urn_batch

    plan = _dyadic(0, n)
    batch = run_urn_batch(spec, n, seed, plan, replicates)
    for i, r in enumerate(replicates):
        ref = run_urn(spec, n, seed, plan, replicate=r).checkpoints
        for st, (k, Y, N) in zip(ref, batch):
            if st.n != k or not (np.array_equal(st.Y, Y[i])
                                 and np.array_equal(st.N, N[i])):
                return f"replicate {r} differs at n={k}"
    return None


def gate_mean_vs_loop(n):
    """Chunked scalar exact_mean_recursion against the plain loop."""
    import numpy as np
    from urnlab.golden import remainder_drive_spec
    from urnlab.sa import exact_mean_recursion

    spec = remainder_drive_spec("inv-sqrt-log")
    a = float(spec.drift.matrix[0, 0])
    plan = [10 ** k for k in range(1, 9) if 10 ** k <= n]
    fast = exact_mean_recursion(spec.drift.matrix, spec.remainder,
                                spec.theta0, n, checkpoints=plan)
    r = spec.remainder(np.arange(1, n + 1, dtype=float))
    x = float(spec.theta0[0])
    ref = []
    for k in range(1, n + 1):
        x = x * (1.0 - a / k) + float(r[k - 1]) / k
        if k in plan:
            ref.append((k, np.array([x])))
    return paths_agree(ref, fast, rtol=1e-9, atol=0.0)


def gate_covariance(drift, gamma, cov):
    """An analyze covariance against its Lyapunov residual and against
    limit_covariance_quadrature over a horizon past its decay."""
    import numpy as np
    from urnlab.asymptotics import limit_covariance_quadrature

    A = np.asarray(drift, dtype=float)
    G = np.asarray(gamma, dtype=float)
    S = np.asarray(cov, dtype=float)
    B = A - 0.5 * np.eye(A.shape[0])
    resid = np.linalg.norm(B.T @ S + S @ B - G)
    if resid > 1e-8 * (1.0 + np.linalg.norm(G)):
        return f"Lyapunov residual {resid:.3g}"
    decay = float(np.linalg.eigvals(B).real.min())
    Q = limit_covariance_quadrature(A, G, max(40.0, 16.0 / decay))
    rel = np.linalg.norm(Q - S) / np.linalg.norm(S)
    if rel > 1e-6:
        return f"quadrature differs by {rel:.3g} relative"
    return None


def run_gates(plan, artifacts):
    """Name -> failure message or None. `artifacts` maps a call label to
    the directory its last pass wrote."""
    import numpy as np
    from urnlab.config import load_config
    from urnlab.golden import JORDAN_CHAIN_BASIS, jordan_chain_spec

    workload = plan["workload"]
    seed = plan["seed"]
    size = plan["size"]
    gates = {}
    if workload == "verify-linear":
        spec = load_config(plan["configs"]["verify"]).build_model()
        gates["linear-vs-step"] = gate_linear_vs_step(
            spec, size["gate_n"], seed, [0, 1])
    if workload == "verify-urn":
        spec = load_config(plan["configs"]["verify"]).build_model()
        gates["batch-vs-urn"] = gate_batch_vs_urn(
            spec, size["verify_n"], seed, [0, 1, 2, 3])
    if workload.startswith("verify"):
        with open(os.path.join(artifacts["verify"], "verify.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(artifacts["verify"], "samples.csv")) as fh:
            rows = sum(1 for line in fh if line.strip())
        R = size["verify_R"]
        # mc_sample drops at most 1% of the replicates as divergent
        ok = (0.99 * R <= rows <= R and np.isfinite(report["rel_frobenius"])
              and isinstance(report["verdict"].get("passed"), bool))
        gates["verify-artifacts"] = None if ok else (
            f"samples.csv has {rows} rows for {R} replicates")
    if workload == "long-path":
        gates["mean-vs-loop"] = gate_mean_vs_loop(size["mean_gate_n"])
        gates["linear-vs-step"] = gate_linear_vs_step(
            jordan_chain_spec(0.3), size["gate_n"], seed, [0],
            basis=JORDAN_CHAIN_BASIS)
    if workload == "analyze-gauss":
        for label, path in plan["configs"].items():
            if not label.startswith("analyze-"):
                continue
            with open(os.path.join(artifacts[label], "analyze.json")) as fh:
                rep = json.load(fh)
            if rep["regime"] != "standard":
                continue
            if rep["kind"] == "sa":
                with open(path) as fh:
                    model = json.load(fh)["model"]
                args = (model["drift"], model["noise"], rep["covariance"])
            else:
                args = (rep["Dh_star"], rep["Gamma"], rep["sigma_tilde"])
            gates[f"covariance-{label}"] = gate_covariance(*args)
        with open(os.path.join(artifacts["ode-friedman"], "run.json")) as fh:
            resid = json.load(fh)["identity_residual"]
        gates["ode-identity"] = (None if resid <= 1e-6 else
                                 f"flow identity residual {resid:.3g}")
    return gates
