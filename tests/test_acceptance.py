"""Desk-scale reproductions of the limit laws the package implements.

One test per claim, each at its stated tolerance with a frozen seed, and
each emitting a single [PASS]/[FAIL] line with the measured margins (run
pytest with -s or -rA to see them). Monte Carlo checks replay bit-identical
streams, so a passing seed passes forever.

The damped-decay check grades the decade exponent of theta_n, not a
crossing of n^0.45 theta_n. Asymptotically the exponent rises towards rho
= 0.5, so n^{rho-eps} theta_n falls eventually. Over the decades 1e4..1e7
it is ~0.30, rising, and bracketed by the mean-flow rate r = h(theta)/theta
at the decade's ends. A 10% drop of n^0.45 theta_n per decade would need
r >= 0.4958, i.e. theta near exp(-e^118), while at the smallest positive
double r is still 0.42: that crossing cannot be represented in double
precision at all.
"""

import json
import math
import subprocess
import sys

import numpy as np

from oracles import check_attraction, friedman_urn, mixing_urn, quad_sandwich
from urnlab.asymptotics import (
    clt_covariance,
    critical_covariance,
    limit_covariance_quadrature,
    spectral_profile,
)
from urnlab.gauss import GaussProcessSpec, gaussian_variance, simulate_paths
from urnlab.golden import (
    JORDAN_CHAIN_BASIS,
    decay_spec,
    jordan_chain_spec,
    remainder_drive_spec,
    rotation_spec,
)
from urnlab.ode import flow_identity_residual, integrate_flow
from urnlab.sa import exact_mean_recursion, linear_paths, run_sa
from urnlab.urn import run_urn, run_urn_batch, urn_asymptotics
from urnlab.verify import (
    ks_normal,
    make_mc_report,
    mc_sample,
    path_convergence,
    rotation_fit,
)


def _line(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_lyapunov_solver_matches_quadrature():
    """clt_covariance vs a scipy quadrature of the defining integral,
    50 random above-critical instances up to dimension six."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    count = 0
    while count < 50:
        d = int(rng.integers(1, 7))
        A = rng.normal(size=(d, d))
        A = A + (0.55 - min(np.linalg.eigvals(A).real)) * np.eye(d)
        prof = spectral_profile(A)
        if prof.rho <= 0.5 + 1e-6:
            continue
        R = rng.normal(size=(d, d))
        G = R @ R.T
        S = clt_covariance(A, G)
        # truncation horizon from the spectral gap keeps the tail below 1e-10
        upper = max(30.0 / (prof.rho - 0.5), 40.0)
        Q = quad_sandwich(A - 0.5 * np.eye(d), G, upper)
        worst = max(worst, np.linalg.norm(S - Q) / np.linalg.norm(Q))
        count += 1
    _line("lyapunov vs quadrature", worst <= 1e-8,
          f"50 instances, worst rel Frobenius {worst:.3e} (tol 1e-8)")


def test_critical_formula_and_quadrature_limit():
    spec = jordan_chain_spec(0.5)
    A = spec.drift.matrix
    G = spec.noise.root.T @ spec.noise.root
    B = JORDAN_CHAIN_BASIS
    target = np.array([[0.0, 0.0], [0.0, 1.0 / 3.0]])
    S = critical_covariance(A, G, chain_basis=B)
    exact_err = float(np.abs(S - target).max())

    # error in L decays like 1/L, so two Richardson stages over the
    # doubling horizons cancel the 1/L and 1/L^2 terms
    v = [B.T @ limit_covariance_quadrature(A, G, L) @ B
         for L in (50, 100, 200)]
    r1, r2 = 2.0 * v[1] - v[0], 2.0 * v[2] - v[1]
    rich = (4.0 * r2 - r1) / 3.0
    rel = np.linalg.norm(rich - target) / np.linalg.norm(target)
    _line("critical formula and quadrature",
          exact_err <= 1e-10 and rel <= 0.01,
          f"closed form err {exact_err:.2e} (tol 1e-10), "
          f"extrapolated quadrature rel {rel:.2e} (tol 0.01)")


def test_critical_chain_monte_carlo_variances():
    """Sampled variances of the two differently-scaled coordinates of the
    defective critical drift, R = 2000 at n = 1e4 and 1e5."""
    spec = jordan_chain_spec(0.5)
    stats = {}
    for h in (10 ** 4, 10 ** 5):
        X = mc_sample(spec, h, 2000, 2, basis=JORDAN_CHAIN_BASIS).errors
        stats[h] = (float(np.var(X[:, 0] * math.log(h), ddof=1)),
                    float(np.var(X[:, 1], ddof=1)))
    (v1a, v2a), (v1b, v2b) = stats[10 ** 4], stats[10 ** 5]
    improving = abs(3.0 * v2b - 1.0) <= abs(3.0 * v2a - 1.0)
    _line("critical chain variances",
          abs(v1b - 1.0) <= 0.15
          and abs(v2b - 1.0 / 3.0) <= 0.25 / 3.0 and improving,
          f"var1 {v1b:.4f} (1 +- 15%), var2 {v2b:.4f} (1/3 +- 25%), "
          f"distance to 1/3 improving {abs(3*v2a-1):.3f} -> {abs(3*v2b-1):.3f}")


def test_slow_chain_path_settles_on_random_limit():
    spec = jordan_chain_spec(0.3)
    root = spec.noise.root
    n_path = 1 << 22
    dyadic = [1 << k for k in range(10, 23)]
    pts = linear_paths(spec.drift.matrix, spec.theta0, n_path, 0, dyadic,
                       replicates=[0], gamma_root=root,
                       basis=JORDAN_CHAIN_BASIS)
    f1 = path_convergence([(n, [n ** 0.3 * x[0, 0]]) for n, x in pts],
                          tol=0.05)
    f2 = path_convergence([(n, [n ** 0.3 / math.log(n) * x[0, 1]])
                           for n, x in pts], tol=0.05)
    # the limit is a genuine random variable: independent streams disagree
    (_, fin), = linear_paths(spec.drift.matrix, spec.theta0, n_path, 0,
                             [n_path], replicates=20, gamma_root=root,
                             basis=JORDAN_CHAIN_BASIS)
    spread = float(np.var(n_path ** 0.3 * fin[:, 0], ddof=1))
    _line("slow chain random limit",
          f1.converged and f2.converged and spread > 0.0,
          f"final gaps {f1.cauchy_gaps[-1]:.4f}/{f2.cauchy_gaps[-1]:.4f} "
          f"(tol 0.05, both decreasing), 20-stream variance {spread:.3f}")


def test_rotating_path_phase_fit_and_boundedness():
    spec = rotation_spec(0.3)
    pts = linear_paths(spec.drift.matrix, spec.theta0, 1 << 22, 0,
                       [1 << k for k in range(7, 23)], replicates=[0],
                       gamma_root=spec.noise.root)
    scaled = [(n, (n ** 0.3) * x[0]) for n, x in pts]
    fit = rotation_fit([(n, w[0]) for n, w in scaled], 0.3)
    trend = fit["residual_trend"]
    norms = [float(np.linalg.norm(w)) for _, w in scaled]
    ratio = max(norms) / float(np.median(norms))
    _line("rotating path",
          trend[0] > trend[1] > trend[2] and ratio <= 10.0,
          f"residual windows {trend[0]:.4f} > {trend[1]:.4f} > "
          f"{trend[2]:.4f}, max/median norm {ratio:.2f} (bound 10)")


def test_decay_rates_with_and_without_damping():
    """Noise-free scalar decay: the pure power law holds its rate; the
    log-log damped variant, with the same slope rho = 0.5 at zero, decays
    at a decade exponent s_k = log10(theta_{n_k} / theta_{n_{k+1}}) that
    rises towards rho without reaching it, while n^0.5 theta_n / log n
    grows. Along the mean flow d log theta / d log n = -r(theta) with
    r = h(theta)/theta, so each s_k lies between r at the decade's two
    ends. r stays below 0.4958 (a 10% drop of n^0.45 theta_n per decade)
    down to the smallest positive double, so the rise is graded instead."""
    ms = exact_mean_recursion([[0.5]], None, decay_spec(0.5).theta0,
                              10 ** 7, checkpoints=[10 ** 6, 10 ** 7])
    vals = [n ** 0.5 * float(x[0]) for n, x in ms]
    pure_ratio = vals[1] / vals[0]
    pure_ok = 0.99 <= pure_ratio <= 1.01

    rho = 0.5
    damped = decay_spec(rho, damped=True)
    traj = run_sa(damped, 10 ** 7, 0, [10 ** k for k in range(4, 8)])
    cps = [(n, float(x[0])) for n, x in traj.checkpoints]
    drop = [n ** 0.45 * th for n, th in cps]
    rise = [n ** 0.5 * th / math.log(n) for n, th in cps]
    rise_ok = all(b > a for a, b in zip(rise, rise[1:]))
    ths = [th for _, th in cps]
    expo = [math.log10(a / b) for a, b in zip(ths, ths[1:])]
    rate = [damped.drift(th) / th for th in ths]
    brackets = list(zip(rate, rate[1:]))
    expo_ok = (all(b > a for a, b in zip(expo, expo[1:]))
               and all(lo <= s <= hi for s, (lo, hi) in zip(expo, brackets)))
    tail_rate = damped.drift(1e-300) / 1e-300
    limit_ok = rate[-1] < tail_rate < rho
    shown = [f"{s:.5f} in [{lo:.5f}, {hi:.5f}]"
             for s, (lo, hi) in zip(expo, brackets)]
    _line("decay rates",
          pure_ok and expo_ok and limit_ok and rise_ok,
          f"pure ratio {pure_ratio:.9f} (band [0.99, 1.01]); damped "
          f"decade exponents {shown} (rising, inside the mean-flow "
          f"brackets), rate {rate[-1]:.5f} < {tail_rate:.5f} at theta "
          f"1e-300 < {rho}; "
          f"n^0.45 decade ratios "
          f"{[f'{b/a:.3f}' for a, b in zip(drop, drop[1:])]} (information), "
          f"log-corrected series increasing {rise_ok}")


def test_deterministic_remainders_move_the_mean():
    decades = [10 ** k for k in range(4, 9)]
    spec = remainder_drive_spec("inv-sqrt-log")
    ms = exact_mean_recursion(spec.drift.matrix, spec.remainder,
                              spec.theta0, decades[-1], checkpoints=decades)
    n_f, x_f = ms[-1]
    mean_ratio = float(x_f[0]) / (2.0 * math.sqrt(math.log(n_f) / n_f))

    spec = remainder_drive_spec("inv-sqrt-loglog")
    ms = exact_mean_recursion(spec.drift.matrix, spec.remainder,
                              spec.theta0, decades[-1], checkpoints=decades)
    series = [math.sqrt(n / math.log(n)) * float(x[0]) for n, x in ms]
    escaping = all(b > a for a, b in zip(series, series[1:]))

    s = mc_sample(remainder_drive_spec("zero"), 10 ** 5, 2000, 0)
    _, p = ks_normal(s.errors[:, 0], 0.0, 1.0)
    _line("remainder drives",
          0.9 <= mean_ratio <= 1.05 and escaping and p > 0.01,
          f"scaled mean ratio {mean_ratio:.4f} (band [0.9, 1.05]), "
          f"log-log series increasing {escaping}, "
          f"no-remainder KS p {p:.3f} (need > 0.01)")


def test_friedman_proportions_converge():
    st = run_urn(friedman_urn(), 10 ** 6, 0, [10 ** 6]).checkpoints[-1]
    y_err = float(np.abs(st.Y / st.n - 0.5).max())
    n_err = float(np.abs(st.N / st.n - 0.5).max())
    _line("friedman proportions", y_err < 5e-3 and n_err < 5e-3,
          f"composition err {y_err:.2e}, allocation err {n_err:.2e} "
          f"(tol 5e-3)")


def test_friedman_fluctuations_match_lyapunov():
    spec = friedman_urn()
    pred = urn_asymptotics(spec).Sigma_tilde
    s = mc_sample(spec, 10 ** 4, 2000, 8)
    rep = make_mc_report(s, pred, rel_tol=0.15, p_min=0.005)
    v = rep.verdict
    _line("friedman fluctuations", v["passed"],
          f"rel Frobenius {rep.rel_frobenius:.4f} (tol 0.15), "
          f"min KS p {v['min_p_value']:.4f} (need > 0.005)")


def test_mixing_urn_slow_limit():
    """Strong off-diagonal mixing pushes the second eigenvalue above the
    critical line; the quarter-power-scaled allocation error settles on a
    stream-dependent limit."""
    spec = mixing_urn(0.125)
    asym = urn_asymptotics(spec)
    assert asym.lambda_sec == 0.75 and asym.nu == 1
    n_max = 1 << 22
    dyadic = [1 << k for k in range(10, 23)]
    res = run_urn_batch(spec, n_max, 0, dyadic, 20)
    v = asym.v
    pts = [(n, (n ** 0.25) * (N[0] / n - v)) for n, Y, N in res]
    fit = path_convergence(pts, tol=0.05, relative=True)
    n_l, _, N_l = res[-1]
    W = (n_l ** 0.25) * (N_l / n_l - v)
    spread = float(np.var(W[:, 0], ddof=1))
    _line("mixing urn slow limit", fit.converged and spread > 0.0,
          f"final relative gap {fit.cauchy_gaps[-1]:.4f} (tol 0.05, "
          f"decreasing), 20-stream variance {spread:.3f}")


def test_gaussian_process_covariance():
    H = np.array([[0.5, -1.0], [0.0, 0.5]])
    G = np.diag([1.0, 0.0])
    grid = [math.e ** k for k in range(5)]
    spec = GaussProcessSpec(H=H, gamma_root=np.array([[1.0, 0.0]]),
                            G1=[0.0, 0.0], grid=grid)
    pred = gaussian_variance(H, G, math.e ** 4)
    X = simulate_paths(spec, 0, 5000)[:, -1, :]
    emp = np.cov(X.T, ddof=1)
    entry_err = float(np.abs(emp - pred).max() / (np.trace(pred) / 2))

    # far past the standard-regime mixing time the scaled variance is the
    # stationary solution itself
    H2 = np.array([[1.0, 0.3], [0.0, 0.8]])
    G2 = np.array([[1.0, 0.2], [0.2, 0.5]])
    S_inf = clt_covariance(H2, G2)
    S_t = math.e ** 40 * gaussian_variance(H2, G2, math.e ** 40)
    rel = np.linalg.norm(S_t - S_inf) / np.linalg.norm(S_inf)
    _line("gaussian process covariance", entry_err <= 0.10 and rel <= 0.01,
          f"5000-path worst entry err {entry_err:.4f} of trace scale "
          f"(tol 0.10), late-time vs stationary rel {rel:.2e} (tol 0.01)")


def test_flow_attraction_and_mass_identity():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(20260814)
    starts = []
    while len(starts) < 20:
        t = rng.normal(scale=2.0, size=2)
        if t.sum() > 0.05:
            # the urn mean flow starts in theta >= 0
            starts.append(np.abs(t))
    attracted = check_attraction(starts, H, 40.0, 1e-6)
    worst_final = 0.0
    worst_resid = 0.0
    for t in starts:
        states = integrate_flow(t, H, 40.0)
        worst_final = max(worst_final,
                          float(np.linalg.norm(states[-1].theta - 0.5)))
        worst_resid = max(worst_resid, flow_identity_residual(states, t, H))
    _line("flow attraction and identity",
          all(attracted) and worst_final <= 1e-6 and worst_resid <= 1e-6,
          f"20 starts attracted, worst final distance {worst_final:.2e}, "
          f"worst mass-identity residual {worst_resid:.2e} (tol 1e-6)")


def test_suite_output_is_byte_deterministic(tmp_path):
    """Three separate processes, same config and seed, one with a different
    thread count: the emitted JSON must be byte-identical."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"run": {"n": 10000, "replicates": 200, "seed": 0}}))
    blobs = []
    codes = []
    for i, threads in enumerate(["1", "1", "4"]):
        out = tmp_path / f"run{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "urnlab", "suite", "--config", str(cfg),
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True)
        codes.append(proc.returncode)
        blobs.append((out / "suite.json").read_bytes())
    _line("suite determinism",
          blobs[0] == blobs[1] == blobs[2] and len(set(codes)) == 1,
          f"3 runs (threads 1,1,4), {len(blobs[0])} bytes each, "
          f"identical {blobs[0] == blobs[1] == blobs[2]}")
