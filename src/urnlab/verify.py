"""Monte Carlo and single-path verification harness.

`simulate`, the one place that picks an engine for a model; empirical
covariance of scaled errors against the predicted limit, Kolmogorov-Smirnov
normality per coordinate, dyadic-checkpoint convergence with a fitted rate
exponent, and phase fitting for complex-eigenvalue rotation. Everything
is deterministic given a seed: replicate r always reads the same noise
stream no matter how the work is scheduled.
"""

import dataclasses
import math

import numpy as np

from .asymptotics import analyze
from .errors import (ChainBasisRequiredError, DivergenceError,
                     InvalidArgumentError, JordanIntegerEigenvalueError,
                     NonConvergenceError)
from .sa import (LinearDrift, SAProcessSpec, _checkpoint_plan, _sharded,
                 exact_mean_recursion, linear_paths, run_sa)
from .urn import UrnSpec, run_urn, run_urn_batch, urn_asymptotics


@dataclasses.dataclass(frozen=True)
class MCSample:
    """Scaled errors at one horizon, divergence accounting, engine record."""

    horizon: int
    errors: np.ndarray  # (kept, d)
    excluded: int
    replicates: int
    engine: object = None

    def __post_init__(self):
        if self.errors.shape[0] + self.excluded != self.replicates:
            raise InvalidArgumentError("kept + excluded must equal replicates")


@dataclasses.dataclass(frozen=True)
class MCReport:
    horizon: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    predicted_cov: np.ndarray
    rel_frobenius: float
    ks_results: tuple
    verdict: dict


@dataclasses.dataclass(frozen=True)
class RateFit:
    checkpoints: tuple
    fitted_exponent: object
    cauchy_gaps: tuple
    converged: bool
    tolerance: float


def _joined(parts):
    """One checkpoint list from consecutive shards' lists [(k, arrays...)]:
    each checkpoint's arrays concatenated in replicate order."""
    if len(parts) == 1:
        return parts[0]
    return [(cps[0][0],) + tuple(np.concatenate(a) for a in list(zip(*cps))[1:])
            for cps in zip(*parts)]


def simulate(model, n, seed, checkpoints, replicates, basis=None, workers=1):
    """States of replicates 0..R-1 at the checkpoints, and the engine record.

    linear_paths runs a linear drift without remainder (basis is forwarded
    for defective drifts), run_sa any other recursion, its replicates in
    lockstep. An urn (it takes no basis) runs on run_urn at R = 1, where the
    scalar loop is the faster, and on run_urn_batch at R > 1, whatever its
    rule. If the linear engine refuses (defective drift without basis,
    Jordan block at an integer eigenvalue in 1..n) or its output is
    non-finite (the true path overflows), run_sa runs instead and the record
    names the fallback. A replicate diverging on run_sa keeps NaN rows and
    is listed under "dropped". A lockstep urn that becomes non-finite raises
    at the first step where any replicate is, as run_urn does for one.

    The replicates are split into contiguous shards over at most `workers`
    processes (see sa.worker_count); each replicate reads its own noise
    streams and the fallbacks are decided on the whole batch, so paths,
    record and errors are the same at any worker count.

    Returns (paths, record): [(k, theta)] for a recursion, [(k, Y, N)] for
    an urn, arrays of shape (R, d); record = {name, fallback, dropped}.
    """
    n, R = int(n), int(replicates)
    if n < 1 or R < 1:
        raise InvalidArgumentError(f"n and replicates must be >= 1, got {n}, {R}")
    plan = _checkpoint_plan(checkpoints, n)
    origin = plan[:1] == [0]  # the batch engines report indices >= 1 only
    record = {"name": "step", "fallback": None, "dropped": []}
    if isinstance(model, UrnSpec):
        if basis is not None:
            raise InvalidArgumentError("an urn simulation takes no chain basis")
        if R == 1:
            cps = run_urn(model, n, seed, plan).checkpoints
            return ([(c.n, c.Y[None], c.N[None]) for c in cps],
                    dict(record, name="urn"))

        def lockstep(repl):
            try:
                return run_urn_batch(model, n, seed, plan, repl)
            except DivergenceError as exc:  # raised below, earliest first
                return exc
        parts = _sharded(lockstep, R, workers)
        bad = [p for p in parts if isinstance(p, DivergenceError)]
        if bad:
            raise min(bad, key=lambda exc: exc.first_bad_index)
        paths = _joined(parts)
        if origin:
            paths.insert(0, (0, np.tile(model.Y0, (R, 1)),
                             np.zeros((R, model.d), dtype=np.int64)))
        return paths, dict(record, name="lockstep-urn")
    if not isinstance(model, SAProcessSpec):
        raise InvalidArgumentError(f"unsupported model type {type(model).__name__}")

    if isinstance(model.drift, LinearDrift) and model.remainder is None:
        root = None if model.noise is None else model.noise.root

        def linear(repl):
            # overflow shows up as non-finite output, checked below
            with np.errstate(all="ignore"):
                return linear_paths(model.drift.matrix, model.theta0, n, seed,
                                    plan, replicates=repl, gamma_root=root,
                                    basis=basis)
        try:
            paths = _joined(_sharded(linear, R, workers))
        except (JordanIntegerEigenvalueError, ChainBasisRequiredError) as exc:
            record["fallback"] = {"from": "linear", "code": exc.code}
        else:
            if all(np.all(np.isfinite(x)) for _, x in paths):
                if origin:
                    paths.insert(0, (0, np.tile(model.theta0, (R, 1))))
                return paths, dict(record, name="linear")
            record["fallback"] = {"from": "linear", "code": "non-finite"}

    parts = _sharded(lambda repl: run_sa(model, n, seed, plan, repl), R, workers)
    record["dropped"] = [d for _, dropped in parts for d in dropped]
    return _joined([p for p, _ in parts]), record


def mc_sample(model, horizon, replicates, seed, analysis=None, basis=None,
              workers=1):
    """Scaled errors over `replicates` trajectories at one horizon.

    The errors are scaled with the regime of the caller's analysis (an
    AsymptoticReport or UrnAsymptotics). Without one, urn_asymptotics or,
    for a linear drift, analyze at Gamma = 0 (the regime depends on the
    drift alone) is made here. The paths come from `simulate` (basis is
    forwarded there and to analyze for defective drift matrices; workers
    caps its processes and changes no value). Divergent
    replicates are dropped and counted; more than 1% of them is a failure.
    """
    horizon, R = int(horizon), int(replicates)
    if isinstance(model, UrnSpec):
        if analysis is None:
            analysis = urn_asymptotics(model)
        star = analysis.centre()
    elif isinstance(model, SAProcessSpec):
        linear = isinstance(model.drift, LinearDrift)
        if analysis is None:
            if not linear:
                raise InvalidArgumentError(
                    "a non-linear drift needs the caller's analysis")
            analysis = analyze(model.drift.matrix,
                               np.zeros((model.dim, model.dim)),
                               chain_basis=basis)
        star = model.theta_star
        if star is None:
            if not linear:
                raise InvalidArgumentError("model needs theta_star")
            star = np.zeros(model.dim)
    else:
        raise InvalidArgumentError(f"unsupported model type {type(model).__name__}")
    scale = analysis.scale(horizon)

    paths, engine = simulate(model, horizon, seed, [horizon], R,
                             basis=basis, workers=workers)
    final = paths[-1][1:]  # (theta,) or (Y, N)
    theta = (np.hstack(final) / analysis.divisor(horizon)
             if isinstance(model, UrnSpec) else final[0])
    good = np.all(np.isfinite(theta), axis=1)
    excluded = int(R - good.sum())
    if excluded > 0.01 * R:
        raise NonConvergenceError(
            f"{excluded} of {R} replicates diverged at horizon {horizon}")
    errors = (theta[good] - star) * scale
    return MCSample(horizon=horizon, errors=errors, excluded=excluded,
                    replicates=R, engine=engine)


def compare_covariance(emp, pred):
    """|emp - pred|_F / max(|pred|_F, 1e-12)."""
    emp = np.asarray(emp, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if emp.shape != pred.shape:
        raise InvalidArgumentError(
            f"shape mismatch: {emp.shape} vs {pred.shape}")
    return float(np.linalg.norm(emp - pred)
                 / max(np.linalg.norm(pred), 1e-12))


def ks_normal(samples, mu, sigma2):
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value
    (the Kolmogorov distribution's survival function) against N(mu, sigma2)."""
    # imported here: scipy.special adds ~65 ms to every urnlab start-up
    from scipy.special import kolmogorov, ndtr

    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = x.size
    if n == 0:
        raise InvalidArgumentError("samples must be nonempty")
    if sigma2 <= 0.0:
        raise InvalidArgumentError(f"sigma2 must be positive, got {sigma2}")
    F = ndtr((x - mu) / math.sqrt(sigma2))
    i = np.arange(n)
    stat = max(0.0, float(np.max(F - i / n)), float(np.max((i + 1) / n - F)))
    return stat, float(kolmogorov(math.sqrt(n) * stat))


def make_mc_report(sample, predicted_cov, rel_tol, p_min):
    """Aggregate an MCSample against the predicted limit covariance."""
    X = sample.errors
    predicted_cov = np.asarray(predicted_cov, dtype=float)
    mean = X.mean(axis=0)
    C = X - mean
    emp = C.T @ C / max(X.shape[0] - 1, 1)
    emp = 0.5 * (emp + emp.T)
    rel = compare_covariance(emp, predicted_cov)
    ks = []
    worst_p = 1.0
    for j in range(X.shape[1]):
        s2 = float(predicted_cov[j, j])
        if s2 <= 1e-12:
            ks.append({"coordinate": j, "statistic": None, "p_value": None})
            continue
        stat, p = ks_normal(X[:, j], 0.0, s2)
        worst_p = min(worst_p, p)
        ks.append({"coordinate": j, "statistic": stat, "p_value": p})
    verdict = {
        "passed": bool(rel <= rel_tol and worst_p >= p_min),
        "rel_tol": rel_tol,
        "p_min": p_min,
        "rel_frobenius": rel,
        "min_p_value": worst_p,
        "excluded": sample.excluded,
        "note": "weak-convergence check with deterministic noise covariance",
    }
    return MCReport(horizon=sample.horizon, empirical_mean=mean,
                    empirical_cov=emp, predicted_cov=predicted_cov,
                    rel_frobenius=rel, ks_results=tuple(ks), verdict=verdict)


def path_convergence(checkpoints, tol=0.05, relative=False):
    """RateFit over dyadic checkpoints (each n doubling the last).

    Convergence means the final gap is inside the tolerance and the gap
    sequence is headed down (last below first, or negative fitted slope);
    single noisy bumps do not disqualify a path.
    """
    pts = [(int(n), np.asarray(x, dtype=float).reshape(-1))
           for n, x in checkpoints]
    if len(pts) < 4:
        raise InvalidArgumentError("need at least 4 dyadic checkpoints")
    for (a, _), (b, _) in zip(pts, pts[1:]):
        if b != 2 * a:
            raise InvalidArgumentError(
                f"checkpoints must double: {a} followed by {b}")
    gaps = []
    for (_, xa), (nb, xb) in zip(pts, pts[1:]):
        g = float(np.linalg.norm(xb - xa))
        if relative:
            g /= max(float(np.linalg.norm(xb)), 1e-12)
        gaps.append(g)

    ns = np.array([n for n, _ in pts], dtype=float)
    norms = np.array([np.linalg.norm(x) for _, x in pts])
    pos = norms > 0.0
    exponent = None
    if pos.sum() >= 2:
        exponent = float(np.polyfit(np.log(ns[pos]), np.log(norms[pos]), 1)[0])

    gp = np.array(gaps)
    nz = gp > 0.0
    slope = -math.inf
    if nz.sum() >= 2:
        slope = float(np.polyfit(np.log(ns[1:][nz]), np.log(gp[nz]), 1)[0])
    headed_down = gaps[-1] < gaps[0] or not nz.any() or slope < 0.0
    converged = bool(gaps[-1] <= tol and headed_down)
    return RateFit(checkpoints=tuple(pts), fitted_exponent=exponent,
                   cauchy_gaps=tuple(gaps), converged=converged, tolerance=tol)


def rotation_fit(checkpoints, lambda_im):
    """Least squares of x_n on sqrt(2) cos(lambda_im log n) and
    sqrt(2) sin(lambda_im log n); the residual trend over three index
    windows shows whether the phase model explains the tail."""
    ns = np.array([float(n) for n, _ in checkpoints])
    xs = np.array([float(x) for _, x in checkpoints])
    if ns.size < 8:
        raise InvalidArgumentError("need at least 8 checkpoints")
    if np.any(np.diff(ns) <= 0.0):
        raise InvalidArgumentError("checkpoints must be increasing")
    if math.log10(ns[-1] / ns[0]) < 3.0:
        raise InvalidArgumentError("checkpoints must span at least 3 decades")
    ln = np.log(ns)
    design = np.column_stack([np.sqrt(2.0) * np.cos(lambda_im * ln),
                              np.sqrt(2.0) * np.sin(lambda_im * ln)])
    if np.linalg.matrix_rank(design) < 2:
        raise InvalidArgumentError(
            "degenerate design: phase regressors are not independent")
    coef, _, _, _ = np.linalg.lstsq(design, xs, rcond=None)
    resid = xs - design @ coef
    thirds = np.array_split(np.arange(ns.size), 3)
    trend = [float(np.sqrt(np.mean(resid[idx] ** 2))) for idx in thirds]
    return {"xi1": float(coef[0]), "xi2": float(coef[1]),
            "residual_trend": trend, "residuals": resid.tolist()}


# ==== showcase suite ====

@dataclasses.dataclass(frozen=True)
class SuiteReport:
    """Outcome of the canonical showcase run: one graded entry per
    criterion, an overall verdict, and the names of any failures."""

    criteria: tuple
    passed: bool
    failures: tuple
    note: str


def golden_suite(replicates, horizons, seed, workers=1):
    """Run the four showcase recursions and grade their documented
    behaviors.

    Monte Carlo effort is `replicates` at each of the increasing
    `horizons`, from `seed`; the deterministic long-horizon checks run at
    their pinned scales (single paths to 2^22, exact means to 1e8, the
    damped decay to 1e7). `workers`
    caps the processes of each `simulate` and `exact_mean_recursion` call
    and changes no value. The report names every failing criterion.
    """
    from .golden import (JORDAN_CHAIN_BASIS, decay_spec, jordan_chain_spec,
                         remainder_drive_spec, rotation_spec)

    horizons = tuple(int(h) for h in horizons)
    if not horizons or horizons[0] < 1 or any(
            b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidArgumentError("horizons must be increasing and >= 1")
    h_last = horizons[-1]
    criteria = []

    def grade(name, passed, **details):
        criteria.append({"name": name, "passed": bool(passed),
                         "details": details})

    # defective critical drift: the two coordinates carry different log
    # powers, so each gets its own scaling before the variance check
    spec = jordan_chain_spec(0.5)
    pred = np.array([[0.0, 0.0], [0.0, 1.0 / 3.0]])
    ratios = []
    for h in horizons:
        s = mc_sample(spec, h, replicates, seed, basis=JORDAN_CHAIN_BASIS,
                      workers=workers)
        X = s.errors
        var_first = float(np.var(X[:, 0] * math.log(h), ddof=1))
        var_second = float(np.var(X[:, 1], ddof=1))
        ratios.append(3.0 * var_second)
    trend_ok = len(ratios) < 2 or abs(ratios[-1] - 1.0) <= abs(ratios[-2] - 1.0)
    grade("jordan-critical-variance",
          abs(var_first - 1.0) <= 0.15
          and abs(var_second - 1.0 / 3.0) <= 0.25 / 3.0 and trend_ok,
          horizon=h_last, var_first=var_first, var_second=var_second,
          scaled_second_ratios=ratios,
          report=make_mc_report(s, pred, rel_tol=0.25, p_min=0.0))

    # same drift below the critical line: scaled path settles on a random
    # limit, so dyadic gaps shrink while independent streams disagree
    spec_slow = jordan_chain_spec(0.3)
    # rows are independent: replicate 0's is the path, the 20 finals the spread
    n_path = 1 << 22
    pts, _ = simulate(spec_slow, n_path, seed,
                      [1 << k for k in range(10, 23)], 20,
                      basis=JORDAN_CHAIN_BASIS, workers=workers)
    fit_first = path_convergence(
        [(n, [n ** 0.3 * x[0, 0]]) for n, x in pts], tol=0.05)
    fit_second = path_convergence(
        [(n, [n ** 0.3 / math.log(n) * x[0, 1]]) for n, x in pts], tol=0.05)
    finals = pts[-1][1]
    spread = float(np.var(n_path ** 0.3 * finals[:, 0], ddof=1))
    grade("jordan-slow-path",
          fit_first.converged and fit_second.converged and spread > 0.0,
          final_gaps=[fit_first.cauchy_gaps[-1], fit_second.cauchy_gaps[-1]],
          stream_variance=spread,
          rate_fits=[fit_first, fit_second])

    # complex pair: no normalizing constant exists, so grade the phase fit
    # and boundedness of the scaled path instead of a limit value
    spec_rot = rotation_spec(0.3)
    pts, _ = simulate(spec_rot, n_path, seed,
                      [1 << k for k in range(7, 23)], 1)
    scaled = [(n, n ** 0.3 * x[0]) for n, x in pts]
    fit = rotation_fit([(n, v[0]) for n, v in scaled], 0.3)
    trend = fit["residual_trend"]
    norms = [float(np.linalg.norm(v)) for _, v in scaled]
    ratio_bound = max(norms) / float(np.median(norms))
    grade("rotation-bounded-residual",
          trend[0] > trend[1] > trend[2] and ratio_bound <= 10.0,
          residual_trend=trend, max_over_median=ratio_bound,
          xi=[fit["xi1"], fit["xi2"]])

    # noise-free decay, clean power law: n^rho theta_n has settled by 1e6
    ms = exact_mean_recursion([[0.5]], None, decay_spec(0.5).theta0, 10 ** 7,
                              checkpoints=[10 ** 6, 10 ** 7], workers=workers)
    vals = [n ** 0.5 * float(x[0]) for n, x in ms]
    ratio = vals[1] / vals[0]
    grade("decay-pure-rate", 0.99 <= ratio <= 1.01,
          ratio=ratio, scaled_values=vals)

    # same drift slope with the log-log damping: the decade exponent of
    # theta_n rises towards rho without reaching it, each one bracketed by
    # the mean-flow rate r = h(theta)/theta at the decade's ends, while the
    # log-corrected series n^rho theta_n / log n grows
    rho = 0.5
    damped = decay_spec(rho, damped=True)
    pts, _ = simulate(damped, 10 ** 7, seed,
                      [10 ** k for k in range(4, 8)], 1)
    cps = [(n, float(x[0, 0])) for n, x in pts]
    rise_series = [n ** rho * th / math.log(n) for n, th in cps]
    rise_ok = all(b > a for a, b in zip(rise_series, rise_series[1:]))
    ths = [th for _, th in cps]
    exponents = [math.log10(a / b) for a, b in zip(ths, ths[1:])]
    rates = [damped.drift(th) / th for th in ths]
    brackets = [[lo, hi] for lo, hi in zip(rates, rates[1:])]
    exponents_ok = (
        all(b > a for a, b in zip(exponents, exponents[1:]))
        and all(lo <= e <= hi for e, (lo, hi) in zip(exponents, brackets)))
    tail_rate = damped.drift(1e-300) / 1e-300  # r far past any reachable n
    limit_ok = rates[-1] < tail_rate < rho
    grade("decay-damped-rates", exponents_ok and limit_ok and rise_ok,
          decade_exponents=exponents, brackets=brackets,
          tail_rate=tail_rate, rise_series=rise_series,
          exponents_ok=exponents_ok, limit_ok=limit_ok, rise_ok=rise_ok)

    # deterministic remainders at the critical slope: exact means
    decades = [10 ** k for k in range(4, 9)]
    spec_r = remainder_drive_spec("inv-sqrt-log")
    ms = exact_mean_recursion(spec_r.drift.matrix, spec_r.remainder,
                              spec_r.theta0, decades[-1], checkpoints=decades,
                              workers=workers)
    n_f, x_f = ms[-1]
    mean_ratio = float(x_f[0]) / (2.0 * math.sqrt(math.log(n_f) / n_f))
    grade("remainder-mean-sqrt-log", 0.9 <= mean_ratio <= 1.05,
          ratio=mean_ratio, horizon=n_f)

    spec_ll = remainder_drive_spec("inv-sqrt-loglog")
    ms = exact_mean_recursion(spec_ll.drift.matrix, spec_ll.remainder,
                              spec_ll.theta0, decades[-1], checkpoints=decades,
                              workers=workers)
    series = [math.sqrt(n / math.log(n)) * float(x[0]) for n, x in ms]
    grade("remainder-mean-loglog",
          all(b > a for a, b in zip(series, series[1:])),
          scaled_means=series)

    # no remainder: the scaled sample should pass a normality check
    s = mc_sample(remainder_drive_spec("zero"), h_last, replicates, seed,
                  workers=workers)
    stat, p = ks_normal(s.errors[:, 0], 0.0, 1.0)
    rep = make_mc_report(s, np.array([[1.0]]), rel_tol=0.15, p_min=0.01)
    grade("remainder-zero-normality", p > 0.01,
          ks_statistic=stat, p_value=p, report=rep)

    failures = tuple(c["name"] for c in criteria if not c["passed"])
    return SuiteReport(
        criteria=tuple(criteria), passed=not failures, failures=failures,
        note="weak-convergence check with deterministic noise covariance")
