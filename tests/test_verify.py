import json
import math
import multiprocessing
import os
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.stats

from urnlab.asymptotics import analyze
from urnlab.errors import (DivergenceError, InvalidArgumentError,
                           NonConvergenceError, NumericalOverflowError)
from urnlab.golden import (JORDAN_CHAIN_BASIS, decay_spec, jordan_chain_spec,
                           remainder_drive_spec)
from urnlab.sa import (GaussianNoise, LinearDrift, SAProcessSpec, run_sa,
                       worker_count)
from urnlab.urn import (BernoulliDiagonalRule, DeterministicRule, UrnSpec,
                        run_urn, urn_asymptotics)
from urnlab import verify
from urnlab.verify import (
    golden_suite,
    compare_covariance,
    ks_normal,
    make_mc_report,
    mc_sample,
    path_convergence,
    rotation_fit,
    simulate,
)
from urnlab.report import canonical_json
from oracles import friedman_urn, reference_sa


# a Standard analysis for the non-linear drifts, which mc_sample cannot analyse
STANDARD = analyze([[1.0]], [[0.0]])


def linear_spec(a=1.0, noise=True):
    A = np.array([[a]])
    return SAProcessSpec(dim=1, drift=LinearDrift(A), theta0=np.array([1.0]),
                         noise=GaussianNoise(np.array([[1.0]])) if noise else None,
                         theta_star=np.array([0.0]))


# ==== config and accounting ====

def test_config_validation():
    with pytest.raises(InvalidArgumentError, match="replicates"):
        mc_sample(linear_spec(), 10, 0, 1)
    with pytest.raises(InvalidArgumentError, match="increasing"):
        golden_suite(5, (10, 10), 1)


def test_zero_noise_rows_identical():
    spec = linear_spec(noise=False)
    s = mc_sample(spec, 100, 5, 3)
    assert s.errors.shape == (5, 1)
    assert np.all(s.errors == s.errors[0])
    assert s.excluded == 0


def test_mc_sample_deterministic():
    spec = linear_spec()
    a = mc_sample(spec, 500, 50, 9)
    b = mc_sample(spec, 500, 50, 9)
    assert np.array_equal(a.errors, b.errors)


def test_scalar_sa_variance_near_one():
    # h(t)=t, Gamma=1: Var sqrt(n) theta_n -> 1/(2-1) = 1
    spec = linear_spec()
    s = mc_sample(spec, 10000, 4000, 17)
    var = s.errors[:, 0].var(ddof=1)
    se = math.sqrt(2.0 / 4000)
    assert abs(var - 1.0) < 3.0 * se


def test_divergent_replicates_fail_hard():
    # exploding drift: every replicate diverges, far above the 1% quarantine
    spec = SAProcessSpec(dim=1, drift=lambda t: -t * 1e160,
                         theta0=np.array([1.0]),
                         theta_star=np.array([0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonConvergenceError):
            mc_sample(spec, 10, 10, 1, analysis=STANDARD)


def test_nonlinear_needs_regime():
    spec = SAProcessSpec(dim=1, drift=lambda t: t, theta0=np.array([1.0]),
                         theta_star=np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        mc_sample(spec, 10, 3, 1)


def test_urn_sample_dimensions():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    s = mc_sample(spec, 256, 64, 5)
    assert s.errors.shape == (64, 4)
    assert s.excluded == 0


def test_mc_sample_propagates_drift_errors():
    # only divergence drops a replicate; a bug in the drift surfaces
    def drift(th):
        if th[0] != 0.0:
            raise TypeError("drift bug")
        return th

    spec = SAProcessSpec(dim=1, drift=drift, theta0=np.array([1.0]),
                         theta_star=np.array([0.0]))
    with pytest.raises(TypeError):
        mc_sample(spec, 10, 5, 1, analysis=STANDARD)


def test_linear_refusal_is_a_fallback_not_divergence():
    # the weights of (1 - 400.5/j) are built from each segment's end, so
    # nothing overflows on this stable drift and the linear engine keeps it
    spec = SAProcessSpec(dim=1, drift=LinearDrift([[400.5]]),
                         theta0=np.array([1.0]),
                         noise=GaussianNoise(np.array([[1.0]])),
                         theta_star=np.array([0.0]))
    s = mc_sample(spec, 2000, 20, 0)
    assert s.excluded == 0
    assert s.engine == {"name": "linear", "dropped": [], "fallback": None}
    for r in range(20):
        th = reference_sa(spec, 2000, 0, [2000], replicate=r).checkpoints[-1][1]
        np.testing.assert_allclose(s.errors[r] / math.sqrt(2000.0), th,
                                   rtol=1e-9, atol=1e-12)
    # a Jordan block at the integer eigenvalue 2 is refused: the step
    # engine runs every replicate and none is counted as diverged
    spec = SAProcessSpec(dim=2, drift=LinearDrift([[2.0, 1.0], [0.0, 2.0]]),
                         theta0=np.ones(2), noise=GaussianNoise(np.eye(2)),
                         theta_star=np.zeros(2))
    s = mc_sample(spec, 500, 4, 0, basis=np.eye(2))
    assert s.excluded == 0
    assert s.engine == {"name": "step", "dropped": [], "fallback": {
        "from": "linear", "code": "jordan-integer-eigenvalue"}}
    for r in range(4):
        th = run_sa(spec, 500, 0, [500], replicate=r).checkpoints[-1][1]
        assert np.array_equal(s.errors[r], th * math.sqrt(500.0))


# ==== engine choice ====

SIM_PLAN = [0, 1, 17, 2000]


def _linear_model(A, theta0=1.0):
    d = len(A)
    return SAProcessSpec(dim=d, drift=LinearDrift(np.array(A)),
                         theta0=np.full(d, theta0), noise=GaussianNoise(np.eye(d)))


# route -> (model, replicates, basis, engine name, fallback code)
SA_ROUTES = {
    "linear": (lambda: _linear_model([[1.0, 0.3], [0.0, 0.8]]), 3, None,
               "linear", None),
    "linear-with-basis": (lambda: jordan_chain_spec(0.5), 2,
                          JORDAN_CHAIN_BASIS, "linear", None),
    "step": (lambda: remainder_drive_spec("inv-sqrt-log"), 3, None,
             "step", None),
    "float-loop": (lambda: decay_spec(0.5, damped=True), 2, None,
                   "step", None),
    "linear-large-eigenvalue": (lambda: _linear_model([[400.5]]), 3, None,
                                "linear", None),
    "linear-near-integer": (lambda: _linear_model([[1.0 + 1e-10]]), 2, None,
                            "linear", None),
    # theta_k = 1e306 (k + 1) passes the largest double at step 179 while
    # h = -theta stays finite: every replicate diverges
    "fallback-non-finite": (lambda: _linear_model([[-1.0]], 1e306), 2, None,
                            "step", "non-finite"),
    "fallback-needs-basis": (lambda: jordan_chain_spec(0.5), 2, None,
                             "step", "needs-chain-basis"),
    "fallback-jordan-integer": (lambda: _linear_model([[1.0, 1.0], [0.0, 1.0]]),
                                2, np.eye(2), "step", "jordan-integer-eigenvalue"),
}


@pytest.mark.parametrize("route", list(SA_ROUTES))
def test_simulate_recursion_routes_match_step_reference(route):
    make, R, basis, name, code = SA_ROUTES[route]
    spec = make()
    with np.errstate(over="ignore", invalid="ignore"):
        paths, record = simulate(spec, 2000, 3, SIM_PLAN, R, basis=basis)
    refs, dropped = [], []
    for r in range(R):
        # the reference runs run_sa's generic array loop on every model
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                refs.append(reference_sa(spec, 2000, 3, SIM_PLAN,
                                         replicate=r).checkpoints)
        except DivergenceError as exc:
            refs.append([(k, np.full(spec.dim, np.nan)) for k in SIM_PLAN])
            dropped.append({"replicate": r, "first_bad_index": exc.first_bad_index})
    assert record == {"name": name, "dropped": dropped, "fallback": (
        None if code is None else {"from": "linear", "code": code})}
    assert (code == "non-finite") == (len(dropped) == R)
    assert [k for k, _ in paths] == SIM_PLAN
    for r, ref in enumerate(refs):
        for (k, x), (k_ref, th) in zip(paths, ref):
            assert k == k_ref
            if name == "linear":
                np.testing.assert_allclose(x[r], th, rtol=1e-9, atol=1e-12)
            else:
                assert np.array_equal(x[r], th, equal_nan=True)


def test_simulate_raises_a_drift_overflow_instead_of_dropping_replicates():
    # on [[-400.5]] h = 400.5 theta overflows at step 671, while theta stays
    # below the largest double for about a dozen more steps: a numerical
    # failure, not a divergence, so no replicate is dropped for it. Where
    # long double is no wider than double it still reads as a divergence
    wide = np.finfo(np.longdouble).max > np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalOverflowError if wide else DivergenceError) as exc:
        simulate(_linear_model([[-400.5]]), 2000, 3, SIM_PLAN, 2)
    assert getattr(exc.value, "step" if wide else "first_bad_index") == 671


def _bernoulli_urn():
    return UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=BernoulliDiagonalRule(2, p=0.5, scale=2.0))


# route -> (model, replicates, engine name)
URN_ROUTES = {
    "lockstep": (friedman_urn, 3, "lockstep-urn"),
    "scalar": (friedman_urn, 1, "urn"),
    "random-rule": (_bernoulli_urn, 2, "lockstep-urn"),
    "random-rule-single": (_bernoulli_urn, 1, "urn"),
}


@pytest.mark.parametrize("route", list(URN_ROUTES))
def test_simulate_urn_routes_match_run_urn(route):
    make, R, name = URN_ROUTES[route]
    spec = make()
    paths, record = simulate(spec, 2000, 3, SIM_PLAN, R)
    assert record == {"name": name, "dropped": [], "fallback": None}
    assert [k for k, _, _ in paths] == SIM_PLAN
    for r in range(R):
        ref = run_urn(spec, 2000, 3, SIM_PLAN, replicate=r).checkpoints
        for (k, Y, N), st in zip(paths, ref):
            assert k == st.n
            assert np.array_equal(Y[r], st.Y) and np.array_equal(N[r], st.N)


def test_simulate_urn_rejects_chain_basis():
    with pytest.raises(InvalidArgumentError, match="chain basis"):
        simulate(friedman_urn(), 10, 3, [10], 2, basis=np.eye(2))


def test_simulate_records_dropped_replicates():
    spec = SAProcessSpec(dim=1, drift=lambda t: -t * 1e160,
                         theta0=np.array([1.0]))
    with np.errstate(over="ignore"):
        paths, record = simulate(spec, 10, 1, [5, 10], 2)
    assert record["dropped"] == [{"replicate": 0, "first_bad_index": 2},
                                 {"replicate": 1, "first_bad_index": 2}]
    assert all(np.isnan(x).all() for _, x in paths)


# ==== worker processes ====

def _cubic_spec():
    # theta grows like theta^3 / n once it is large: most replicates of
    # seed 0 overflow within a few steps, replicate 5 of 0..8 does not
    return SAProcessSpec(dim=1, drift=lambda th: -th ** 3,
                         theta0=np.array([0.0]),
                         noise=GaussianNoise(np.array([[1.0]])))


# case -> (model, replicates, basis, engine name, fallback code)
WORKER_CASES = {
    "linear": (lambda: _linear_model([[1.0, 0.3], [0.0, 0.8]]), 7, None,
               "linear", None),
    # complex eigenvalues: a matrix product over the batch would round
    # each row by its position in the batch
    "linear-complex": (lambda: _linear_model([[1.0, 0.3, 0.1], [0.0, 0.8, 0.2],
                                              [0.1, 0.0, 0.9]]), 13, None,
                       "linear", None),
    "lockstep-urn": (friedman_urn, 7, None, "lockstep-urn", None),
    "lockstep-random-urn": (_bernoulli_urn, 7, None, "lockstep-urn", None),
    "step-dropped": (_cubic_spec, 9, None, "step", None),
    "step-remainder": (lambda: remainder_drive_spec("inv-sqrt-log"), 9, None,
                       "step", None),
    "fallback-jordan-integer": (lambda: _linear_model([[1.0, 1.0], [0.0, 1.0]]),
                                5, np.eye(2), "step", "jordan-integer-eigenvalue"),
}


@pytest.fixture
def three_cpus(monkeypatch):
    # worker_count caps at the usable CPUs; let 3 workers run on any box
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.mark.parametrize("case", list(WORKER_CASES))
def test_simulate_is_the_same_at_any_worker_count(case, three_cpus):
    make, R, basis, name, code = WORKER_CASES[case]
    spec = make()
    runs = []
    for workers in (1, 2, 3):  # 3 splits the replicates unevenly
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(simulate(spec, 3000, 0, [0, 1, 17, 1000, 3000], R,
                                 basis=basis, workers=workers))
        assert multiprocessing.active_children() == []
    paths, record = runs[0]
    assert record["name"] == name
    assert record["fallback"] == (None if code is None
                                  else {"from": "linear", "code": code})
    for other, other_record in runs[1:]:
        assert other_record == record
        assert len(other) == len(paths)
        for cp, cp_other in zip(paths, other):
            assert cp[0] == cp_other[0]
            for x, y in zip(cp[1:], cp_other[1:]):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y, equal_nan=True)
    if case == "step-dropped":
        dropped = [d["replicate"] for d in record["dropped"]]
        # global indices, some of them outside the first shard
        assert 5 not in dropped and max(dropped) == R - 1
        for r in range(R):
            assert np.isnan(paths[-1][1][r, 0]) == (r in dropped)


def test_lockstep_urn_raises_the_earliest_divergence_at_any_worker_count(
        three_cpus):
    # a colour-0 draw adds 1e308 balls and the next one overflows; at seed 0
    # replicate 6, in the last shard, overflows first (step 125), and the
    # first of the first shard's is replicate 2 (step 830)
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1e3]),
                   adding_rule=DeterministicRule([[1e308, 0.0], [0.0, 1.0]]))
    first = []
    for r in range(7):
        try:
            run_urn(spec, 3000, 0, [3000], replicate=r)
        except DivergenceError as exc:
            first.append(exc.first_bad_index)
    assert min(first) == 125 and 830 in first
    for workers in (1, 2, 3):
        with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore"):
            simulate(spec, 3000, 0, range(1, 3001), 7, workers=workers)
        assert exc.value.first_bad_index == 125
        assert multiprocessing.active_children() == []


def test_a_killed_worker_fails_the_call_instead_of_hanging(three_cpus):
    caller = os.getpid()

    def drift(th):
        if os.getpid() != caller:  # in a forked worker only
            os.kill(os.getpid(), signal.SIGKILL)
        return th

    spec = SAProcessSpec(dim=1, drift=drift, theta0=np.array([1.0]))
    with pytest.raises(BrokenProcessPool):
        simulate(spec, 10, 0, [10], 3, workers=3)
    assert multiprocessing.active_children() == []


def test_lockstep_urn_names_the_overflowing_step_not_the_checkpoint(three_cpus):
    # the second draw of 1e308 balls overflows; the only checkpoint is 20
    spec = UrnSpec(d=1, Y0=np.array([1.0]),
                   adding_rule=DeterministicRule([[1e308]]))
    for R, workers in ((1, 1), (2, 1), (2, 2)):
        with pytest.raises(DivergenceError) as exc, warnings.catch_warnings():
            warnings.simplefilter("error")  # no engine warns on the overflow
            simulate(spec, 20, 0, [20], R, workers=workers)
        assert exc.value.first_bad_index == 2, (R, workers)


def test_urn_overflow_check_is_the_same_for_one_and_many_replicates():
    # 20 draws of 1e299 balls end at 2e300: large, finite, not a divergence
    spec = UrnSpec(d=1, Y0=np.array([1.0]),
                   adding_rule=DeterministicRule([[1e299]]))
    one, rec_one = simulate(spec, 20, 0, [10, 20], 1)
    two, rec_two = simulate(spec, 20, 0, [10, 20], 2)
    forked, rec_forked = simulate(spec, 20, 0, [10, 20], 2, workers=2)
    assert rec_one["name"] == "urn" and rec_two["name"] == "lockstep-urn"
    assert rec_forked == rec_two
    for (k, Y, N), (_, Y2, N2), (_, Y3, N3) in zip(one, two, forked):
        assert np.array_equal(Y2, Y3) and np.array_equal(N2, N3)
        assert np.array_equal(Y2, np.repeat(Y, 2, axis=0))
        assert np.array_equal(N2, np.repeat(N, 2, axis=0))
    assert two[-1][1][0, 0] == 1.0 + 20 * 1e299


def test_worker_count_is_capped_by_replicates_and_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert worker_count(100000, 10 ** 6) == cpus
    assert worker_count(100000, 1) == 1
    assert worker_count(1, 10 ** 6) == 1
    with pytest.raises(InvalidArgumentError, match="workers"):
        worker_count(0, 10)


# ==== covariance comparison ====

def test_compare_covariance_examples():
    assert compare_covariance(np.eye(3), np.eye(3)) == 0.0
    assert compare_covariance(1.1 * np.eye(2), np.eye(2)) == pytest.approx(0.1)
    with pytest.raises(InvalidArgumentError):
        compare_covariance(np.eye(2), np.eye(3))


def test_compare_covariance_zero_floor():
    assert compare_covariance(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


# ==== KS test ====

def test_ks_single_point():
    stat, p = ks_normal([0.0], 0.0, 1.0)
    assert stat == pytest.approx(0.5)


def test_ks_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=400)
        stat, p = ks_normal(x, 0.0, 1.0)
        ref = scipy.stats.kstest(x, "norm", mode="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)
        # the exact finite-n law differs from the series by O(1/sqrt(n))
        exact = scipy.stats.kstest(x, "norm")
        assert p == pytest.approx(exact.pvalue, abs=0.05)


def test_ks_small_statistic_branch():
    # near-perfect fit: tiny sqrt(n) D exercises the theta-series branch
    u = (np.arange(1, 2001) - 0.5) / 2000.0
    x = scipy.stats.norm.ppf(u)
    stat, p = ks_normal(x, 0.0, 1.0)
    assert math.sqrt(2000) * stat < 0.3
    assert p > 0.999


def test_ks_normal_samples_pass():
    rng = np.random.default_rng(123)
    passes = sum(ks_normal(rng.normal(size=10000), 0.0, 1.0)[1] > 0.01
                 for _ in range(20))
    assert passes >= 19


def test_ks_shifted_samples_rejected():
    rng = np.random.default_rng(11)
    _, p = ks_normal(rng.normal(loc=2.0, size=10000), 0.0, 1.0)
    assert p < 1e-6


def test_ks_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        ks_normal([1.0], 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        ks_normal([], 0.0, 1.0)


# ==== MC report ====

def test_mc_report_friedman_cov():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    analysis = urn_asymptotics(spec)
    s = mc_sample(spec, 4000, 600, 29, analysis=analysis)
    pred = analysis.Sigma_tilde
    rep = make_mc_report(s, pred, rel_tol=0.3, p_min=0.002)
    assert rep.rel_frobenius <= 0.3
    assert rep.verdict["passed"]
    w = np.linalg.eigvalsh(rep.empirical_cov)
    assert w.min() >= -1e-12
    d = json.loads(canonical_json(rep))
    assert d["horizon"] == 4000


def test_mc_report_flags_mismatch():
    spec = linear_spec()
    s = mc_sample(spec, 2000, 500, 31)
    rep = make_mc_report(s, np.array([[25.0]]), rel_tol=0.15, p_min=0.005)
    assert not rep.verdict["passed"]


# ==== path convergence ====

def test_path_convergence_constant():
    pts = [(2 ** k, np.array([1.0, -1.0])) for k in range(3, 8)]
    fit = path_convergence(pts, tol=1e-9)
    assert fit.converged
    assert all(g == 0.0 for g in fit.cauchy_gaps)


def test_path_convergence_one_over_log():
    pts = [(2 ** k, np.array([1.0 / math.log(2 ** k)])) for k in range(4, 12)]
    fit = path_convergence(pts, tol=0.05)
    assert fit.converged
    gaps = fit.cauchy_gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # |x_n| ~ 1/log n falls slower than any power: fitted slope is a small
    # negative number (about -1/log n over the window), far from -0.5
    assert -0.35 < fit.fitted_exponent < -0.05


def test_path_convergence_diverging_sequence():
    pts = [(2 ** k, np.array([float(k)])) for k in range(4, 10)]
    fit = path_convergence(pts, tol=0.5)
    assert not fit.converged


def test_path_convergence_validation():
    with pytest.raises(InvalidArgumentError):
        path_convergence([(8, [1.0]), (16, [1.0]), (32, [1.0])])
    with pytest.raises(InvalidArgumentError):
        path_convergence([(8, [1.0]), (16, [1.0]), (24, [1.0]), (48, [1.0])])


def test_path_convergence_relative_gaps():
    # gaps around 2^-k against a baseline of 100: relative mode divides
    # through, absolute mode sees the raw 0.03-sized differences
    pts = [(2 ** k, np.array([100.0 + 2.0 ** -k])) for k in range(4, 9)]
    fit = path_convergence(pts, tol=1e-3, relative=True)
    assert fit.converged
    assert max(fit.cauchy_gaps) < 1e-3
    assert not path_convergence(pts, tol=1e-3).converged


# ==== rotation fit ====

def rotation_points(lam=0.3, xi1=1.0, xi2=0.5, count=24):
    ns = np.geomspace(10.0, 1e7, count)
    xs = math.sqrt(2.0) * (xi1 * np.cos(lam * np.log(ns))
                           + xi2 * np.sin(lam * np.log(ns)))
    return list(zip(ns, xs))


def test_rotation_fit_recovers_coefficients():
    fit = rotation_fit(rotation_points(), 0.3)
    assert fit["xi1"] == pytest.approx(1.0, abs=1e-10)
    assert fit["xi2"] == pytest.approx(0.5, abs=1e-10)
    assert max(fit["residual_trend"]) < 1e-10


def test_rotation_fit_zero_path():
    pts = [(n, 0.0) for n, _ in rotation_points()]
    fit = rotation_fit(pts, 0.3)
    assert fit["xi1"] == 0.0 and fit["xi2"] == 0.0


def test_rotation_fit_validation():
    pts = rotation_points()
    with pytest.raises(InvalidArgumentError):
        rotation_fit(pts[:6], 0.3)
    with pytest.raises(InvalidArgumentError):
        rotation_fit([(n, x) for n, x in zip(range(10, 19), range(9))], 0.3)
    with pytest.raises(InvalidArgumentError):
        rotation_fit(pts, 0.0)


# ==== showcase suite ====

def test_mc_sample_defective_drift_needs_basis():
    spec = jordan_chain_spec(0.5)
    s = mc_sample(spec, 400, 40, 2, basis=JORDAN_CHAIN_BASIS)
    assert s.errors.shape == (40, 2)
    # the batch engine matches the stepper replicate by replicate
    from urnlab.sa import run_sa
    traj = run_sa(spec, 400, seed=2, checkpoint_plan=[400], replicate=7)
    ln = math.log(400.0)
    scaled = math.sqrt(400.0) / ln ** 1.5 * traj.checkpoints[0][1]
    assert np.allclose(s.errors[7], scaled, rtol=1e-9, atol=1e-12)


def test_golden_suite_report(monkeypatch):
    mean, caps = verify.exact_mean_recursion, []

    def capped(*args, **kwargs):
        caps.append(kwargs.get("workers"))
        return mean(*args, **kwargs)

    monkeypatch.setattr(verify, "exact_mean_recursion", capped)
    rep = golden_suite(200, (2000, 10 ** 4), 0)
    # every exact mean is capped at the suite's own worker count
    assert caps == [1, 1, 1]
    names = [c["name"] for c in rep.criteria]
    assert names == [
        "jordan-critical-variance",
        "jordan-slow-path",
        "rotation-bounded-residual",
        "decay-pure-rate",
        "decay-damped-rates",
        "remainder-mean-sqrt-log",
        "remainder-mean-loglog",
        "remainder-zero-normality",
    ]
    by_name = {c["name"]: c for c in rep.criteria}
    # deterministic long-horizon checks hold at any MC scale
    assert by_name["decay-pure-rate"]["passed"]
    assert 0.9 <= by_name["remainder-mean-sqrt-log"]["details"]["ratio"] <= 1.05
    assert by_name["remainder-mean-loglog"]["passed"]
    assert by_name["jordan-slow-path"]["passed"]
    assert by_name["rotation-bounded-residual"]["passed"]
    # damped decay: rising decade exponents, each inside its mean-flow
    # bracket, and the log-corrected series still growing
    d = by_name["decay-damped-rates"]["details"]
    assert by_name["decay-damped-rates"]["passed"]
    assert d["rise_ok"] and d["exponents_ok"] and d["limit_ok"]
    assert len(d["decade_exponents"]) == len(d["brackets"]) == 3
    for e, (lo, hi) in zip(d["decade_exponents"], d["brackets"]):
        assert lo <= e <= hi
    assert d["tail_rate"] < 0.5
    assert "decay-damped-rates" not in rep.failures
    assert rep.passed == (len(rep.failures) == 0)
    assert "weak-convergence" in rep.note
    d = json.loads(canonical_json(rep))  # serializable as-is
    assert d["failures"] == list(rep.failures)
