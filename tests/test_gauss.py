import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from urnlab.errors import InvalidArgumentError, RefinementError
from urnlab.gauss import (
    GaussProcessSpec,
    gaussian_variance,
    interval_covariance,
    simulate_paths,
)
from urnlab.linalg import mat_power
from urnlab.rng import BlockSource
from oracles import reference_gauss_paths


def scalar_spec(grid, g1=0.0):
    return GaussProcessSpec(H=np.array([[1.0]]), gamma_root=np.array([[1.0]]),
                            G1=np.array([g1]), grid=np.asarray(grid, float))


# ==== spec validation ====

def test_spec_requires_grid_from_one():
    with pytest.raises(InvalidArgumentError):
        scalar_spec([2.0, 4.0])
    with pytest.raises(InvalidArgumentError):
        scalar_spec([1.0, 3.0, 2.0])


def test_spec_shapes():
    with pytest.raises(InvalidArgumentError):
        GaussProcessSpec(H=np.eye(2), gamma_root=np.eye(3), G1=np.zeros(2),
                         grid=np.array([1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        GaussProcessSpec(H=np.eye(2), gamma_root=np.eye(2), G1=np.zeros(3),
                         grid=np.array([1.0, 2.0]))


# ==== variance formula ====

def test_variance_at_one_is_zero():
    assert np.array_equal(gaussian_variance(np.eye(2), np.eye(2), 1.0),
                          np.zeros((2, 2)))


def test_variance_scalar_closed_form():
    for t in (1.5, 2.0, math.e, 10.0, 1e6):
        got = gaussian_variance(np.array([[1.0]]), np.array([[1.0]]), t)
        assert got[0, 0] == pytest.approx((1.0 - 1.0 / t) / t, abs=1e-10)


def test_variance_diagonal_closed_form():
    H = np.diag([1.0, 0.8])
    t = 7.0
    V = gaussian_variance(H, np.eye(2), t)
    assert V[0, 0] == pytest.approx((1.0 - 1.0 / t) / t, abs=1e-10)
    assert V[1, 1] == pytest.approx((1.0 - t ** -0.6) / (0.6 * t), abs=1e-10)
    assert abs(V[0, 1]) < 1e-10


def test_variance_rejects_small_t():
    with pytest.raises(InvalidArgumentError):
        gaussian_variance(np.eye(1), np.eye(1), 0.5)


def test_scaled_variance_approaches_lyapunov_limit():
    # for spectra right of 1/2 the t-scaled variance has a finite limit
    from urnlab.asymptotics import clt_covariance
    H = np.array([[1.0, 0.3], [0.0, 0.8]])
    Gamma = np.array([[1.0, 0.2], [0.2, 0.5]])
    lim = clt_covariance(H, Gamma)
    t = math.exp(40.0)
    scaled = t * gaussian_variance(H, Gamma, t)
    assert np.linalg.norm(scaled - lim) / np.linalg.norm(lim) < 1e-2


def test_critical_scaled_variance_matches_limit():
    # one eigenvalue pinned at 1/2: variance carries the (log t)/t rate
    from urnlab.asymptotics import critical_covariance
    H = np.diag([0.5, 2.0])
    Gamma = np.diag([1.0, 1.0])
    lim = critical_covariance(H, Gamma)
    for L in (50.0, 100.0):
        scaled = math.exp(L) / L * gaussian_variance(H, Gamma, math.exp(L))
        assert abs(scaled[0, 0] - lim[0, 0]) / lim[0, 0] < 2.5 / L


def test_critical_defective_scaled_variance():
    # order-2 block at 1/2: rate (log t)^3/t with limit entry 1/3
    from urnlab.asymptotics import critical_covariance
    H = np.array([[0.5, -1.0], [0.0, 0.5]])
    Gamma = np.diag([1.0, 0.0])
    lim = critical_covariance(H, Gamma, chain_basis=np.diag([1.0, -1.0]))
    assert np.allclose(lim, [[0.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-12)
    for L in (50.0, 100.0):
        V = gaussian_variance(H, Gamma, math.exp(L))
        scaled = math.exp(L) / L ** 3 * V
        assert abs(scaled[1, 1] - lim[1, 1]) / lim[1, 1] < 3.5 / L


# ==== interval covariance ====

def test_interval_covariance_composes():
    H = np.array([[0.9, 0.1], [0.0, 1.2]])
    Gamma = np.array([[1.0, 0.3], [0.3, 2.0]])
    # one wide interval equals propagated sum of two narrow ones
    C_wide = interval_covariance(H, Gamma, 1.0, 4.0)
    C1 = interval_covariance(H, Gamma, 1.0, 2.0)
    C2 = interval_covariance(H, Gamma, 2.0, 4.0)
    P = mat_power(H, 0.5)
    assert np.allclose(P.T @ C1 @ P + C2, C_wide, atol=1e-11)


def test_interval_covariance_is_variance_from_start():
    H = np.array([[1.0, 0.4], [0.0, 0.7]])
    Gamma = np.eye(2)
    assert np.allclose(interval_covariance(H, Gamma, 1.0, 9.0),
                       gaussian_variance(H, Gamma, 9.0), atol=1e-10)


def test_interval_rejects_bad_endpoints():
    with pytest.raises(InvalidArgumentError):
        interval_covariance(np.eye(1), np.eye(1), 2.0, 2.0)


# ==== path simulation ====

def test_noiseless_flow_is_matrix_power():
    H = np.array([[1.0, 0.5], [0.0, 0.8]])
    spec = GaussProcessSpec(H=H, gamma_root=np.zeros((1, 2)),
                            G1=np.array([1.0, -2.0]),
                            grid=np.array([1.0, 2.0, 5.0]))
    path = simulate_paths(spec, 0, 1)[0]
    for t, G in zip(spec.grid, path):
        want = spec.G1 @ mat_power(H, 1.0 / t)
        assert np.allclose(G, want, atol=1e-12)


def test_seed_determinism_and_replicates():
    spec = scalar_spec([1.0, 2.0, 4.0])
    a = simulate_paths(spec, 5, [0])[0]
    b = simulate_paths(spec, 5, [0])[0]
    c = simulate_paths(spec, 5, [1])[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a[-1], c[-1])


def test_batch_rows_match_single_paths():
    spec = scalar_spec([1.0, 3.0, 9.0])
    batch = simulate_paths(spec, seed=11, replicates=4)
    for r in range(4):
        solo = simulate_paths(spec, seed=11, replicates=[r])[0]
        assert np.array_equal(batch[r], solo)


def test_monte_carlo_variance_scalar():
    # Var G(t) = (1-1/t)/t; 4000 paths put 5 standard errors near 3%
    spec = scalar_spec([1.0, 2.0, 4.0])
    paths = simulate_paths(spec, seed=19, replicates=4000)
    for k, t in ((1, 2.0), (2, 4.0)):
        want = (1.0 - 1.0 / t) / t
        got = paths[:, k, 0].var(ddof=1)
        assert abs(got - want) / want < 5.0 * math.sqrt(2.0 / 4000)


def test_monte_carlo_covariance_matrix():
    H = np.diag([1.0, 0.8])
    spec = GaussProcessSpec(H=H, gamma_root=np.eye(2), G1=np.zeros(2),
                            grid=np.array([1.0, 4.0]))
    paths = simulate_paths(spec, seed=23, replicates=5000)
    X = paths[:, 1, :]
    emp = X.T @ X / X.shape[0]
    want = gaussian_variance(H, np.eye(2), 4.0)
    se = np.abs(want).max() * math.sqrt(2.0 / 5000)
    assert np.abs(emp - want).max() < 5.0 * se + 5.0 * 1e-3 * math.sqrt(1.0 / 5000)


def test_law_is_grid_invariant():
    # same horizon, finer grid: second moments agree within Monte Carlo error
    coarse = scalar_spec([1.0, 4.0])
    fine = scalar_spec([1.0, 1.5, 2.0, 3.0, 4.0])
    a = simulate_paths(coarse, seed=3, replicates=4000)[:, -1, 0]
    b = simulate_paths(fine, seed=4, replicates=4000)[:, -1, 0]
    want = (1.0 - 0.25) / 4.0
    for sample in (a, b):
        assert abs(sample.var(ddof=1) - want) / want < 5.0 * math.sqrt(2.0 / 4000)
        assert abs(sample.mean()) < 5.0 * math.sqrt(want / 4000)


def test_noise_factor_choice_does_not_change_law():
    Gamma = np.array([[2.0, 1.0], [1.0, 1.0]])
    chol = np.linalg.cholesky(Gamma).T
    w, V = np.linalg.eigh(Gamma)
    sym = (V * np.sqrt(w)) @ V.T
    grid = np.array([1.0, 2.0, 4.0])
    H = np.eye(2)
    for root in (chol, sym):
        spec = GaussProcessSpec(H=H, gamma_root=root, G1=np.zeros(2), grid=grid)
        assert np.allclose(spec.gamma(), Gamma, atol=1e-12)
    a = interval_covariance(H, GaussProcessSpec(H=H, gamma_root=chol,
                                                G1=np.zeros(2),
                                                grid=grid).gamma(), 1.0, 4.0)
    b = interval_covariance(H, GaussProcessSpec(H=H, gamma_root=sym,
                                                G1=np.zeros(2),
                                                grid=grid).gamma(), 1.0, 4.0)
    assert np.allclose(a, b, atol=1e-12)


def test_refinement_error_on_untamed_interval(monkeypatch):
    # eigenvalue far left of 1/2 makes the increment integrand explode
    H = np.array([[-2.0]])
    spec = GaussProcessSpec(H=H, gamma_root=np.array([[1.0]]),
                            G1=np.zeros(1),
                            grid=np.array([1.0, math.exp(150.0)]))
    with pytest.raises(RefinementError):
        simulate_paths(spec, seed=0, replicates=2)
    # only the last of two intervals overflows: it is the one named, and
    # the error comes before any noise is taken
    spec = GaussProcessSpec(H=H, gamma_root=np.array([[1.0]]),
                            G1=np.zeros(1),
                            grid=np.array([1.0, 2.0, math.exp(150.0)]))
    takes = []
    monkeypatch.setattr(BlockSource, "take",
                        lambda self, k, out=None: takes.append(k))
    with pytest.raises(RefinementError,
                       match=r"interval \(2, 1\.39\d*e\+65\)"):
        simulate_paths(spec, seed=0, replicates=2)
    assert takes == []


# ==== the stacked grid against the per-interval loop ====

@hst.composite
def gauss_runs(draw):
    """A process and grid: d = 1..3; a full-rank, a rank-deficient or the
    Jordan-style diag(1, 0, ...) Gamma root; interval ratios from 1 + 1e-3
    to e^5, so most intervals need several sandwich doublings."""
    d = draw(hst.integers(1, 3))
    entry = hst.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)
    H = np.array(draw(hst.lists(entry, min_size=d * d, max_size=d * d)))
    H = H.reshape(d, d) + draw(hst.floats(0.0, 1.5)) * np.eye(d)
    kind = draw(hst.sampled_from(["full", "deficient", "jordan"]))
    if kind == "jordan":
        root = np.diag([1.0] + [0.0] * (d - 1))
    else:
        rows = d if kind == "full" else max(1, d - 1)
        root = np.array(draw(hst.lists(entry, min_size=rows * d,
                                       max_size=rows * d))).reshape(rows, d)
    logs = draw(hst.lists(hst.floats(1e-3, 5.0), min_size=1, max_size=8))
    grid = np.concatenate([[1.0], np.cumprod(np.exp(logs))])
    G1 = np.array(draw(hst.lists(entry, min_size=d, max_size=d)))
    return GaussProcessSpec(H=H, gamma_root=root, G1=G1, grid=grid)


# every interval ratio t_b/t_a and t_a/t_b of this grid has a math.log
# and an np.log that differ in the last bit: it pins each kernel to the
# scalar log its interval has always used
SPLIT_LOG_GRID = np.array([1.0, 2.5584228231238297, 4.656155020679774,
                           10.365212553811029, 20.256557712134164])


def test_split_log_grid_splits_every_log():
    for a, b in zip(SPLIT_LOG_GRID[:-1], SPLIT_LOG_GRID[1:]):
        assert math.log(b / a) != np.log(b / a)
        assert math.log(a / b) != np.log(a / b)


@settings(max_examples=60, deadline=None)
@given(spec=gauss_runs(), seed=hst.integers(0, 2 ** 32),
       R=hst.sampled_from([1, 3, 16]))
@example(spec=GaussProcessSpec(H=np.array([[0.9, 0.4], [-0.3, 0.7]]),
                               gamma_root=np.array([[1.0, 0.5]]),
                               G1=np.array([0.3, -1.0]), grid=SPLIT_LOG_GRID),
         seed=7, R=3)
def test_stacked_grid_matches_interval_loop_property(spec, seed, R):
    try:
        want = reference_gauss_paths(spec, seed, range(R))
    except RefinementError as exc:
        with pytest.raises(RefinementError, match=re.escape(str(exc))):
            simulate_paths(spec, seed, R)
        return
    assert np.array_equal(simulate_paths(spec, seed, R), want)


def test_jordan_grid_matches_interval_loop():
    # the Jordan process of `urnlab gauss` in the bench: Gamma = diag(1, 0),
    # on a 40-point log grid to 1e4
    spec = GaussProcessSpec(H=np.array([[0.5, -1.0], [0.0, 0.5]]),
                            gamma_root=np.diag([1.0, 0.0]), G1=np.zeros(2),
                            grid=np.logspace(0.0, 4.0, 40))
    assert np.array_equal(simulate_paths(spec, 3, 16),
                          reference_gauss_paths(spec, 3, range(16)))


def test_single_point_grid_draws_nothing():
    spec = scalar_spec([1.0], g1=0.25)
    assert np.array_equal(simulate_paths(spec, 0, 3), np.full((3, 1, 1), 0.25))
