"""Showcase model constructors: wiring, the damped-drift integral,
run_sa's plain-float loop on the decay models, and the remainder schedules."""

import math

import numpy as np
import pytest
import scipy.integrate

from urnlab.errors import DivergenceError, InvalidArgumentError
from urnlab.golden import (
    DECAY_START,
    JORDAN_CHAIN_BASIS,
    InverseSqrtLogLogRemainder,
    InverseSqrtLogRemainder,
    LogDampedDrift,
    decay_spec,
    jordan_chain_spec,
    remainder_drive_spec,
    rotation_spec,
)
from urnlab.asymptotics import classify_regime, spectral_profile
from urnlab.sa import LinearDrift, SAProcessSpec, _float_drift, run_sa
from urnlab.urn import urn_eigenstructure
from oracles import friedman_urn, mixing_urn, reference_sa


# ==== spec constructors ====

def test_jordan_chain_spec_wiring():
    spec = jordan_chain_spec(0.5)
    assert np.array_equal(spec.drift.matrix, [[0.5, -1.0], [0.0, 0.5]])
    assert spec.noise.root.shape == (1, 2)
    profile = spectral_profile(spec.drift.matrix)
    regime = classify_regime(profile)
    assert regime.tag == "Critical" and profile.nu == 2
    assert classify_regime(spectral_profile(jordan_chain_spec(0.3).drift.matrix)).tag == "Slow"


def test_jordan_chain_lam_validated():
    with pytest.raises(InvalidArgumentError):
        jordan_chain_spec(0.0)
    with pytest.raises(InvalidArgumentError):
        jordan_chain_spec(1.0)


def test_rotation_spec_wiring():
    spec = rotation_spec(0.3)
    w = np.linalg.eigvals(spec.drift.matrix)
    assert sorted(np.round(w, 12).tolist(), key=lambda z: z.imag) == [
        pytest.approx(0.3 - 0.3j), pytest.approx(0.3 + 0.3j)]
    with pytest.raises(InvalidArgumentError):
        rotation_spec(0.5)


def test_decay_spec_start_point():
    spec = decay_spec(0.5)
    assert spec.theta0[0] == pytest.approx(math.exp(-math.e ** 2), rel=1e-15)
    assert isinstance(spec.drift, LinearDrift)
    assert isinstance(decay_spec(0.5, damped=True).drift, LogDampedDrift)
    with pytest.raises(InvalidArgumentError):
        decay_spec(0.6)
    with pytest.raises(InvalidArgumentError):
        decay_spec(0.6, damped=True)


def test_remainder_drive_kinds():
    assert remainder_drive_spec("zero").remainder is None
    assert remainder_drive_spec("inv-sqrt-log").remainder is not None
    a = remainder_drive_spec("inv-sqrt-log").digest()
    b = remainder_drive_spec("inv-sqrt-loglog").digest()
    assert a != b
    with pytest.raises(InvalidArgumentError):
        remainder_drive_spec("bogus")


# ==== damped drift ====

def damping(x):
    return 1.0 / math.log(math.log(1.0 / min(x, DECAY_START)))


def integral(d, th):
    """G(th) = integral_0^th f(x) dx, read off h(th) = rho (th - G(th)):
    rho is a power of two here, so only th - G(th) is rounded."""
    return th - d.scalar(th) / d.rho


def test_damped_integral_matches_quadrature():
    d = LogDampedDrift(0.5)
    for th in [DECAY_START, 3e-4, 1e-4, 1e-5, 1e-7, 1e-12]:
        ref, _ = scipy.integrate.quad(damping, 0.0, th,
                                      epsabs=1e-20, epsrel=1e-12, limit=400)
        assert integral(d, th) == pytest.approx(ref, rel=2e-9)


def test_damped_integral_above_start():
    # damping is constant 1/2 above the start point
    d = LogDampedDrift(0.5)
    g0 = integral(d, DECAY_START)
    assert integral(d, 0.1) == pytest.approx(g0 + 0.5 * (0.1 - DECAY_START),
                                               rel=1e-12)
    eps = 1e-12
    below = integral(d, DECAY_START - eps)
    above = integral(d, DECAY_START + eps)
    assert abs(above - below) < 1e-11


def test_damped_drift_values():
    d = LogDampedDrift(0.5)
    assert d.scalar(0.0) == 0.0
    assert d.scalar(-2.0) == -1.0  # linear left of zero
    th = DECAY_START
    # damping sits in (0, 1/2], so h is between rho*theta/2 and rho*theta
    assert 0.5 * 0.5 * th <= d.scalar(th) < 0.5 * th
    # array and scalar entry points agree
    assert d(np.array([th]))[0] == d(th)
    with pytest.raises(InvalidArgumentError):
        LogDampedDrift(0.0)


def test_damped_integral_monotone():
    d = LogDampedDrift(0.25)
    xs = np.geomspace(1e-15, 0.5, 60)
    gs = [integral(d, float(x)) for x in xs]
    assert all(b > a for a, b in zip(gs, gs[1:]))


# ==== run_sa's plain-float loop ====

def _assert_float_loop_matches_generic_loop(spec):
    # the reference is run_sa's array loop
    plan = [0, 1, 17, 3000]
    fast = run_sa(spec, 3000, seed=0, checkpoint_plan=plan)
    ref = reference_sa(spec, 3000, seed=0, checkpoint_plan=plan)
    assert len(fast.checkpoints) == len(plan)
    for (na, xa), (nb, xb) in zip(fast.checkpoints, ref.checkpoints):
        assert na == nb
        assert xa.shape == (1,) and xa[0] == xb[0]


def test_float_loop_matches_generic_loop_bitwise():
    _assert_float_loop_matches_generic_loop(decay_spec(0.5, damped=True))


def test_float_loop_linear_drift_matches_generic_loop_bitwise():
    _assert_float_loop_matches_generic_loop(decay_spec(0.4))


def test_float_loop_validation():
    assert _float_drift(remainder_drive_spec("zero")) is None
    assert _float_drift(decay_spec(0.5, damped=True)) is not None
    with pytest.raises(InvalidArgumentError):
        run_sa(decay_spec(0.5), 100, seed=0, checkpoint_plan=[200])
    # same first_bad_index as the array loop: 1e300 after one step, then inf
    spec = SAProcessSpec(dim=1, drift=LinearDrift([[-1e300]]), theta0=[1.0])
    with np.errstate(over="ignore"):
        for run in (run_sa, reference_sa):
            with pytest.raises(DivergenceError) as exc:
                run(spec, 10, seed=0, checkpoint_plan=[10])
            assert exc.value.first_bad_index == 2


def test_damped_path_decade_trends():
    # the damping shows up as growth of n^rho theta_n / log n even at
    # small horizons, while the path itself keeps falling
    spec = decay_spec(0.5, damped=True)
    traj = run_sa(spec, 10 ** 5, seed=0,
                  checkpoint_plan=[10 ** 3, 10 ** 4, 10 ** 5])
    cps = [(n, float(x[0])) for n, x in traj.checkpoints]
    assert all(th > 0 for _, th in cps)
    assert cps[0][1] > cps[1][1] > cps[2][1]
    scaled = [n ** 0.5 * th / math.log(n) for n, th in cps]
    assert scaled[0] < scaled[1] < scaled[2]


# ==== remainder schedules ====

def test_sqrt_log_remainder_values():
    r = InverseSqrtLogRemainder()
    assert r(1)[0] == pytest.approx(1.0 / math.sqrt(math.log(2.0)))
    assert r(10)[0] == pytest.approx(1.0 / math.sqrt(10.0 * math.log(11.0)))
    arr = r(np.array([1.0, 10.0]))
    assert arr.shape == (2,)
    assert arr[0] == r(1)[0] and arr[1] == r(10)[0]


def test_loglog_remainder_values():
    r = InverseSqrtLogLogRemainder()
    # clamp region: double log below one until k reaches e^e
    assert r(1)[0] == pytest.approx(1.0)
    assert r(4)[0] == pytest.approx(0.5)
    assert r(100)[0] == pytest.approx(
        1.0 / (10.0 * math.log(math.log(100.0))))
    arr = r(np.array([4.0, 100.0]))
    assert arr[0] == r(4)[0] and arr[1] == r(100)[0]


def test_loglog_remainder_equals_the_masked_clamp():
    # the clamp through np.maximum against the formula that excluded k < 2
    # by a mask: the same bits on 1..2^14 and at large k
    k = np.concatenate([np.arange(1.0, 2.0 ** 14 + 1),
                        [1e6, 1e8 + 1, 2.0 ** 40, 1e300]])
    ll = np.ones_like(k)
    big = k >= 2.0
    ll[big] = np.maximum(np.log(np.log(k[big])), 1.0)
    assert np.array_equal(InverseSqrtLogLogRemainder()(k), 1.0 / (np.sqrt(k) * ll))


# ==== urns ====

def test_friedman_urn_wiring():
    spec = friedman_urn()
    alpha, v, u, lam_sec, nu = urn_eigenstructure(spec.adding_rule.mean)
    assert alpha == pytest.approx(1.0)
    assert np.allclose(v, [0.5, 0.5])
    assert lam_sec == pytest.approx(-1.0)
    assert nu == 1


def test_mixing_urn_wiring():
    spec = mixing_urn(0.125)
    _, v, _, lam_sec, _ = urn_eigenstructure(spec.adding_rule.mean)
    assert np.allclose(v, [0.5, 0.5])
    assert lam_sec == pytest.approx(0.75)
    assert mixing_urn(0.25).label == "mixing-0.25"
    with pytest.raises(InvalidArgumentError):
        mixing_urn(0.0)
