import numpy as np
import pytest

from urnlab.errors import InvalidArgumentError, SingularityError
from urnlab.ode import (
    FlowState,
    flow_identity_residual,
    flow_rhs,
    integrate_flow,
)
from oracles import check_attraction

FRIEDMAN = np.array([[0.0, 1.0], [1.0, 0.0]])


# ==== right-hand side ====

def test_rhs_equilibrium_at_v():
    v = np.array([0.5, 0.5])
    assert np.linalg.norm(flow_rhs(v, FRIEDMAN)) <= 1e-12


def test_rhs_scaled_v_not_stationary():
    v = np.array([0.5, 0.5])
    assert np.allclose(flow_rhs(2.0 * v, FRIEDMAN), -v, atol=1e-12)


def test_rhs_corner_point():
    assert np.allclose(flow_rhs(np.array([1.0, 0.0]), FRIEDMAN), [-1.0, 1.0])


def test_rhs_singular_origin():
    with pytest.raises(SingularityError):
        flow_rhs(np.zeros(2), FRIEDMAN)


# ==== integration ====

def test_constant_trajectory_from_equilibrium():
    states = integrate_flow(np.array([0.5, 0.5]), FRIEDMAN, 5.0, tol=1e-9)
    for st in states:
        assert np.abs(st.theta - 0.5).max() < 1e-9
    # |theta| = 1 along the way, so the clock runs at unit rate
    assert states[-1].f == pytest.approx(states[-1].s, abs=1e-8)


def test_friedman_attraction():
    states = integrate_flow(np.array([0.9, 0.1]), FRIEDMAN, 40.0, tol=1e-9)
    assert states[-1].s == pytest.approx(40.0, abs=1e-9)
    assert np.abs(states[-1].theta - 0.5).max() <= 1e-6
    assert flow_identity_residual(states, [0.9, 0.1], FRIEDMAN) <= 1e-8


def test_clock_strictly_increasing():
    states = integrate_flow(np.array([0.9, 0.1]), FRIEDMAN, 10.0, tol=1e-9)
    fs = [st.f for st in states]
    assert all(b > a for a, b in zip(fs, fs[1:]))


def test_boundedness_along_flow():
    theta0 = np.array([0.9, 0.1])
    states = integrate_flow(theta0, FRIEDMAN, 40.0, tol=1e-9)
    bound = np.abs(FRIEDMAN).max() + np.abs(theta0)
    for st in states:
        assert np.all(np.abs(st.theta) <= bound + 1e-9)


def test_negative_coordinate_start_still_attracted():
    states = integrate_flow(np.array([1.2, -0.1]), FRIEDMAN, 40.0, tol=1e-9)
    assert np.abs(states[-1].theta - 0.5).max() <= 1e-6


def test_three_type_attraction():
    H = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    from urnlab.urn import urn_eigenstructure
    _, v, _, _, _ = urn_eigenstructure(H)
    states = integrate_flow(np.array([1.0, 0.0, 0.0]), H, 40.0, tol=1e-9)
    assert np.abs(states[-1].theta - v).max() <= 1e-6
    assert flow_identity_residual(states, [1.0, 0.0, 0.0], H) <= 1e-8


def test_unnormalized_top_eigenvalue():
    # alpha = 2: attractor is alpha v and the clock enters as alpha f
    H2 = 2.0 * FRIEDMAN
    states = integrate_flow(np.array([1.5, 0.5]), H2, 40.0, tol=1e-9)
    assert np.abs(states[-1].theta - 1.0).max() <= 1e-6
    assert flow_identity_residual(states, [1.5, 0.5], H2) <= 1e-8


def test_start_outside_domain_rejected():
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([-0.6, 0.5]), FRIEDMAN, 5.0)


def test_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([0.5, 0.5]), FRIEDMAN, -1.0)
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([0.5, 0.5, 0.5]), FRIEDMAN, 1.0)


def test_states_are_serializable():
    st = FlowState(np.array([0.5, 0.5]), 1.0, 1.0)
    assert st.to_dict() == {"s": 1.0, "f": 1.0, "theta": [0.5, 0.5]}


# ==== attraction check ====

def test_check_attraction_simplex_points():
    starts = [np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    assert check_attraction(starts, FRIEDMAN, 40.0, 1e-6) == [True, True, True]


def test_check_attraction_short_horizon_fails():
    # one time unit is nowhere near enough to land within 1e-6
    assert check_attraction([np.array([0.9, 0.1])], FRIEDMAN, 1.0, 1e-6) == [False]


def test_check_attraction_rejects_bad_start():
    with pytest.raises(InvalidArgumentError):
        check_attraction([np.array([0.5, -0.6])], FRIEDMAN, 5.0, 1e-6)
