import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnlab.errors import AssumptionViolationError, InvalidArgumentError
from urnlab.ode import FlowState, flow_identity_residual, integrate_flow
from urnlab.report import canonical_json
from urnlab.urn import urn_eigenstructure
from oracles import FlowError, check_attraction, flow_rhs, rk4_flow

FRIEDMAN = np.array([[0.0, 1.0], [1.0, 0.0]])
THREE_TYPE = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])

# (H, theta0): Friedman, mixing-0.25, the removal urn, a 3-type urn and
# Friedman at Perron root 2
PINNED = {
    "friedman": (FRIEDMAN, [0.9, 0.1]),
    "mixing-0.25": (np.array([[0.75, 0.25], [0.25, 0.75]]), [0.9, 0.1]),
    "removal": (np.array([[-1.0, 2.0], [3.0, 0.0]]), [2.0, 2.0]),
    "three-type": (THREE_TYPE, [1.0, 0.0, 0.0]),
    "2-friedman": (2.0 * FRIEDMAN, [1.5, 0.5]),
}


# ==== the reference right-hand side ====

def test_rhs_equilibrium_at_v():
    v = np.array([0.5, 0.5])
    assert np.linalg.norm(flow_rhs(v, FRIEDMAN)) <= 1e-12


def test_rhs_scaled_v_not_stationary():
    v = np.array([0.5, 0.5])
    assert np.allclose(flow_rhs(2.0 * v, FRIEDMAN), -v, atol=1e-12)


def test_rhs_corner_point():
    assert np.allclose(flow_rhs(np.array([1.0, 0.0]), FRIEDMAN), [-1.0, 1.0])


def test_rhs_singular_origin():
    with pytest.raises(FlowError):
        flow_rhs(np.zeros(2), FRIEDMAN)


# ==== closed-form flow ====

def test_constant_trajectory_from_equilibrium():
    states = integrate_flow(np.array([0.5, 0.5]), FRIEDMAN, 5.0)
    for st in states:
        assert np.abs(st.theta - 0.5).max() < 1e-12
    # |theta| = 1 along the way, so the clock runs at unit rate
    assert states[-1].f == pytest.approx(states[-1].s, abs=1e-12)


def test_friedman_attraction():
    states = integrate_flow(np.array([0.9, 0.1]), FRIEDMAN, 40.0)
    assert states[-1].s == 40.0
    assert np.abs(states[-1].theta - 0.5).max() <= 1e-6
    assert flow_identity_residual(states, [0.9, 0.1], FRIEDMAN) <= 1e-12


def test_clock_strictly_increasing():
    states = integrate_flow(np.array([0.9, 0.1]), FRIEDMAN, 10.0)
    fs = [st.f for st in states]
    assert all(b > a for a, b in zip(fs, fs[1:]))


def test_states_sit_at_whole_clock_steps():
    # alpha = 2: clock steps of 1/2, about one unit of s apart once
    # |theta| is near alpha, and a last short step that ends on s_max
    states = integrate_flow(np.array([1.5, 0.5]), 2.0 * FRIEDMAN, 30.5)
    steps = [0.5 * k for k in range(len(states) - 1)]
    assert [st.f for st in states[:-1]] == pytest.approx(steps, rel=1e-15)
    assert 0.0 < states[-1].f - states[-2].f <= 0.5
    assert states[-1].s == 30.5
    gaps = np.diff([st.s for st in states[1:-1]])
    assert np.abs(gaps - 1.0).max() <= 1e-9


def test_boundedness_along_flow():
    theta0 = np.array([0.9, 0.1])
    states = integrate_flow(theta0, FRIEDMAN, 40.0)
    bound = np.abs(FRIEDMAN).max() + np.abs(theta0)
    for st in states:
        assert np.all(np.abs(st.theta) <= bound + 1e-9)


def test_negative_coordinate_start_refused():
    # its l1 flow is not the mean flow of an urn, which draws by the
    # positive parts of its composition
    with pytest.raises(InvalidArgumentError, match=r"theta0\[1\] = -0.1"):
        integrate_flow(np.array([1.2, -0.1]), FRIEDMAN, 40.0)


def test_three_type_attraction():
    _, v, _, _, _ = urn_eigenstructure(THREE_TYPE)
    states = integrate_flow(np.array([1.0, 0.0, 0.0]), THREE_TYPE, 40.0)
    assert np.abs(states[-1].theta - v).max() <= 1e-6
    assert flow_identity_residual(states, [1.0, 0.0, 0.0], THREE_TYPE) <= 1e-12


def test_unnormalized_top_eigenvalue():
    # alpha = 2: attractor is alpha v and the clock enters as alpha f
    H2 = 2.0 * FRIEDMAN
    states = integrate_flow(np.array([1.5, 0.5]), H2, 40.0)
    assert np.abs(states[-1].theta - 1.0).max() <= 1e-6
    assert flow_identity_residual(states, [1.5, 0.5], H2) <= 1e-12


def test_start_outside_domain_rejected():
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([-0.6, 0.5]), FRIEDMAN, 5.0)


def test_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([0.5, 0.5]), FRIEDMAN, -1.0)
    with pytest.raises(InvalidArgumentError):
        integrate_flow(np.array([0.5, 0.5, 0.5]), FRIEDMAN, 1.0)
    with pytest.raises(InvalidArgumentError, match="zero"):
        integrate_flow(np.zeros(2), FRIEDMAN, 1.0)
    with pytest.raises(AssumptionViolationError, match="off-diagonal"):
        integrate_flow(np.array([0.5, 0.5]), [[1.0, -0.1], [1.0, 0.0]], 1.0)


def test_states_are_serializable():
    st = FlowState(np.array([0.5, 0.5]), 1.0, 1.0)
    assert json.loads(canonical_json(st)) == {
        "s": 1.0, "f": 1.0, "theta": [0.5, 0.5]}


# ==== against the RK4 reference ====

def assert_matches_rk4(theta0, H, s_max):
    states = integrate_flow(theta0, H, s_max)
    ref = rk4_flow(theta0, H, s_max, tol=1e-12)[-1]
    last = states[-1]
    scale = max(1.0, float(np.abs(ref.theta).max()))
    assert np.abs(last.theta - ref.theta).max() <= 1e-10 * scale
    assert abs(last.f - ref.f) <= 1e-10 * max(1.0, ref.f)
    assert abs(last.s - s_max) <= 1e-12 * s_max
    return states


@pytest.mark.parametrize("s_max", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_urns_match_rk4(name, s_max):
    H, theta0 = PINNED[name]
    states = assert_matches_rk4(theta0, H, s_max)
    assert states[-1].s == s_max
    assert flow_identity_residual(states, theta0, H) <= 1e-12


@st.composite
def metzler_flows(draw):
    """A Metzler H (positive off-diagonal, any diagonal, so removal rules
    too) with a positive Perron root, and a start theta0 >= 0, not zero."""
    d = draw(st.integers(2, 5))
    H = np.array([[draw(st.floats(-2.0, 2.0)) if i == j
                   else draw(st.floats(0.05, 3.0)) for j in range(d)]
                  for i in range(d)])
    alpha = float(np.linalg.eigvals(H).real.max())
    if alpha < 0.1:
        H += (0.1 - alpha + draw(st.floats(0.0, 2.0))) * np.eye(d)
    theta0 = np.array([draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
                       for _ in range(d)])
    assume(theta0.any())
    return H, theta0


@settings(max_examples=40, deadline=None)
@given(flow=metzler_flows(), s_max=st.floats(0.5, 100.0))
def test_closed_form_matches_rk4_property(flow, s_max):
    H, theta0 = flow
    try:
        urn_eigenstructure(H)
    except AssumptionViolationError:
        assume(False)
    assert_matches_rk4(theta0, H, s_max)


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
