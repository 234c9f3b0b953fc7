"""The deterministic flow behind the urn limit: theta' = -theta (I - H/|theta|).

|theta| is the l1 norm of the full vector. Along the flow the co-integrated
clock f(s) = integral_0^s du/|theta(u)| ties the u-projection to its start:
theta(s) u^T = theta_0 u^T exp(-(s - alpha f(s))) for the top eigenpair
(alpha, u) of H, which pins every trajectory started in {theta u^T > 0} to
the attractor alpha v. Integration is adaptive RK4 with step doubling.
"""

import dataclasses

import numpy as np

from .errors import (
    IntegrationAbortError,
    InvalidArgumentError,
    SingularityError,
)
from .linalg import _check_square
from .urn import urn_eigenstructure

_MAX_STEP = 2.0  # RK4 stays stable for the unit-rate contraction


@dataclasses.dataclass(frozen=True)
class FlowState:
    theta: np.ndarray
    s: float
    f: float

    def to_dict(self):
        return {"s": self.s, "f": self.f, "theta": self.theta.tolist()}


def flow_rhs(theta, H):
    """-theta (I - H/|theta|) with the l1 norm; singular at |theta| = 0."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    H = _check_square(H, "H")
    n1 = np.abs(theta).sum()
    if n1 == 0.0:
        raise SingularityError("flow is singular at |theta| = 0")
    return -theta + (theta @ H) / n1


def _rk4_step(y, h, H, d):
    def g(y):
        th = y[:d]
        n1 = np.abs(th).sum()
        if n1 == 0.0:
            raise SingularityError("flow is singular at |theta| = 0")
        out = np.empty_like(y)
        out[:d] = -th + (th @ H) / n1
        out[d] = 1.0 / n1
        return out

    k1 = g(y)
    k2 = g(y + 0.5 * h * k1)
    k3 = g(y + 0.5 * h * k2)
    k4 = g(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(theta0, H, s_max, tol=1e-9):
    """Flow states at every accepted step up to s_max.

    Step doubling: a full step is compared against two half steps, the
    difference over 15 is the local error, and the locally extrapolated
    value is kept. Aborts (with the offending state attached) if the
    trajectory leaves {theta u^T > 0}, which the theory forbids and which
    therefore flags a step-size failure.
    """
    H = _check_square(H, "H").astype(float)
    d = H.shape[0]
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.shape != (d,):
        raise InvalidArgumentError(f"theta0 must have length {d}")
    s_max = float(s_max)
    if s_max <= 0.0 or tol <= 0.0:
        raise InvalidArgumentError("s_max and tol must be positive")
    alpha, v, u, _, _ = urn_eigenstructure(H)
    if theta0 @ u <= 0.0:
        raise InvalidArgumentError(
            "theta0 u^T must be positive (start outside the flow domain)")

    y = np.concatenate([theta0, [0.0]])
    states = [FlowState(theta0.copy(), 0.0, 0.0)]
    s = 0.0
    h = min(0.1, s_max, _MAX_STEP)
    while s < s_max * (1.0 - 1e-15):
        h = min(h, s_max - s)
        y_full = _rk4_step(y, h, H, d)
        y_half = _rk4_step(_rk4_step(y, 0.5 * h, H, d), 0.5 * h, H, d)
        err = float(np.linalg.norm(y_half - y_full)) / 15.0
        if err <= tol or h <= 1e-12:
            y = y_half + (y_half - y_full) / 15.0
            s += h
            th = y[:d].copy()
            if th @ u <= 0.0:
                raise IntegrationAbortError(
                    f"trajectory left the domain theta u^T > 0 at s = {s:g}; "
                    "reduce the tolerance",
                    state=FlowState(th, float(s), float(y[d])))
            states.append(FlowState(th, float(s), float(y[d])))
        fac = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        h = min(h * min(5.0, max(0.2, fac)), _MAX_STEP)
    return states


def flow_identity_residual(states, theta0, H):
    """Worst |theta(s) u^T / (theta_0 u^T e^{-(s - alpha f)}) - 1| over the
    states; zero for the exact flow."""
    alpha, _, u, _, _ = urn_eigenstructure(np.asarray(H, dtype=float))
    c0 = float(np.asarray(theta0, dtype=float) @ u)
    worst = 0.0
    for st in states:
        want = c0 * np.exp(-(st.s - alpha * st.f))
        worst = max(worst, abs(float(st.theta @ u) / want - 1.0))
    return worst

