"""The deterministic flow behind the urn limit: theta' = -theta (I - H/|theta|).

|theta| is the l1 norm. Along the flow the clock f(s) = integral_0^s
du/|theta(u)| ties the u-projection to its start: theta(s) u^T =
theta_0 u^T exp(-(s - alpha f(s))) for the top eigenpair (alpha, u) of H,
which pins every trajectory to the attractor alpha v.

For theta_0 >= 0 and a Metzler H (which urn_eigenstructure requires) the
flow stays nonnegative and is solved in closed form on the clock: over a
clock step delta, theta -> theta E / (1 + theta J 1^T) and
s -> s + log1p(theta J 1^T), with E = exp(H delta) and
J = integral_0^delta exp(H t) dt, both read off one exponential of
[[H, I], [0, 0]] delta (Van Loan 1978).
"""

import dataclasses
import math

import numpy as np

from .errors import InvalidArgumentError, NonConvergenceError
from .linalg import _check_square, mat_exp
from .urn import urn_eigenstructure


@dataclasses.dataclass(frozen=True)
class FlowState:
    theta: np.ndarray
    s: float
    f: float


def _step_blocks(H, delta):
    """(E, J) = (exp(H delta), integral_0^delta exp(H t) dt)."""
    d = H.shape[0]
    F = mat_exp(delta * np.block([[H, np.eye(d)], [np.zeros((d, 2 * d))]]))
    return F[:d, :d], F[:d, d:]


def _last_step(theta, H, t, E, J, target):
    """The clock step in (0, t] on which g = theta J 1^T reaches target, and
    the state it ends on. Newton on g (g' = theta E 1^T > 0) from the whole
    step t, where g >= target; a step that leaves the bracket bisects it."""
    lo, hi = 0.0, t
    for _ in range(100):
        g = float(theta @ J.sum(axis=1))
        step = (g - target) / float(theta @ E.sum(axis=1))
        if abs(step) <= 2.0 * np.finfo(float).eps * t:
            return t, (theta @ E) / (1.0 + g)
        if step < 0.0:
            lo = t
        else:
            hi = t
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        E, J = _step_blocks(H, t)
    raise NonConvergenceError(
        f"last flow step did not converge (bracket [{lo:g}, {hi:g}])",
        residual=abs(g - target))


def integrate_flow(theta0, H, s_max, structure=None):
    """Flow states from s = 0 to s_max, at whole clock steps 1/alpha.

    Near the attractor, where |theta| is about alpha, consecutive states
    are about one unit of s apart. A last, shorter clock step ends exactly
    at s_max. theta0 must be nonnegative and not zero: that is the
    nonnegative cone the urn's mean flow lives in. `structure` is
    urn_eigenstructure(H) when the caller has it; it is computed otherwise.
    """
    H = _check_square(H, "H").astype(float)
    d = H.shape[0]
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.shape != (d,):
        raise InvalidArgumentError(f"theta0 must have length {d}")
    if not np.all(np.isfinite(theta0)):
        raise InvalidArgumentError("theta0 contains non-finite entries")
    for i, x in enumerate(theta0):
        if x < 0.0:
            raise InvalidArgumentError(
                f"theta0[{i}] = {x:g} is negative; the urn mean flow starts "
                "at theta0 >= 0")
    if not theta0.any():
        raise InvalidArgumentError("theta0 is zero, where the flow is singular")
    s_max = float(s_max)
    if not 0.0 < s_max < math.inf:
        raise InvalidArgumentError(f"s_max must be positive and finite, got {s_max}")
    alpha = (urn_eigenstructure(H) if structure is None else structure)[0]

    delta = 1.0 / alpha
    E, J = _step_blocks(H, delta)
    j1 = J.sum(axis=1)
    theta, s, k = theta0.copy(), 0.0, 0
    states = [FlowState(theta, 0.0, 0.0)]
    while True:
        g = float(theta @ j1)
        s_next = s + math.log1p(g)
        if s_next >= s_max:
            break
        theta = (theta @ E) / (1.0 + g)
        s, k = s_next, k + 1
        states.append(FlowState(theta, s, k * delta))
    t, theta = _last_step(theta, H, delta, E, J, math.expm1(s_max - s))
    states.append(FlowState(theta, s_max, k * delta + t))
    return states


def flow_identity_residual(states, theta0, H, structure=None):
    """Worst |theta(s) u^T / (theta_0 u^T e^{-(s - alpha f)}) - 1| over the
    states; zero for the exact flow. `structure` is as in integrate_flow."""
    if structure is None:
        structure = urn_eigenstructure(np.asarray(H, dtype=float))
    alpha, _, u, _, _ = structure
    c0 = float(np.asarray(theta0, dtype=float) @ u)
    worst = 0.0
    for st in states:
        want = c0 * np.exp(-(st.s - alpha * st.f))
        worst = max(worst, abs(float(st.theta @ u) / want - 1.0))
    return worst
