"""Canonical showcase models for the verification suite.

Four recursions with pinned parameters, each probing one regime boundary:
a defective drift matrix whose coordinates converge at different rates, a
complex-eigenvalue drift that rotates forever on the log-time scale, a
noise-free scalar decay whose rate is dented by a slowly varying factor,
and a critical scalar recursion driven by deterministic remainders.
"""

import functools
import math

import numpy as np

from .errors import InvalidArgumentError
from .sa import GaussianNoise, LinearDrift, SAProcessSpec

# start point of the damped decay model; loglog(1/x) is exactly 2 here
DECAY_START = math.exp(-math.e ** 2)

# diagonalizing-to-chain basis for the defective drift [[lam,-1],[0,lam]]
JORDAN_CHAIN_BASIS = np.diag([1.0, -1.0])


def jordan_chain_spec(lam=0.5):
    """Two coordinates coupled through one off-diagonal unit: the first is
    an autonomous scalar recursion, the second drags a log factor behind it.
    Noise enters the first coordinate only."""
    if not 0.0 < lam < 1.0:
        raise InvalidArgumentError(f"lam must lie in (0, 1), got {lam}")
    A = np.array([[lam, -1.0], [0.0, lam]])
    return SAProcessSpec(dim=2, drift=LinearDrift(A), theta0=[0.0, 0.0],
                         noise=GaussianNoise([[1.0, 0.0]]),
                         theta_star=[0.0, 0.0], label=f"jordan-chain-{lam:g}")


def rotation_spec(lam=0.3):
    """Drift lam [[1,-1],[1,1]]: eigenvalues lam (1 +- i), so the scaled
    path keeps rotating with log-time phase lam and never settles to a
    single limit direction. Full-rank noise."""
    if not 0.0 < lam < 0.5:
        raise InvalidArgumentError(f"lam must lie in (0, 0.5), got {lam}")
    A = lam * np.array([[1.0, -1.0], [1.0, 1.0]])
    return SAProcessSpec(dim=2, drift=LinearDrift(A), theta0=[0.0, 0.0],
                         noise=GaussianNoise(np.eye(2)),
                         theta_star=[0.0, 0.0], label=f"rotation-{lam:g}")


@functools.lru_cache(maxsize=1)
def _phi_grid():
    """Grid of phi(L) = e^L * integral_L^inf e^{-w}/log(w) dw.

    Backward in L: phi(L) = I(L) + e^{-step} phi(L + step), with each panel
    I(L) = integral_0^step e^{-t}/log(L+t) dt done by Simpson. The constant
    coefficient makes the whole sweep a scaled reverse cumsum. Anchored at
    hi by the two-term tail expansion, whose error decays like e^{-(hi-L)}
    by the time it reaches usable L.
    """
    step, lo, hi = 1e-3, math.e ** 2, 100.0
    n = int(round((hi - lo) / step))
    L = lo + step * np.arange(n + 1)
    mid = L[:-1] + 0.5 * step
    panels = (step / 6.0) * (1.0 / np.log(L[:-1])
                             + 4.0 * math.exp(-0.5 * step) / np.log(mid)
                             + math.exp(-step) / np.log(L[1:]))
    top = float(L[-1])
    lg = math.log(top)
    anchor = (1.0 / lg - 1.0 / (top * lg * lg)
              + (1.0 + 2.0 / lg) / (top * top * lg * lg))
    w = np.exp(-step * np.arange(n + 1))
    c = panels * w[:-1]
    tails = np.concatenate([c[::-1].cumsum()[::-1], [0.0]])
    phi = tails / w + anchor * w[::-1]
    return float(lo), float(step), phi.tolist()


class LogDampedDrift:
    """h(theta) = rho * integral_0^theta (1 - f(x)) dx with the damping
    f(x) = 1/loglog(1/min(x, x0)), x0 = DECAY_START.

    The derivative at zero equals rho exactly, yet f pushes the decay off
    the clean power law by a slowly varying factor. Call it on a length-one
    row or a float; run_sa's plain-float loop calls `scalar` directly."""

    def __init__(self, rho):
        if not 0.0 < rho <= 0.5:
            raise InvalidArgumentError(f"rho must lie in (0, 0.5], got {rho}")
        self.rho = rho = float(rho)
        self.x0 = x0 = DECAY_START
        l0, step, phi = _phi_grid()
        tail = l0 + step * (len(phi) - 1) - step
        g0 = x0 * phi[0]
        log = math.log

        # one python call per step of run_sa's float loop, its constants
        # bound here rather than looked up on self
        def scalar(th):
            """h(th) = rho (th - G(th)), G(th) = integral_0^th f(x) dx."""
            if th <= 0.0:
                return rho * th  # the damping integral vanishes left of zero
            if th >= x0:
                return rho * (th - (g0 + 0.5 * (th - x0)))
            # below x0, G(th) = th * phi(-log th)
            L = -log(th)
            if L >= tail:
                lg = log(L)
                return rho * (th - th * (1.0 / lg - 1.0 / (L * lg * lg)
                                         + (1.0 + 2.0 / lg) / (L * L * lg * lg)))
            u = (L - l0) / step
            i = int(u)
            fr = u - i
            return rho * (th - th * (phi[i] * (1.0 - fr) + phi[i + 1] * fr))

        self.scalar = scalar

    def __call__(self, theta):
        if isinstance(theta, np.ndarray):
            return np.array([self.scalar(float(theta[0]))])
        return self.scalar(float(theta))

    def digest_parts(self):
        return f"rho={self.rho!r};x0={self.x0!r}"


def decay_spec(rho=0.5, damped=False):
    """Scalar noise-free recursion from DECAY_START with drift slope rho at
    zero. Undamped: h(theta) = rho theta, a clean n^{-rho} power decay.
    Damped: the LogDampedDrift correction slows that decay by an
    exp(rho log n / loglog n) factor even though Dh(0) is unchanged.

    Along the mean flow, d log theta / d log n = -r(theta) with
    r(theta) = h(theta)/theta = rho (1 - G(theta)/theta), so r is the
    decade exponent of the path at theta. The damped r rises towards rho
    as theta falls but never reaches it (0.42 at theta = 1e-300); the
    checks bracket each measured decade exponent between r at the
    decade's two ends."""
    if damped:
        drift = LogDampedDrift(rho)
    else:
        if not 0.0 < rho <= 0.5:
            raise InvalidArgumentError(f"rho must lie in (0, 0.5], got {rho}")
        drift = LinearDrift([[rho]])
    return SAProcessSpec(dim=1, drift=drift, theta0=[DECAY_START],
                         theta_star=[0.0],
                         label=f"decay-{rho:g}-{'damped' if damped else 'pure'}")


class InverseSqrtLogRemainder:
    """r_k = 1/sqrt(k log(k+1)); the +1 keeps the k = 1 term finite."""

    def __call__(self, k):
        # one buffer, worked in place: a temporary per operation would be
        # freed and faulted in again on every chunk of a long mean recursion
        j = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.log1p(j)
        out *= j
        np.sqrt(out, out=out)
        return np.divide(1.0, out, out=out)

    def digest_parts(self):
        return "inv-sqrt-log"


class InverseSqrtLogLogRemainder:
    """r_k = 1/(sqrt(k) max(loglog k, 1)); the clamp stands in for the
    double log where it is undefined or below one (k < e^e)."""

    def __call__(self, k):
        j = np.atleast_1d(np.asarray(k, dtype=float))
        # below 2 the double log is undefined; loglog 2 < 1 clamps it to 1
        ll = np.maximum(j, 2.0)
        np.log(ll, out=ll)
        np.log(ll, out=ll)
        np.maximum(ll, 1.0, out=ll)
        out = np.sqrt(j)  # two buffers, worked in place (see above)
        out *= ll
        return np.divide(1.0, out, out=out)

    def digest_parts(self):
        return "inv-sqrt-loglog"


def remainder_drive_spec(kind="zero"):
    """Critical scalar recursion theta_{n+1} = theta_n - theta_n/(2(n+1))
    + (eps_{n+1} + r_{n+1})/(n+1) with unit Gaussian noise.

    kind selects the deterministic remainder: "zero" (pure noise,
    sqrt(n/log n) theta_n is asymptotically standard normal),
    "inv-sqrt-loglog" (same scaling escapes to +infinity), or
    "inv-sqrt-log" (the scaled mean converges to 2 instead of 0).
    """
    schedules = {
        "zero": None,
        "inv-sqrt-log": InverseSqrtLogRemainder(),
        "inv-sqrt-loglog": InverseSqrtLogLogRemainder(),
    }
    if kind not in schedules:
        raise InvalidArgumentError(
            f"kind must be one of {sorted(schedules)}, got {kind!r}")
    return SAProcessSpec(dim=1, drift=LinearDrift([[0.5]]), theta0=[0.0],
                         noise=GaussianNoise([[1.0]]), remainder=schedules[kind],
                         theta_star=[0.0], label=f"remainder-{kind}")
