"""The time-changed Gaussian diffusion G(t) attached to the recursion.

G solves dG = -(G/t) H dt + dB(t) Gamma^{1/2} / t on t >= 1, explicitly

    G(t) = G(1) t^{-H} + integral_1^t dB(x) Gamma^{1/2} (x/t)^H / x.

Paths are stepped under the exact law: over a grid interval the increment
is Gaussian with covariance

    C_k = integral_{t_k}^{t_{k+1}} (x/t_{k+1})^{H^T} Gamma (x/t_{k+1})^H dx/x^2,

which the substitution x = t_{k+1} e^{-u} turns into the exp-sandwich
integral (1/t_{k+1}) integral_0^{log(t_{k+1}/t_k)} of
e^{-u(H-I/2)^T} Gamma e^{-u(H-I/2)}. No discretization bias: statistics on
grid points are exact in law, regardless of grid spacing.

The whole grid's increments are prepared before any noise is drawn: one
stacked exponential gives every interval's C_k, one stacked
eigendecomposition its factor, and one stacked exponential its transition
(t_k/t_{k+1})^H. Only the recursion G <- G P_k + z_k F_k runs per interval.
"""

import dataclasses
import math

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    RefinementError,
)
from .linalg import (
    _check_square,
    check_sym_psd,
    integral_exp_sandwich,
    mat_power,
    psd_factor,
)
from .rng import BlockSource, replicate_indices


@dataclasses.dataclass(frozen=True)
class GaussProcessSpec:
    """Process data: matrix H, a noise factor R with R^T R = Gamma, the
    value at t = 1, and the reporting grid (strictly increasing, starts
    at 1)."""

    H: np.ndarray
    gamma_root: np.ndarray
    G1: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        H = _check_square(self.H, "H").astype(float)
        object.__setattr__(self, "H", H)
        d = H.shape[0]
        root = np.atleast_2d(np.asarray(self.gamma_root, dtype=float))
        if root.shape[1] != d or not np.all(np.isfinite(root)):
            raise InvalidArgumentError(
                f"gamma_root must be a finite matrix with {d} columns")
        object.__setattr__(self, "gamma_root", root)
        G1 = np.asarray(self.G1, dtype=float).reshape(-1)
        if G1.shape != (d,):
            raise InvalidArgumentError(f"G1 must be a vector of length {d}")
        object.__setattr__(self, "G1", G1)
        grid = np.asarray(self.grid, dtype=float).reshape(-1)
        if grid.size < 1 or grid[0] != 1.0:
            raise InvalidArgumentError("grid must start at t = 1")
        if grid.size > 1 and np.diff(grid).min() <= 0.0:
            raise InvalidArgumentError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)

    def gamma(self):
        G = self.gamma_root.T @ self.gamma_root
        return 0.5 * (G + G.T)


def interval_covariance(H, Gamma, t_a, t_b):
    """Covariance of the Gaussian increment accumulated over (t_a, t_b];
    for arrays of interval ends, the stack of them."""
    t_a, t_b = np.broadcast_arrays(np.asarray(t_a, dtype=float),
                                   np.asarray(t_b, dtype=float))
    ends = list(zip(t_a.ravel().tolist(), t_b.ravel().tolist()))
    for a, b in ends:
        if not 1.0 <= a < b:
            raise InvalidArgumentError(f"need 1 <= t_a < t_b, got ({a}, {b})")
    H = _check_square(H, "H").astype(float)
    B = H - 0.5 * np.eye(H.shape[0])
    # one scalar math.log per interval, so each log rounds as a lone call does
    logs = np.array([math.log(b / a) for a, b in ends]).reshape(t_a.shape)
    C = integral_exp_sandwich(B, Gamma, logs)
    C = C / t_b[..., None, None]
    return 0.5 * (C + C.swapaxes(-1, -2))


def simulate_paths(spec, seed, replicates):
    """Exact-law paths for the given replicate indices (or a count).

    Returns an array of shape (R, K+1, d) over the grid; row r depends
    only on (seed, replicate index r), never on the batch composition.
    An interval whose increment covariance overflows raises
    RefinementError naming it, before any noise is drawn.
    """
    repl = replicate_indices(replicates)
    R = repl.size
    grid = spec.grid
    d = spec.H.shape[0]
    t_a, t_b = grid[:-1], grid[1:]
    try:
        C = interval_covariance(spec.H, spec.gamma(), t_a, t_b)
    except NonConvergenceError as exc:
        k = exc.index
        raise RefinementError(
            f"increment covariance over grid interval ({t_a[k]:g}, {t_b[k]:g}) "
            "overflows; insert intermediate grid points") from exc
    F = psd_factor(C)
    P = mat_power(spec.H, t_a / t_b)
    ranks = [f.shape[0] for f in F]
    z = BlockSource(seed, repl, "gaussian", (grid.size - 1) * d).take(sum(ranks))
    out = np.empty((R, grid.size, d))
    out[:, 0, :] = spec.G1
    G = np.tile(spec.G1, (R, 1))
    parts = np.split(z, np.cumsum(ranks)[:-1], axis=1)
    for k, (Pk, Fk, zk) in enumerate(zip(P, F, parts)):
        G = G @ Pk
        if Fk.shape[0]:
            G = G + zk @ Fk
        out[:, k + 1, :] = G
    return out


def gaussian_variance(H, Gamma, t):
    """Var G(t) for the process started at G(1) = 0:
    (1/t) integral_0^{log t} e^{-(H-I/2)^T u} Gamma e^{-(H-I/2) u} du,
    in closed form."""
    H = _check_square(H, "H").astype(float)
    Gamma = check_sym_psd(Gamma, "Gamma")
    t = float(t)
    if t < 1.0:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    if t == 1.0:
        return np.zeros_like(Gamma)
    return interval_covariance(H, Gamma, 1.0, t)
