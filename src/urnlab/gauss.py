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
)
from .rng import BlockSource


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
    """Covariance of the Gaussian increment accumulated over (t_a, t_b]."""
    if not 1.0 <= t_a < t_b:
        raise InvalidArgumentError(f"need 1 <= t_a < t_b, got ({t_a}, {t_b})")
    H = _check_square(H, "H").astype(float)
    B = H - 0.5 * np.eye(H.shape[0])
    C = integral_exp_sandwich(B, Gamma, math.log(t_b / t_a)) / t_b
    return 0.5 * (C + C.T)


def _increment_factor(C, rel_clip=1e-12):
    """Rows R with R^T R = C from the eigendecomposition; eigenvalues below
    rel_clip of the largest are treated as zero rank."""
    w, V = np.linalg.eigh(C)
    cut = rel_clip * max(w.max(), 0.0)
    keep = w > cut
    if not keep.any():
        return np.zeros((0, C.shape[0]))
    return (V[:, keep] * np.sqrt(w[keep])).T


def simulate_paths(spec, seed, replicates):
    """Exact-law paths for the given replicate indices.

    Returns an array of shape (R, K+1, d) over the grid; row r depends
    only on (seed, replicate index r), never on the batch composition.
    """
    if np.isscalar(replicates):
        repl = np.arange(int(replicates))
    else:
        repl = np.asarray(list(replicates), dtype=np.int64)
    R = repl.size
    grid = spec.grid
    d = spec.H.shape[0]
    Gamma = spec.gamma()
    out = np.empty((R, grid.size, d))
    out[:, 0, :] = spec.G1
    src = BlockSource(seed, repl, "gaussian", (grid.size - 1) * d)
    G = np.tile(spec.G1, (R, 1))
    for k in range(grid.size - 1):
        ta, tb = grid[k], grid[k + 1]
        try:
            C = interval_covariance(spec.H, Gamma, ta, tb)
        except NonConvergenceError as exc:
            raise RefinementError(
                f"increment covariance over grid interval ({ta:g}, {tb:g}) "
                "overflows; insert intermediate grid points") from exc
        F = _increment_factor(C)
        P = mat_power(spec.H, ta / tb)
        G = G @ P
        if F.shape[0]:
            G = G + src.take(F.shape[0]) @ F
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
