"""Simulation of the stochastic approximation recursion

    theta_{n+1} = theta_n - h(theta_n)/(n+1) + (dM_{n+1} + r_{n+1})/(n+1)

with pluggable drift h, martingale-difference noise, and deterministic
remainder schedule. The engines share the same frozen noise streams:

  run_sa                step reference loop, any drift, optionally recording
                        every increment; a dim-1 model without noise or
                        remainder whose drift is linear or has a float entry
                        point `scalar` runs in plain floats, with the same
                        states bit for bit;
  linear_paths          closed form for linear drift h = theta A,
                        theta_n = theta_0 Phi(0, n) + sum_k dM_k Phi(k, n)/k
                        with Phi(k, n) = prod_{j=k+1..n} (I - A/j): one
                        weighted sum of the noise per segment;
  exact_mean_recursion  noise-free mean iteration, with a chunked scalar
                        fast path that reaches n = 1e8 in seconds.

verify.simulate picks between run_sa and linear_paths. They agree on the
same (seed, replicate) to float-summation error. run_sa can record every
increment; tests/oracles.py replays such a trajectory bit for bit.
"""

import dataclasses
import hashlib
import math

import numpy as np

from .asymptotics import _snap_block_form, spectral_profile
from .errors import (ChainBasisRequiredError, DivergenceError,
                     InvalidArgumentError, JordanIntegerEigenvalueError)
from .linalg import _check_square, check_sym_psd
from .rng import BLOCK, BlockSource, StreamRng


def _as_row(x, dim, name):
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise InvalidArgumentError(f"{name} must have shape ({dim},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return v


def _callable_tag(f):
    if f is None:
        return "none"
    mod = getattr(f, "__module__", "")
    qn = getattr(f, "__qualname__", type(f).__name__)
    extra = ""
    parts = getattr(f, "digest_parts", None)
    if callable(parts):
        extra = ":" + parts()
    return f"{mod}.{qn}{extra}"


class GaussianNoise:
    """Martingale difference dM = z @ root with z iid standard normal.

    root has shape (m, d) and Cov(dM^T dM) = root^T root; rank-deficient
    covariances use m < d rows so each step consumes only m stream values.
    """

    def __init__(self, root):
        root = np.atleast_2d(np.asarray(root, dtype=float))
        if not np.all(np.isfinite(root)):
            raise InvalidArgumentError("noise root contains non-finite entries")
        self.root = root
        self.values_per_step = root.shape[0]
        self.gamma = root.T @ root

    @classmethod
    def from_cov(cls, gamma):
        Gs = check_sym_psd(gamma, "Gamma")
        w, V = np.linalg.eigh(Gs)
        keep = w > 1e-12 * max(w[-1], 0.0)
        root = np.sqrt(w[keep])[:, None] * V[:, keep].T
        return cls(root)

    def __call__(self, rng, k, theta):
        z = rng.gaussians(self.values_per_step)
        return z @ self.root

    def digest_parts(self):
        return self.root.tobytes().hex()


class LinearDrift:
    """h(theta) = theta @ A. Declaring the matrix lets batch tooling route
    the model through the closed-form path engine."""

    def __init__(self, A):
        self.matrix = _check_square(A, "A").astype(float)

    def __call__(self, theta):
        return theta @ self.matrix

    def digest_parts(self):
        return self.matrix.tobytes().hex()


@dataclasses.dataclass(frozen=True)
class SAProcessSpec:
    """Problem statement for one recursion: dimension, drift, noise sampler
    (callable (rng, step, theta) -> row, or None; its `values_per_step`,
    if set, sizes the stream's refills), remainder schedule (callable
    n -> row, or None), start point, and the optional known equilibrium."""

    dim: int
    drift: object
    theta0: np.ndarray
    noise: object = None
    remainder: object = None
    theta_star: object = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "theta0", _as_row(self.theta0, self.dim, "theta0"))
        if self.theta_star is not None:
            ts = _as_row(self.theta_star, self.dim, "theta_star")
            object.__setattr__(self, "theta_star", ts)
            hv = np.asarray(self.drift(ts), dtype=float)
            if np.linalg.norm(hv) > 1e-12:
                raise InvalidArgumentError(
                    f"drift at theta_star has norm {np.linalg.norm(hv):.3e}, "
                    "expected 0 within 1e-12")

    def digest(self):
        h = hashlib.sha256()
        parts = [
            str(self.dim),
            self.theta0.tobytes().hex(),
            "" if self.theta_star is None else self.theta_star.tobytes().hex(),
            self.label,
            _callable_tag(self.drift),
            _callable_tag(self.noise),
            _callable_tag(self.remainder),
        ]
        h.update("|".join(parts).encode())
        return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Checkpointed path of one run; optionally carries every increment so
    the recursion can be replayed and checked bit for bit."""

    checkpoints: tuple
    seed: int
    spec_digest: str
    increments: object = None

    def __post_init__(self):
        ns = [n for n, _ in self.checkpoints]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidArgumentError("checkpoint indices must be strictly increasing")


def _checkpoint_plan(plan, n_max):
    out = sorted({int(c) for c in plan})
    if out and (out[0] < 0 or out[-1] > n_max):
        raise InvalidArgumentError(
            f"checkpoints must lie in [0, {n_max}], got range [{out[0]}, {out[-1]}]")
    return out


def _float_drift(spec):
    """Float h for a dim-1 model without noise or remainder, else None."""
    if spec.dim != 1 or spec.noise is not None or spec.remainder is not None:
        return None
    if isinstance(spec.drift, LinearDrift):
        a = float(spec.drift.matrix[0, 0])
        return lambda t: a * t
    return getattr(spec.drift, "scalar", None)


def _float_path(h, th, n_max, plan):
    """run_sa's update in plain floats: the same two IEEE operations."""
    inf, want = math.inf, set(plan)
    cps = [(0, np.array([th]))] if 0 in want else []
    for k in range(1, n_max + 1):
        th = th - h(th) / k  # k converts to the double k exactly
        if not -inf < th < inf:
            raise DivergenceError(
                f"state became non-finite at step {k}", first_bad_index=k)
        if k in want:
            cps.append((k, np.array([th])))
    return tuple(cps)


def run_sa(spec, n_max, seed, checkpoint_plan, replicate=0, record_increments=False):
    """Iterate the recursion once, step by step.

    Deterministic given (spec, seed, replicate): noise comes from the frozen
    per-replicate stream. Raises a divergence error naming the first step
    index whose state is non-finite.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = _checkpoint_plan(checkpoint_plan, n_max)
    h = None if record_increments else _float_drift(spec)
    if h is not None:
        return Trajectory(
            checkpoints=_float_path(h, float(spec.theta0[0]), n_max, plan),
            seed=int(seed), spec_digest=spec.digest())
    draw = n_max * getattr(spec.noise, "values_per_step", 0)
    rng = StreamRng(seed, replicate, "gaussian", draw) if spec.noise is not None else None
    theta = spec.theta0.copy()
    zero = np.zeros(spec.dim)
    cps = []
    incs = [] if record_increments else None
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        cps.append((0, theta.copy()))
        pi += 1
    for k in range(n_max):
        np1 = k + 1.0
        hv = np.asarray(spec.drift(theta), dtype=float)
        dm = np.asarray(spec.noise(rng, k + 1, theta), dtype=float) if spec.noise else zero
        r = np.asarray(spec.remainder(k + 1), dtype=float) if spec.remainder else zero
        inc = dm + r
        theta = theta - hv / np1 + inc / np1
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(
                f"state became non-finite at step {k + 1}", first_bad_index=k + 1)
        if record_increments:
            incs.append((dm.copy(), r.copy()))
        if pi < len(plan) and plan[pi] == k + 1:
            cps.append((k + 1, theta.copy()))
            pi += 1
    return Trajectory(checkpoints=tuple(cps), seed=int(seed),
                      spec_digest=spec.digest(), increments=incs)


# ==== deterministic mean recursion ====

# steps per chunk of the scalar closed form, so that its three buffers and
# the remainder schedule's temporaries stay in a 2 MiB L2 cache. At n = 1e8
# on such a core: about 22 ns per step against 50 at 2^22; 2^15 ties on the
# inv-sqrt-log schedule and is 1.5x slower on inv-sqrt-loglog (more temporaries)
_MEAN_CHUNK = 1 << 14


def _mean_recursion_scalar(a, remainder, x0, n_max, plan):
    """Closed form E theta_n = P_n x0 + P_n sum_k r_k/(k P_k), chunked.

    Per chunk, log P_k and the weighted sum are chunk-local cumsums plus
    the offset carried from the chunk before, in buffers allocated once.
    Valid for 0 <= a < 1 so every factor (1 - a/k) stays positive.
    """
    out = []
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        out.append((0, np.array([x0])))
        pi += 1
    size = min(_MEAN_CHUNK, n_max)
    j = np.arange(1.0, size + 1.0)  # the chunk's step indices, exact
    cl = np.empty(size)
    tcum = np.empty(size) if remainder is not None else None
    logP = 0.0
    S = 0.0  # sum of r_k / (k P_k)
    done = 0
    while done < n_max:
        m = min(size, n_max - done)
        jm, c = j[:m], cl[:m]
        np.divide(-a, jm, out=c)
        np.log1p(c, out=c)
        np.cumsum(c, out=c)
        c += logP
        if tcum is not None:
            t = tcum[:m]
            np.exp(c, out=t)
            t *= jm
            np.divide(np.asarray(remainder(jm), dtype=float), t, out=t)
            np.cumsum(t, out=t)
            t += S
        hi = done + m
        while pi < len(plan) and plan[pi] <= hi:
            idx = plan[pi] - done - 1
            val = np.exp(c[idx]) * (x0 + (t[idx] if tcum is not None else 0.0))
            out.append((plan[pi], np.array([val])))
            pi += 1
        logP = c[-1]
        if tcum is not None:
            S = t[-1]
        done = hi
        j += size
    return out


def exact_mean_recursion(A, remainder, theta0, n_max, checkpoints=None):
    """Mean path of the linear recursion:
    E theta_{n+1} = E theta_n (I - A/(n+1)) + r_{n+1}/(n+1).

    Returns [(n, E theta_n)] at the requested checkpoints (default: n_max
    only). The one-dimensional case with A[0,0] in [0, 1) is evaluated in
    vectorized chunks small enough to stay in cache, so horizons up to 1e8
    take seconds and memory does not grow with n_max; the remainder
    schedule must then accept an index array.
    """
    A = _check_square(A, "A").astype(float)
    d = A.shape[0]
    x = _as_row(theta0, d, "theta0")
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = _checkpoint_plan(checkpoints if checkpoints is not None else [n_max], n_max)

    if d == 1 and 0.0 <= A[0, 0] < 1.0:
        return _mean_recursion_scalar(float(A[0, 0]), remainder, float(x[0]),
                                      n_max, plan)

    out = []
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        out.append((0, x.copy()))
        pi += 1
    eye = np.eye(d)
    for k in range(n_max):
        np1 = k + 1.0
        r = np.asarray(remainder(k + 1), dtype=float) if remainder is not None else 0.0
        x = x @ (eye - A / np1) + r / np1
        if pi < len(plan) and plan[pi] == k + 1:
            out.append((k + 1, x.copy()))
            pi += 1
    return out


# ==== closed-form linear engine ====

def _slot_structure(A, basis):
    """Transform basis for the linear engine: A = T J T^{-1} with J
    block-canonical. Returns (T, Tinv, blocks), blocks = [(lam, start, size)]."""
    if basis is not None:
        blocks, Tinv = _snap_block_form(A, basis)
        return np.asarray(basis, dtype=complex), Tinv, blocks
    profile = spectral_profile(A)
    if any(max(g.block_sizes) > 1 for g in profile.groups):
        raise ChainBasisRequiredError(
            "drift matrix is defective; supply a basis realizing its block form")
    w, V = np.linalg.eig(A.astype(float))
    T = V.astype(complex)
    return T, np.linalg.inv(T), [(complex(lam), q, 1) for q, lam in enumerate(w)]


def _tail_sums(v):
    """s[t] = sum(v[t:]) for t = 0..len(v), so s[-1] = 0."""
    s = np.zeros(v.size + 1, dtype=v.dtype)
    s[:-1] = np.cumsum(v[::-1])[::-1]
    return s


def _block_weights(lam, size, j):
    """u[r, t] = coefficient of N^r in prod_{i >= t} ((1 - lam/j_i) I - N/j_i),
    the product over the segment's steps j from the t-th on, t = 0..width.

    The factors commute: (1 - lam/j) I - N/j = (1 - lam/j)(I - a_j N) with
    a_j = 1/(j - lam), so u_r = (-1)^r w e_r. w is the product of the scalar
    factors, taken as exp of the tail sums of their logs (an exact zero
    factor gives -inf and zeroes every weight before it): for a real lam,
    real logs of |1 - lam/j| (log1p where lam/j < 1) and the parity of the
    negative factors, in real arithmetic throughout; else complex logs.
    e_r is the r-th elementary symmetric sum of the a_i,
    e_r(t) = sum_{i >= t} a_i e_{r-1}(i + 1).
    """
    if lam.imag == 0.0:
        lam = lam.real
        x = lam / j
        neg = x > 1.0  # the factors below zero, at the steps j < lam
        with np.errstate(divide="ignore"):
            logs = np.log1p(-np.minimum(x, 1.0))
        logs[neg] = np.log(x[neg] - 1.0)
        w = np.exp(_tail_sums(logs))
        if neg.any():
            w[:-1][np.cumsum(neg[::-1])[::-1] % 2 == 1] *= -1.0
    else:
        with np.errstate(divide="ignore"):
            w = np.exp(_tail_sums(np.log(1.0 - lam / j.astype(complex))))
    u = np.empty((size, j.size + 1), dtype=complex)
    u[0] = w
    e = np.ones(j.size + 1)
    for r in range(1, size):
        e = _tail_sums(e[1:] / (j - lam))
        u[r] = (-1) ** r * w * e
    return u


def _rowwise(X, M):
    """X @ M as one vector-matrix product per row of X. A matrix product's
    rounding depends on how many rows it has; this one's does not, so a
    replicate's path is the same in any batch."""
    return np.matmul(X[:, None, :], M)[:, 0]


def linear_paths(A, theta0, n_max, seed, checkpoints, replicates=1,
                 gamma_root=None, basis=None):
    """Exact paths of theta_{k+1} = theta_k (I - A/(k+1)) + dM_{k+1}/(k+1)
    for a batch of replicates, without stepping through every state.

    In the coordinates phi = theta T (A = T J T^{-1}, J block-canonical) the
    state after a segment of steps is phi_hi = phi_lo Phi(lo, hi)
    + sum_k (dM_k T / k) Phi(k, hi), with Phi(k, hi) = prod_{j=k+1..hi} (I - J/j):
    one contraction of the segment's noise with per-step weights that are
    built from the segment's end, so nothing is divided and nothing overflows
    unless the true value does. Segments end at the checkpoints and after at
    most one noise block (rng.BLOCK values) per replicate; each replicate
    consumes exactly the noise values the step engine would. A Jordan block
    (size > 1) whose eigenvalue is an exact integer in 1..n_max has a nilpotent
    step factor there, which these weights cannot express: it raises
    JordanIntegerEigenvalueError. A replicate's path is the same, bit for
    bit, in any batch of replicates.
    Returns [(n, array of shape (R, d))] at the requested checkpoints.
    """
    A = _check_square(A, "A").astype(float)
    d = A.shape[0]
    x0 = _as_row(theta0, d, "theta0")
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = [c for c in _checkpoint_plan(checkpoints, n_max) if c >= 1]
    if np.isscalar(replicates):
        repl = np.arange(int(replicates))
    else:
        repl = np.asarray(list(replicates), dtype=np.int64)
    R = repl.size

    T, Tinv, blocks = _slot_structure(A, basis)
    for lam, _, size in blocks:
        if size > 1 and lam.imag == 0.0 and lam.real == round(lam.real) \
                and 1 <= lam.real <= n_max:
            raise JordanIntegerEigenvalueError(
                f"Jordan block of size {size} at the integer eigenvalue "
                f"{lam.real:g}: its step factor is nilpotent; use the step engine")

    m, rootT = 0, np.zeros((0, d))
    if gamma_root is not None:
        root = np.atleast_2d(np.asarray(gamma_root, dtype=float))
        if root.shape[1] != d:
            raise InvalidArgumentError(
                f"gamma_root must have {d} columns, got {root.shape[1]}")
        m = root.shape[0]
        src = BlockSource(seed, repl, "gaussian", plan[-1] * m if plan else 0)
        rootT = root @ T  # (m, d) into transformed coords

    seg = max(1, BLOCK // max(m, 1))
    x = np.tile(x0 @ T, (R, 1))  # (R, d) complex
    out = []
    done = 0
    for stop in plan:
        while done < stop:
            hi = min(done + seg, stop)
            width = hi - done
            j = np.arange(done + 1, hi + 1, dtype=float)
            x_new = np.zeros_like(x)
            G = np.zeros((width, m, d), dtype=complex)
            for lam, b, size in blocks:
                u = _block_weights(lam, size, j)
                for r in range(size):
                    # N^r moves slot b + q - r into slot b + q
                    x_new[:, b + r:b + size] += u[r, 0] * x[:, b:b + size - r]
                    G[:, :, b + r:b + size] += ((u[r, 1:] / j)[:, None, None]
                                                * rootT[None, :, b:b + size - r])
            if m:
                G = G.reshape(width * m, d)
                W = np.concatenate([G.real, G.imag], axis=1)
                # no name keeps the slab, so it is freed before the next refill
                y = _rowwise(src.take(width * m), W)
                x_new += y[:, :d] + 1j * y[:, d:]
            x = x_new
            done = hi
        out.append((stop, np.ascontiguousarray(_rowwise(x, Tinv).real)))
    return out
