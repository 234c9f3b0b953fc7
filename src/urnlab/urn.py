"""Generalized Friedman urns with possible removal and random additions.

A composition row Y_n evolves by drawing type k with probability
max(Y_k, 0)/sum_j max(Y_j, 0) (uniform when no entry is positive) and adding
row k of the sampled addition matrix D_n; N_n counts draws per type. The
limit structure is read off the generating matrix H = lim E[D_n | past]:
Y_n/n and N_n/n converge to the normalized left Perron vector v, and the
fluctuations embed into the general recursion with drift Jacobian

    Dh* = [[I - (H - 1^T v), -(I - 1^T v)], [0, I]]        (2d x 2d)

and noise covariance assembled from S1 = diag(v) - v^T v and the per-row
addition covariances V_q. The second-largest real part lambda_sec of the
(alpha-normalized) spectrum sets the regime through rho = 1 - lambda_sec.

run_urn steps one path; run_urn_batch steps R paths of a deterministic rule
in lockstep, their state stored colour-major, (d, R).
"""

import dataclasses
from math import isfinite

import numpy as np

from .asymptotics import (
    _DEFAULT_RHO_TOL,
    SlowComponent,
    SlowDescriptor,
    _fix_phase,
    _limit_object,
    classify_regime,
    regime_scale,
    spectral_profile,
)
from .errors import (
    AssumptionViolationError,
    DivergenceError,
    InvalidArgumentError,
)
from .linalg import _check_square, check_sym_psd, eigen_left_right
from .rng import BLOCK, BlockSource, StreamRng
from .sa import _checkpoint_plan

# lockstep steps per noise take; rows of the step-major uniform and draw buffers
SLAB = 256


class DeterministicRule:
    """Addition rule that always returns the same matrix (consumes no noise)."""

    values_per_step = 0

    def __init__(self, D):
        self.matrix = np.asarray(D, dtype=float)
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidArgumentError("addition matrix contains non-finite entries")

    def __call__(self, rng, n, state):
        return self.matrix


class BernoulliDiagonalRule:
    """Each row q adds `scale` balls of its own type with probability p.

    E[D] = p*scale*I and V_q has p(1-p)*scale^2 at (q, q), zero elsewhere.
    """

    def __init__(self, d, p=0.5, scale=2.0):
        self.d = int(d)
        self.values_per_step = self.d
        self.p = float(p)
        self.scale = float(scale)
        self.matrix_mean = self.p * self.scale * np.eye(self.d)

    def __call__(self, rng, n, state):
        u = rng.uniforms(self.d)
        return np.diag(np.where(u < self.p, self.scale, 0.0))


@dataclasses.dataclass(frozen=True)
class UrnSpec:
    """Urn model: dimension, start composition, addition sampler (its
    `values_per_step`, if set, sizes the stream's refills), the limit
    generating matrix H, and per-row addition covariances V_q (list of d
    PSD matrices, or the string "estimate")."""

    d: int
    Y0: np.ndarray
    adding_rule: object
    generating_matrix: np.ndarray
    V_q: object = None
    label: str = ""

    def __post_init__(self):
        Y0 = np.asarray(self.Y0, dtype=float)
        if Y0.shape != (self.d,) or not np.all(np.isfinite(Y0)):
            raise InvalidArgumentError(f"Y0 must be a finite vector of length {self.d}")
        object.__setattr__(self, "Y0", Y0)
        H = _check_square(self.generating_matrix, "generating_matrix").astype(float)
        if H.shape != (self.d, self.d):
            raise InvalidArgumentError(f"generating_matrix must be {self.d}x{self.d}")
        off = H - np.diag(np.diag(H))
        if off.min() < 0.0:
            raise AssumptionViolationError(
                "generating matrix has a negative off-diagonal entry")
        object.__setattr__(self, "generating_matrix", H)
        if self.V_q is not None and not isinstance(self.V_q, str):
            vq = tuple(check_sym_psd(V, f"V_q[{q}]") for q, V in enumerate(self.V_q))
            if len(vq) != self.d:
                raise InvalidArgumentError(f"V_q must have {self.d} matrices")
            object.__setattr__(self, "V_q", vq)


@dataclasses.dataclass(frozen=True)
class UrnState:
    Y: np.ndarray
    N: np.ndarray
    n: int

    def to_dict(self):
        return {"n": self.n, "Y": self.Y.tolist(), "N": self.N.tolist()}


@dataclasses.dataclass(frozen=True)
class UrnTrajectory:
    checkpoints: tuple  # of UrnState
    seed: int


def draw_probabilities(Y):
    """Selection law: positive parts normalized; uniform when none positive.

    The last entry absorbs the float rounding residual so the vector sums
    to 1 exactly.
    """
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise InvalidArgumentError("composition contains non-finite entries")
    pos = np.maximum(Y, 0.0)
    s = pos.sum()
    if s <= 0.0:
        p = np.full(Y.shape, 1.0 / Y.size)
    else:
        p = pos / s
    for _ in range(10):
        resid = 1.0 - float(p.sum())
        if resid == 0.0:
            break
        j = p.size - 1
        if p[j] + resid < 0.0:  # last entry too small to absorb the residual
            j = int(np.argmax(p))
        p[j] = max(0.0, p[j] + resid)
    return p


def _run_urn_fast(spec, n_max, seed, plan, replicate):
    """Pure-python loop for deterministic rules; one uniform per step."""
    rng = StreamRng(seed, replicate, "uniform", n_max)
    D = spec.adding_rule.matrix.tolist()  # python floats: no numpy scalars
    d = spec.d
    Y = [float(y) for y in spec.Y0]
    N = [0] * d
    cps = []
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        cps.append(UrnState(np.array(Y), np.array(N, dtype=np.int64), 0))
        pi += 1
    for n in range(1, n_max + 1):
        if (n - 1) % BLOCK == 0:
            buf = rng.values(min(BLOCK, n_max - n + 1)).tolist()
        u = buf[(n - 1) % BLOCK]
        s = 0.0
        for y in Y:
            if y > 0.0:
                s += y
        if s <= 0.0:
            k = min(int(u * d), d - 1)
        else:
            # k = first index with cumulative positive mass exceeding u*s
            t = u * s
            acc = 0.0
            k = d - 1
            for i in range(d - 1):
                y = Y[i]
                if y > 0.0:
                    acc += y
                if t < acc:
                    k = i
                    break
        row = D[k]
        for i in range(d):
            Y[i] += row[i]
        N[k] += 1
        if not all(isfinite(y) for y in Y):
            raise DivergenceError(f"composition non-finite at step {n}",
                                  first_bad_index=n)
        if pi < len(plan) and plan[pi] == n:
            cps.append(UrnState(np.array(Y), np.array(N, dtype=np.int64), n))
            pi += 1
    return UrnTrajectory(checkpoints=tuple(cps), seed=int(seed))


def run_urn(spec, n_max, seed, checkpoints, replicate=0):
    """Simulate one urn path; deterministic given (spec, seed, replicate).

    Deterministic addition rules run on a fast scalar loop; anything else
    goes through the generic engine.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = _checkpoint_plan(checkpoints, n_max)
    if isinstance(spec.adding_rule, DeterministicRule):
        return _run_urn_fast(spec, n_max, seed, plan, replicate)

    # one uniform picks the type; the rule may draw uniforms of its own
    draw = n_max * (1 + getattr(spec.adding_rule, "values_per_step", 0))
    rng = StreamRng(seed, replicate, "uniform", draw)
    Y = spec.Y0.copy()
    N = np.zeros(spec.d, dtype=np.int64)
    cps = []
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        cps.append(UrnState(Y.copy(), N.copy(), 0))
        pi += 1
    for n in range(1, n_max + 1):
        u = rng.uniform()
        pos = np.maximum(Y, 0.0)
        s = float(pos.sum())
        if s <= 0.0:
            k = min(int(u * spec.d), spec.d - 1)
        else:
            k = int(np.searchsorted(np.cumsum(pos), u * s, side="right"))
            k = min(k, spec.d - 1)
        D = np.asarray(spec.adding_rule(rng, n, UrnState(Y, N, n - 1)), dtype=float)
        Y = Y + D[k]
        N[k] += 1
        if not np.all(np.isfinite(Y)):
            raise DivergenceError(f"composition non-finite at step {n}",
                                  first_bad_index=n)
        if pi < len(plan) and plan[pi] == n:
            cps.append(UrnState(Y.copy(), N.copy(), n))
            pi += 1
    return UrnTrajectory(checkpoints=tuple(cps), seed=int(seed))


# a replicate that overflows gives inf or NaN silently, as python floats do in
# the scalar loop; the check at each slab's end names the step
@np.errstate(over="ignore", invalid="ignore")
def run_urn_batch(spec, n_max, seed, checkpoints, replicates):
    """Vectorized paths for deterministic rules: all replicates advance in
    lockstep, each consuming one uniform per step from its own stream.

    The state is colour-major, (d, R), so a step is a few ufuncs over R
    that do the scalar loop's arithmetic: positive parts summed and
    accumulated in colour order (a numpy row sum goes pairwise from d = 8
    on), and k = #{i < d-1 : u*s >= acc_i}; a row with no positive mass
    draws uniformly. Each replicate's path is run_urn's bit for bit. A
    slab's draws are counted into N at its end. A slab that leaves any
    replicate non-finite is replayed from its start for those replicates,
    so the divergence names the first non-finite step, as run_urn does.

    Returns [(n, Y array (R, d), N array (R, d))].
    """
    if not isinstance(spec.adding_rule, DeterministicRule):
        raise InvalidArgumentError("batch engine requires a deterministic rule")
    n_max = int(n_max)
    plan = [c for c in _checkpoint_plan(checkpoints, n_max) if c >= 1]
    if np.isscalar(replicates):
        repl = np.arange(int(replicates))
    else:
        repl = np.asarray(list(replicates), dtype=np.int64)
    R = repl.size
    src = BlockSource(seed, repl, "uniform", n_max)
    d = spec.d
    DT = np.ascontiguousarray(spec.adding_rule.matrix.T)  # DT[q] = D[:, q]
    Y = np.repeat(spec.Y0[:, None], R, axis=1)
    N = np.zeros((d, R), dtype=np.int64)
    U = np.empty((SLAB, R))  # one row of uniforms per step
    K = np.empty((SLAB, R), dtype=np.min_scalar_type(d - 1))  # drawn types
    acc = np.empty((d, R))
    accs, s = list(acc), acc[d - 1]
    k = np.zeros(R, dtype=np.intp)
    start = np.empty_like(Y)  # Y at the slab's start
    out = []
    n = 0
    for stop in plan:
        while n < stop:  # a slab ends at the next checkpoint at the latest
            m = min(SLAB, stop - n)
            src.take(m, out=U[:m].T)
            np.copyto(start, Y)
            for j in range(m):
                np.maximum(Y, 0.0, out=acc)
                for q in range(1, d):
                    np.add(accs[q], accs[q - 1], out=accs[q])
                if np.fmin.reduce(s) <= 0.0:  # NaN-blind: no dead row missed
                    acc[:, s <= 0.0] = np.arange(1.0, d + 1.0)[:, None]
                if d > 1:
                    t = np.multiply(U[j], s, out=U[j])
                    np.greater_equal(t, accs[0], out=k)
                    for a in accs[1:d - 1]:
                        k += t >= a
                Y += DT.take(k, axis=1)  # colour q gains D[k, q]
                K[j] = k
            if not np.all(np.isfinite(Y)):
                bad = n + _first_non_finite(start, Y, DT, K[:m])
                raise DivergenceError(f"composition non-finite at step {bad}",
                                      first_bad_index=bad)
            for q in range(d):
                N[q] += np.count_nonzero(K[:m] == q, axis=0)
            n += m
        out.append((n, Y.T.copy(), N.T.copy()))
    return out


def _first_non_finite(start, Y, DT, K):
    """1-based slab step at which a replicate first became non-finite: the
    replicates non-finite at the end re-add their drawn rows of D from the
    slab's `start`. D is finite, so the others were finite throughout."""
    bad = ~np.isfinite(Y).all(axis=0)
    y, k = start[:, bad], K[:, bad]
    for j in range(len(K)):
        y += DT[:, k[j]]
        if not np.all(np.isfinite(y)):
            break
    return j + 1


# ==== eigenstructure and embedding ====

def urn_eigenstructure(H):
    """(alpha, v, u, lambda_sec, nu) for the generating matrix.

    alpha must be a simple eigenvalue, strictly largest in real part, with
    strictly positive left/right eigenvectors; v sums to 1 and v u = 1.
    lambda_sec and nu are reported on the alpha-normalized scale (the
    second-largest real part of spec(H/alpha) and the largest block order
    on that layer).
    """
    return _eigenstructure(H)[:5]


def _eigenstructure(H):
    """urn_eigenstructure and, last, the spectral profile of H/alpha (None
    for d = 1) that lambda_sec and nu were read from."""
    H = _check_square(H, "H").astype(float)
    d = H.shape[0]
    off = H - np.diag(np.diag(H))
    if off.min() < 0.0:
        raise AssumptionViolationError(
            "generating matrix has a negative off-diagonal entry")
    if d == 1:
        alpha = float(H[0, 0])
        if alpha <= 0.0:
            raise AssumptionViolationError(f"largest eigenvalue {alpha:.6g} is not positive")
        return alpha, np.array([1.0]), np.array([1.0]), None, 1, None

    es = eigen_left_right(H)
    w = es.values
    scale = max(1.0, float(np.abs(w).max()))
    alpha_c = w[0]  # sorted by descending real part
    if abs(alpha_c.imag) > 1e-9 * scale:
        raise AssumptionViolationError(
            f"largest eigenvalue {alpha_c:.6g} is not real")
    alpha = float(alpha_c.real)
    if alpha <= 0.0:
        raise AssumptionViolationError(f"largest eigenvalue {alpha:.6g} is not positive")
    gap = alpha - w[1].real
    if gap <= 1e-9 * scale:
        raise AssumptionViolationError(
            f"largest eigenvalue {alpha:.6g} is not simple and strictly largest "
            f"(next real part {w[1].real:.6g})")

    v = es.left[0]
    u = es.right[:, 0]
    if np.abs(v.imag).max() > 1e-9 or np.abs(u.imag).max() > 1e-9:
        raise AssumptionViolationError("Perron eigenvectors are not real")
    v = v.real
    u = u.real
    if v.sum() < 0:
        v, u = -v, -u
    tolp = 1e-12 * max(1.0, np.abs(v).max())
    if v.min() <= tolp:
        raise AssumptionViolationError("left Perron vector is not strictly positive")
    v = v / v.sum()
    u = u / (v @ u)
    if u.min() <= 1e-12 * max(1.0, np.abs(u).max()):
        raise AssumptionViolationError("right Perron vector is not strictly positive")

    profile = spectral_profile(H / alpha)
    rest = [g for g in profile.groups if abs(g.value.real - 1.0) > 1e-9]
    lambda_sec = max(g.value.real for g in rest)
    layer_tol = 1e-7 * profile._scale()
    nu = max(max(g.block_sizes) for g in rest
             if abs(g.value.real - lambda_sec) <= layer_tol)
    return alpha, v, u, float(lambda_sec), int(nu), profile


def urn_embedding(H, v, V_q=None):
    """(Dh_star, Gamma) of the SA embedding of theta = (Y/n, N/n).

    Dh_star = [[I - (H - 1^T v), -(I - 1^T v)], [0, I]];
    Gamma   = [[H^T S1 H + S2, H^T S1], [S1 H, S1]]
    with S1 = diag(v) - v^T v and S2 = sum_q v_q V_q.
    """
    H = _check_square(H, "H").astype(float)
    d = H.shape[0]
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise InvalidArgumentError(f"v must have shape ({d},)")
    ones_v = np.outer(np.ones(d), v)
    eye = np.eye(d)
    Dh = np.zeros((2 * d, 2 * d))
    Dh[:d, :d] = eye - (H - ones_v)
    Dh[:d, d:] = -(eye - ones_v)
    Dh[d:, d:] = eye

    S1 = np.diag(v) - np.outer(v, v)
    S2 = np.zeros((d, d))
    if V_q is not None:
        if len(V_q) != d:
            raise InvalidArgumentError(f"V_q must have {d} matrices")
        for q, V in enumerate(V_q):
            S2 += v[q] * check_sym_psd(V, f"V_q[{q}]")
    G = np.zeros((2 * d, 2 * d))
    G[:d, :d] = H.T @ S1 @ H + S2
    G[:d, d:] = H.T @ S1
    G[d:, :d] = S1 @ H
    G[d:, d:] = S1
    G = 0.5 * (G + G.T)
    return Dh, check_sym_psd(G, "Gamma")


@dataclasses.dataclass(frozen=True)
class UrnAsymptotics:
    alpha: float
    v: np.ndarray
    u: np.ndarray
    lambda_sec: object
    nu: int
    regime: object
    Dh_star: np.ndarray
    Gamma: np.ndarray
    Sigma_tilde: object = None
    slow_descriptor: object = None

    def scale(self, n):
        """Normalisation of the scaled theta_n error under this analysis's
        regime."""
        rho = None if self.lambda_sec is None else 1.0 - self.lambda_sec
        return regime_scale(n, self.regime.tag, self.nu, rho)

    def centre(self):
        """Limit (v, v) of theta_n = (Y_n/(alpha n), N_n/n): the embedding
        is of the urn with H/alpha, whose Perron root is 1."""
        return np.concatenate([self.v, self.v])

    def divisor(self, n):
        """Per coordinate of (Y_n, N_n), what divides it into theta_n."""
        d = self.v.size
        return np.concatenate([np.full(d, self.alpha * n), np.full(d, float(n))])

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "v": self.v.tolist(),
            "u": self.u.tolist(),
            "lambda_sec": self.lambda_sec,
            "nu": self.nu,
            "regime": self.regime.to_dict(),
            "Dh_star": self.Dh_star.tolist(),
            "Gamma": self.Gamma.tolist(),
            "Sigma_tilde": None if self.Sigma_tilde is None else self.Sigma_tilde.tolist(),
            "slow_descriptor": (None if self.slow_descriptor is None
                                else self.slow_descriptor.to_dict()),
        }


def estimate_Vq(spec, samples, seed):
    """Sample covariance of each addition-matrix row over repeated draws.

    Row q is conditioned on drawing type q; the rule is assumed stationary
    per row. Deterministic given seed (stream q feeds row q).
    """
    samples = int(samples)
    if samples < 2:
        raise InvalidArgumentError(f"need at least 2 samples, got {samples}")
    d = spec.d
    state = UrnState(spec.Y0.copy(), np.zeros(d, dtype=np.int64), 0)
    draw = samples * getattr(spec.adding_rule, "values_per_step", 0)
    out = []
    for q in range(d):
        rng = StreamRng(seed, replicate=q, kind="uniform", total=draw)
        rows = np.empty((samples, d))
        for m in range(samples):
            D = np.asarray(spec.adding_rule(rng, m + 1, state), dtype=float)
            rows[m] = D[q]
        mu = rows.mean(axis=0)
        X = rows - mu
        out.append(X.T @ X / (samples - 1))
    return out


def _slow_urn_descriptor(H, v, profile, lambda_sec, nu, tol=1e-8):
    """Slow-regime limit components: for each eigenvalue on the lambda_sec
    layer of profile (the spectral profile of H) with a block of order nu,
    direction l_a (I - 1^T v) from the left eigenvector l_a of H."""
    d = H.shape[0]
    es = eigen_left_right(H)
    proj = np.eye(d) - np.outer(np.ones(d), v)
    layer_tol = 1e-7 * profile._scale()
    comps = []
    seen = set()
    for g in profile.groups:
        if abs(g.value.real - lambda_sec) > layer_tol:
            continue
        if max(g.block_sizes) != nu:
            continue
        if nu > 1 and len(g.block_sizes) > 1:
            raise AssumptionViolationError(
                f"eigenvalue {g.value:.6g} has several blocks; directions are "
                "not identifiable without a chain basis")
        idx = [i for i in range(d) if abs(es.values[i] - g.value) <= layer_tol
               and i not in seen]
        take = idx[:len([k for k in g.block_sizes if k == nu])]
        for i in take:
            seen.add(i)
            l_a = es.left[i]
            if np.linalg.norm(l_a @ H - es.values[i] * l_a) > tol * np.linalg.norm(l_a):
                continue
            comps.append(SlowComponent(
                value=complex(g.value),
                frequency=float(g.value.imag),
                direction=_fix_phase(l_a.astype(complex) @ proj)))
    return SlowDescriptor(components=tuple(comps), rho=1.0 - lambda_sec, nu=nu)


def urn_asymptotics(spec, estimate_samples=2000, estimate_seed=0,
                    rho_tol=_DEFAULT_RHO_TOL):
    """Full limit analysis of an urn: eigenstructure, SA embedding, regime
    (Dh_star's profile against 1/2 within rho_tol), and the regime's limit
    object (covariance or slow components)."""
    H = spec.generating_matrix
    alpha, v, u, lambda_sec, nu, h_profile = _eigenstructure(H)
    if lambda_sec is not None and lambda_sec >= 1.0:
        raise AssumptionViolationError(
            f"second eigenvalue real part {lambda_sec:.6g} >= 1 violates the "
            "convergence hypothesis")

    Vq = spec.V_q
    if isinstance(Vq, str):
        if Vq != "estimate":
            raise InvalidArgumentError(f"unknown V_q mode {Vq!r}")
        Vq = estimate_Vq(spec, estimate_samples, estimate_seed)
    Hn = H / alpha
    if Vq is not None and alpha != 1.0:
        Vq = [V / alpha ** 2 for V in Vq]
    Dh_star, Gamma = urn_embedding(Hn, v, Vq)

    profile = spectral_profile(Dh_star)
    regime = classify_regime(profile, rho_tol)
    Sigma, slow = _limit_object(
        profile, regime, Dh_star, Gamma,
        slow=lambda: _slow_urn_descriptor(Hn, v, h_profile, lambda_sec, nu))
    return UrnAsymptotics(alpha=alpha, v=v, u=u, lambda_sec=lambda_sec, nu=nu,
                          regime=regime, Dh_star=Dh_star, Gamma=Gamma,
                          Sigma_tilde=Sigma, slow_descriptor=slow)
