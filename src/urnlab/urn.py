"""Generalized Friedman urns with possible removal and random additions.

A composition row Y_n evolves by drawing type k with probability
max(Y_k, 0)/sum_j max(Y_j, 0) (uniform when no entry is positive) and adding
row k of the sampled addition matrix D_n; N_n counts draws per type. The
addition rule states its own law: the generating matrix H = E[D_n] (its
`mean`) and the per-row addition covariances V_q (None when D_n is fixed).
Y_n/n and N_n/n converge to the normalized left Perron vector v, and the
fluctuations embed into the general recursion with drift Jacobian

    Dh* = [[I - (H - 1^T v), -(I - 1^T v)], [0, I]]        (2d x 2d)

and noise covariance assembled from S1 = diag(v) - v^T v and the V_q. The
second-largest real part lambda_sec of the (alpha-normalized) spectrum sets
the regime through rho = 1 - lambda_sec.

run_urn steps one path; run_urn_batch steps R paths of any rule in lockstep,
their state stored colour-major, (d, R). Both read how a rule draws from
_draw_rows.
"""

import dataclasses
from math import isfinite

import numpy as np

from .asymptotics import (
    DEFAULT_RHO_TOL,
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
from .rng import BLOCK, BlockSource, replicate_indices
from .sa import _checkpoint_plan

# lockstep steps per noise take; rows of the step-major uniform and draw buffers
SLAB = 256


class DeterministicRule:
    """Addition rule that always adds the same matrix (consumes no noise):
    its mean is that matrix and its rows have no covariance."""

    values_per_step = 0
    V_q = None

    def __init__(self, D):
        self.mean = np.asarray(D, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise InvalidArgumentError("addition matrix contains non-finite entries")


class BernoulliDiagonalRule:
    """Each row q adds `scale` balls of its own type with probability p.

    A step draws d uniforms after the type's; the drawn type q succeeds when
    the q-th is below p. The mean is p*scale*I and V_q has p(1-p)*scale^2
    at (q, q), zero elsewhere.
    """

    def __init__(self, d, p, scale):
        self.d = int(d)
        self.values_per_step = self.d
        self.p = float(p)
        self.scale = float(scale)
        self.mean = self.p * self.scale * np.eye(self.d)
        var = self.p * (1.0 - self.p) * self.scale * self.scale
        self.V_q = tuple(var * np.diag(e) for e in np.eye(self.d))


@dataclasses.dataclass(frozen=True)
class UrnSpec:
    """Urn model: dimension, start composition and the addition rule. The
    rule states its law, `mean` (H = E[D]) and `V_q` (d PSD matrices, or
    None for a fixed addition), and draws `values_per_step` uniforms per
    step after the type's."""

    d: int
    Y0: np.ndarray
    adding_rule: object
    label: str = ""

    def __post_init__(self):
        Y0 = np.asarray(self.Y0, dtype=float)
        if Y0.shape != (self.d,) or not np.all(np.isfinite(Y0)):
            raise InvalidArgumentError(f"Y0 must be a finite vector of length {self.d}")
        object.__setattr__(self, "Y0", Y0)
        rule = self.adding_rule
        if not all(hasattr(rule, a) for a in ("mean", "V_q", "values_per_step")):
            raise InvalidArgumentError(
                "adding rule must state its mean, V_q and values_per_step")
        if np.shape(rule.mean) != (self.d, self.d):
            raise InvalidArgumentError(f"adding rule's mean must be {self.d}x{self.d}")
        if rule.V_q is not None:
            if len(rule.V_q) != self.d:
                raise InvalidArgumentError(f"V_q must have {self.d} matrices")
            for q, V in enumerate(rule.V_q):
                check_sym_psd(V, f"V_q[{q}]")


@dataclasses.dataclass(frozen=True)
class UrnState:
    Y: np.ndarray
    N: np.ndarray
    n: int


@dataclasses.dataclass(frozen=True)
class UrnTrajectory:
    checkpoints: tuple  # of UrnState


def _draw_rows(rule, d):
    """(hit, miss, p): how a rule draws. A draw of type k adds row k of hit,
    or of miss when the rule's k-th uniform is at or above p. A
    Bernoulli-diagonal rule hits with scale*I and misses with nothing; a
    rule that draws nothing (p None) adds its mean. Any other is refused."""
    if isinstance(rule, BernoulliDiagonalRule):
        return rule.scale * np.eye(d), np.zeros((d, d)), rule.p
    if rule.values_per_step == 0:
        return rule.mean, rule.mean, None
    raise InvalidArgumentError(f"urn engines cannot draw {type(rule).__name__}")


def run_urn(spec, n_max, seed, checkpoints, replicate=0):
    """Simulate one urn path; deterministic given (spec, seed, replicate).

    A plain-float loop: each step takes the type's uniform, then the rule's
    values_per_step uniforms. The type is the first whose positive mass,
    accumulated in colour order, exceeds u*s (uniform when no mass is
    positive); the rule's row k is added as _draw_rows reads it.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = _checkpoint_plan(checkpoints, n_max)
    d = spec.d
    hit, miss, p = _draw_rows(spec.adding_rule, d)
    hit, miss = hit.tolist(), miss.tolist()  # python floats, no numpy scalars
    step = 1 + spec.adding_rule.values_per_step
    src = BlockSource(seed, [replicate], "uniform", n_max * step)
    Y = [float(y) for y in spec.Y0]
    N = [0] * d
    cps = []
    pi = 0
    if pi < len(plan) and plan[pi] == 0:
        cps.append(UrnState(np.array(Y), np.array(N, dtype=np.int64), 0))
        pi += 1
    buf, j = [], 0
    for n in range(1, n_max + 1):
        if j == len(buf):
            buf, j = src.take(min(BLOCK, n_max - n + 1) * step)[0].tolist(), 0
        u = buf[j]
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
        row = hit[k] if p is None or buf[j + 1 + k] < p else miss[k]
        j += step
        for i in range(d):
            Y[i] += row[i]
        N[k] += 1
        if not all(isfinite(y) for y in Y):
            raise DivergenceError(f"composition non-finite at step {n}",
                                  first_bad_index=n)
        if pi < len(plan) and plan[pi] == n:
            cps.append(UrnState(np.array(Y), np.array(N, dtype=np.int64), n))
            pi += 1
    return UrnTrajectory(checkpoints=tuple(cps))


# a replicate that overflows gives inf or NaN silently, as python floats do in
# the scalar loop; the check at each slab's end names the step
@np.errstate(over="ignore", invalid="ignore")
def run_urn_batch(spec, n_max, seed, checkpoints, replicates):
    """Vectorized paths: all replicates advance in lockstep, each taking
    1 + values_per_step uniforms per step from its own stream, in run_urn's
    order (the type's, then the rule's).

    The state is colour-major, (d, R), so a step is a few ufuncs over R
    that do the scalar loop's arithmetic: positive parts summed and
    accumulated in colour order (a numpy row sum goes pairwise from d = 8
    on), and k = #{i < d-1 : u*s >= acc_i}; a row with no positive mass
    draws uniformly. The added row is column c of [hit | miss] (see
    _draw_rows): c = k, or d + k when the drawn type's uniform is at or
    above p. Each replicate's path is run_urn's bit for bit. A slab's draws
    are counted into N at its end. A slab that leaves any replicate
    non-finite is replayed from its start for those replicates, so the
    divergence names the first non-finite step, as run_urn does.

    Returns [(n, Y array (R, d), N array (R, d))].
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = [c for c in _checkpoint_plan(checkpoints, n_max) if c >= 1]
    repl = replicate_indices(replicates)
    R = repl.size
    d = spec.d
    hit, miss, p = _draw_rows(spec.adding_rule, d)
    step = 1 + spec.adding_rule.values_per_step
    src = BlockSource(seed, repl, "uniform", n_max * step)
    DT = np.ascontiguousarray(np.vstack([hit, miss]).T)  # DT[:, c]: row c
    Y = np.repeat(spec.Y0[:, None], R, axis=1)
    N = np.zeros((d, R), dtype=np.int64)
    U = np.empty((SLAB * step, R))  # a step's uniforms are `step` rows
    K = np.empty((SLAB, R), dtype=np.min_scalar_type(2 * d - 1))  # added rows
    acc = np.empty((d, R))
    accs, s = list(acc), acc[d - 1]
    k = np.zeros(R, dtype=np.intp)
    cols = np.arange(R)
    start = np.empty_like(Y)  # Y at the slab's start
    out = []
    n = 0
    for stop in plan:
        while n < stop:  # a slab ends at the next checkpoint at the latest
            m = min(SLAB, stop - n)
            src.take(m * step, out=U[:m * step].T)
            np.copyto(start, Y)
            for j in range(m):
                np.maximum(Y, 0.0, out=acc)
                for q in range(1, d):
                    np.add(accs[q], accs[q - 1], out=accs[q])
                # NaN-blind: no dead row missed; no replicate, no reduction
                if R and np.fmin.reduce(s) <= 0.0:
                    acc[:, s <= 0.0] = np.arange(1.0, d + 1.0)[:, None]
                if d > 1:
                    t = np.multiply(U[j * step], s, out=U[j * step])
                    np.greater_equal(t, accs[0], out=k)
                    for a in accs[1:d - 1]:
                        k += t >= a
                c = k if p is None else k + d * (U[j * step + 1 + k, cols] >= p)
                Y += DT.take(c, axis=1)  # colour q gains row c's entry q
                K[j] = c
            if not np.all(np.isfinite(Y)):
                bad = n + _first_non_finite(start, Y, DT, K[:m])
                raise DivergenceError(f"composition non-finite at step {bad}",
                                      first_bad_index=bad)
            if p is not None:  # a miss of type q added row d + q
                np.remainder(K[:m], d, out=K[:m])
            for q in range(d):
                N[q] += np.count_nonzero(K[:m] == q, axis=0)
            n += m
        out.append((n, Y.T.copy(), N.T.copy()))
    return out


def _first_non_finite(start, Y, DT, K):
    """1-based slab step at which a replicate first became non-finite: the
    replicates non-finite at the end re-add their added rows, columns K of
    DT, from the slab's `start`. A non-finite entry stays non-finite under
    any addition, so the others were finite throughout."""
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
    lambda_sec = max(g.value.real for g in profile.groups
                     if abs(g.value.real - 1.0) > 1e-9)
    nu = max(max(g.block_sizes) for g in profile.layer(lambda_sec))
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
    warnings: tuple = ()  # of the spectral profiles of H/alpha and Dh_star

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
        """The analyze.json payload, without its kind and provenance: the
        fields, with the regime flattened to its tag and scaling and
        Sigma_tilde named sigma_tilde."""
        payload = dict(vars(self), regime=self.regime.tag.lower(),
                       scaling=self.regime.scaling)
        payload["sigma_tilde"] = payload.pop("Sigma_tilde")
        return payload


def _slow_urn_descriptor(H, v, profile, lambda_sec, nu):
    """Slow-regime limit components: for each eigenvalue on the lambda_sec
    layer of profile (the spectral profile of H) with a block of order nu,
    direction l_a (I - 1^T v) from the left eigenvector l_a of H, kept when
    l_a solves its eigenproblem to 1e-8 relative."""
    d = H.shape[0]
    es = eigen_left_right(H)
    proj = np.eye(d) - np.outer(np.ones(d), v)
    layer_tol = profile.layer_tol
    comps = []
    seen = set()
    for g in profile.layer(lambda_sec):
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
            resid = np.linalg.norm(l_a @ H - es.values[i] * l_a)
            if resid > 1e-8 * np.linalg.norm(l_a):
                continue
            comps.append(SlowComponent(
                value=complex(g.value),
                frequency=float(g.value.imag),
                direction=_fix_phase(l_a.astype(complex) @ proj)))
    return SlowDescriptor(components=tuple(comps), rho=1.0 - lambda_sec, nu=nu)


def urn_asymptotics(spec, rho_tol=DEFAULT_RHO_TOL):
    """Full limit analysis of an urn: eigenstructure of the rule's mean H,
    SA embedding with the rule's V_q, regime (Dh_star's profile against 1/2
    within rho_tol), and the regime's limit object (covariance or slow
    components)."""
    H = spec.adding_rule.mean
    alpha, v, u, lambda_sec, nu, h_profile = _eigenstructure(H)
    if lambda_sec is not None and lambda_sec >= 1.0:
        raise AssumptionViolationError(
            f"second eigenvalue real part {lambda_sec:.6g} >= 1 violates the "
            "convergence hypothesis")

    Vq = spec.adding_rule.V_q
    Hn = H / alpha
    if Vq is not None and alpha != 1.0:
        Vq = [V / alpha ** 2 for V in Vq]
    Dh_star, Gamma = urn_embedding(Hn, v, Vq)

    profile = spectral_profile(Dh_star)
    regime = classify_regime(profile, rho_tol)
    Sigma, slow = _limit_object(
        profile, regime, Dh_star, Gamma,
        slow=lambda: _slow_urn_descriptor(Hn, v, h_profile, lambda_sec, nu))
    h_warnings = () if h_profile is None else h_profile.warnings
    warnings = ([f"H/alpha: {w}" for w in h_warnings]
                + [f"Dh_star: {w}" for w in profile.warnings])
    return UrnAsymptotics(alpha=alpha, v=v, u=u, lambda_sec=lambda_sec, nu=nu,
                          regime=regime, Dh_star=Dh_star, Gamma=Gamma,
                          Sigma_tilde=Sigma, slow_descriptor=slow,
                          warnings=tuple(warnings))
