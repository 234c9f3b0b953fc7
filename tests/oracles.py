"""Independent reference computations used to validate the package.

Everything here is deliberately implemented by a different method than the
code under test: plain Taylor series instead of scipy's expm, scipy
``quad_vec`` quadrature instead of the closed-form (Van Loan) exp-sandwich
integral, exact moment recursions instead of closed-form limits, a
generator over python ints instead of the vectorized one, and adaptive
RK4 on the urn mean flow instead of its closed-form clock steps. The
generic array loop of run_sa for one replicate, recording every increment,
is the reference for its plain-float loop, its lockstep rows and the
closed-form linear engine. The two stock urns the tests run (Friedman's and
the symmetric mixing urn) are built here too.
"""

import collections
import math

import numpy as np
import scipy.integrate
import scipy.linalg

from urnlab.errors import DivergenceError, InvalidArgumentError, RefinementError
from urnlab.ode import FlowState
from urnlab.rng import BLOCK, GAMMA, MASK64, REPL_SHIFT, _MIX1, _MIX2, BlockSource
from urnlab.sa import _checkpoint_plan, _raise_non_finite
from urnlab.urn import (BernoulliDiagonalRule, DeterministicRule, UrnSpec,
                        UrnState, urn_eigenstructure)


def taylor_expm(A, terms=30):
    """Matrix exponential by raw Taylor summation (good for ||A|| <= 2)."""
    A = np.asarray(A)
    out = np.eye(A.shape[0], dtype=A.dtype if np.iscomplexobj(A) else float)
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    return out


def quad_sandwich(B, G, upper, rtol=1e-11):
    """integral_0^upper exp(-B^T u) G exp(-B u) du via scipy quad_vec."""
    B = np.asarray(B, dtype=float)
    G = np.asarray(G, dtype=float)

    def f(u):
        E = taylor_scaled_expm(-B * u)
        return E.T @ G @ E

    val, _ = scipy.integrate.quad_vec(f, 0.0, upper, epsabs=1e-13, epsrel=rtol)
    return val


def taylor_scaled_expm(A):
    """Taylor expm with squaring so it stays accurate for larger norms."""
    A = np.asarray(A)
    s = 0
    nrm = np.linalg.norm(A, 1)
    while nrm > 0.5:
        nrm /= 2.0
        s += 1
    E = taylor_expm(A / (2 ** s), terms=25)
    for _ in range(s):
        E = E @ E
    return E


def covariance_recursion(A, Gamma, n, V0=None):
    """Exact covariance of theta_n for the linear recursion.

    Row-vector update theta_{k+1} = theta_k (I - A/(k+1)) + xi_{k+1}/(k+1)
    with Cov(xi) = Gamma and theta_0 deterministic (V0 = 0 by default).
    """
    A = np.asarray(A, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    d = A.shape[0]
    V = np.zeros((d, d)) if V0 is None else np.array(V0, dtype=float)
    eye = np.eye(d)
    for k in range(n):
        M = eye - A / (k + 1.0)
        V = M.T @ V @ M + Gamma / (k + 1.0) ** 2
    return V


def mean_recursion(A, r_fn, n, theta0):
    """Exact mean of theta_n: E theta_{k+1} = E theta_k (I - A/(k+1)) + r_{k+1}/(k+1)."""
    A = np.asarray(A, dtype=float)
    m = np.array(theta0, dtype=float)
    eye = np.eye(A.shape[0])
    for k in range(n):
        m = m @ (eye - A / (k + 1.0)) + np.asarray(r_fn(k + 1), dtype=float) / (k + 1.0)
    return m


def mean_closed_form_extended(a, remainder, x0, checkpoints, chunk=1 << 16):
    """[(n, E theta_n)] of the scalar recursion with drift a in [0, 1), by
    E theta_n = P_n (x0 + sum_k r_k/(k P_k)) in np.longdouble: running
    sums of log(1 - a/k) and of the weighted remainder, one chunk at a time.
    The remainder is evaluated in double, as the code under test sees it."""
    ld = np.longdouble
    logP, S, out = ld(0), ld(0), []
    marks = sorted(checkpoints)
    done = 0
    while marks and done < marks[-1]:
        jd = np.arange(done + 1.0, min(done + chunk, marks[-1]) + 1.0)
        j = jd.astype(ld)
        lp = np.cumsum(np.log1p(-ld(a) / j)) + logP
        r = np.zeros(j.size) if remainder is None else remainder(jd)
        s = np.cumsum(np.asarray(r, dtype=float).astype(ld) / (j * np.exp(lp))) + S
        out += [(k, np.exp(lp[k - done - 1]) * (ld(x0) + s[k - done - 1]))
                for k in marks if done < k <= done + j.size]
        logP, S, done = lp[-1], s[-1], done + j.size
    return out


def splitmix64(state):
    """One splitmix64 step on python ints: returns (new_state, output)."""
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    z = z ^ (z >> 31)
    return state, z


def stream_words(seed, stream):
    """Four xoshiro state words for (seed, stream), as python ints: the
    reference for urnlab.rng.stream_states."""
    s = (seed + 4 * stream * GAMMA) & MASK64
    words = []
    for _ in range(4):
        s, out = splitmix64(s)
        words.append(out)
    if not any(words):
        words[0] = 1
    return words


class ScalarRng:
    """Reference generator over python ints; one stream.

    Matches the vectorized path bitwise (uniforms exactly; gaussians via the
    same numpy-rounded log/sqrt).
    """

    def __init__(self, seed, stream=0):
        self.s = stream_words(seed, stream)
        self._cache = None

    def next_u64(self):
        s0, s1, s2, s3 = self.s
        x = (s0 + s3) & MASK64
        out = ((((x << 23) | (x >> 41)) & MASK64) + s0) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self.s = [s0, s1, s2, s3]
        return out

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def gaussian(self):
        if self._cache is not None:
            g, self._cache = self._cache, None
            return g
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                m = float(np.sqrt(-2.0 * float(np.log(np.float64(s))) / s))
                self._cache = v * m
                return u * m

    def gaussians(self, count):
        return [self.gaussian() for _ in range(count)]


def scalar_block_values(seed, replicate, count, kind="gaussian"):
    """Reference for BlockSource: one replicate's first `count` values."""
    vals = []
    block = 0
    while len(vals) < count:
        rng = ScalarRng(seed, (int(replicate) << REPL_SHIFT) | block)
        if kind == "gaussian":
            vals.extend(rng.gaussians(BLOCK))
        else:
            vals.extend(rng.uniform() for _ in range(BLOCK))
        block += 1
    return vals[:count]


RecordedPath = collections.namedtuple("RecordedPath", "checkpoints increments")


def reference_sa(spec, n_max, seed, checkpoint_plan, replicate=0):
    """Reference for run_sa: its generic array loop for every model, the
    dim-1 noise-free ones included, recording each step's (dM, r).

    Returns a RecordedPath of the checkpoint (n, theta_n) pairs and the
    increments; a non-finite state raises as run_sa does.
    """
    plan = set(_checkpoint_plan(checkpoint_plan, n_max))
    rng = None if spec.noise is None else BlockSource(
        seed, [replicate], "gaussian", n_max * spec.noise.values_per_step)
    theta = spec.theta0.copy()
    zero = np.zeros(spec.dim)
    cps = [(0, theta.copy())] if 0 in plan else []
    incs = []
    for k in range(n_max):
        np1 = k + 1.0
        hv = np.asarray(spec.drift(theta), dtype=float)
        dm = rng.take(spec.noise.values_per_step)[0] @ spec.noise.root if spec.noise else zero
        r = np.asarray(spec.remainder(k + 1), dtype=float) if spec.remainder else zero
        inc = dm + r
        step = theta - hv / np1 + inc / np1
        if not np.all(np.isfinite(step)):
            _raise_non_finite(k + 1, spec.drift, theta, inc)
        theta = step
        incs.append((dm.copy(), r.copy()))
        if k + 1 in plan:
            cps.append((k + 1, theta.copy()))
    return RecordedPath(tuple(cps), incs)


def replay(spec, traj):
    """Re-apply the recursion from theta_0 using the recorded increments of
    a RecordedPath.

    Returns True when every checkpoint is reproduced bit-exactly; raises
    otherwise. The arithmetic mirrors run_sa operation for operation.
    """
    if getattr(traj, "increments", None) is None:
        raise InvalidArgumentError("trajectory was recorded without increments")
    theta = spec.theta0.copy()
    by_n = dict((n, th) for n, th in traj.checkpoints)
    if 0 in by_n and not np.array_equal(by_n[0], theta):
        raise InvalidArgumentError("checkpoint 0 does not match theta0")
    for k, (dm, r) in enumerate(traj.increments):
        np1 = k + 1.0
        hv = np.asarray(spec.drift(theta), dtype=float)
        inc = dm + r
        theta = theta - hv / np1 + inc / np1
        want = by_n.get(k + 1)
        if want is not None and not np.array_equal(want, theta):
            raise InvalidArgumentError(f"replay diverged from checkpoint at n={k + 1}")
    return True


def friedman_urn(y0=(1.0, 1.0)):
    """Two-color urn that always adds one ball of the opposite color."""
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    return UrnSpec(d=2, Y0=np.asarray(y0, dtype=float),
                   adding_rule=DeterministicRule(H), label="friedman")


def mixing_urn(off_diag, y0=(1.0, 1.0)):
    """Symmetric two-color urn adding 1-a of the drawn color and a of the
    other; the spectral gap 2a sets the convergence regime (a = 0.25 is
    the critical boundary, smaller a is slower)."""
    a = float(off_diag)
    if not 0.0 < a < 1.0:
        raise InvalidArgumentError(f"off_diag must lie in (0, 1), got {a}")
    H = np.array([[1.0 - a, a], [a, 1.0 - a]])
    return UrnSpec(d=2, Y0=np.asarray(y0, dtype=float),
                   adding_rule=DeterministicRule(H), label=f"mixing-{a:g}")


def reference_urn(spec, n_max, seed, checkpoints, replicate=0):
    """Reference for run_urn: a numpy loop that adds a whole drawn row.

    Each step takes the type's uniform, then the rule's draw: a
    Bernoulli-diagonal rule takes d uniforms and puts `scale` where they
    fall below p; any other rule adds its mean. The positive mass is
    accumulated in colour order (a cumsum; a numpy sum goes pairwise from
    d = 8) and k counts the accumulated masses at or below u*s; with no
    positive mass the draw is uniform. Returns the checkpoint UrnStates.
    """
    plan = set(_checkpoint_plan(checkpoints, n_max))
    d, rule = spec.d, spec.adding_rule
    src = BlockSource(seed, [replicate], "uniform",
                      n_max * (1 + rule.values_per_step))
    Y = spec.Y0.copy()
    N = np.zeros(d, dtype=np.int64)
    out = [UrnState(Y.copy(), N.copy(), 0)] if 0 in plan else []
    for n in range(1, n_max + 1):
        u = float(src.take(1)[0, 0])
        acc = np.cumsum(np.maximum(Y, 0.0))
        s = float(acc[-1])
        if s <= 0.0:
            k = min(int(u * d), d - 1)
        else:
            k = min(int(np.searchsorted(acc, u * s, side="right")), d - 1)
        if isinstance(rule, BernoulliDiagonalRule):
            D = np.diag(np.where(src.take(d)[0] < rule.p, rule.scale, 0.0))
        else:
            D = rule.mean
        Y = Y + D[k]
        N[k] += 1
        if not np.all(np.isfinite(Y)):
            raise DivergenceError(f"composition non-finite at step {n}",
                                  first_bad_index=n)
        if n in plan:
            out.append(UrnState(Y.copy(), N.copy(), n))
    return out


def reference_gauss_paths(spec, seed, replicates):
    """Reference for simulate_paths: the per-interval loop on scalar
    kernels of its own. Interval k makes its covariance (one Van Loan
    exponential over a step of math.log(t_b / t_a) halved n times, then n
    doublings), its eigendecomposition, its transition
    expm(H np.log(t_a / t_b)) and its noise take, in grid order; an
    overflowing interval raises after the earlier intervals' noise is
    drawn."""
    repl = np.asarray(replicates, dtype=np.int64).reshape(-1)
    H, grid, Gamma = spec.H, spec.grid, spec.gamma()
    d = H.shape[0]
    B = H - 0.5 * np.eye(d)
    M = np.block([[B.T, Gamma], [np.zeros_like(B), -B]])
    nrm = float(np.linalg.norm(B, 1))
    out = np.empty((repl.size, grid.size, d))
    out[:, 0, :] = spec.G1
    src = BlockSource(seed, repl, "gaussian", (grid.size - 1) * d)
    G = np.tile(spec.G1, (repl.size, 1))
    for k in range(grid.size - 1):
        ta, tb = grid[k], grid[k + 1]
        upper = math.log(tb / ta)
        n = max(0, math.ceil(math.log2(upper) + math.log2(nrm))) if nrm > 0.0 else 0
        F = scipy.linalg.expm(math.ldexp(upper, -n) * M)
        E = F[d:, d:]
        C = E.T @ F[:d, d:]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                C = C + E.T @ C @ E
                E = E @ E
        if not np.all(np.isfinite(C)):
            raise RefinementError(
                f"increment covariance over grid interval ({ta:g}, {tb:g}) "
                "overflows; insert intermediate grid points")
        C = C / tb
        C = 0.5 * (C + C.T)
        w, V = np.linalg.eigh(C)
        keep = w > 1e-12 * max(w.max(), 0.0)
        G = G @ scipy.linalg.expm(H * np.log(ta / tb))
        if keep.any():
            G = G + src.take(int(keep.sum())) @ (V[:, keep] * np.sqrt(w[keep])).T
        out[:, k + 1, :] = G
    return out


class FlowError(Exception):
    """The reference integrator reached |theta| = 0 or left the domain
    {theta u^T > 0}."""


_MAX_STEP = 2.0  # RK4 stays stable for the unit-rate contraction


def flow_rhs(theta, H):
    """-theta (I - H/|theta|) with the l1 norm; singular at |theta| = 0."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    H = np.asarray(H, dtype=float)
    n1 = np.abs(theta).sum()
    if n1 == 0.0:
        raise FlowError("flow is singular at |theta| = 0")
    return -theta + (theta @ H) / n1


def _rk4_step(y, h, H, d):
    def g(y):
        out = np.empty_like(y)
        out[:d] = flow_rhs(y[:d], H)
        out[d] = 1.0 / np.abs(y[:d]).sum()
        return out

    k1 = g(y)
    k2 = g(y + 0.5 * h * k1)
    k3 = g(y + 0.5 * h * k2)
    k4 = g(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_flow(theta0, H, s_max, tol=1e-9):
    """Reference for urnlab.ode.integrate_flow: the flow and its clock f by
    adaptive RK4, one FlowState per accepted step up to s_max.

    Step doubling: a full step is compared against two half steps, the
    difference over 15 is the local error, and the locally extrapolated
    value is kept. Any start with theta_0 u^T > 0 is accepted, mixed signs
    included; leaving that domain raises FlowError.
    """
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    if theta0.shape != (d,):
        raise InvalidArgumentError(f"theta0 must have length {d}")
    s_max = float(s_max)
    if s_max <= 0.0 or tol <= 0.0:
        raise InvalidArgumentError("s_max and tol must be positive")
    _, _, u, _, _ = urn_eigenstructure(H)
    if theta0 @ u <= 0.0:
        raise InvalidArgumentError(
            f"start {theta0.tolist()} has theta u^T <= 0")

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
            states.append(FlowState(y[:d].copy(), float(s), float(y[d])))
            if states[-1].theta @ u <= 0.0:
                raise FlowError(
                    f"trajectory left the domain theta u^T > 0 at s = {s:g}")
        fac = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        h = min(h * min(5.0, max(0.2, fac)), _MAX_STEP)
    return states


def check_attraction(starts, H, s_max, eps, tol=1e-9):
    """True per start iff the reference flow lands within eps (sup norm) of
    the attractor alpha v. Starts outside {theta u^T > 0} are rejected."""
    H = np.asarray(H, dtype=float)
    alpha, v, _, _, _ = urn_eigenstructure(H)
    finals = [rk4_flow(t, H, s_max, tol)[-1].theta for t in starts]
    return [bool(np.abs(final - alpha * v).max() <= eps) for final in finals]
