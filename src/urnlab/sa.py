"""Simulation of the stochastic approximation recursion

    theta_{n+1} = theta_n - h(theta_n)/(n+1) + (dM_{n+1} + r_{n+1})/(n+1)

with pluggable drift h, martingale-difference noise, and deterministic
remainder schedule. The engines share the same frozen noise streams:

  run_sa                step loop, any drift, over replicate rows in lockstep;
                        a dim-1 model without noise or remainder whose drift
                        is linear or has a float entry point `scalar` runs
                        once in plain floats, bit for bit, tiled over rows;
  linear_paths          closed form for linear drift h = theta A,
                        theta_n = theta_0 Phi(0, n) + sum_k dM_k Phi(k, n)/k
                        with Phi(k, n) = prod_{j=k+1..n} (I - A/j): one
                        weighted sum of the noise per segment;
  exact_mean_recursion  noise-free mean iteration of a 1x1 drift
                        0 <= a < 1, a closed form over lanes of steps: the
                        horizon is cut into segments at every chunk end and
                        checkpoint, each an (L, B) array whose columns are
                        runs of L steps, so log P is prefix-summed by row
                        adds over B lanes and the weighted remainder sum is
                        never prefix-summed. Each segment is taken relative
                        to P at its start and the mean is carried over the
                        segments, so a checkpoint is a segment's end and a
                        long horizon's segments run in parts, one per usable
                        CPU, all but the first in forked workers (_sharded,
                        which also shards verify's replicates); n = 1e8
                        takes about 0.6 s on two CPUs, 1.0 s on one.

verify.simulate picks between run_sa and linear_paths. They agree on the
same (seed, replicate) to float-summation error.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np

from .asymptotics import _snap_block_form, spectral_profile
from .errors import (ChainBasisRequiredError, DivergenceError,
                     InvalidArgumentError, JordanIntegerEigenvalueError,
                     NumericalOverflowError)
from .linalg import _check_square, check_sym_psd, psd_factor
from .rng import BLOCK, BlockSource, replicate_indices


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
        return cls(psd_factor(check_sym_psd(gamma, "Gamma")[None])[0])

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
    """Problem statement for one recursion: dimension, drift (callable on
    a (d,) row), noise (a GaussianNoise whose root has d columns, or None),
    remainder schedule (callable n -> row, or None), start point, and the
    optional known equilibrium."""

    dim: int
    drift: object
    theta0: np.ndarray
    noise: object = None
    remainder: object = None
    theta_star: object = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "theta0", _as_row(self.theta0, self.dim, "theta0"))
        if self.noise is not None and not (isinstance(self.noise, GaussianNoise)
                                           and self.noise.root.shape[1] == self.dim):
            raise InvalidArgumentError("noise must be None or a GaussianNoise "
                                       f"whose root has {self.dim} columns")
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
    """Checkpointed path of one run: (n, theta_n) pairs."""

    checkpoints: tuple

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


@np.errstate(over="ignore", invalid="ignore")
def _raise_non_finite(k, h, prev, inc=0.0):
    """Raise the error for step k, whose update left the finite state prev
    non-finite. When h(prev) itself overflowed, the update is redone in
    long double: a state within the double range makes it a
    NumericalOverflowError, one beyond it a divergence. (Where long double
    is no wider than double, the redone update overflows too.)"""
    if not np.all(np.isfinite(h(prev))):
        wide = np.asarray(prev, dtype=np.longdouble)
        state = wide - np.asarray(h(wide), dtype=np.longdouble) / k + inc / k
        if np.all(np.abs(state) <= np.finfo(float).max):
            raise NumericalOverflowError(
                f"drift h(theta) overflowed in step {k}, though the state "
                "it leads to is finite", step=k)
    raise DivergenceError(f"state became non-finite at step {k}",
                          first_bad_index=k)


def _float_path(h, th, n_max, plan):
    """run_sa's update in plain floats: the same two IEEE operations."""
    inf, want, th0 = math.inf, set(plan), th
    cps = [(0, np.array([th]))] if 0 in want else []
    for k in range(1, n_max + 1):
        th = th - h(th) / k  # k converts to the double k exactly
        if not -inf < th < inf:  # replayed to step k - 1 for the state there
            prev = _float_path(h, th0, k - 1, [k - 1])[0][1][0]
            _raise_non_finite(k, h, float(prev))
        if k in want:
            cps.append((k, np.array([th])))
    return tuple(cps)


def _step_rows(spec, n_max, seed, plan, repl):
    """run_sa on the rows of repl: (len(plan), R, d) states, NaN on a
    failed row, and {row: its error}."""
    R, noise = repl.size, spec.noise
    at = {k: i for i, k in enumerate(plan)}  # a checkpoint's index in out
    out, failed = np.full((len(plan), R, spec.dim), np.nan), {}
    h = _float_drift(spec)
    if h is not None:  # one plain-float path, tiled over the rows
        try:
            out[:] = np.reshape([x for _, x in _float_path(
                h, float(spec.theta0[0]), n_max, plan)], (-1, 1, 1))
        except DivergenceError as exc:
            failed = dict.fromkeys(range(R), exc)
        return out, failed
    drift = ((lambda th: _rowwise(th, spec.drift.matrix))
             if isinstance(spec.drift, LinearDrift) else
             lambda th: np.reshape([spec.drift(x) for x in th], (len(th), -1)))
    rng = None if noise is None else BlockSource(
        seed, repl, "gaussian", n_max * noise.values_per_step)
    theta, zero = np.tile(spec.theta0, (R, 1)), np.zeros(spec.dim)
    live = np.arange(R)  # the rows still stepping
    rows = slice(None)  # those of the noise: every row, then the live ones
    if 0 in at:
        out[0] = theta
    for k in range(1, n_max + 1):  # k converts to the double k exactly
        if not live.size:
            break
        hv = drift(theta)
        dm = zero if noise is None else _rowwise(
            rng.take(noise.values_per_step), noise.root)[rows]
        r = np.asarray(spec.remainder(k), dtype=float) if spec.remainder else zero
        inc = dm + r
        step = theta - hv / k + inc / k
        if not np.isfinite(step).all():
            keep = np.isfinite(step).all(axis=1)
            for i in np.flatnonzero(~keep):
                try:
                    _raise_non_finite(k, spec.drift, theta[i],
                                      np.broadcast_to(inc, step.shape)[i])
                except (DivergenceError, NumericalOverflowError) as exc:
                    failed[int(live[i])] = exc
            step, live = step[keep], live[keep]
            rows = live
        theta = step
        if k in at:
            out[at[k], live] = theta
    out[:, list(failed)] = np.nan
    return out, failed


def run_sa(spec, n_max, seed, checkpoint_plan, replicate=0):
    """Iterate the recursion step by step, for one replicate index or, in
    lockstep, for a sequence of them: one noise take and one remainder call
    per step, the drift row by row, so no row depends on its batch. One
    index returns its Trajectory, or raises a DivergenceError naming the
    first step whose state is non-finite, or a NumericalOverflowError naming
    it when only the drift overflowed there and the state it leads to is
    finite. A sequence returns ([(n, (R, d) array)], dropped): a diverged
    row is NaN throughout and listed in dropped, and the lowest row's
    NumericalOverflowError is raised."""
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    plan = _checkpoint_plan(checkpoint_plan, n_max)
    single = np.ndim(replicate) == 0
    repl = replicate_indices([replicate] if single else replicate)
    out, failed = _step_rows(spec, n_max, seed, plan, repl)
    for _, exc in sorted(failed.items()):
        if single or isinstance(exc, NumericalOverflowError):
            raise exc
    if single:
        return Trajectory(tuple((k, x[0]) for k, x in zip(plan, out)))
    return list(zip(plan, out)), [
        {"replicate": int(repl[i]), "first_bad_index": exc.first_bad_index}
        for i, exc in sorted(failed.items())]


# ==== forked parts ====

def worker_count(workers, replicates):
    """Processes a batch runs on: the requested count, capped at the
    replicates (or a horizon's segments) and at the CPUs this process may
    run on."""
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    return min(int(workers), int(replicates), len(os.sched_getaffinity(0)))


# the shard runner of a forked worker, set in that worker only (by _adopt)
_ADOPTED = None


def _adopt(run):
    global _ADOPTED
    _ADOPTED = run


def _run_adopted(shard):
    return _ADOPTED(shard)


def _sharded(run, R, workers):
    """[run(shard)] over contiguous shards of the replicates (or a horizon's
    segments) 0..R-1, one shard per worker: the first runs in this process,
    the others in forked worker processes that are gone when this returns.
    run(shard) depends on its shard's indices alone, so no output depends
    on `workers`. A shard's exception is raised here, the lowest shard's
    first. Forking is safe only from a process that runs no other thread."""
    shards = np.array_split(np.arange(R), worker_count(workers, R))
    if len(shards) == 1:
        return [run(shards[0])]
    # imported here: the one place that parallelises, and no start-up cost
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, named: each worker inherits `run`, closures and all, unpickled.
    # A worker that dies fails its future instead of leaving this call
    # waiting; leaving the block joins every worker.
    with ProcessPoolExecutor(len(shards) - 1,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(run,)) as pool:
        pending = [pool.submit(_run_adopted, s) for s in shards[1:]]
        return [run(shards[0])] + [f.result() for f in pending]


# ==== deterministic mean recursion ====

# lanes of the scalar closed form (see exact_mean_recursion): _LANE - 1 row
# adds over _LANES values replace a cumsum, which numpy runs one value at a
# time (4-6 ns per value, flat or along an axis). On a core with a 2 MiB L2
# cache, (16, 2048), (32, 1024) and (64, 512) tie at about 15 ns per step to
# n = 2e7; (32, 2048) and (64, 1024) leave the cache (23-25 ns)
_LANE = 32
_LANES = 1024
# a horizon with a remainder runs its segments in parts (see
# _mean_recursion_scalar) from this many steps on. The process pool's first
# round trip in a process costs 20-30 ms: there, on two CPUs, two parts
# lose at 2^21 steps (40-47 vs 19-27 ms in one), tie at 2^22 (40-58 vs
# 36-52 ms) and tie or win at 2^23 (61-87 vs 74-108 ms)
_SPLIT_STEPS = 1 << 22


def _log_p_lanes(a, jb, cb):
    """cb[i, b] = log P over lane b's steps up to its i-th, from the step
    indices jb; returns the cumsum of the lane totals."""
    np.divide(-a, jb, out=cb)
    np.log1p(cb, out=cb)
    steps = list(cb)  # row i: the i-th step of every lane
    for prev, row in zip(steps, steps[1:]):
        row += prev
    return np.cumsum(cb[-1])


@np.errstate(over="ignore", invalid="ignore")
def _mean_segments(a, remainder, segments, width):
    """(P_hi/P_lo, sum_{lo<k<=hi} (r_k/k) P_hi/P_k) for each segment (lo, hi]
    of the scalar closed form, one row each (a worker sends them back as
    one buffer). A segment is whole lanes or one short lane, of at most
    `width` steps."""
    out = np.empty((len(segments), 2))
    # base[i, b] = b*_LANE + i, so a segment's indices are one scalar add
    # (0.25 ns per step; adding the row and lane offsets by broadcast, 1.3)
    base = np.ascontiguousarray(np.arange(float(width)).reshape(-1, _LANE).T)
    j, c = np.empty(width), np.empty(width)
    for s, (lo, hi) in enumerate(segments):
        rows = min(hi - lo, _LANE)
        jb, cb = j[:hi - lo].reshape(rows, -1), c[:hi - lo].reshape(rows, -1)
        # jb[i, b] = lo + b*_LANE + i + 1: the segment's step indices, exact
        np.add(base[:rows, :jb.shape[1]], lo + 1.0, out=jb)
        ends = _log_p_lanes(a, jb, cb)  # log P / P_lo at lane ends
        total = 0.0
        if remainder is not None:
            # cb becomes r_k / k times P at the lane's start over P_k
            np.exp(cb, out=cb)
            cb *= jb
            np.divide(np.asarray(remainder(jb), dtype=float), cb, out=cb)
            start = np.concatenate(([0.0], ends[:-1]))  # log P at lane starts
            total = float((cb.sum(axis=0) * np.exp(ends[-1] - start)).sum())
        out[s] = math.exp(ends[-1]), total
    return out


def _replay(a, remainder, x, lo, hi):
    """Steps lo+1..hi of the mean recursion x <- x (1 - a/k) + r_k/k from x,
    one at a time, to x at hi; a DivergenceError names the first step where
    x is non-finite."""
    r = np.asarray(remainder(np.arange(lo + 1.0, hi + 1.0)), dtype=float)
    for k, rk in enumerate(r.tolist(), lo + 1):
        x = x * (1.0 - a / k) + rk / k
        if not math.isfinite(x):
            raise DivergenceError(f"mean became non-finite at step {k}",
                                  first_bad_index=k)
    return x


def _mean_recursion_scalar(a, remainder, x0, n_max, plan, workers):
    """Closed form E theta_n = P_n x0 + P_n sum_k r_k/(k P_k) in lanes.

    The horizon is cut into segments at every chunk end and checkpoint,
    and each piece into its whole lanes and one short lane. Per segment,
    log P_k relative to its start is a prefix sum down each lane plus the
    cumsum of the lane totals before it. The weighted sum is never
    prefix-summed: each lane's terms are summed relative to P at the lane's
    start, and the lane sums are scaled to P at the segment's end. So the
    remainder sees each index 1..n_max once and none beyond. Valid for
    0 <= a < 1 so every factor (1 - a/k) stays positive.

    No segment depends on another, so the segments run in contiguous parts
    (_sharded, as verify's replicates), the first here and the others in
    forked workers, and the mean itself is carried over the segments here,
    in order: m <- m P_hi/P_lo + sum. A checkpoint is a segment's end, and
    its value the mean carried there. A segment whose mean is non-finite is
    replayed step by step from the mean carried into it; the replay's value
    stands, or it raises at its first non-finite step.
    """
    width = _LANE * min(_LANES, -(-n_max // _LANE))  # the steps of a chunk
    cuts = sorted({*range(width, n_max, width), *plan, n_max} - {0})
    segments = []
    for lo, hi in zip([0] + cuts, cuts):
        mid = hi - (hi - lo) % _LANE
        segments += [(p, q) for p, q in ((lo, mid), (mid, hi)) if p < q]
    if remainder is None or n_max < _SPLIT_STEPS:
        workers = 1

    def part(shard):
        return _mean_segments(a, remainder,
                              segments[shard[0]:shard[-1] + 1], width)

    want = set(plan)
    out = [(0, np.array([x0]))] if 0 in want else []
    m = x0  # the mean at step lo of the next segment
    carries = np.concatenate(_sharded(part, len(segments), workers)).tolist()
    for (lo, hi), (ratio, total) in zip(segments, carries):
        end = m * ratio + total
        m = end if math.isfinite(end) else _replay(a, remainder, m, lo, hi)
        if hi in want:
            out.append((hi, np.array([m])))
    return out


def exact_mean_recursion(A, remainder, theta0, n_max, checkpoints=None,
                         workers=2):
    """Mean path of the scalar linear recursion with drift A = [[a]],
    0 <= a < 1: E theta_{n+1} = E theta_n (1 - a/(n+1)) + r_{n+1}/(n+1).

    Returns [(n, E theta_n)] at the requested checkpoints (default: n_max
    only); any other drift raises InvalidArgumentError. It is the closed
    form E theta_n = P_n (theta0 + sum_k r_k/(k P_k)), P_n = prod (1 - a/k),
    evaluated in lanes: the horizon is cut at every checkpoint and every
    chunk of _LANE * _LANES steps, and each segment is held as a (steps,
    lanes) array whose column b is the run of steps lo + b*_LANE + 1 ..
    lo + (b + 1)*_LANE, then one short lane, small enough to stay in cache,
    so horizons up to 1e8 take about a second and memory does not grow
    with n_max. The remainder schedule must be a pure elementwise function
    of an index array of any shape and order: it is called on each
    segment's float array of step indices and sees each index 1..n_max
    exactly once and none beyond (a segment whose mean turns non-finite is
    evaluated once more, see below). From _SPLIT_STEPS steps on, with a
    remainder, the segments run in as many contiguous parts as `workers` (a
    cap, as in verify.simulate) and the usable CPUs allow, all but the
    first in forked worker processes, so the schedule may run there: a side
    effect does not reach this process, and an exception it raises is
    raised here. Call it with workers=1 from a process that runs other
    threads, which a fork would not copy. The values are the same bit for
    bit for any `workers`. A segment whose mean comes out non-finite is
    replayed with the step recursion from the mean carried into it: a
    finite mean is returned, and a non-finite one raises DivergenceError at
    the step where the step recursion first becomes non-finite.
    """
    A = _check_square(A, "A").astype(float)
    if A.shape != (1, 1) or not 0.0 <= A[0, 0] < 1.0:
        got = f"a = {A[0, 0]:g}" if A.shape == (1, 1) else f"a {len(A)}x{len(A)} drift"
        raise InvalidArgumentError(
            f"exact_mean_recursion takes a 1x1 drift [[a]] with 0 <= a < 1, got {got}")
    x = _as_row(theta0, 1, "theta0")
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    plan = _checkpoint_plan(checkpoints if checkpoints is not None else [n_max], n_max)
    return _mean_recursion_scalar(float(A[0, 0]), remainder, float(x[0]),
                                  n_max, plan, workers)


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
    repl = replicate_indices(replicates)
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
