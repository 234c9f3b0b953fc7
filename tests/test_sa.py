import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab.errors import (ChainBasisRequiredError, DivergenceError,
                           InvalidArgumentError, JordanIntegerEigenvalueError,
                           NumericalOverflowError)
from urnlab.golden import InverseSqrtLogRemainder, remainder_drive_spec
from urnlab import sa
from urnlab.rng import BLOCK
from urnlab.sa import (
    GaussianNoise,
    LinearDrift,
    SAProcessSpec,
    Trajectory,
    _LANE,
    _LANES,
    _SPLIT_STEPS,
    _block_weights,
    exact_mean_recursion,
    linear_paths,
    run_sa,
)
from urnlab.verify import simulate
from oracles import (mean_closed_form_extended, mean_recursion, reference_sa,
                     replay)


def linear_drift(A):
    A = np.asarray(A, dtype=float)
    def h(theta):
        return theta @ A
    return h


def test_one_step_halving():
    spec = SAProcessSpec(dim=1, drift=lambda th: th / 2.0, theta0=[1.0])
    traj = run_sa(spec, 1, seed=0, checkpoint_plan=[1])
    n, th = traj.checkpoints[0]
    assert n == 1 and th[0] == 0.5


def test_spec_validates_equilibrium():
    SAProcessSpec(dim=1, drift=lambda th: th - 2.0, theta0=[0.0], theta_star=[2.0])
    with pytest.raises(InvalidArgumentError):
        SAProcessSpec(dim=1, drift=lambda th: th - 2.0, theta0=[0.0], theta_star=[1.0])


def test_checkpoint_plan_validation():
    spec = SAProcessSpec(dim=1, drift=lambda th: th, theta0=[1.0])
    with pytest.raises(InvalidArgumentError):
        run_sa(spec, 10, seed=0, checkpoint_plan=[11])
    with pytest.raises(InvalidArgumentError):
        Trajectory(checkpoints=((2, np.zeros(1)), (2, np.zeros(1))))


def test_linear_decay_monotone():
    rng = np.random.default_rng(0)
    A = 0.2 * rng.standard_normal((2, 2)) + 0.8 * np.eye(2)
    spec = SAProcessSpec(dim=2, drift=linear_drift(A), theta0=[1.0, -0.5])
    start = int(np.ceil(np.linalg.norm(A))) + 1
    traj = run_sa(spec, 400, seed=0, checkpoint_plan=list(range(start, 400)))
    norms = [np.linalg.norm(th) for _, th in traj.checkpoints]
    assert norms[-1] < 1e-2
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_divergence_reports_first_bad_index():
    spec = SAProcessSpec(dim=1, drift=lambda th: -th * 1e160, theta0=[1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as exc:
            run_sa(spec, 10, seed=0, checkpoint_plan=[])
    assert exc.value.first_bad_index == 2  # step 1 reaches ~1e160, step 2 overflows


def test_run_sa_deterministic():
    spec = SAProcessSpec(dim=2, drift=linear_drift(np.eye(2)), theta0=[1.0, 1.0],
                         noise=GaussianNoise(np.eye(2)))
    a = run_sa(spec, 300, seed=9, checkpoint_plan=[100, 300])
    b = run_sa(spec, 300, seed=9, checkpoint_plan=[100, 300])
    for (_, x), (_, y) in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(x, y)


def test_replay_reproduces_bit_exact():
    A = np.array([[0.5, -1.0], [0.0, 0.5]])
    spec = SAProcessSpec(dim=2, drift=linear_drift(A), theta0=[0.0, 0.0],
                         noise=GaussianNoise([[1.0, 0.0]]),
                         remainder=lambda n: np.array([0.1 / n, 0.0]))
    traj = reference_sa(spec, 250, seed=4, checkpoint_plan=[0, 1, 17, 250])
    # the recording reference steps exactly as run_sa does
    assert all(n == m and np.array_equal(x, y) for (n, x), (m, y) in zip(
        traj.checkpoints, run_sa(spec, 250, 4, [0, 1, 17, 250]).checkpoints))
    assert replay(spec, traj) is True
    bad = traj._replace(checkpoints=traj.checkpoints[:-1] + (
        (250, traj.checkpoints[-1][1] + 1e-12),))
    with pytest.raises(InvalidArgumentError):
        replay(spec, bad)


def test_replay_requires_increments():
    spec = SAProcessSpec(dim=1, drift=lambda th: th, theta0=[1.0])
    traj = run_sa(spec, 5, seed=0, checkpoint_plan=[5])
    with pytest.raises(InvalidArgumentError):
        replay(spec, traj)


def test_gaussian_noise_from_cov_rank_deficient():
    gn = GaussianNoise.from_cov(np.diag([1.0, 0.0]))
    assert gn.values_per_step == 1
    assert np.allclose(gn.gamma, np.diag([1.0, 0.0]), atol=1e-14)
    z = GaussianNoise.from_cov(np.zeros((2, 2)))
    assert z.values_per_step == 0


def test_spec_rejects_noise_without_its_draw():
    # run_sa opens the replicates' streams with the noise root's exact
    # draw, so the noise is a GaussianNoise and not an arbitrary sampler
    with pytest.raises(InvalidArgumentError, match="None or a GaussianNoise"):
        SAProcessSpec(dim=1, drift=LinearDrift([[1.0]]), theta0=[1.0],
                      noise=lambda rng, k, theta: rng.take(1)[0])


def test_spec_rejects_a_noise_root_of_another_dimension():
    # a one-column root on two coordinates would put one noise value on
    # both of them in run_sa, while the linear engine refused it
    with pytest.raises(InvalidArgumentError, match="root has 2 columns"):
        SAProcessSpec(dim=2, drift=LinearDrift(np.eye(2)), theta0=[0.0, 0.0],
                      noise=GaussianNoise([[1.0]]))


@pytest.mark.parametrize("A", [[[-400.0]], [[1.0]], np.diag([-400.0, 1.0]),
                               0.5 * np.eye(3)],
                         ids=["negative", "one", "dim-2", "dim-3"])
def test_exact_mean_refuses_drifts_outside_its_domain(A):
    # the closed form needs every factor 1 - a/k positive; other drifts go
    # through run_sa or linear_paths
    with pytest.raises(InvalidArgumentError,
                       match=r"1x1 drift \[\[a\]\] with 0 <= a < 1"):
        exact_mean_recursion(A, None, np.ones(len(A)), 100)


@pytest.mark.parametrize("A", [[[-400.0]], np.diag([-400.0, 1.0])])
@pytest.mark.parametrize("simulated", [False, True])
def test_drift_overflow_at_a_finite_state_is_not_a_divergence(A, simulated):
    # h = -400 theta passes the largest double at step 672, twelve steps
    # before theta = prod_{j <= k} (1 + 400/j) does (684): the float loop
    # (dim 1) and the array loop both name step 672 as a numerical
    # overflow, and so does simulate, whose linear engine gives non-finite
    # output and falls back to run_sa. Where long double is no wider than double it still reads
    # as a divergence, which simulate records as a dropped replicate
    wide = np.finfo(np.longdouble).max > np.finfo(float).max
    spec = SAProcessSpec(dim=len(A), drift=LinearDrift(A), theta0=np.ones(len(A)))
    if simulated and not wide:
        with np.errstate(over="ignore", invalid="ignore"):
            _, record = simulate(spec, 2000, 0, [100, 2000], 1)
        assert record["dropped"] == [{"replicate": 0, "first_bad_index": 672}]
        return
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalOverflowError if wide else DivergenceError) as exc:
        if simulated:
            simulate(spec, 2000, 0, [100, 2000], 1)
        else:
            run_sa(spec, 2000, seed=0, checkpoint_plan=[100, 2000])
    assert getattr(exc.value, "step" if wide else "first_bad_index") == 672
    # simulate drops a replicate for a DivergenceError only
    assert not issubclass(NumericalOverflowError, DivergenceError)


def test_exact_mean_zero_remainder():
    out = exact_mean_recursion([[0.5]], None, [0.0], 50)
    assert [(n, x.tolist()) for n, x in out] == [(50, [0.0])]


def test_exact_mean_scalar_fast_path_matches_loop():
    # same computation through the chunked closed form and the generic loop
    r = lambda n: 1.0 / np.sqrt(n)
    fast = exact_mean_recursion([[0.5]], r, [0.3], 20000, checkpoints=[7, 1000, 20000])
    slow = mean_recursion(np.array([[0.5]]), lambda n: [r(n)], 20000, [0.3])
    assert fast[-1][1][0] == pytest.approx(slow[0], rel=1e-11)
    # intermediate checkpoint against a direct loop
    slow7 = mean_recursion(np.array([[0.5]]), lambda n: [r(n)], 7, [0.3])
    assert fast[0][1][0] == pytest.approx(slow7[0], rel=1e-12)


CHUNK = _LANE * _LANES
REMAINDERS = {"none": None, "inv-sqrt": lambda k: 1.0 / np.sqrt(k),
              "inv-sqrt-log": InverseSqrtLogRemainder()}


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.0, 1.0, exclude_max=True), x0=st.floats(0.0, 2.0),
       kind=st.sampled_from(sorted(REMAINDERS)),
       n=st.one_of(st.integers(1, _LANE + 1),
                   st.integers(CHUNK - _LANE - 3, 3 * CHUNK + _LANE + 5)),
       inner=st.floats(0.0, 1.0))
def test_exact_mean_scalar_matches_float_loop_property(a, x0, kind, n, inner):
    # n straddles lane and chunk ends, or sits below one lane; checkpoints
    # sit on both sides of each lane and chunk end, of the last whole lane's
    # end, inside the short last lane and at one drawn step
    remainder = REMAINDERS[kind]
    ends = (0, _LANE, 2 * _LANE, CHUNK - _LANE, CHUNK, 2 * CHUNK, 3 * CHUNK,
            n // _LANE * _LANE)
    plan = sorted({k for e in ends for k in (e - 1, e, e + 1) if 0 <= k <= n}
                  | {n - 1, n, int(inner * n)})
    got = exact_mean_recursion([[a]], remainder, [x0], n, checkpoints=plan)
    r = (np.zeros(n) if remainder is None
         else remainder(np.arange(1.0, n + 1.0))).tolist()
    x, want, marks = x0, [x0] if plan[0] == 0 else [], set(plan)
    for k in range(1, n + 1):
        x = x * (1.0 - a / k) + r[k - 1] / k
        if k in marks:
            want.append(x)
    assert [k for k, _ in got] == plan
    # below 2^-1022 the loop rounds to whole subnormal ulps (2^-1074) at each
    # step, so its own error reaches n of them; the closed form rounds once
    np.testing.assert_allclose([v[0] for _, v in got], want, rtol=1e-10,
                               atol=n * 2.0 ** -1074)


class RecordingRemainder:
    """1/sqrt(k), keeping every index it is asked for."""

    def __init__(self):
        self.seen = []

    def __call__(self, k):
        self.seen.append(np.array(k, dtype=float).ravel())
        return 1.0 / np.sqrt(k)


def _inner_checkpoints(n):
    """Checkpoints that cut the lanes of a horizon of n steps: strictly
    inside a lane (two in one lane), at a lane end inside a chunk, and on
    both sides of each chunk end, with n itself."""
    marks = set()
    for e in range(0, n // CHUNK + 1):
        c = e * CHUNK
        marks |= {c - 1, c, c + 1, c + 7, c + 8, c + 5 * _LANE}
    return sorted({k for k in marks if 0 < k <= n} | {n})


@pytest.mark.parametrize("n", [1, _LANE - 1, _LANE, _LANE + 1, CHUNK - 1,
                               CHUNK + 3 * _LANE + 7, 2 * CHUNK])
def test_exact_mean_scalar_evaluates_each_index_once(n):
    # the checkpoints set the lane layout: each cut starts new lanes
    for plan in ([n], _inner_checkpoints(n)):
        rec = RecordingRemainder()
        got = exact_mean_recursion([[0.5]], rec, [0.0], n, checkpoints=plan)
        assert [k for k, _ in got] == plan
        seen = np.concatenate(rec.seen)
        assert seen.size == n
        assert np.array_equal(np.sort(seen), np.arange(1.0, n + 1.0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
def test_exact_mean_scalar_matches_extended_precision():
    # the critical drift of remainder_drive_spec, started off zero
    a, x0, remainder = 0.5, 0.25, InverseSqrtLogRemainder()
    decades = [10 ** k for k in range(2, 7)]
    got = exact_mean_recursion([[a]], remainder, [x0], decades[-1],
                               checkpoints=decades)
    want = mean_closed_form_extended(a, remainder, x0, decades)
    assert [k for k, _ in got] == [k for k, _ in want]
    rel = [abs((np.longdouble(v[0]) - w) / w) for (_, v), (_, w) in zip(got, want)]
    assert max(rel) <= 1e-14, rel


def test_exact_mean_scalar_memory_does_not_grow_with_the_horizon(monkeypatch):
    # the last horizon runs in two parts, even on a one-CPU box
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = remainder_drive_spec("inv-sqrt-log")
    for n in (10 ** 6, 4 * 10 ** 6, _SPLIT_STEPS):
        tracemalloc.start()
        try:
            exact_mean_recursion(spec.drift.matrix, spec.remainder, spec.theta0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, (n, peak)


# ==== the scalar mean recursion in parts ====

def _use_cpus(monkeypatch, count):
    # the part count is capped at the usable CPUs; fake any count on any box
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _chunks(n):
    return -(-n // CHUNK)


def _worker_start(n):
    """The first step of the second of two parts of a horizon of n steps
    checkpointed at n alone, whose segments are its chunks."""
    return int(np.array_split(np.arange(_chunks(n)), 2)[1][0]) * CHUNK + 1


# (usable CPUs, workers) -> parts of a horizon with a remainder
PART_COUNTS = {(1, 2): 1, (2, 2): 2, (3, 2): 2, (3, 1): 1, (3, 3): 3}


@pytest.mark.parametrize("kind", sorted(REMAINDERS))
@pytest.mark.parametrize("end", ["inside-a-lane", "chunk-end",
                                 "one-past-a-chunk-end"])
def test_exact_mean_scalar_is_the_same_at_any_part_count(kind, end,
                                                         monkeypatch):
    n = _SPLIT_STEPS + {"inside-a-lane": 17, "chunk-end": CHUNK,
                        "one-past-a-chunk-end": 1}[end]
    remainder = REMAINDERS[kind]
    # both sides of every chunk end, the part boundaries among them, and
    # cuts inside lanes and chunks, which move the segments between parts
    plan = [0] + _inner_checkpoints(n)
    sharded, counts = sa._sharded, []

    def counted(run, R, workers):
        parts = sharded(run, R, workers)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(sa, "_sharded", counted)
    runs = []
    for (cpus, workers), parts in PART_COUNTS.items():
        _use_cpus(monkeypatch, cpus)
        runs.append(exact_mean_recursion([[0.5]], remainder, [0.25], n,
                                         checkpoints=plan, workers=workers))
        assert counts.pop() == (1 if remainder is None else parts)
        assert multiprocessing.active_children() == []
    want = runs[0]
    assert [k for k, _ in want] == plan
    for got in runs[1:]:
        assert [k for k, _ in got] == plan
        for (_, x), (_, y) in zip(want, got):
            assert np.array_equal(x, y)


def test_exact_mean_scalar_one_worker_never_forks(monkeypatch):
    _use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    exact_mean_recursion([[0.5]], REMAINDERS["inv-sqrt"], [0.0], _SPLIT_STEPS,
                         workers=1)


@pytest.mark.parametrize("workers", [0, -3])
def test_exact_mean_refuses_workers_below_one(workers):
    # at a horizon too short to split
    with pytest.raises(InvalidArgumentError, match="workers"):
        exact_mean_recursion([[0.5]], None, [0.0], 1000, workers=workers)


class FileRecordingRemainder:
    """1/sqrt(k), appending each contiguous block of indices it is asked
    for to a file as (process, first index, count)."""

    def __init__(self, path):
        self.path = path

    def __call__(self, k):
        flat = np.sort(np.ravel(k))
        if not np.array_equal(flat, np.arange(flat[0], flat[-1] + 1.0)):
            raise ValueError("index block is not contiguous")
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()} {int(flat[0])} {flat.size}\n")
        return 1.0 / np.sqrt(k)


def test_exact_mean_scalar_parts_evaluate_each_index_once(tmp_path,
                                                          monkeypatch):
    _use_cpus(monkeypatch, 2)
    path = tmp_path / "indices.txt"
    n = _SPLIT_STEPS + 17
    exact_mean_recursion([[0.5]], FileRecordingRemainder(path), [0.0], n)
    rows = [tuple(map(int, line.split()))
            for line in path.read_text().splitlines()]
    pids = {pid for pid, _, _ in rows}
    assert len(pids) == 2 and os.getpid() in pids  # this process and a worker
    stop = 0
    for _, first, count in sorted(rows, key=lambda row: row[1]):
        assert first == stop + 1
        stop += count
    assert stop == n


def _spiked(bad, value):
    """1/sqrt(k) with r_bad = value."""
    return lambda k: np.where(k == bad, value, 1.0 / np.sqrt(k))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_exact_mean_scalar_raises_at_the_first_non_finite_step(value,
                                                               monkeypatch):
    _use_cpus(monkeypatch, 2)
    split = _SPLIT_STEPS + 5
    for bad, n, plan in ((50, 100, [49, 50, 100]),
                         (CHUNK, 2 * CHUNK, [CHUNK - 1, 2 * CHUNK]),
                         (_worker_start(split) + 12344, split, [split])):
        with pytest.raises(DivergenceError) as exc:
            exact_mean_recursion([[0.5]], _spiked(bad, value), [0.0], n,
                                 checkpoints=plan)
        assert exc.value.first_bad_index == bad
        assert multiprocessing.active_children() == []


def _step_loop(a, r, n, plan):
    """The plain float loop x <- x (1 - a/k) + r/k from 0 with a constant r:
    its values at plan, and its first non-finite step (None if none)."""
    x, want, out = 0.0, set(plan), []
    for k in range(1, n + 1):
        x = x * (1.0 - a / k) + r / k
        if not math.isfinite(x):
            return out, k
        if k in want:
            out.append(x)
    return out, None


def _constant(r):
    return lambda k: np.full(np.shape(k), r)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_exact_mean_scalar_carries_a_mean_whose_weighted_sum_overflows(
        cpus, monkeypatch):
    # the weighted sum S_n = (r/a)(1/P_n - 1) passes the largest double at
    # step 2629, in the first part, while the mean (r/a)(1 - P_n) stays
    # below 2e306 to the horizon's end, in the last part
    _use_cpus(monkeypatch, cpus)
    n = _SPLIT_STEPS + 5
    plan = [2628, 2629, _worker_start(n) + 54321, n]
    want, bad = _step_loop(0.5, 1e306, n, plan)
    assert bad is None and 1.99e306 < want[-1] < 2e306
    got = exact_mean_recursion([[0.5]], _constant(1e306), [0.0], n,
                               checkpoints=plan, workers=3)
    assert [k for k, _ in got] == plan
    np.testing.assert_allclose([x[0] for _, x in got], want, rtol=1e-10)
    assert multiprocessing.active_children() == []


def test_exact_mean_scalar_replays_a_block_whose_terms_overflow():
    # 1 - a/1 = 0.001: r_1/(1 P_1) = 1e309 overflows at step 1, while the
    # step loop ends at 1.001e306
    plan = [1, 2, 1000]
    want, bad = _step_loop(0.999, 1e306, 1000, plan)
    assert bad is None and want[-1] == pytest.approx(1.001e306, rel=1e-4)
    got = exact_mean_recursion([[0.999]], _constant(1e306), [0.0], 1000,
                               checkpoints=plan)
    np.testing.assert_allclose([x[0] for _, x in got], want, rtol=1e-10)


def test_exact_mean_scalar_raises_where_the_step_loop_overflows():
    # x_1 = 1.7e308 is finite; x_2 = 0.75 x_1 + r/2 = 2.125e308 is not,
    # while r_1/(1 P_1) = 3.4e308 already overflows at step 1
    assert _step_loop(0.5, 1.7e308, 100, [])[1] == 2
    with pytest.raises(DivergenceError) as exc:
        exact_mean_recursion([[0.5]], _constant(1.7e308), [0.0], 100)
    assert exc.value.first_bad_index == 2


def test_exact_mean_scalar_raises_a_workers_error_here(monkeypatch):
    _use_cpus(monkeypatch, 2)
    n = _SPLIT_STEPS
    stop = _worker_start(n) - 1

    def remainder(k):
        if np.max(k) > stop:  # in the forked part only
            raise FloatingPointError("remainder failed")
        return 1.0 / np.sqrt(k)

    with pytest.raises(FloatingPointError, match="remainder failed"):
        exact_mean_recursion([[0.5]], remainder, [0.0], n)
    assert multiprocessing.active_children() == []


def test_linear_paths_without_replicates_return_empty_checkpoints():
    out = linear_paths([[0.5, 0.0], [0.0, 0.6]], [0.0, 0.0], 300, 7,
                       [100, 300], [], np.eye(2))
    assert [n for n, _ in out] == [100, 300]
    assert all(theta.shape == (0, 2) for _, theta in out)


@pytest.mark.parametrize("drift", [LinearDrift(np.eye(2)), lambda th: th ** 3],
                         ids=["linear", "callable"])
def test_run_sa_without_replicates_returns_empty_checkpoints(drift):
    spec = SAProcessSpec(dim=2, drift=drift, theta0=[0.0, 0.0],
                         noise=GaussianNoise(np.eye(2)))
    paths, dropped = run_sa(spec, 300, 7, [0, 100, 300], [])
    assert [n for n, _ in paths] == [0, 100, 300] and dropped == []
    assert all(theta.shape == (0, 2) for _, theta in paths)


def test_linear_paths_hold_one_noise_block():
    # m = 1: every segment takes exactly one block, a whole fresh refill that
    # the source hands over uncopied; holding the slab or copying it would
    # keep two or three blocks alive. At 1000 replicates the generator's
    # work arrays are capped at SLOTS values, so they add little (0.37
    # blocks at TILE rows)
    for R, blocks in ((512, 1.5), (1000, 1.15)):
        tracemalloc.start()
        try:
            linear_paths([[1.0]], [0.0], 3 * BLOCK, 0, [3 * BLOCK], R,
                         [[1.0]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= blocks * R * BLOCK * 8, (R, peak)


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0, 7.5, 40.25, -2.5])
def test_real_step_weights_match_extended_products(lam):
    # real eigenvalues take real logs of |1 - lam/j| and count the negative
    # factors (j < lam) for the sign; an exact zero factor (j = lam) zeroes
    # every weight before it. A Jordan block at an integer lam is refused
    # upstream, so only the scalar weights are checked there.
    j = np.arange(1.0, 65.0)
    size = 1 if lam == round(lam) else 2
    u = _block_weights(complex(lam), size, j)
    f = 1 - np.longdouble(lam) / j.astype(np.longdouble)
    w = np.ones(j.size + 1, dtype=np.longdouble)
    w[:-1] = np.cumprod(f[::-1])[::-1]
    assert np.all(u.imag == 0.0)
    np.testing.assert_allclose(u[0].real, w.astype(float), rtol=1e-13, atol=0)
    if size == 2:  # u_1 = -w e_1, e_1(t) = sum_{i >= t} 1/(j_i - lam)
        e = np.zeros(j.size + 1)
        for t in range(j.size - 1, -1, -1):
            e[t] = e[t + 1] + 1.0 / (j[t] - lam)
        np.testing.assert_allclose(u[1].real, -u[0].real * e, rtol=1e-12, atol=0)


def test_linear_paths_match_step_engine_jordan():
    A = np.array([[0.5, -1.0], [0.0, 0.5]])
    root = np.array([[1.0, 0.0]])
    n = 4000
    spec = SAProcessSpec(dim=2, drift=linear_drift(A), theta0=[0.0, 0.0],
                         noise=GaussianNoise(root))
    traj = run_sa(spec, n, seed=11, checkpoint_plan=[10, 500, n], replicate=3)
    got = linear_paths(A, [0.0, 0.0], n, seed=11, checkpoints=[10, 500, n],
                       replicates=[3], gamma_root=root, basis=np.diag([1.0, -1.0]))
    for (na, xa), (nb, xb) in zip(traj.checkpoints, got):
        assert na == nb
        assert np.allclose(xa, xb[0], rtol=1e-9, atol=1e-12)


def test_linear_paths_match_step_engine_complex():
    A = 0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])
    n = 3000
    spec = SAProcessSpec(dim=2, drift=linear_drift(A), theta0=[1.0, 0.0],
                         noise=GaussianNoise(np.eye(2)))
    traj = run_sa(spec, n, seed=5, checkpoint_plan=[n])
    got = linear_paths(A, [1.0, 0.0], n, seed=5, checkpoints=[n],
                       replicates=[0], gamma_root=np.eye(2))
    assert np.allclose(traj.checkpoints[0][1], got[0][1][0], rtol=1e-9, atol=1e-12)


def test_linear_paths_noise_free_matches_mean():
    A = np.array([[0.7, 0.2], [0.0, 0.9]])
    got = linear_paths(A, [1.0, -1.0], 500, seed=0, checkpoints=[500], replicates=2)
    want = mean_recursion(A, lambda k: 0.0, 500, [1.0, -1.0])
    assert np.allclose(got[0][1][0], want, rtol=1e-10)
    assert np.allclose(got[0][1][1], want, rtol=1e-10)


def test_linear_paths_batching_invariance():
    # bit for bit: a replicate's path may not depend on its batch, so that
    # simulate can split a batch over processes
    cases = [
        ([[0.5, -1.0], [0.0, 0.5]], [[1.0, 0.0]], np.diag([1.0, -1.0])),
        # complex eigenvalues, three noise columns
        ([[1.0, 0.3, 0.1], [0.0, 0.8, 0.2], [0.1, 0.0, 0.9]], np.eye(3), None),
    ]
    for A, root, basis in cases:
        d = len(A)
        batch = linear_paths(A, [0.0] * d, 2000, seed=7, checkpoints=[17, 2000],
                             replicates=7, gamma_root=root, basis=basis)
        for r in range(7):
            solo = linear_paths(A, [0.0] * d, 2000, seed=7,
                                checkpoints=[17, 2000], replicates=[r],
                                gamma_root=root, basis=basis)
            for (_, x), (_, y) in zip(batch, solo):
                assert np.array_equal(x[r], y[0])


def test_linear_paths_checkpoint_insensitive():
    # intermediate checkpoints end segments early; the value at n is the
    # same whichever of them split the run
    A = np.array([[0.6, 0.1], [0.0, 0.8]])
    a = linear_paths(A, [1.0, 1.0], 5000, seed=3, checkpoints=[5000],
                     replicates=2, gamma_root=np.eye(2))
    b = linear_paths(A, [1.0, 1.0], 5000, seed=3,
                     checkpoints=[1, 611, 2047, 2048, 2049, 4999, 5000],
                     replicates=2, gamma_root=np.eye(2))
    assert [k for k, _ in b] == [1, 611, 2047, 2048, 2049, 4999, 5000]
    assert np.allclose(a[0][1], b[-1][1], rtol=1e-10)


def test_linear_paths_defective_needs_basis():
    A = np.array([[0.5, -1.0], [0.0, 0.5]])
    with pytest.raises(ChainBasisRequiredError):
        linear_paths(A, [0.0, 0.0], 100, seed=0, checkpoints=[100])


def test_linear_paths_integer_eigenvalue_matches_step_engine():
    # eigenvalue 1 zeroes the first step factor, whose log -inf zeroes the
    # weight of theta_0
    A = np.array([[1.0]])
    root = np.array([[1.0]])
    n = 2000
    spec = SAProcessSpec(dim=1, drift=linear_drift(A), theta0=[0.7],
                         noise=GaussianNoise(root))
    traj = run_sa(spec, n, seed=9, checkpoint_plan=[1, 2, 50, n])
    got = linear_paths(A, [0.7], n, seed=9, checkpoints=[1, 2, 50, n],
                       replicates=[0], gamma_root=root)
    for (na, xa), (nb, xb) in zip(traj.checkpoints, got):
        assert na == nb
        assert np.allclose(xa, xb[0], rtol=1e-9, atol=1e-12)


def test_linear_paths_integer_eigenvalue_pair():
    A = np.diag([1.0, 2.0])
    n = 300
    spec = SAProcessSpec(dim=2, drift=linear_drift(A), theta0=[0.3, -0.4],
                         noise=GaussianNoise(np.eye(2)))
    traj = run_sa(spec, n, seed=4, checkpoint_plan=[n], replicate=1)
    got = linear_paths(A, [0.3, -0.4], n, seed=4, checkpoints=[n],
                       replicates=[1], gamma_root=np.eye(2))
    assert np.allclose(traj.checkpoints[0][1], got[0][1][0], rtol=1e-9, atol=1e-12)


def test_linear_paths_near_integer_eigenvalue_matches_step_engine():
    # the first step factor is -1e-10: tiny, and nothing divides by it
    A = np.array([[1.0 + 1e-10]])
    spec = SAProcessSpec(dim=1, drift=LinearDrift(A), theta0=[1.0],
                         noise=GaussianNoise([[1.0]]))
    got = linear_paths(A, [1.0], 100, seed=0, checkpoints=[1, 2, 100],
                       replicates=2, gamma_root=[[1.0]])
    for r in range(2):
        ref = reference_sa(spec, 100, 0, [1, 2, 100], replicate=r).checkpoints
        for (na, xa), (nb, xb) in zip(ref, got):
            assert na == nb
            np.testing.assert_allclose(xb[r], xa, rtol=1e-9, atol=1e-12)


def test_linear_paths_jordan_integer_eigenvalue_refused():
    # at j = 2 the Jordan step factor is the nilpotent -N/2
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(JordanIntegerEigenvalueError):
        linear_paths(A, [1.0, 1.0], 100, seed=0, checkpoints=[100],
                     basis=np.eye(2))
    # beyond the horizon the factor never occurs
    got = linear_paths(A, [1.0, 1.0], 1, seed=0, checkpoints=[1],
                       basis=np.eye(2))
    want = mean_recursion(A, lambda k: 0.0, 1, [1.0, 1.0])
    np.testing.assert_allclose(got[0][1][0], want, rtol=1e-12)


def _jordan_form(draw, lam, size):
    """A = T J T^{-1} for one Jordan block J, with T unit upper triangular."""
    upper = draw(st.lists(st.floats(-0.5, 0.5), min_size=size * size,
                          max_size=size * size))
    T = np.eye(size) + np.triu(np.reshape(upper, (size, size)), 1)
    J = lam * np.eye(size) + np.eye(size, k=1)
    return T @ J @ np.linalg.inv(T), T


@st.composite
def linear_models(draw):
    """(A, basis, gamma root); every eigenvalue has positive real part."""
    kind = draw(st.sampled_from(["real", "integer", "complex", "jordan"]))
    if kind == "real":
        lam = draw(st.lists(st.sampled_from([0.3, 0.5, 2.7, 37.25, 400.5])
                            | st.floats(0.05, 450.0), min_size=1, max_size=3))
        A, basis = np.diag(lam), None
    elif kind == "integer":
        base = draw(st.integers(1, 4))
        eps = draw(st.sampled_from([0.0, 1e-13, -1e-10, 1e-7]))
        A, basis = np.diag([base + eps, draw(st.floats(0.1, 2.0))]), None
    elif kind == "complex":
        a, b = draw(st.floats(0.1, 30.0)), draw(st.floats(0.05, 3.0))
        A, basis = np.array([[a, -b], [b, a]]), None
    else:
        lam = draw(st.sampled_from([0.3, 0.5, 1.5, 2.0 + 1e-9, 7.25]))
        A, basis = _jordan_form(draw, lam, draw(st.integers(2, 3)))
    d = A.shape[0]
    m = draw(st.integers(1, d))
    root = np.eye(d)[:m] + 0.3 * np.triu(np.ones((m, d)), 1)
    return A, basis, root


@settings(max_examples=30, deadline=None)
@given(model=linear_models(), R=st.integers(1, 3), seed=st.integers(0, 2 ** 32),
       cuts=st.lists(st.integers(1, BLOCK + 50), max_size=3))
def test_linear_paths_match_run_sa_property(model, R, seed, cuts):
    A, basis, root = model
    d = A.shape[0]
    n = BLOCK + 50  # past the segment ends at multiples of BLOCK // m
    plan = sorted({*cuts, BLOCK // root.shape[0] + 1, n})
    spec = SAProcessSpec(dim=d, drift=LinearDrift(A), theta0=np.linspace(1.0, -0.5, d),
                         noise=GaussianNoise(root))
    got = linear_paths(A, spec.theta0, n, seed, plan, replicates=R,
                       gamma_root=root, basis=basis)
    for r in range(R):
        ref = reference_sa(spec, n, seed, plan, replicate=r).checkpoints
        for (na, xa), (nb, xb) in zip(ref, got):
            assert na == nb
            np.testing.assert_allclose(xb[r], xa, rtol=1e-9, atol=1e-12)


def _run_or_error(run):
    """run()'s checkpoints, or the divergence or overflow error it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run().checkpoints
    except (DivergenceError, NumericalOverflowError) as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(model=linear_models(), form=st.sampled_from(["linear", "plain", "cubic"]),
       noisy=st.booleans(), remainder=st.booleans(), R=st.integers(1, 4),
       n=st.integers(1, 300), scale=st.sampled_from([1.0, 1e306]),
       seed=st.integers(0, 2 ** 32))
def test_run_sa_rows_match_reference_sa_property(model, form, noisy, remainder,
                                                 R, n, scale, seed):
    # the drift as a LinearDrift (one vector-matrix product per row), as a
    # plain callable (one call per row), and with a cubic term that makes
    # some noisy rows diverge or overflow the drift and not others; a start
    # of 1e306 does so on the large eigenvalues. Without noise or remainder
    # a dim-1 model takes the float loop, tiled
    A, _, root = model
    d = A.shape[0]
    offset = np.linspace(0.5, -0.5, d)
    drift = {"linear": LinearDrift(A), "plain": linear_drift(A),
             "cubic": lambda th: th @ A - th ** 3}[form]
    spec = SAProcessSpec(
        dim=d, drift=drift, theta0=scale * np.linspace(1.0, -0.5, d),
        noise=GaussianNoise(root) if noisy else None,
        remainder=(lambda k: offset / math.sqrt(k)) if remainder else None)
    plan = sorted({0, 1, n})
    want = [_run_or_error(lambda: reference_sa(spec, n, seed, plan, replicate=r))
            for r in range(R)]
    for r, ref in enumerate(want):  # one index: the oracle's path or error
        got = _run_or_error(lambda: run_sa(spec, n, seed, plan, replicate=r))
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
            assert vars(got) == vars(ref)
        else:
            assert all(k == k_ref and np.array_equal(x, th)
                       for (k, x), (k_ref, th) in zip(got, ref))
    overflow = [e for e in want if isinstance(e, NumericalOverflowError)]
    with np.errstate(over="ignore", invalid="ignore"):
        if overflow:  # the lowest row's
            with pytest.raises(NumericalOverflowError) as exc:
                run_sa(spec, n, seed, plan, list(range(R)))
            assert exc.value.step == overflow[0].step
            return
        paths, dropped = run_sa(spec, n, seed, plan, np.arange(R))
    assert dropped == [{"replicate": r, "first_bad_index": e.first_bad_index}
                       for r, e in enumerate(want) if isinstance(e, Exception)]
    assert [k for k, _ in paths] == plan
    for r, ref in enumerate(want):
        for (_, x), th in zip(paths, [np.full(d, np.nan)] * len(plan)
                              if isinstance(ref, Exception) else
                              [th for _, th in ref]):
            assert np.array_equal(x[r], th, equal_nan=True)


def test_spec_digest_distinguishes_content():
    a = SAProcessSpec(dim=1, drift=lambda th: th, theta0=[1.0], label="a")
    b = SAProcessSpec(dim=1, drift=lambda th: th, theta0=[2.0], label="a")
    assert a.digest() != b.digest()
    assert a.digest() == SAProcessSpec(dim=1, drift=lambda th: th, theta0=[1.0],
                                       label="a").digest()
