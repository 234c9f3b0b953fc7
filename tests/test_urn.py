import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from urnlab.asymptotics import spectral_profile
from urnlab.errors import (
    AssumptionViolationError,
    DivergenceError,
    InvalidArgumentError,
)
from urnlab.report import canonical_json
from urnlab.rng import BLOCK, TILE
from oracles import reference_urn
from urnlab.urn import (
    SLAB,
    BernoulliDiagonalRule,
    DeterministicRule,
    UrnSpec,
    run_urn,
    run_urn_batch,
    urn_asymptotics,
    urn_eigenstructure,
    urn_embedding,
)

FRIEDMAN = np.array([[0.0, 1.0], [1.0, 0.0]])


def friedman_spec():
    return UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule(FRIEDMAN))


class StatedRule:
    """A rule that states only the law it is given."""

    values_per_step = 0

    def __init__(self, **law):
        self.__dict__.update(law)


# ==== the simulation engines ====

def test_run_urn_counts_sum_to_n():
    traj = run_urn(friedman_spec(), 500, seed=3, checkpoints=[0, 1, 100, 500])
    for st in traj.checkpoints:
        assert int(st.N.sum()) == st.n
    assert traj.checkpoints[0].n == 0
    assert np.array_equal(traj.checkpoints[0].Y, [1.0, 1.0])
    assert [st.n for st in traj.checkpoints] == [0, 1, 100, 500]


@pytest.mark.parametrize("n_max", [0, -5])
def test_urn_engines_refuse_a_horizon_below_one(n_max):
    for run in (run_urn, run_urn_batch):
        with pytest.raises(InvalidArgumentError, match="n_max"):
            run(friedman_spec(), n_max, 0, [], 1)


def test_run_urn_total_mass_friedman():
    # every step adds one ball of the opposite color, so |Y_n| = |Y_0| + n
    traj = run_urn(friedman_spec(), 300, seed=9, checkpoints=[300])
    assert traj.checkpoints[-1].Y.sum() == pytest.approx(2.0 + 300.0)


def test_replay_matches_recorded_draws():
    # a deterministic rule adds row k on every draw of k: Y_n = Y_0 + N_n D
    spec = friedman_spec()
    traj = run_urn(spec, 200, seed=11, checkpoints=[0, 50, 200])
    for st in traj.checkpoints:
        assert np.array_equal(st.Y, spec.Y0 + st.N @ FRIEDMAN)
        assert int(st.N.sum()) == st.n


@hst.composite
def scalar_runs(draw):
    """A d = 2..9 Bernoulli-diagonal rule with random p and scale, or a
    deterministic one in sevenths (non-dyadic) that may remove balls; a
    start composition in thirds; a run that may cross a block of steps."""
    d = draw(hst.integers(2, 9))
    if draw(hst.booleans()):
        rule = BernoulliDiagonalRule(d, p=draw(hst.floats(0.01, 0.99)),
                                     scale=draw(hst.floats(0.1, 10.0)))
    else:
        D = draw(hst.lists(hst.integers(-7, 14), min_size=d * d,
                           max_size=d * d))
        rule = DeterministicRule(np.array(D, dtype=float).reshape(d, d) / 7)
    Y0 = np.array(draw(hst.lists(hst.integers(0, 9), min_size=d,
                                 max_size=d)), dtype=float) / 3
    n = draw(hst.one_of(hst.integers(1, 400),
                        hst.integers(BLOCK - 2, BLOCK + 200)))
    checkpoints = draw(hst.lists(hst.integers(0, n), min_size=1, max_size=4))
    return UrnSpec(d=d, Y0=Y0, adding_rule=rule), n, checkpoints


@settings(max_examples=30, deadline=None)
@given(run=scalar_runs(), seed=hst.integers(0, 2 ** 32),
       replicate=hst.integers(0, 3))
def test_run_urn_matches_reference_loop_property(run, seed, replicate):
    spec, n, checkpoints = run
    got = run_urn(spec, n, seed, checkpoints, replicate=replicate).checkpoints
    ref = reference_urn(spec, n, seed, checkpoints, replicate=replicate)
    assert [c.n for c in got] == [c.n for c in ref]
    for a, b in zip(got, ref):
        assert np.array_equal(a.Y, b.Y), a.n
        assert np.array_equal(a.N, b.N), a.n


def test_batch_engine_matches_scalar_paths():
    spec = friedman_spec()
    out = run_urn_batch(spec, 400, seed=7, checkpoints=[150, 400], replicates=3)
    assert [n for n, _, _ in out] == [150, 400]
    for r in range(3):
        solo = run_urn(spec, 400, seed=7, checkpoints=[150, 400], replicate=r)
        for (n, Yb, Nb), st in zip(out, solo.checkpoints):
            assert np.array_equal(Yb[r], st.Y)
            assert np.array_equal(Nb[r], st.N)


def test_batch_engine_holds_one_block_and_its_slab():
    # the uniforms are stepped from the generator rows straight into the
    # slab: no block of them is held. What remains is the slab and the
    # generator's work arrays (three of min(TILE, SLOTS // R) rows each,
    # plus margin), far below one block (16 MiB here)
    R = 512
    tracemalloc.start()
    try:
        run_urn_batch(friedman_spec(), 3 * BLOCK, 0, [3 * BLOCK], R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (SLAB + 5 * TILE) * R * 8 < R * BLOCK * 8 / 4, peak


def test_batch_engine_without_replicates_returns_empty_checkpoints():
    # as linear_paths does: each checkpoint holds (0, d) arrays
    out = run_urn_batch(friedman_spec(), 300, 7, [100, 300], [])
    assert [n for n, _, _ in out] == [100, 300]
    for _, Y, N in out:
        assert Y.shape == N.shape == (0, 2)
        assert N.dtype == np.int64


def test_batch_engine_three_colors():
    H = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    spec = UrnSpec(d=3, Y0=np.array([1.0, 1.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    out = run_urn_batch(spec, 300, seed=13, checkpoints=[300], replicates=2)
    for r in range(2):
        solo = reference_urn(spec, 300, seed=13, checkpoints=[300], replicate=r)
        assert np.array_equal(out[0][2][r], solo[-1].N)


def assert_batch_matches_run_urn(spec, n, seed, checkpoints, R):
    out = run_urn_batch(spec, n, seed, checkpoints, R)
    for r in range(R):
        ref = run_urn(spec, n, seed, checkpoints, replicate=r).checkpoints
        assert [k for k, _, _ in out] == [c.n for c in ref]
        for (k, Y, N), c in zip(out, ref):
            assert np.array_equal(Y[r], c.Y), (r, k)
            assert np.array_equal(N[r], c.N), (r, k)
    return out


@hst.composite
def lockstep_runs(draw):
    """A d = 2..9 rule with sevenths for entries (non-dyadic), nonnegative or
    with removal, a start composition in thirds, and a run across slabs."""
    d = draw(hst.integers(2, 9))
    low = draw(hst.sampled_from([0, -7]))  # -7: rows may remove a ball
    D = np.array(draw(hst.lists(hst.integers(low, 14), min_size=d * d,
                                max_size=d * d)), dtype=float).reshape(d, d) / 7
    Y0 = np.array(draw(hst.lists(hst.integers(0, 9), min_size=d,
                                 max_size=d)), dtype=float) / 3
    n = draw(hst.integers(1, 600))
    checkpoints = draw(hst.lists(hst.integers(1, n), min_size=1, max_size=4))
    spec = UrnSpec(d=d, Y0=Y0, adding_rule=DeterministicRule(D))
    return spec, n, checkpoints


@settings(max_examples=40, deadline=None)
@given(run=lockstep_runs(), R=hst.integers(1, 4), seed=hst.integers(0, 2 ** 32))
def test_batch_engine_matches_run_urn_property(run, R, seed):
    spec, n, checkpoints = run
    assert_batch_matches_run_urn(spec, n, seed, checkpoints, R)


def test_batch_engine_dead_rows_draw_uniformly():
    # removal empties both colours within two steps; from then on every
    # replicate draws uniformly, each from its own stream
    spec = UrnSpec(d=2, Y0=np.array([0.5, 0.5]),
                   adding_rule=DeterministicRule([[-1.0, 0.0], [0.0, -1.0]]))
    out = assert_batch_matches_run_urn(spec, 600, 4, [1, 2, 3, 256, 300, 600],
                                       5)
    _, Y, N = out[-1]
    assert np.all(Y < 0.0)
    assert np.all(N.sum(axis=1) == 600)
    assert len({tuple(row) for row in N}) == 5


def test_random_rule_runs_and_counts():
    rule = BernoulliDiagonalRule(d=2, p=0.5, scale=2.0)
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]), adding_rule=rule)
    traj = run_urn(spec, 400, seed=2, checkpoints=[400])
    st = traj.checkpoints[-1]
    assert int(st.N.sum()) == 400
    assert st.Y.sum() <= 2.0 + 2 * 400
    # a random rule run_urn has no draw for is refused, not run as its mean
    other = UrnSpec(d=2, Y0=np.array([1.0, 1.0]), adding_rule=StatedRule(
        mean=rule.mean, V_q=rule.V_q, values_per_step=2))
    with pytest.raises(InvalidArgumentError, match="cannot draw StatedRule"):
        run_urn(other, 10, seed=2, checkpoints=[10])


def test_removal_rule_survives_nonpositive_composition():
    # pure removal drives Y negative; draws then fall back to uniform
    spec = UrnSpec(d=1, Y0=np.array([0.5]),
                   adding_rule=DeterministicRule([[-1.0]]))
    traj = run_urn(spec, 50, seed=1, checkpoints=[50])
    st = traj.checkpoints[-1]
    assert st.Y[0] == pytest.approx(0.5 - 50.0)
    assert int(st.N.sum()) == 50


def test_divergence_reports_first_bad_step():
    # p = 1: every draw adds 1e308 through the random rule's branch
    spec = UrnSpec(d=1, Y0=np.array([1.0]),
                   adding_rule=BernoulliDiagonalRule(1, p=1.0, scale=1e308))
    with pytest.raises(DivergenceError) as exc:
        run_urn(spec, 10, seed=0, checkpoints=[10])
    assert exc.value.first_bad_index == 2


def test_scalar_urn_loop_overflows_without_a_warning():
    # the fast loop adds D's rows as python floats, which overflow silently
    spec = UrnSpec(d=1, Y0=np.array([1.0]),
                   adding_rule=DeterministicRule([[1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            run_urn(spec, 10, seed=0, checkpoints=[10])
    assert exc.value.first_bad_index == 2


def test_run_urn_deterministic_and_replicates_differ():
    spec = friedman_spec()
    a = run_urn(spec, 300, seed=5, checkpoints=[300])
    b = run_urn(spec, 300, seed=5, checkpoints=[300])
    c = run_urn(spec, 300, seed=5, checkpoints=[300], replicate=1)
    assert np.array_equal(a.checkpoints[-1].Y, b.checkpoints[-1].Y)
    assert not np.array_equal(a.checkpoints[-1].N, c.checkpoints[-1].N)


# ==== eigenstructure ====

def test_eigenstructure_friedman():
    alpha, v, u, lam2, nu = urn_eigenstructure(FRIEDMAN)
    assert alpha == pytest.approx(1.0)
    assert np.allclose(v, [0.5, 0.5])
    assert np.allclose(u, [1.0, 1.0])
    assert lam2 == pytest.approx(-1.0)
    assert nu == 1


def test_eigenstructure_two_type_chain():
    H = np.array([[0.6, 0.4], [0.2, 0.8]])
    alpha, v, u, lam2, nu = urn_eigenstructure(H)
    assert alpha == pytest.approx(1.0)
    assert np.allclose(v, [1.0 / 3.0, 2.0 / 3.0])
    assert v @ u == pytest.approx(1.0)
    assert lam2 == pytest.approx(0.4)


def test_eigenstructure_rescales_second_eigenvalue():
    # doubling H doubles alpha but leaves the normalized gap alone
    alpha, _, _, lam2, _ = urn_eigenstructure(2.0 * np.array([[0.6, 0.4],
                                                              [0.2, 0.8]]))
    assert alpha == pytest.approx(2.0)
    assert lam2 == pytest.approx(0.4)


def test_eigenstructure_identity_rejected():
    with pytest.raises(AssumptionViolationError):
        urn_eigenstructure(np.eye(2))


def test_eigenstructure_negative_offdiagonal_rejected():
    with pytest.raises(AssumptionViolationError):
        urn_eigenstructure(np.array([[1.0, -0.1], [0.2, 1.0]]))


def test_eigenstructure_scalar_urn():
    alpha, v, u, lam2, nu = urn_eigenstructure(np.array([[2.0]]))
    assert (alpha, lam2, nu) == (2.0, None, 1)
    assert v[0] == 1.0 and u[0] == 1.0


# ==== embedding ====

def test_embedding_friedman_noise_block():
    _, v, _, _, _ = urn_eigenstructure(FRIEDMAN)
    Dh, G = urn_embedding(FRIEDMAN, v)
    S1 = G[2:, 2:]
    assert np.allclose(S1, [[0.25, -0.25], [-0.25, 0.25]])
    # H^T S1 appears in the off-diagonal block
    assert np.allclose(G[:2, 2:], FRIEDMAN.T @ S1)
    assert np.allclose(G, G.T)


def test_embedding_friedman_spectrum():
    _, v, _, _, _ = urn_eigenstructure(FRIEDMAN)
    Dh, _ = urn_embedding(FRIEDMAN, v)
    w = np.sort(np.linalg.eigvals(Dh).real)
    assert np.allclose(w, [1.0, 1.0, 1.0, 2.0], atol=1e-10)


def test_embedding_spectrum_mapping_general():
    H = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    alpha, v, _, _, _ = urn_eigenstructure(H)
    Dh, _ = urn_embedding(H / alpha, v)
    lam = np.linalg.eigvals(H / alpha)
    rest = sorted(l for l in lam.real if abs(l - 1.0) > 1e-9)
    want = np.sort(np.concatenate([[1.0, 1.0, 1.0, 1.0],
                                   [1.0 - l for l in rest]]))
    got = np.sort(np.linalg.eigvals(Dh).real)
    assert np.allclose(np.sort(got), np.sort(want), atol=1e-8)


def test_embedding_single_type_degenerate():
    Dh, G = urn_embedding(np.array([[1.0]]), np.array([1.0]))
    assert np.array_equal(Dh, np.eye(2))
    assert np.allclose(G, 0.0)


def test_embedding_with_addition_covariance():
    _, v, _, _, _ = urn_eigenstructure(FRIEDMAN)
    Vq = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    _, G = urn_embedding(FRIEDMAN, v, Vq)
    _, G0 = urn_embedding(FRIEDMAN, v)
    extra = G[:2, :2] - G0[:2, :2]
    assert np.allclose(extra, 0.5 * np.eye(2))
    with pytest.raises(InvalidArgumentError):
        urn_embedding(FRIEDMAN, v, [np.diag([-1.0, 0.0]), np.eye(2)])


# ==== asymptotics dispatch ====

def test_asymptotics_friedman_standard():
    rep = urn_asymptotics(friedman_spec())
    assert rep.regime.tag == "Standard"
    assert rep.lambda_sec == pytest.approx(-1.0)
    assert rep.Sigma_tilde is not None
    w = np.linalg.eigvalsh(rep.Sigma_tilde)
    assert w.min() >= -1e-12
    assert w.max() > 0.01


def test_asymptotics_critical_urn():
    H = np.array([[0.75, 0.25], [0.25, 0.75]])
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    rep = urn_asymptotics(spec)
    assert rep.regime.tag == "Critical"
    assert rep.lambda_sec == pytest.approx(0.5)
    assert rep.regime.scaling == "√n/(log n)^{1/2}"
    assert rep.Sigma_tilde is not None
    assert np.linalg.eigvalsh(rep.Sigma_tilde).min() >= -1e-12


def test_asymptotics_slow_urn_descriptor():
    H = np.array([[0.875, 0.125], [0.125, 0.875]])
    spec = UrnSpec(d=2, Y0=np.array([2.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    rep = urn_asymptotics(spec)
    assert rep.regime.tag == "Slow"
    assert rep.lambda_sec == pytest.approx(0.75)
    assert rep.slow_descriptor is not None
    assert rep.slow_descriptor.rho == pytest.approx(0.25)
    comps = rep.slow_descriptor.components
    assert len(comps) == 1
    l = comps[0].direction
    # reported direction solves the left eigenproblem of H
    assert np.linalg.norm(l @ H - comps[0].value * l) <= 1e-8
    assert np.allclose(np.abs(l), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
    assert comps[0].frequency == 0.0


def _slow_urn_3(H):
    rep = urn_asymptotics(UrnSpec(d=3, Y0=np.ones(3),
                                  adding_rule=DeterministicRule(H)))
    assert rep.regime.tag == "Slow" and rep.nu == 1
    comps = rep.slow_descriptor.components
    for c in comps:
        # each direction solves the left eigenproblem of H
        l = c.direction
        assert np.linalg.norm(l @ H - c.value * l) <= 1e-12
        assert c.frequency == c.value.imag
    return rep, comps


def test_asymptotics_slow_cyclic_urn_d3():
    # 0.8 I + 0.2 P, P the cyclic shift: a conjugate pair at
    # 0.8 + 0.2 e^{+-2 pi i/3} = 0.7 +- 0.1 sqrt(3) i sets lambda_sec
    P = np.roll(np.eye(3), 1, axis=1)
    rep, comps = _slow_urn_3(0.8 * np.eye(3) + 0.2 * P)
    assert rep.lambda_sec == pytest.approx(0.7, abs=1e-12)
    assert rep.slow_descriptor.rho == pytest.approx(0.3, abs=1e-12)
    assert rep.regime.scaling == "n^{0.3}"
    assert len(comps) == 2
    assert comps[0].value == pytest.approx(0.7 + 0.17320508075688762j, abs=1e-12)
    assert comps[1].value == pytest.approx(0.7 - 0.17320508075688762j, abs=1e-12)
    assert [c.frequency for c in comps] == pytest.approx(
        [0.17320508075688762, -0.17320508075688762], abs=1e-12)
    for c in comps:
        # l (I - 1^T v) with v uniform: the directions sum to 0
        assert abs(c.direction.sum()) <= 1e-12
    want = np.array([-0.2886751345948136 - 0.49999999999999983j,
                     -0.2886751345948124 + 0.49999999999999983j,
                     0.5773502691896261])
    np.testing.assert_allclose(comps[0].direction, want, atol=1e-12)
    np.testing.assert_allclose(comps[1].direction, want.conj(), atol=1e-12)


def test_asymptotics_slow_urn_repeated_eigenvalue_d3():
    # 0.8 I + 0.2 1^T (1/3, 1/3, 1/3): the eigenvalue 0.8 twice, semisimple,
    # so its layer carries two independent components
    H = 0.8 * np.eye(3) + 0.2 * np.outer(np.ones(3), np.full(3, 1.0 / 3.0))
    rep, comps = _slow_urn_3(H)
    assert rep.lambda_sec == pytest.approx(0.8, abs=1e-12)
    assert rep.slow_descriptor.rho == pytest.approx(0.2, abs=1e-12)
    assert len(comps) == 2
    for c in comps:
        assert c.value == pytest.approx(0.8, abs=1e-12) and c.frequency == 0.0
    dirs = np.array([c.direction for c in comps])
    assert np.linalg.matrix_rank(dirs) == 2


def test_asymptotics_rejects_second_eigenvalue_at_one():
    # block-diagonal H keeps two eigenvalues at the top: not simple
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule(H))
    with pytest.raises(AssumptionViolationError):
        urn_asymptotics(spec)


def test_asymptotics_single_type_standard_zero_noise():
    spec = UrnSpec(d=1, Y0=np.array([1.0]),
                   adding_rule=DeterministicRule([[1.0]]))
    rep = urn_asymptotics(spec)
    assert rep.regime.tag == "Standard"
    assert np.allclose(rep.Sigma_tilde, 0.0)


def test_composition_converges_to_perron_vector():
    spec = friedman_spec()
    traj = run_urn(spec, 20000, seed=17, checkpoints=[20000])
    st = traj.checkpoints[-1]
    assert np.abs(st.Y / st.Y.sum() - 0.5).max() < 0.02
    assert np.abs(st.N / 20000.0 - 0.5).max() < 0.02


# ==== the law a rule states ====

def test_bernoulli_rule_states_its_sample_moments():
    # the rows run_urn adds on drawing type q are a sample of row q of D:
    # its mean and covariance must be the rule's mean[q] and V_q[q]
    rule = BernoulliDiagonalRule(d=2, p=0.3, scale=1.5)
    n = 40000
    traj = run_urn(UrnSpec(d=2, Y0=np.array([1.0, 1.0]), adding_rule=rule),
                   n, seed=4, checkpoints=range(n + 1))
    Y = np.array([st.Y for st in traj.checkpoints])
    N = np.array([st.N for st in traj.checkpoints])
    rows, types = np.diff(Y, axis=0), np.diff(N, axis=0).argmax(axis=1)
    p, c = rule.p, rule.scale
    var = p * (1 - p) * c ** 2
    m4 = c ** 4 * p * (1 - p) * (1 - 3 * p + 3 * p * p)  # 4th central moment
    for q in range(2):
        X = rows[types == q]
        m = len(X)
        assert m >= 100
        mean, cov = X.mean(axis=0), np.cov(X.T)
        # five standard errors of the sample mean and sample variance
        band = np.zeros((2, 2))
        band[q, q] = 5 * np.sqrt((m4 - var ** 2) / m)
        assert np.all(np.abs(cov - rule.V_q[q]) <= band), (q, cov)
        assert np.abs(mean - rule.mean[q]).max() <= 5 * np.sqrt(var / m)
        assert mean[1 - q] == 0.0


# ==== spec validation ====

def test_spec_rejects_negative_offdiagonal():
    # removal of other colours simulates, but H = E[D] is outside the theory
    spec = UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                   adding_rule=DeterministicRule([[0.5, -0.2], [0.1, 0.5]]))
    assert run_urn(spec, 50, seed=0, checkpoints=[50]).checkpoints[-1].n == 50
    with pytest.raises(AssumptionViolationError, match="negative off-diagonal"):
        urn_asymptotics(spec)


def test_spec_rejects_indefinite_vq():
    with pytest.raises(InvalidArgumentError, match="positive semidefinite"):
        UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                adding_rule=StatedRule(
                    mean=FRIEDMAN,
                    V_q=[np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)]))
    with pytest.raises(InvalidArgumentError, match="2 matrices"):
        UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                adding_rule=StatedRule(mean=FRIEDMAN, V_q=[np.eye(2)]))


def test_spec_rejects_a_rule_that_does_not_state_its_law():
    for law in ({"mean": FRIEDMAN}, {"V_q": None}):
        with pytest.raises(InvalidArgumentError, match="state its mean"):
            UrnSpec(d=2, Y0=np.array([1.0, 1.0]), adding_rule=StatedRule(**law))


def test_spec_rejects_bad_shapes():
    with pytest.raises(InvalidArgumentError):
        UrnSpec(d=2, Y0=np.array([1.0]),
                adding_rule=DeterministicRule(FRIEDMAN))
    with pytest.raises(InvalidArgumentError, match="2x2"):
        UrnSpec(d=2, Y0=np.array([1.0, 1.0]),
                adding_rule=DeterministicRule(np.eye(3)))


def test_asymptotics_report_serializes():
    rep = urn_asymptotics(friedman_spec())
    d = json.loads(canonical_json(rep))
    assert d["v"] == [0.5, 0.5]
    assert d["regime"] == "standard" and d["scaling"] == "√n"
    assert d["sigma_tilde"] == rep.Sigma_tilde.tolist()
    assert d["warnings"] == []


def _near_pair_urns():
    # 2 types: lambda_sec = 2a - 1 = 4e-7 puts Dh_star's eigenvalues 1 and
    # 1 - 4e-7 just outside one cluster
    a = 0.5 + 2e-7
    yield np.array([[a, 1.0 - a], [1.0 - a, a]]), 0
    # 3 types: H's eigenvalues 0.3 and 0.3 + 4e-7 near-merge too
    q = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    J = np.full((3, 3), 1.0 / 3.0)
    yield J + 0.3 * (np.eye(3) - J) + 4e-7 * np.outer(q, q), 1


@pytest.mark.parametrize("H,h_warnings", list(_near_pair_urns()))
def test_asymptotics_report_carries_profile_warnings(H, h_warnings):
    spec = UrnSpec(d=H.shape[0], Y0=np.ones(H.shape[0]),
                   adding_rule=DeterministicRule(H))
    rep = json.loads(canonical_json(urn_asymptotics(spec)))
    from_h = spectral_profile(H / rep["alpha"]).warnings
    from_dh = spectral_profile(np.array(rep["Dh_star"])).warnings
    assert len(from_h) == h_warnings
    assert any("separated by 4.00e-07" in w for w in from_dh)
    assert rep["warnings"] == ([f"H/alpha: {w}" for w in from_h]
                               + [f"Dh_star: {w}" for w in from_dh])
