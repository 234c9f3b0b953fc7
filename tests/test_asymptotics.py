import json
import sys

import numpy as np
import pytest

from urnlab.asymptotics import (
    analyze,
    as_rate,
    classify_regime,
    clt_covariance,
    critical_covariance,
    limit_covariance_quadrature,
    regime_scale,
    slow_regime_descriptor,
    spectral_profile,
)
from urnlab.errors import (
    AssumptionViolationError,
    ChainBasisRequiredError,
    InvalidArgumentError,
    InvalidBasisError,
    RegimeError,
)
from urnlab.report import canonical_json
from urnlab.urn import urn_asymptotics
from oracles import friedman_urn, mixing_urn, quad_sandwich


# ==== spectral profile ====

def test_profile_diagonal():
    p = spectral_profile(np.diag([0.6, 0.8]))
    assert p.rho == pytest.approx(0.6)
    assert p.nu == 1
    assert len(p.groups) == 2
    assert all(g.block_sizes == (1,) for g in p.groups)
    assert p.lambda_sec == pytest.approx(0.6)


def test_profile_jordan_block():
    p = spectral_profile([[0.5, -1.0], [0.0, 0.5]])
    assert len(p.groups) == 1
    g = p.groups[0]
    assert g.value == pytest.approx(0.5)
    assert g.block_sizes == (2,)
    assert p.rho == pytest.approx(0.5)
    assert p.nu == 2


def test_profile_complex_pair():
    p = spectral_profile(0.3 * np.array([[1.0, -1.0], [1.0, 1.0]]))
    vals = sorted((g.value for g in p.groups), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(0.3 - 0.3j, abs=1e-12)
    assert vals[1] == pytest.approx(0.3 + 0.3j, abs=1e-12)
    assert p.rho == pytest.approx(0.3)
    assert p.nu == 1
    assert p.lambda_sec is None  # single distinct real part


def test_profile_mixed_block_structure():
    # eigenvalue 0.4 with blocks [2, 1], eigenvalue 0.9 simple
    J = np.zeros((4, 4))
    J[0, 0] = J[1, 1] = J[2, 2] = 0.4
    J[0, 1] = 1.0
    J[3, 3] = 0.9
    rng = np.random.default_rng(0)
    T = rng.standard_normal((4, 4)) + np.eye(4)
    H = T @ J @ np.linalg.inv(T)
    p = spectral_profile(H)
    g = {round(gr.value.real, 6): gr for gr in p.groups}
    assert g[0.4].block_sizes == (2, 1)
    assert g[0.4].algebraic_multiplicity == 3
    assert g[0.9].block_sizes == (1,)
    assert p.nu == 2
    assert p.lambda_sec == pytest.approx(0.4)


def test_profile_multiplicity_accounting():
    rng = np.random.default_rng(1)
    for _ in range(10):
        H = rng.standard_normal((5, 5))
        p = spectral_profile(H)
        assert sum(g.algebraic_multiplicity for g in p.groups) == 5
        for g in p.groups:
            assert sum(g.block_sizes) == g.algebraic_multiplicity


def test_profile_warns_on_near_clusters():
    p = spectral_profile(np.diag([0.5, 0.5 + 3e-7]))
    assert p.warnings


def test_profile_exact_jordan_blocks():
    # the cluster centre of lam I + N is lam only to rounding, so the powers
    # of the shifted matrix must be ranked on one scale to see the block
    for lam in np.round(np.arange(0.05, 0.951, 0.05), 2):
        for k in range(2, 6):
            p = spectral_profile(lam * np.eye(k) + np.eye(k, k=1))
            assert p.groups[0].block_sizes == (k,), (lam, k)
            assert p.nu == k


def test_profile_warns_on_block_size_fallback():
    # the fourth matrix of a search over 0.7 I + N conjugated by
    # T = I + c triu(randn, 1), c = 10^U(0, 6): its rank staircase fails
    rng = np.random.default_rng(0)
    for _ in range(4):
        k = int(rng.integers(2, 5))
        c = 10 ** rng.uniform(0, 6)
        T = np.eye(k) + c * np.triu(rng.standard_normal((k, k)), 1)
    H = T @ (0.7 * np.eye(k) + np.eye(k, k=1)) @ np.linalg.inv(T)
    p = spectral_profile(H)
    assert any("fall back to all ones" in w for w in p.warnings)
    assert json.loads(canonical_json(p))["warnings"] == list(p.warnings)
    for g in p.groups:
        assert sum(g.block_sizes) == g.algebraic_multiplicity


@pytest.mark.parametrize("d", [2, 5, 20])
def test_profile_of_simple_eigenvalues_needs_no_svd(monkeypatch, d):
    # distinct eigenvalues are one block of order 1 each; the profile is
    # read off the spectrum without the rank staircase's SVDs
    H = np.random.default_rng(d).standard_normal((d, d)) + 2.0 * np.eye(d)
    w = np.linalg.eigvals(H)
    svds = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svds.append(1) or real_svd(*a, **k))
    p = spectral_profile(H)
    assert svds == []
    assert len(p.groups) == d and p.warnings == ()
    for g in p.groups:
        assert g.algebraic_multiplicity == 1 and g.block_sizes == (1,)
    assert p.nu == 1 and p.rho == float(w.real.min())
    assert sorted(g.value.real for g in p.groups) == sorted(w.real.tolist())


# ==== regime classification ====

def test_classify_standard():
    r = classify_regime(spectral_profile(np.diag([0.75, 1.0])))
    assert r.tag == "Standard"
    assert r.scaling == "√n"


def test_classify_critical_nu2():
    r = classify_regime(spectral_profile([[0.5, -1.0], [0.0, 0.5]]))
    assert r.tag == "Critical"
    assert r.scaling == "√n/(log n)^{3/2}"


def test_classify_slow():
    r = classify_regime(spectral_profile(0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])))
    assert r.tag == "Slow"
    assert r.scaling == "n^{0.3}"


def test_classify_tolerance_band():
    p = spectral_profile(np.diag([0.5 + 5e-10, 1.0]))
    assert classify_regime(p, rho_tol=1e-9).tag == "Critical"
    assert classify_regime(p, rho_tol=1e-12).tag == "Standard"


def test_classify_rejects_unstable():
    with pytest.raises(AssumptionViolationError):
        classify_regime(spectral_profile(np.diag([-0.1, 1.0])))


def test_as_rate():
    assert as_rate(spectral_profile(np.diag([0.75]))) == 0.5
    assert as_rate(spectral_profile(np.diag([0.3]))) == pytest.approx(0.3)
    assert as_rate(spectral_profile(np.diag([0.5]))) == pytest.approx(0.5)


def test_regime_scale_standard():
    assert 0.1 * regime_scale(100, "Standard", 1) == pytest.approx(1.0)


def test_regime_scale_critical():
    n = 55
    f = np.sqrt(n) / np.sqrt(np.log(n))
    assert (2.0 / f) * regime_scale(n, "Critical", 1) == pytest.approx(2.0)


def test_regime_scale_slow_nu2():
    n = 1000
    assert regime_scale(n, "Slow", 2, rho=0.3) == pytest.approx(
        n ** 0.3 / np.log(n))
    with pytest.raises(InvalidArgumentError):
        regime_scale(n, "Slow", 2)  # rho missing


def test_regime_scale_small_n_guard():
    with pytest.raises(InvalidArgumentError):
        regime_scale(2, "Critical", 1)


# ==== standard-regime covariance ====

def test_clt_covariance_scalar():
    assert clt_covariance([[1.0]], [[1.0]]) == pytest.approx(np.array([[1.0]]))


def test_clt_covariance_diagonal():
    got = clt_covariance(np.diag([0.75, 1.0]), np.eye(2))
    assert np.allclose(got, np.diag([2.0, 1.0]), atol=1e-12)


def test_clt_covariance_matches_quadrature():
    rng = np.random.default_rng(2)
    for d in (2, 4):
        A = 0.3 * rng.standard_normal((d, d))
        Dh = A + (0.6 + abs(np.linalg.eigvals(A).real).min() +
                  abs(np.linalg.eigvals(A).real).max()) * np.eye(d)
        R = rng.standard_normal((d, d))
        G = R @ R.T
        got = clt_covariance(Dh, G)
        ref = quad_sandwich(Dh - 0.5 * np.eye(d), G, 120.0)
        assert np.linalg.norm(got - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_clt_covariance_wrong_regime():
    with pytest.raises(RegimeError):
        clt_covariance(np.diag([0.5, 1.0]), np.eye(2))
    with pytest.raises(RegimeError):
        clt_covariance(np.diag([0.3, 1.0]), np.eye(2))


# ==== critical-regime covariance ====

def test_critical_scalar():
    got = critical_covariance([[0.5]], [[1.7]])
    assert got == pytest.approx(np.array([[1.7]]))


def test_critical_jordan_example():
    Dh = [[0.5, -1.0], [0.0, 0.5]]
    T = np.diag([1.0, -1.0])
    got = critical_covariance(Dh, np.diag([1.0, 0.0]), chain_basis=T)
    assert np.allclose(got, [[0.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-10)


def test_critical_zero_gamma():
    got = critical_covariance([[0.5, -1.0], [0.0, 0.5]], np.zeros((2, 2)),
                              chain_basis=np.diag([1.0, -1.0]))
    assert np.allclose(got, 0.0)


def test_critical_needs_chain_basis():
    with pytest.raises(ChainBasisRequiredError):
        critical_covariance([[0.5, -1.0], [0.0, 0.5]], np.eye(2))


def test_critical_rejects_bad_basis():
    with pytest.raises(InvalidBasisError):
        critical_covariance([[0.5, -1.0], [0.0, 0.5]], np.eye(2),
                            chain_basis=[[1.0, 1.0], [0.0, 1.0]])


def test_critical_scale_invariance_nu1():
    # with layer blocks of order 1, rescaling basis columns changes nothing
    Dh = np.array([[0.5, 0.3], [0.0, 0.8]])
    G = np.array([[1.0, 0.2], [0.2, 0.5]])
    base = critical_covariance(Dh, G)
    # supply explicit eigcolumn bases with different scalings
    vals, vecs = np.linalg.eig(Dh)
    order = np.argsort(vals.real)
    T1 = vecs[:, order]
    T2 = T1 @ np.diag([3.0, -0.25])
    a = critical_covariance(Dh, G, chain_basis=T1)
    b = critical_covariance(Dh, G, chain_basis=T2)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a, base, atol=1e-10)


def test_critical_complex_pair_real_output():
    # rotation at the critical layer: conjugate contributions must cancel
    Dh = np.array([[0.5, -0.4], [0.4, 0.5]])
    G = np.array([[1.0, 0.1], [0.1, 2.0]])
    got = critical_covariance(Dh, G)
    assert np.allclose(got, got.T)
    assert np.linalg.eigvalsh(got).min() >= -1e-12


def test_critical_off_layer_block_is_inert():
    Dh = np.array([[0.5, 0.0], [0.0, 0.9]])
    G = np.diag([1.3, 0.7])
    got = critical_covariance(Dh, G)
    assert got[0, 0] == pytest.approx(1.3, abs=1e-10)
    assert abs(got[0, 1]) <= 1e-10 and abs(got[1, 1]) <= 1e-10
    # widen: decoupled extra direction leaves the original block untouched
    Dh3 = np.zeros((3, 3))
    Dh3[:2, :2] = Dh
    Dh3[2, 2] = 0.9
    G3 = np.zeros((3, 3))
    G3[:2, :2] = G
    got3 = critical_covariance(Dh3, G3)
    assert np.allclose(got3[:2, :2], got, atol=1e-10)


def test_critical_wrong_regime():
    with pytest.raises(RegimeError):
        critical_covariance(np.diag([0.75]), [[1.0]])


# ==== quadrature limit ====

def test_quadrature_scalar_critical():
    for L in (3.0, 17.0, 50.0):
        got = limit_covariance_quadrature([[0.5]], [[1.0]], L)
        assert got[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_quadrature_zero_gamma():
    got = limit_covariance_quadrature([[0.5, -1.0], [0.0, 0.5]], np.zeros((2, 2)), 10.0)
    assert np.allclose(got, 0.0)


def test_quadrature_jordan_converges_like_1_over_L():
    Dh = [[0.5, -1.0], [0.0, 0.5]]
    G = np.diag([1.0, 0.0])
    target = np.array([[0.0, 0.0], [0.0, 1.0 / 3.0]])
    errs = []
    for L in (50.0, 100.0, 200.0):
        got = limit_covariance_quadrature(Dh, G, L)
        errs.append(np.abs(got - target).max())
    assert errs[0] > errs[1] > errs[2]
    # error roughly halves with L
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.25)


def test_quadrature_standard_regime_plain_integral():
    # no critical layer: normalization exponent is 0
    Dh = np.diag([0.75, 1.0])
    got = limit_covariance_quadrature(Dh, np.eye(2), 200.0)
    assert np.allclose(got, np.diag([2.0, 1.0]), atol=1e-8)


def test_critical_nu1_matches_richardson_quadrature():
    Dh = np.array([[0.5, 0.3], [0.0, 0.8]])
    G = np.array([[1.0, 0.2], [0.2, 0.5]])
    exact = critical_covariance(Dh, G)
    a = limit_covariance_quadrature(Dh, G, 100.0)
    b = limit_covariance_quadrature(Dh, G, 200.0)
    extrap = 2.0 * b - a
    denom = max(1e-12, np.linalg.norm(exact))
    assert np.linalg.norm(extrap - exact) / denom <= 0.05


# ==== slow regime ====

def test_slow_descriptor_complex_pair():
    H = 0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])
    d = slow_regime_descriptor(spectral_profile(H), H)
    freqs = sorted(c.frequency for c in d.components)
    assert freqs == pytest.approx([-0.3, 0.3])
    for c in d.components:
        assert np.linalg.norm(c.direction @ H - c.value * c.direction) <= 1e-10


def test_slow_descriptor_diagonal():
    H = np.diag([0.3, 0.8])
    d = slow_regime_descriptor(spectral_profile(H), H)
    assert len(d.components) == 1
    c = d.components[0]
    assert c.frequency == 0.0
    assert np.allclose(c.direction, [1.0, 0.0], atol=1e-12)


def test_slow_descriptor_defective_single_block():
    H = np.array([[0.3, -1.0], [0.0, 0.3]])
    d = slow_regime_descriptor(spectral_profile(H), H)
    assert d.nu == 2
    assert len(d.components) == 1
    c = d.components[0]
    assert c.value == pytest.approx(0.3)
    assert np.linalg.norm(c.direction @ H - 0.3 * c.direction) <= 1e-10


def test_slow_descriptor_two_defective_blocks_needs_basis():
    # lambda = 0.3 with two order-2 blocks: ambiguous without a chain basis
    J = np.zeros((4, 4))
    for i in range(4):
        J[i, i] = 0.3
    J[0, 1] = J[2, 3] = 1.0
    with pytest.raises(ChainBasisRequiredError):
        slow_regime_descriptor(spectral_profile(J), J)


def test_slow_descriptor_wrong_regime():
    H = np.diag([0.75])
    with pytest.raises(RegimeError):
        slow_regime_descriptor(spectral_profile(H), H)


def test_slow_descriptor_follows_the_callers_tolerance():
    # rho = 1/2 - 5e-10 is Critical at the default rho_tol but Slow at 0
    H = np.diag([0.5 - 5e-10, 1.0])
    rep = analyze(H, np.eye(2), rho_tol=0.0)
    assert rep.regime.tag == "Slow"
    assert len(rep.slow_descriptor.components) == 1
    assert np.allclose(rep.slow_descriptor.components[0].direction, [1.0, 0.0])


# ==== assembled report ====

def test_analyze_standard():
    rep = analyze(np.diag([0.75, 1.0]), np.eye(2))
    assert rep.regime.tag == "Standard"
    assert rep.covariance is not None and rep.slow_descriptor is None
    assert np.allclose(rep.covariance, np.diag([2.0, 1.0]))
    assert rep.as_rate_exponent == 0.5


def test_analyze_critical_with_basis():
    rep = analyze([[0.5, -1.0], [0.0, 0.5]], np.diag([1.0, 0.0]),
                  chain_basis=np.diag([1.0, -1.0]))
    assert rep.regime.tag == "Critical"
    assert np.allclose(rep.covariance, [[0.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-10)


def test_analyze_slow():
    H = 0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])
    rep = analyze(H, np.eye(2))
    assert rep.regime.tag == "Slow"
    assert rep.covariance is None and rep.slow_descriptor is not None
    assert rep.as_rate_exponent == pytest.approx(0.3)


def test_analyze_limit_object_follows_its_tolerance():
    # just above 1/2: Standard at rho_tol = 0, with the Lyapunov covariance
    rep = analyze(np.diag([0.5 + 5e-10, 1.0]), np.eye(2), rho_tol=0.0)
    assert rep.regime.tag == "Standard"
    assert rep.covariance[0, 0] == pytest.approx(1e9, rel=1e-6)
    # a wide band: the covariance sits on the rho = 0.55 layer that set it
    rep = analyze(np.diag([0.55, 1.0]), np.eye(2), rho_tol=0.1)
    assert rep.regime.tag == "Critical"
    assert np.allclose(rep.covariance, np.diag([1.0, 0.0]), atol=1e-12)
    assert rep.scale(100) == pytest.approx(10.0 / np.sqrt(np.log(100.0)))


@pytest.fixture
def profile_calls(monkeypatch):
    """Counts spectral_profile calls through every urnlab module binding."""
    calls = []

    def counted(H):
        calls.append(np.shape(H))
        return spectral_profile(H)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("urnlab")
                and getattr(mod, "spectral_profile", None) is spectral_profile):
            monkeypatch.setattr(mod, "spectral_profile", counted)
    return calls


def test_one_spectral_profile_per_matrix(profile_calls):
    entries = [
        (lambda: analyze(np.diag([0.75, 1.0]), np.eye(2)), 1),
        (lambda: analyze(0.3 * np.array([[1.0, -1.0], [1.0, 1.0]]), np.eye(2)), 1),
        (lambda: clt_covariance(np.diag([0.75, 1.0]), np.eye(2)), 1),
        (lambda: critical_covariance([[0.5, -1.0], [0.0, 0.5]], np.eye(2),
                                     chain_basis=np.diag([1.0, -1.0])), 1),
        # H/alpha and the embedding Dh*, in each regime
        (lambda: urn_asymptotics(friedman_urn()), 2),
        (lambda: urn_asymptotics(mixing_urn(0.25)), 2),
        (lambda: urn_asymptotics(mixing_urn(0.125)), 2),
    ]
    for call, want in entries:
        profile_calls.clear()
        call()
        assert len(profile_calls) == want


def test_report_round_trips_to_dict():
    rep = analyze(np.diag([0.75, 1.0]), np.eye(2))
    d = json.loads(canonical_json(rep))
    assert d["regime"] == "standard" and d["scaling"] == rep.regime.scaling
    assert d["covariance"] == rep.covariance.tolist()
    H = 0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])
    d2 = json.loads(canonical_json(analyze(H, np.eye(2))))
    assert d2["covariance"] is None
    assert len(d2["slow_descriptor"]["components"]) == 2
