import numpy as np
import pytest

from urnlab.errors import InvalidArgumentError, NonConvergenceError, SpectrumError
from urnlab.linalg import (
    eigen_left_right,
    integral_exp_sandwich,
    mat_exp,
    mat_power,
    numerical_rank,
    solve_lyapunov,
)
from oracles import quad_sandwich, taylor_expm, taylor_scaled_expm


def rand_matrix(rng, d, scale=1.0):
    return scale * rng.standard_normal((d, d))


def test_mat_exp_nilpotent():
    got = mat_exp([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_mat_exp_matches_taylor_small_norm():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4, 6):
        A = rand_matrix(rng, d)
        A *= 2.0 / max(np.linalg.norm(A, 1), 1e-12)
        ref = taylor_expm(A, terms=40)
        got = mat_exp(A)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mat_exp_large_norm_against_squared_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = rand_matrix(rng, 5)
        A *= 50.0 / np.linalg.norm(A, 1)
        ref = taylor_scaled_expm(A)
        got = mat_exp(A)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref) + 1e-12


def test_mat_exp_inverse_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rand_matrix(rng, 4)
        A *= 10.0 / np.linalg.norm(A, 1)
        P = mat_exp(A) @ mat_exp(-A)
        assert np.linalg.norm(P - np.eye(4)) <= 1e-9


def test_mat_exp_complex_input():
    A = np.array([[0.3 + 0.4j, 0.0], [0.0, -0.2j]])
    got = mat_exp(A)
    assert np.allclose(np.diag(got), np.exp(np.diag(A)), rtol=1e-13)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        mat_exp(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        mat_exp([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        mat_exp(np.ones((2, 2, 3)))


def test_mat_power_jordan_block():
    lam = 0.7
    A = [[lam, 1.0], [0.0, lam]]
    for t in (0.5, 1.0, 7.0, 100.0):
        got = mat_power(A, t)
        tl = t ** lam
        want = [[tl, tl * np.log(t)], [0.0, tl]]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_mat_power_semigroup():
    rng = np.random.default_rng(3)
    A = rand_matrix(rng, 3)
    got = mat_power(A, 2.5) @ mat_power(A, 1.7)
    want = mat_power(A, 2.5 * 1.7)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_mat_power_rejects_nonpositive_t():
    for t in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError):
            mat_power(np.eye(2), t)
    with pytest.raises(InvalidArgumentError, match="got -1.0"):
        mat_power(np.eye(2), [2.0, -1.0])


def test_lyapunov_diagonal_known_answer():
    # B = diag(b): X_kk = G_kk / (2 b_k)
    X = solve_lyapunov(np.diag([0.25, 0.5]), np.eye(2))
    assert np.allclose(X, np.diag([2.0, 1.0]), atol=1e-12)


def test_lyapunov_matches_infinite_integral():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        A = rand_matrix(rng, d, 0.4)
        B = A + (0.6 + abs(np.linalg.eigvals(A).real).max()) * np.eye(d)
        R = rand_matrix(rng, d)
        G = R @ R.T
        X = solve_lyapunov(B, G)
        ref = quad_sandwich(B, G, 80.0)
        assert np.linalg.norm(X - ref) <= 1e-7 * (1.0 + np.linalg.norm(ref))
        assert np.linalg.norm(B.T @ X + X @ B - G) <= 1e-10 * (1.0 + np.linalg.norm(G))


def test_lyapunov_result_symmetric_psd():
    rng = np.random.default_rng(5)
    A = rand_matrix(rng, 4, 0.3)
    B = A + 1.5 * np.eye(4)
    R = rand_matrix(rng, 4)
    X = solve_lyapunov(B, R @ R.T)
    assert np.allclose(X, X.T)
    assert np.linalg.eigvalsh(X).min() >= -1e-12


def test_lyapunov_rejects_unstable_spectrum():
    with pytest.raises(SpectrumError) as exc:
        solve_lyapunov(np.diag([1.0, -0.3]), np.eye(2))
    assert abs(exc.value.eigenvalue - (-0.3)) < 1e-12


def test_lyapunov_rejects_bad_G():
    B = np.eye(2)
    with pytest.raises(InvalidArgumentError):
        solve_lyapunov(B, [[0.0, 1.0], [-1.0, 0.0]])  # antisymmetric
    with pytest.raises(InvalidArgumentError):
        solve_lyapunov(B, [[-1.0, 0.0], [0.0, 1.0]])  # indefinite


def test_eigen_left_right_simple():
    A = np.array([[0.6, 0.0], [0.3, 0.8]])
    es = eigen_left_right(A)
    assert np.allclose(es.values, [0.8, 0.6])
    for i in range(2):
        assert np.allclose(A @ es.right[:, i], es.values[i] * es.right[:, i], atol=1e-12)
        assert np.allclose(es.left[i] @ A, es.values[i] * es.left[i], atol=1e-12)
        assert abs(es.left[i] @ es.right[:, i] - 1.0) <= 1e-10


def test_eigen_left_right_symmetric_swap():
    es = eigen_left_right([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(es.values, [1.0, -1.0])
    r = np.abs(es.right)
    assert np.allclose(r[:, 0], [1.0, 1.0] / np.sqrt(2.0))
    assert np.allclose(r[:, 1], [1.0, 1.0] / np.sqrt(2.0))
    # symmetric matrix: left rows equal transposed right columns
    assert np.allclose(es.left, es.right.T)


def test_eigen_left_right_complex_pair_sorted():
    A = 0.3 * np.array([[1.0, -1.0], [1.0, 1.0]])
    es = eigen_left_right(A)
    w = es.values
    assert np.allclose(sorted(w.imag), [-0.3, 0.3])
    assert np.allclose(w.real, [0.3, 0.3])
    assert w[0].imag > w[1].imag  # desc imag tiebreak
    for i in range(2):
        assert np.allclose(es.left[i] @ A, w[i] * es.left[i], atol=1e-12)


def test_eigen_left_right_residual_small():
    rng = np.random.default_rng(10)
    es = eigen_left_right(rng.standard_normal((6, 6)))
    assert es.residual < 1e-10


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numerical_rank(A) == 1
    assert numerical_rank(A + 1e-12 * np.array([[0.0, 0.0], [1.0, 0.0]])) == 1


def test_integral_sandwich_scalar_closed_form():
    # d/du e^{-2bu}: integral = g (1 - e^{-2bL}) / (2b)
    b, g, L = 0.7, 1.3, 5.0
    got = integral_exp_sandwich([[b]], [[g]], L)
    want = g * (1.0 - np.exp(-2.0 * b * L)) / (2.0 * b)
    assert abs(got[0, 0] - want) <= 1e-10


def test_integral_sandwich_matches_scipy_quadrature():
    rng = np.random.default_rng(6)
    half = 0.5 * np.eye(2)
    cases = []
    for d in (2, 4):
        A = rand_matrix(rng, d, 0.4)
        R = rand_matrix(rng, d)
        cases.append((A + 1.0 * np.eye(d), R @ R.T, 12.0))
    # B = Dh - I/2 for a standard drift, a defective critical drift and a
    # slow complex pair (Re lambda = 0.3 < 1/2, so the integrand grows)
    standard = np.array([[1.0, 0.3], [0.0, 0.8]]) - half
    cases += [(standard, np.eye(2), 5.0), (standard, np.eye(2), 40.0)]
    cases.append((np.array([[0.0, -1.0], [0.0, 0.0]]), np.diag([1.0, 0.0]), 50.0))
    cases.append((0.3 * np.array([[1.0, -1.0], [1.0, 1.0]]) - half, np.eye(2), 10.0))
    A = rand_matrix(rng, 6, 0.3)
    R = rand_matrix(rng, 6)
    cases.append((A + 0.6 * np.eye(6), R @ R.T, 20.0))
    for B, G, L in cases:
        got = integral_exp_sandwich(B, G, L)
        ref = quad_sandwich(B, G, L)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_integral_sandwich_polynomial_growth():
    # nilpotent B: integrand entries are polynomials in u
    B = np.array([[0.0, -1.0], [0.0, 0.0]])
    G = np.diag([1.0, 0.0])
    L = 50.0
    got = integral_exp_sandwich(B, G, L)
    # exp(-B u) = I - B u; sandwich = [[1, u],[u, u^2]] * g11
    want = np.array([[L, L ** 2 / 2.0], [L ** 2 / 2.0, L ** 3 / 3.0]])
    assert np.max(np.abs(got - want)) <= 1e-9 * L ** 3


def test_integral_sandwich_rejects_bad_upper():
    with pytest.raises(InvalidArgumentError):
        integral_exp_sandwich(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(InvalidArgumentError, match="got 0.0"):
        integral_exp_sandwich(np.eye(2), np.eye(2), [1.0, 0.0])
    # e^{5 u} integrated to 150 exceeds the largest double; in a stack
    # the first overflowing limit is the one named
    with pytest.raises(NonConvergenceError):
        integral_exp_sandwich([[-2.5]], [[1.0]], 150.0)
    with pytest.raises(NonConvergenceError, match=r"\[0, 150\]") as info:
        integral_exp_sandwich([[-2.5]], [[1.0]], [1.0, 150.0, 200.0])
    assert info.value.index == 1


# ==== stacks ====

@pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
def test_stacked_kernels_equal_their_slices(d):
    # a stack of limits or powers is the stack of the scalar calls, bit for
    # bit, with each slice doubling only as often as its own limit needs
    rng = np.random.default_rng(d)
    A = rand_matrix(rng, d, 0.7)
    root = rng.standard_normal((d, d))
    G = root.T @ root
    upper = np.array([1e-3, 0.3, 2.0, 9.5, 40.0])
    got = integral_exp_sandwich(A, G, upper)
    assert got.shape == (5, d, d)
    for k, u in enumerate(upper):
        assert np.array_equal(got[k], integral_exp_sandwich(A, G, u))
    t = np.array([[0.05, 0.5], [1.0, 7.0]])
    P = mat_power(A, t)
    assert P.shape == (2, 2, d, d)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(P[i, j], mat_power(A, t[i, j]))
    stack = np.stack([A * c for c in (0.1, 1.0, 4.0)])
    E = mat_exp(stack)
    for k in range(3):
        assert np.array_equal(E[k], mat_exp(stack[k]))


def test_stacked_kernels_accept_an_empty_stack():
    assert integral_exp_sandwich(np.eye(2), np.eye(2), []).shape == (0, 2, 2)
    assert mat_power(np.eye(3), []).shape == (0, 3, 3)
