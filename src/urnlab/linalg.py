"""Dense matrix kernels: exponential, real powers, Lyapunov solves,
two-sided eigensystems, and the exp-sandwich integral.

Decompositions (Schur, eig, svd) and the matrix exponential (scipy
``expm``, Al-Mohy & Higham 2009) come from scipy; everything assembled on
top of them lives here so tolerances and error behaviour are under our
control. The exp-sandwich integral is exact up to rounding: one
exponential of a block matrix (Van Loan 1978) over a short step, doubled
up to the horizon. scipy.linalg is imported by the functions that call
it: at module level it would add about 0.3 s to every urnlab start-up.
"""

import dataclasses
import math

import numpy as np

from .errors import InvalidArgumentError, NonConvergenceError, SpectrumError

# eigenvalues within CLUSTER_RTOL times the spectral radius (at least 1) are one
# cluster; singular values at or below RANK_RTOL times the largest are zero
CLUSTER_RTOL = 1e-7
RANK_RTOL = 1e-8


def _check_square(A, name, stack=False):
    """A as an array; a square matrix, or with ``stack`` a stack of them."""
    A = np.asarray(A)
    if not (A.ndim == 2 or stack and A.ndim > 2) or A.shape[-1] != A.shape[-2]:
        raise InvalidArgumentError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return A


def check_sym_psd(G, name="G"):
    """Validate symmetry and positive semidefiniteness, both to 1e-10
    relative; returns symmetrized G."""
    G = _check_square(G, name)
    if np.iscomplexobj(G):
        raise InvalidArgumentError(f"{name} must be real")
    G = G.astype(float)
    gnorm = np.linalg.norm(G, "fro")
    if np.linalg.norm(G - G.T, "fro") > 1e-10 * (1.0 + gnorm):
        raise InvalidArgumentError(f"{name} must be symmetric")
    Gs = 0.5 * (G + G.T)
    ev = np.linalg.eigvalsh(Gs)
    if ev[0] < -1e-10 * (1.0 + max(ev[-1], 0.0)):
        raise InvalidArgumentError(
            f"{name} must be positive semidefinite, min eigenvalue {ev[0]:.3e}")
    return Gs


def psd_factor(C):
    """For each PSD matrix C_k of the stack C (K, n, n), rows F_k with
    F_k^T F_k = C_k: one per eigenvalue above 1e-12 of C_k's largest. A
    single matrix is the length-1 stack."""
    w, V = np.linalg.eigh(C)
    cut = 1e-12 * np.maximum(w.max(axis=-1), 0.0)
    keep = w > cut[:, None]
    return [(Vk[:, kk] * np.sqrt(wk[kk])).T for wk, Vk, kk in zip(w, V, keep)]


def mat_exp(A):
    """Matrix exponential (scipy ``expm``) of a finite square matrix, or of
    each matrix of a stack (..., n, n)."""
    import scipy.linalg

    return scipy.linalg.expm(_check_square(A, "A", stack=True))


def mat_power(A, t):
    """A^t = exp(A log t) for real t > 0; for an array t, the stack of
    A^t over its entries, in one stacked exponential."""
    A = _check_square(A, "A")
    t = np.asarray(t, dtype=float)
    bad = t[~(t > 0.0)]
    if bad.size:
        raise InvalidArgumentError(f"matrix power needs t > 0, got {bad[0]}")
    # one scalar np.log per entry, so each log rounds as a lone call does
    logs = np.array([np.log(x) for x in t.ravel().tolist()]).reshape(t.shape)
    return mat_exp(A * logs[..., None, None])


def solve_lyapunov(B, G):
    """Solve B^T X + X B = G for symmetric PSD G.

    Requires every eigenvalue of B to have positive real part, so that
    X = integral_0^inf exp(-B^T u) G exp(-B u) du exists and is the unique
    solution. Bartels-Stewart on the complex Schur form of B^T; a residual
    above 1e-10 relative raises NonConvergenceError.
    """
    B = _check_square(B, "B")
    G = _check_square(G, "G")
    if B.shape != G.shape:
        raise InvalidArgumentError(f"shape mismatch: B {B.shape} vs G {G.shape}")
    if np.iscomplexobj(B) or np.iscomplexobj(G):
        raise InvalidArgumentError("solve_lyapunov expects real matrices")
    B = B.astype(float)
    G = G.astype(float)
    gnorm = np.linalg.norm(G, "fro")
    Gs = check_sym_psd(G, "G")

    w = np.linalg.eigvals(B)
    i_min = int(np.argmin(w.real))
    if w[i_min].real <= 0.0:
        raise SpectrumError(
            f"eigenvalue {w[i_min]:.6g} of B has non-positive real part; "
            "stationary solution does not exist", eigenvalue=complex(w[i_min]))

    import scipy.linalg

    # B^T X + X B = G with real B is A X + X A^H = G for A = B^T
    T, Q = scipy.linalg.schur(B.T, output="complex")
    C = Q.conj().T @ Gs.astype(complex) @ Q
    d = B.shape[0]
    Y = np.zeros((d, d), dtype=complex)
    for i in range(d - 1, -1, -1):
        for j in range(d - 1, -1, -1):
            rhs = C[i, j]
            if i < d - 1:
                rhs -= T[i, i + 1:] @ Y[i + 1:, j]
            if j < d - 1:
                rhs -= Y[i, j + 1:] @ T[j, j + 1:].conj()
            Y[i, j] = rhs / (T[i, i] + T[j, j].conjugate())
    X = Q @ Y @ Q.conj().T
    X = 0.5 * (X + X.conj().T)
    X = X.real

    resid = np.linalg.norm(B.T @ X + X @ B - Gs, "fro")
    if resid > 1e-10 * (1.0 + gnorm):
        raise NonConvergenceError(
            f"Lyapunov residual {resid:.3e} exceeds tolerance", residual=resid)
    return X


@dataclasses.dataclass(frozen=True)
class ComplexSpectrum:
    """Two-sided eigensystem of a square matrix.

    ``A @ right[:, i] = values[i] * right[:, i]`` and
    ``left[i, :] @ A = values[i] * left[i, :]``. Values are sorted by
    descending real part, ties by descending imaginary part. Pairs whose
    eigenvalue is simple (relative gap above CLUSTER_RTOL) are scaled so
    that ``left[i] @ right[:, i] = 1``. ``residual`` is the worst normalized
    defect over all reported pairs; above 1e-6 it raises.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    residual: float


def eigen_left_right(A):
    """Eigenvalues with matched right columns and left rows."""
    import scipy.linalg

    A = _check_square(A, "A")
    try:
        w, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NonConvergenceError(f"eigendecomposition failed: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real))
    w = w[order]
    vr = vr[:, order]
    left = vl[:, order].conj().T

    scale = max(1.0, float(np.max(np.abs(w))))
    for i in range(w.size):
        gaps = np.abs(w - w[i])
        gaps[i] = np.inf
        if gaps.min() > CLUSTER_RTOL * scale:
            dot = left[i] @ vr[:, i]
            if abs(dot) > 1e-12:
                left[i] = left[i] / dot

    resid = 0.0
    anorm = max(1.0, np.linalg.norm(A, 1))
    for i in range(w.size):
        dr = np.linalg.norm(A @ vr[:, i] - w[i] * vr[:, i])
        dl = np.linalg.norm(left[i] @ A - w[i] * left[i])
        resid = max(resid,
                    dr / (anorm * np.linalg.norm(vr[:, i])),
                    dl / (anorm * np.linalg.norm(left[i])))
    if resid > 1e-6:
        raise NonConvergenceError(
            f"eigenpair residual {resid:.3e} exceeds 1.0e-06",
            residual=resid)
    return ComplexSpectrum(values=w, right=vr, left=left, residual=resid)


def numerical_rank(A):
    """Number of singular values above RANK_RTOL * sigma_max."""
    A = np.asarray(A)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def integral_exp_sandwich(B, G, upper):
    """integral_0^upper exp(-B^T u) G exp(-B u) du, in closed form; for an
    array of limits, the stack of the integrals over its entries.

    Over a step h with h ||B||_1 <= 1, the exponential of
    h [[B^T, G], [0, -B]] has E = exp(-B h) as its lower-right block and
    E^T times its upper-right block is I(h) (Van Loan 1978). The step is
    doubled up to ``upper`` with I(2h) = I(h) + E^T I(h) E, E <- E E. All
    limits share one stacked exponential; each slice doubles only as often
    as its own limit needs. A result that overflows raises
    NonConvergenceError naming the first overflowing limit, whose flat
    position is its ``index``.
    """
    B = _check_square(B, "B").astype(float)
    G = _check_square(G, "G").astype(float)
    if B.shape != G.shape:
        raise InvalidArgumentError(f"shape mismatch: B {B.shape} vs G {G.shape}")
    upper = np.asarray(upper, dtype=float)
    limits = upper.ravel().tolist()
    for u in limits:
        if not 0.0 < u < math.inf:
            raise InvalidArgumentError(
                f"upper limit must be positive and finite, got {u}")
    nrm = float(np.linalg.norm(B, 1))
    doublings = np.zeros(len(limits), dtype=int)
    if nrm > 0.0:
        doublings[:] = [max(0, math.ceil(math.log2(u) + math.log2(nrm)))
                        for u in limits]
    h = np.array([math.ldexp(u, -n) for u, n in zip(limits, doublings.tolist())])
    M = np.block([[B.T, G], [np.zeros_like(B), -B]])
    F = mat_exp(h[:, None, None] * M)
    d = B.shape[0]
    E = F[:, d:, d:]
    out = E.swapaxes(1, 2) @ F[:, :d, d:]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(doublings.max(initial=0)):
            due = doublings > j
            Ed = E[due]
            out[due] = out[due] + Ed.swapaxes(1, 2) @ out[due] @ Ed
            E[due] = Ed @ Ed
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        raise NonConvergenceError(
            f"exp-sandwich integral overflows on [0, {limits[bad[0]]:g}]",
            residual=float("inf"), index=int(bad[0]))
    return out.reshape(upper.shape + (d, d))
