"""Convergence-regime analysis for the recursion
theta_{n+1} = theta_n - h(theta_n)/(n+1) + (noise + remainder)/(n+1).

Given the drift Jacobian Dh at the root and the martingale covariance Gamma,
the limit behaviour of theta_n is governed by rho = min Re(lambda) over the
spectrum of Dh and by nu, the largest Jordan block order on that layer:

  rho > 1/2   sqrt(n) CLT with covariance from a Lyapunov solve,
  rho = 1/2   sqrt(n)/(log n)^{nu-1/2} CLT with a layer-restricted covariance,
  rho < 1/2   n^rho/(log n)^{nu-1} convergence to a random limit carried by
              left eigenvectors, with log-periodic rotation for complex
              eigenvalues.

Jordan chains are never computed numerically: when a contributing eigenvalue
is defective with more than one block, the caller must supply a basis T which
is validated against the block-canonical form it claims to realize.
"""

import dataclasses
import math

import numpy as np

from .errors import (
    AssumptionViolationError,
    ChainBasisRequiredError,
    InvalidArgumentError,
    InvalidBasisError,
    NonConvergenceError,
    RegimeError,
)
from .linalg import (
    CLUSTER_RTOL,
    RANK_RTOL,
    _check_square,
    check_sym_psd,
    eigen_left_right,
    integral_exp_sandwich,
    numerical_rank,
    solve_lyapunov,
)

# the default rho_tol: |rho - 1/2| at or below it counts as Critical
DEFAULT_RHO_TOL = 1e-9


# ==== domain types ====

@dataclasses.dataclass(frozen=True)
class EigenvalueGroup:
    value: complex
    algebraic_multiplicity: int
    block_sizes: tuple


@dataclasses.dataclass(frozen=True)
class SpectralProfile:
    """Clustered spectrum of a drift Jacobian with Jordan block orders."""

    groups: tuple
    rho: float
    nu: int
    lambda_sec: object  # second-largest real part, None for 1-point spectra
    dim: int
    warnings: tuple = ()

    @property
    def layer_tol(self):
        """Absolute tolerance of a layer and of a cluster: CLUSTER_RTOL
        times the largest |value| (at least 1)."""
        return CLUSTER_RTOL * max(
            1.0, max((abs(g.value) for g in self.groups), default=1.0))

    def layer(self, real_part=None, tol=None):
        """Groups whose Re(value) matches real_part (default: rho) within
        tol (default: layer_tol)."""
        target = self.rho if real_part is None else real_part
        if tol is None:
            tol = self.layer_tol
        return [g for g in self.groups if abs(g.value.real - target) <= tol]


@dataclasses.dataclass(frozen=True)
class Regime:
    tag: str  # Standard | Critical | Slow
    scaling: str


@dataclasses.dataclass(frozen=True)
class SlowComponent:
    value: complex
    frequency: float
    direction: np.ndarray


@dataclasses.dataclass(frozen=True)
class SlowDescriptor:
    components: tuple
    rho: float
    nu: int


@dataclasses.dataclass(frozen=True)
class AsymptoticReport:
    profile: SpectralProfile
    regime: Regime
    covariance: object  # ndarray or None
    slow_descriptor: object  # SlowDescriptor or None
    as_rate_exponent: float

    def to_dict(self):
        """The analyze.json payload, without its kind and provenance: the
        fields, with the regime flattened to its tag and scaling."""
        return dict(vars(self), regime=self.regime.tag.lower(),
                    scaling=self.regime.scaling)

    def scale(self, n):
        """Normalisation of theta_n - theta* under this report's regime."""
        return regime_scale(n, self.regime.tag, self.profile.nu, self.profile.rho)


# ==== spectral profile ====

def _cluster_indices(vals, tol):
    """Union-find grouping of complex values at absolute tolerance tol."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= tol:
                ri, rj = find(i), find(j)
            else:
                continue
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cluster_means(vals):
    """Clusters of the complex array vals at CLUSTER_RTOL x max(1, max |v|),
    each as (mean, indices) with an imaginary part within that tolerance
    zeroed; returns (tolerance, clusters)."""
    tol = CLUSTER_RTOL * max(1.0, float(np.abs(vals).max()))
    clusters = []
    for idx in _cluster_indices(list(vals), tol):
        lam = complex(np.mean(vals[idx]))
        if abs(lam.imag) <= tol:
            lam = complex(lam.real, 0.0)
        clusters.append((lam, idx))
    return tol, clusters


def _block_sizes(H, lam, mult):
    """Jordan block orders for eigenvalue lam via the rank staircase, or None
    when the staircase does not account for the multiplicity.

    count of blocks of size >= k is rank((H-lam I)^{k-1}) - rank((H-lam I)^k).
    Every power of M = (H-lam I)/|H-lam I|_2 is ranked on M's unit scale: a
    power's own largest singular value shrinks with the power, and judged
    against it a vanishing power keeps a spurious full rank. A simple
    eigenvalue is one block of order 1, with no staircase to climb.
    """
    if mult == 1:
        return (1,)
    d = H.shape[0]
    M = H.astype(complex) - lam * np.eye(d)
    nrm = np.linalg.norm(M, 2)
    if nrm == 0.0:
        return tuple([1] * mult)
    M = M / nrm
    ranks = [d]
    P = np.eye(d, dtype=complex)
    floor = d - mult
    for _ in range(mult):
        P = P @ M
        r = max(int(np.sum(np.linalg.svd(P, compute_uv=False) > RANK_RTOL)),
                floor)
        ranks.append(r)
        if r == floor:
            break
    counts_ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(len(counts_ge), 0, -1):
        exactly = counts_ge[k - 1] - (counts_ge[k] if k < len(counts_ge) else 0)
        sizes.extend([k] * exactly)
    sizes.sort(reverse=True)
    return tuple(sizes) if sum(sizes) == mult else None


def spectral_profile(H):
    """Cluster the spectrum of H and derive (rho, nu, lambda_sec).

    Eigenvalues closer than CLUSTER_RTOL (relative to the spectral radius)
    are merged into one group; near-merges are reported in ``warnings``
    rather than split, since block structure is discontinuous there.
    """
    H = _check_square(H, "H").astype(float)
    d = H.shape[0]
    tol, clusters = _cluster_means(np.linalg.eigvals(H))

    warnings = []
    reps = [(lam, len(idx)) for lam, idx in clusters]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = abs(reps[i][0] - reps[j][0])
            if gap < 10.0 * tol:
                warnings.append(
                    f"eigenvalue clusters {reps[i][0]:.6g} and {reps[j][0]:.6g} "
                    f"are separated by {gap:.2e}; block structure may be unreliable")

    groups = []
    for lam, mult in reps:
        sizes = _block_sizes(H, lam, mult)
        if sizes is None:
            # ill conditioning defeated the rank staircase; all-ones blocks
            # keep the multiplicity accounting exact but may understate nu
            sizes = tuple([1] * mult)
            warnings.append(
                f"rank staircase for eigenvalue {lam:.6g} (multiplicity {mult}) "
                "is inconsistent; block sizes fall back to all ones")
        groups.append(EigenvalueGroup(
            value=lam, algebraic_multiplicity=mult, block_sizes=sizes))
    groups.sort(key=lambda g: (-g.value.real, -g.value.imag))

    rho = min(g.value.real for g in groups)
    nu = max(max(g.block_sizes) for g in groups if abs(g.value.real - rho) <= tol)
    distinct = []
    for r in (g.value.real for g in groups):
        if not any(abs(r - q) <= tol for q in distinct):
            distinct.append(r)
    distinct.sort(reverse=True)
    lambda_sec = distinct[1] if len(distinct) > 1 else None

    return SpectralProfile(groups=tuple(groups), rho=float(rho), nu=int(nu),
                           lambda_sec=lambda_sec, dim=d, warnings=tuple(warnings))


# ==== regime classification ====

def classify_regime(profile, rho_tol=DEFAULT_RHO_TOL):
    """Trichotomy on rho vs 1/2; |rho - 1/2| <= rho_tol counts as Critical."""
    if rho_tol < 0:
        raise InvalidArgumentError(f"rho_tol must be >= 0, got {rho_tol}")
    rho, nu = profile.rho, profile.nu
    if rho <= 0.0:
        raise AssumptionViolationError(
            f"minimum eigenvalue real part {rho:.6g} is not positive; "
            "the recursion is not asymptotically stable")
    if abs(rho - 0.5) <= rho_tol:
        return Regime(tag="Critical", scaling=f"√n/(log n)^{{{2 * nu - 1}/2}}")
    if rho > 0.5:
        return Regime(tag="Standard", scaling="√n")
    if nu == 1:
        return Regime(tag="Slow", scaling=f"n^{{{rho:g}}}")
    return Regime(tag="Slow", scaling=f"n^{{{rho:g}}}/(log n)^{{{nu - 1}}}")


def as_rate(profile):
    """Almost-sure decay exponent min(1/2, rho), modulo n^delta factors."""
    if profile.rho <= 0.0:
        raise AssumptionViolationError(
            f"minimum eigenvalue real part {profile.rho:.6g} is not positive")
    return min(0.5, profile.rho)


def regime_scale(n, tag, nu, rho=None):
    """Normalisation of theta_n - theta* at index n: sqrt(n) (Standard),
    sqrt(n)/(log n)^{nu-1/2} (Critical), n^rho/(log n)^{nu-1} (Slow, rho
    required). A log factor needs n >= 3, where log n exceeds one."""
    if n < 1 or (n < 3 and (tag == "Critical" or (tag == "Slow" and nu != 1))):
        raise InvalidArgumentError(f"n={n} is too small for the {tag} scaling")
    ln = math.log(n)
    if tag == "Standard":
        return math.sqrt(n)
    if tag == "Critical":
        return math.sqrt(n) / ln ** (nu - 0.5)
    if tag != "Slow" or rho is None:
        raise InvalidArgumentError(f"no {tag!r} scaling with rho={rho!r}")
    return n ** rho / ln ** (nu - 1)


# ==== standard regime ====

def clt_covariance(Dh, Gamma):
    """Limit covariance of sqrt(n)(theta_n - theta*): solves
    (Dh - I/2)^T S + S (Dh - I/2) = Gamma."""
    Dh = _check_square(Dh, "Dh").astype(float)
    profile = spectral_profile(Dh)
    if classify_regime(profile).tag != "Standard":
        raise RegimeError(
            f"min Re(lambda) = {profile.rho:.6g} is not above 1/2; "
            "use the critical or slow path")
    return solve_lyapunov(Dh - 0.5 * np.eye(Dh.shape[0]), Gamma)


# ==== critical regime ====

def _snap_block_form(Dh, T):
    """Validate a claimed block-canonical basis T and read off its blocks.

    T^{-1} Dh T is snapped to the nearest block-canonical matrix (clustered
    diagonal, superdiagonal in {0,1}, zeros elsewhere); a snap residual above
    1e-8 relative means T does not realize the form it claims.

    Returns (blocks, Tinv) with blocks = list of (lam, start, size).
    """
    T = _check_square(T, "T")
    if T.shape != Dh.shape:
        raise InvalidArgumentError(f"chain basis shape {T.shape} != Dh shape {Dh.shape}")
    T = T.astype(complex)
    if numerical_rank(T) < T.shape[0]:
        raise InvalidBasisError("chain basis is singular")
    Tinv = np.linalg.inv(T)
    J_hat = Tinv @ Dh.astype(complex) @ T
    d = Dh.shape[0]

    snapped = np.diag(J_hat).copy()
    for lam, idx in _cluster_means(snapped)[1]:
        snapped[idx] = lam

    J_snap = np.diag(snapped)
    for i in range(d - 1):
        s = J_hat[i, i + 1]
        if abs(s - 1.0) < abs(s) and snapped[i] == snapped[i + 1]:
            J_snap[i, i + 1] = 1.0
    resid = np.linalg.norm(J_hat - J_snap, "fro")
    lim = 1e-8 * (1.0 + np.linalg.norm(Dh, "fro"))
    if resid > lim:
        raise InvalidBasisError(
            f"T^-1 Dh T deviates from block-canonical form by {resid:.3e} "
            f"(limit {lim:.3e})", residual=float(resid))

    blocks = []
    start = 0
    for i in range(d):
        last = i == d - 1 or J_snap[i, i + 1] == 0.0
        if last:
            blocks.append((complex(snapped[start]), start, i - start + 1))
            start = i + 1
    return blocks, Tinv


def _semisimple_projector(Dh, lam, tol):
    """Spectral projector onto the (semisimple) eigenvalue cluster at lam."""
    es = eigen_left_right(Dh)
    pick = np.abs(es.values - lam) <= tol
    V = es.right[:, pick]
    W = es.left[pick, :]
    return V @ np.linalg.solve(W @ V, W)


def critical_covariance(Dh, Gamma, chain_basis=None, rho_tol=DEFAULT_RHO_TOL):
    """Limit covariance on the critical layer (rho = 1/2).

    With nu the largest block order among eigenvalues at Re(lambda) = rho,

      S = 1/(((nu-1)!)^2 (2 nu - 1)) * sum over block pairs (a, b) with
          lambda_a = lambda_b, Re = rho, nu_a = nu_b = nu of
          (t_a1^* Gamma t_b1) * conj(r_a nu)^T r_b nu,

    where t_a1 is the first basis column of block a and r_a nu the last row
    of the inverse basis. For nu = 1 the sum is basis independent (it only
    involves spectral projectors) and is computed internally; for nu > 1 a
    chain basis must be supplied.
    """
    Dh = _check_square(Dh, "Dh").astype(float)
    profile = spectral_profile(Dh)
    regime = classify_regime(profile, rho_tol)
    if regime.tag != "Critical":
        raise RegimeError(
            f"min Re(lambda) = {profile.rho:.6g} is not 1/2 within {rho_tol:g}; "
            f"regime is {regime.tag}")
    return _layer_covariance(profile, Dh, Gamma, chain_basis)


def _layer_covariance(profile, Dh, Gamma, chain_basis):
    """The critical sum over profile.layer(), the rho layer that set the
    regime and nu (see critical_covariance)."""
    Gs = check_sym_psd(Gamma, "Gamma")
    nu = profile.nu
    d = Dh.shape[0]
    tol = profile.layer_tol
    coeff = 1.0 / (math.factorial(nu - 1) ** 2 * (2 * nu - 1))

    if chain_basis is not None:
        T = np.asarray(chain_basis)
        blocks, Tinv = _snap_block_form(Dh, T)
        contrib = [(lam, s, k) for (lam, s, k) in blocks
                   if abs(lam.real - profile.rho) <= tol and k == nu]
        S = np.zeros((d, d), dtype=complex)
        Tc = T.astype(complex)
        for lam_a, sa, ka in contrib:
            for lam_b, sb, kb in contrib:
                if abs(lam_a - lam_b) > tol:
                    continue
                t_a = Tc[:, sa]
                t_b = Tc[:, sb]
                r_a = Tinv[sa + ka - 1, :]
                r_b = Tinv[sb + kb - 1, :]
                scalar = np.conj(t_a) @ Gs @ t_b
                S += scalar * np.outer(np.conj(r_a), r_b)
        S *= coeff
    elif nu == 1:
        S = np.zeros((d, d), dtype=complex)
        for g in profile.layer():
            P = _semisimple_projector(Dh, g.value, tol)
            S += P.conj().T @ Gs @ P
        S *= coeff
    else:
        raise ChainBasisRequiredError(
            f"critical layer has a Jordan block of order {nu} > 1; supply a "
            "chain basis (numerical Jordan chains are ill-posed)")

    im = float(np.abs(S.imag).max()) if d else 0.0
    re_scale = 1.0 + float(np.abs(S.real).max())
    if im > 1e-10 * re_scale:
        raise NonConvergenceError(
            f"imaginary residue {im:.3e} in critical covariance; conjugate "
            "pairs failed to cancel")
    out = S.real
    return 0.5 * (out + out.T)


def limit_covariance_quadrature(Dh, Gamma, L, rho_tol=DEFAULT_RHO_TOL):
    """Finite-horizon version of the critical limit covariance:
    (1/L^{2 nu - 1}) * integral_0^L exp(-(Dh-I/2)u)^T Gamma exp(-(Dh-I/2)u) du,
    with nu the largest block order among eigenvalues at Re(lambda) = 1/2
    (exponent 0 when that layer is empty, which recovers the plain truncated
    integral of the standard regime)."""
    Dh = _check_square(Dh, "Dh").astype(float)
    L = float(L)
    if L <= 0.0:
        raise InvalidArgumentError(f"horizon L must be positive, got {L}")
    profile = spectral_profile(Dh)
    crit = profile.layer(0.5, max(rho_tol, 0.0))
    p = 2 * max(max(g.block_sizes) for g in crit) - 1 if crit else 0
    B = Dh - 0.5 * np.eye(Dh.shape[0])
    return integral_exp_sandwich(B, Gamma, L) / L ** p


# ==== slow regime ====

def _left_null_rows(H, lam):
    """Orthonormal rows spanning {l : l (H - lam I) = 0}."""
    d = H.shape[0]
    M = (H.astype(complex) - lam * np.eye(d)).T
    _, s, vh = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(d, dtype=complex)
    null = s <= RANK_RTOL * s[0]
    rows = vh[null.nonzero()[0], :].conj()
    return rows


def _fix_phase(row):
    row = row / np.linalg.norm(row)
    k = int(np.argmax(np.abs(row)))
    ph = row[k] / abs(row[k])
    return row / ph


def slow_regime_descriptor(profile, H):
    """Directions and rotation frequencies of the slow-regime limit.

    One component per Jordan block of order nu on the Re(lambda) = rho
    layer; its direction is the block's left eigenvector (the last row of
    the block in the inverse basis). Unique up to scale when the eigenvalue
    carries a single block or is semisimple; otherwise the split of the left
    eigenspace among blocks needs a chain basis, which this routine does not
    take.
    """
    H = _check_square(H, "H").astype(float)
    if not 0.0 < profile.rho < 0.5:
        raise RegimeError(
            f"min Re(lambda) = {profile.rho:.6g} is not in (0, 1/2); "
            "the regime is not Slow")
    nu = profile.nu
    comps = []
    for g in profile.layer():
        n_contrib = sum(1 for k in g.block_sizes if k == nu)
        if n_contrib == 0:
            continue
        gm = len(g.block_sizes)
        if nu > 1 and gm > 1:
            raise ChainBasisRequiredError(
                f"eigenvalue {g.value:.6g} is defective with {gm} blocks; its "
                "left eigenvectors cannot be matched to blocks without a chain basis")
        rows = _left_null_rows(H, g.value)
        if rows.shape[0] < n_contrib:
            raise NonConvergenceError(
                f"found {rows.shape[0]} left eigenvectors for {g.value:.6g}, "
                f"expected at least {n_contrib}")
        for i in range(n_contrib):
            comps.append(SlowComponent(
                value=g.value,
                frequency=float(g.value.imag),
                direction=_fix_phase(rows[i])))
    return SlowDescriptor(components=tuple(comps), rho=profile.rho, nu=nu)


# ==== assembled report ====

def _limit_object(profile, regime, Dh, Gamma, chain_basis=None, slow=None):
    """(covariance, None) or (None, slow descriptor) for a profile of Dh
    already classified as regime. slow, if given, builds the descriptor in
    place of Dh's left eigenvectors (the urn reads its directions off H)."""
    if regime.tag == "Standard":
        return solve_lyapunov(Dh - 0.5 * np.eye(Dh.shape[0]), Gamma), None
    if regime.tag == "Critical":
        return _layer_covariance(profile, Dh, Gamma, chain_basis), None
    return None, slow() if slow else slow_regime_descriptor(profile, Dh)


def analyze(Dh, Gamma, rho_tol=DEFAULT_RHO_TOL, chain_basis=None):
    """Full pipeline: profile and regime, decided once, and the regime's
    limit object."""
    Dh = _check_square(Dh, "Dh").astype(float)
    profile = spectral_profile(Dh)
    regime = classify_regime(profile, rho_tol)
    cov, slow = _limit_object(profile, regime, Dh, Gamma, chain_basis)
    return AsymptoticReport(profile=profile, regime=regime, covariance=cov,
                            slow_descriptor=slow,
                            as_rate_exponent=as_rate(profile))
