"""Independent oracles the tests compare against.

Everything here is deliberately written from first principles with different
algorithms than the package uses: spline energies come from scipy's natural
cubic spline and an exact piecewise integral, spline coefficients from a
dense solve of the bordered kernel system, the covariance-parameter
minimizer is a projected gradient method, the eigenbasis oracle is a
two-block splitting whose Phi update solves K lasso problems by coordinate
descent, and subspace distances are the norm of a projection residual of the
QR factors.  Slow and simple on purpose.  covariance_reference is the
covariance step read from a p x p sample covariance S, which the package
never forms: the closed-form rule's tests state S, and the row form
(SampleCovariance) is held to it.

evaluate_reference is tps.evaluate with its kernel matrix built whole, by
array expressions from squared distances (radial_reference, in the order of
tps._radial), and multiplied in one product.  The kernel blocks that
tps.evaluate builds in place are required to give its kernel's bits, and
the blocked products its values within 1e-14 of the sum of the terms'
magnitudes, since BLAS promises no bits across row splits.  The kernel's
accuracy is tested against the r-based formulas in extended precision
instead.

The exception is the pair fit_reference / cv_tau_reference: the package's
own three-block iteration run one chain and one (fold, tau1, tau2) cell at a
time (cv_tau_reference takes the closed form at tau2 = 0), so that the
stacked chains of solver.fit_chains can be required to match it bit for
bit.  spectral_term and low_rank_term build the package's two ADMM
Phi-update terms for any data, whatever term precompute_quadratic would
pick, and fit_on_term fits one chain on a given term (solver._fit_group,
the loop fit_chains runs on the terms it builds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_factor, cho_solve

from spatpca import RhoTooSmallError, SolverConfig
from spatpca.covariance import estimate_from_moments
from spatpca.solver import (
    AdmmState,
    LowRankTerm,
    QuadraticTerm,
    _finish,
    _fit_group,
    admm_step,
    initial_phi,
    precompute_quadratic,
)


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spaces of a and b.

    The singular values of (I - Qa Qa') Qb are the sines of the angles, which
    resolves angles down to roundoff; the arccos of the cosines cannot resolve
    angles below sqrt(2 eps), about 2e-8.
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    sine = np.linalg.norm(qb - qa @ (qa.T @ qb), 2)
    return float(np.arcsin(min(sine, 1.0)))


def natural_spline_energy(x: np.ndarray, values: np.ndarray) -> float:
    """integral of (f'')^2 for the natural cubic spline through (x_i, values_i).

    f'' is piecewise linear with knot values m_i, so each interval of width h
    contributes h/3 * (m_i^2 + m_i m_{i+1} + m_{i+1}^2) exactly.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    spline = CubicSpline(x, np.asarray(values, dtype=float), bc_type="natural")
    m = spline(x, 2)
    h = np.diff(x)
    return float(np.sum(h / 3.0 * (m[:-1] ** 2 + m[:-1] * m[1:] + m[1:] ** 2)))


def shrinkage_objective(s, phi, lam, sigma2: float, gamma: float) -> float:
    """(1/2)||S - Phi Lam Phi' - sigma2 I||_F^2 + gamma tr(Lam), Lam PSD assumed."""
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    resid = s - phi @ lam @ phi.T - sigma2 * np.eye(s.shape[0])
    return 0.5 * float(np.sum(resid * resid)) + gamma * float(np.trace(lam))


def spatpca_objective(y, penalty, phi, tau1: float, tau2: float) -> float:
    """||Y - Y Phi Phi'||_F^2 + tau1 tr(Phi' omega Phi) + tau2 sum |phi_jk|."""
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    resid = y - (y @ phi) @ phi.T
    smooth = float(np.sum(phi * (penalty.omega @ phi)))
    return float(np.sum(resid * resid)) + tau1 * smooth + tau2 * float(np.sum(np.abs(phi)))


def covariance_reference(s, basis, gamma: float):
    """The covariance step from a p x p sample covariance s: the rule of
    estimate_from_moments given Phi' S Phi and tr(S) formed from s itself,
    where estimate_parameters forms them from the rows."""
    phi = basis.phi
    return estimate_from_moments(phi.T @ s @ phi, float(np.trace(s)), basis, [gamma])[0]


def _project_psd(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    return (v * np.clip(w, 0.0, None)) @ v.T


def minimize_shrinkage_objective(s, phi, gamma: float, iterations: int = 4000):
    """Projected gradient minimizer over (Lam PSD, sigma2 >= 0).

    The objective is jointly convex and, for K < p, strongly convex, so a
    fixed step below 1/(p + 2) converges linearly from any start.  Runs from
    two starts and returns the better (lam, sigma2, value).
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p, k = phi.shape
    step = 1.0 / (p + 2.0)
    eye_p = np.eye(p)
    m = phi.T @ s @ phi

    starts = [
        (np.zeros((k, k)), 0.0),
        (_project_psd(m), float(np.trace(s)) / p),
    ]
    best = None
    for lam, sigma2 in starts:
        lam = lam.copy()
        for _ in range(iterations):
            resid = s - phi @ lam @ phi.T - sigma2 * eye_p
            grad_lam = -(phi.T @ resid @ phi) + gamma * np.eye(k)
            grad_sigma2 = -float(np.trace(resid))
            lam = _project_psd(lam - step * grad_lam)
            sigma2 = max(0.0, sigma2 - step * grad_sigma2)
        value = shrinkage_objective(s, phi, lam, sigma2, gamma)
        if best is None or value < best[2]:
            best = (lam, sigma2, value)
    return best


def random_orthonormal(rng: np.random.Generator, p: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((p, k)))
    return q * np.sign(np.diag(r))


def random_psd(rng: np.random.Generator, p: int, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else p
    a = rng.standard_normal((p, r))
    return a @ a.T / r


def smooth_rank1_data(
    rng: np.random.Generator,
    x: np.ndarray,
    n: int,
    signal_sd: float = 3.0,
    noise_sd: float = 1.0,
):
    """(y, phi) with y = xi phi' + noise and phi a unit-norm Gaussian bump."""
    x = np.asarray(x, dtype=float).reshape(-1)
    phi = np.exp(-(x**2))
    phi /= np.linalg.norm(phi)
    xi = rng.normal(0.0, signal_sd, size=(n, 1))
    y = xi @ phi[None, :] + rng.normal(0.0, noise_sd, size=(n, x.size))
    return y, phi


def lasso_cd(x, z, start, tau2, col_sq, tol=1e-8, max_sweeps=500):
    """Minimize ||z - x w||^2 + tau2 * ||w||_1 by cyclic coordinate descent."""
    w = start.copy()
    resid = z - x @ w
    half = 0.5 * tau2
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(w.shape[0]):
            old = w[j]
            if old != 0.0:
                resid += x[:, j] * old
            m = float(x[:, j] @ resid)
            new = math.copysign(max(abs(m) - half, 0.0), m) / col_sq[j]
            w[j] = new
            if new != 0.0:
                resid -= x[:, j] * new
            delta = max(delta, abs(new - old))
        if delta <= tol:
            break
    return w


@dataclass(frozen=True)
class LassoInnerFit:
    phi: np.ndarray
    converged: bool
    iterations: int


def fit_lasso_inner(y, penalty, config, rho0=None) -> LassoInnerFit:
    """Two-block splitting for the regularized eigenbasis; Phi update by lasso.

    With B = Y'Y - tau1*omega, X = (rho*I/2 - B)^{1/2} and z_k the k-th column
    of X^{-1}(rho*Q - Gamma)/2, each column of Phi solves

        min_w ||z_k - X w||^2 + tau2 * ||w||_1

    by coordinate descent (inner tolerance 1e-8); then Q is the polar factor
    of Phi + Gamma/rho and Gamma accumulates rho*(Phi - Q).  Reads tau1, tau2,
    k and the rho schedule from config and stops on the scaled maximum of the
    iterate change and the consensus gap, as the package's fit does.  Starts
    from the leading eigenvectors of B at rho0, by default 10 lambda_max(Y'Y)
    (1 for Y = 0).  Raises RhoTooSmallError when rho/2 does not exceed
    lambda_max(B).
    """
    y = np.asarray(y, dtype=float)
    p = y.shape[1]
    k = config.k
    yty = y.T @ y
    b = yty - config.tau1 * penalty.omega
    values, vec = np.linalg.eigh(0.5 * (b + b.T))
    if rho0 is None:
        lam_max = float(np.linalg.eigvalsh(yty)[-1])
        rho0 = 10.0 * lam_max if lam_max > 0 else 1.0
    q = vec[:, ::-1][:, :k].copy()
    for c in range(k):
        if q[int(np.argmax(np.abs(q[:, c]))), c] < 0:
            q[:, c] = -q[:, c]
    phi = q.copy()
    gamma = np.zeros((p, k))
    rho = rho0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        if 0.5 * rho <= values[-1]:
            raise RhoTooSmallError(rho, 2.0 * float(values[-1]))
        root = np.sqrt(0.5 * rho - values)
        x = (vec * root) @ vec.T
        z = (vec / root) @ (vec.T @ (0.5 * (rho * q - gamma)))
        col_sq = np.einsum("ij,ij->j", x, x)
        new_phi = np.empty_like(phi)
        for c in range(k):
            new_phi[:, c] = lasso_cd(x, z[:, c], phi[:, c], config.tau2, col_sq)
        u, _, vt = np.linalg.svd(new_phi + gamma / rho, full_matrices=False)
        new_q = u @ vt
        gamma = gamma + rho * (new_phi - new_q)
        crit = max(np.linalg.norm(new_phi - phi), np.linalg.norm(new_phi - new_q))
        phi, q = new_phi, new_q
        if crit / math.sqrt(p) <= config.tolerance:
            converged = True
            break
        rho = min(rho * config.rho_growth, 1e12 * rho0)
    return LassoInnerFit(phi=q, converged=converged, iterations=iterations)


def radial_reference(s, d: int) -> np.ndarray:
    """g from squared distances s, by whole-array expressions in the order of
    tps._radial: s log(max(s, 5e-324)) / (32 pi) for d = 2, else the d = 1
    coefficient times s sqrt(s) or the d = 3 one times sqrt(s)."""
    if d == 2:
        return s * np.log(np.maximum(s, 5e-324)) / (32.0 * math.pi)
    coeff = math.gamma(d / 2.0 - 2.0) / (16.0 * math.pi ** (d / 2.0))
    return (s * np.sqrt(s) if d == 1 else np.sqrt(s)) * coeff


def kernel_reference(r, d: int) -> np.ndarray:
    """tps.kernel for an array of distances r, from s = r * r."""
    return radial_reference(r * r, d)


def kernel_matrix_reference(a, b, d: int) -> np.ndarray:
    """g(||a_i - b_j||) from the squared norms of an n x m x d difference tensor."""
    diff = a[:, None, :] - b[None, :, :]
    return radial_reference(np.sum(diff * diff, axis=-1), d)


def evaluate_reference(coeffs, domain, query) -> np.ndarray:
    """tps.evaluate for a q x d query, with the kernel matrix built whole."""
    q = np.asarray(query, dtype=float)
    g = kernel_matrix_reference(q, domain.locations, domain.d)
    return g @ coeffs.a + coeffs.b[0] + q @ coeffs.b[1:]


def affine_design(locations) -> np.ndarray:
    """The p x (d + 1) affine design e, row i equal to (1, s_i')."""
    loc = np.asarray(locations, dtype=float)
    return np.column_stack([np.ones(len(loc)), loc])


def penalty_reference(domain) -> np.ndarray:
    """omega = q2 (q2' g q2)^{-1} q2' by a complete QR of e = [q1 q2] [r1; 0],
    three p x p products and a Cholesky solve with p - d - 1 right-hand sides:
    the null-space formula written out, about 8 p^3 flops."""
    loc = domain.locations
    g = kernel_matrix_reference(loc, loc, domain.d)
    q2 = np.linalg.qr(affine_design(loc), mode="complete")[0][:, domain.d + 1 :]
    core = q2.T @ g @ q2
    omega = q2 @ cho_solve(cho_factor(0.5 * (core + core.T)), q2.T)
    return 0.5 * (omega + omega.T)


def bordered_coefficients_reference(domain, values) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the interpolating spline from one dense solve of the bordered
    system [[G, E], [E', 0]] [a; b] = [v; 0], G and E built from the sites."""
    loc = domain.locations
    v = np.asarray(values, dtype=float)
    e = affine_design(loc)
    m = e.shape[1]
    system = np.block([[kernel_matrix_reference(loc, loc, domain.d), e], [e.T, np.zeros((m, m))]])
    solution = np.linalg.solve(system, np.concatenate([v, np.zeros((m, *v.shape[1:]))]))
    return solution[: len(loc)], solution[len(loc) :]


def spectral_term(y, penalty, tau1) -> QuadraticTerm:
    """The spectral term for Y'Y - tau1*omega, whatever the shape of y."""
    y = np.asarray(y, dtype=float)
    values, vectors = np.linalg.eigh(y.T @ y - tau1 * penalty.omega)
    return QuadraticTerm(vectors, values, float(np.linalg.norm(y, 2) ** 2))


def low_rank_term(y, penalty, tau1) -> LowRankTerm:
    """The Woodbury term for Y'Y - tau1*omega, whatever the shape of y
    (the package builds it for far fewer rows than sites), with the
    package's closed form of y at tau1 for its start."""
    y = np.asarray(y, dtype=float)
    values, vectors = penalty.spectrum
    closed = precompute_quadratic(y, penalty, 0)(tau1)
    lam_max = float(np.linalg.norm(y, 2) ** 2)
    return LowRankTerm(vectors, values, y @ vectors, tau1, lam_max, closed)


def chain_on_term(y, config, quad, tau2_values):
    """The bases of one fit_chains chain at config.tau1 along tau2_values, in
    order, with the term quad in place of the one fit_chains builds."""
    t2s = np.asarray(tau2_values, dtype=float)
    return [basis for _, _, basis in _fit_group([y], [config.tau1], [quad], config, t2s)]


def fit_on_term(y, config, quad):
    """solver.fit with the term quad in place of the one fit builds."""
    return chain_on_term(y, config, quad, [config.tau2])[0]


def fit_reference(y, penalty, config, warm_start=None, quad=None):
    """One chain of the package's ADMM, stepped alone with two-dimensional
    blocks and a scalar rho: the loop solver.fit ran before chains were
    stacked.  Returns the same EigenBasis as fit at tau2 > 0, and runs the
    ADMM at tau2 = 0 too, where fit takes the closed form, on the term fit
    takes at a tau2 above 0.  rho starts at 10 ||Y||_2^2 (1 for Y = 0), or
    at 10 times the term's floor_bound where that start does not exceed it."""
    y = np.asarray(y, dtype=float)
    p = y.shape[1]
    if quad is None:
        quad = precompute_quadratic(y, penalty, 1)(config.tau1)
    rho0 = 10.0 * quad.lam_max_yty if quad.lam_max_yty > 0 else 1.0
    if rho0 <= quad.floor_bound:
        rho0 = 10.0 * quad.floor_bound
    if warm_start is None:
        q0 = initial_phi(quad, config.k)
    else:
        q0 = np.array(warm_start, dtype=float)
    zeros = np.zeros((p, config.k))
    state = AdmmState(phi=q0, q=q0, r=q0.copy(), gamma1=zeros, gamma2=zeros.copy(), rho=rho0)

    def fro(m):
        return float(np.sqrt(np.sum(m * m)))

    scale = 1.0 / math.sqrt(p)
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        prev_phi = state.phi
        state = admm_step(state, quad, config.tau2)
        crit = scale * max(
            fro(state.phi - prev_phi), fro(state.phi - state.r), fro(state.phi - state.q)
        )
        if crit <= config.tolerance:
            converged = True
            break
        state = AdmmState(
            phi=state.phi, q=state.q, r=state.r, gamma1=state.gamma1, gamma2=state.gamma2,
            rho=min(state.rho * config.rho_growth, 1e12 * rho0),
        )
    return _finish([y], [config], state.q[None], [converged], [iterations])[1][0]


def cv_tau_reference(y, penalty, k, grid, folds):
    """(criterion, converged, iterations) of cv_tau, one cell at a time.

    For each fold and tau1, the term cv_tau uses, then fit_reference along the
    tau2 grid, each fit warm started from the last; at tau2 = 0 the closed
    form, the leading eigenvectors of the term with no iteration.  The
    held-out error is accumulated into the criterion in fold order.
    """
    y = np.asarray(y, dtype=float)
    t1s, t2s = grid.tau1_values, grid.tau2_values
    crit = np.zeros((t1s.size, t2s.size))
    conv = np.ones((t1s.size, t2s.size), dtype=bool)
    iters = np.zeros((t1s.size, t2s.size), dtype=int)
    for m in range(1, folds.m + 1):
        mask = folds.assignment == m
        y_tr, y_va = y[~mask], y[mask]
        va_sq = float(np.sum(y_va * y_va))
        for i, t1 in enumerate(t1s):
            quad = precompute_quadratic(y_tr, penalty, np.count_nonzero(t2s))(t1)
            warm = None
            for j, t2 in enumerate(t2s):
                cfg = SolverConfig(tau1=float(t1), tau2=float(t2), k=k)
                if t2 == 0:
                    basis = _finish([y_tr], [cfg], initial_phi(quad, k)[None], [True], [0])[1][0]
                else:
                    basis = fit_reference(y_tr, penalty, cfg, warm_start=warm, quad=quad)
                warm = basis.phi
                proj = y_va @ basis.phi
                crit[i, j] += va_sq - float(np.sum(proj * proj))
                conv[i, j] &= basis.converged
                iters[i, j] += basis.iterations
    crit /= folds.m
    return crit, conv, iters
