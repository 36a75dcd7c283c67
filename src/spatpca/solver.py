"""Regularized eigenbasis estimation.

Minimizes, over p x K matrices Phi with orthonormal columns,

    ||Y - Y Phi Phi'||_F^2 + tau1 * sum_k phi_k' omega phi_k
                           + tau2 * sum_jk |phi_jk|

by an augmented-Lagrangian splitting with an increasing penalty parameter
rho.  Every update of the three-block scheme is in closed form: a shifted
solve against the spectral factorization of Y'Y - tau1*omega, a polar factor
for orthonormality and a soft threshold for sparsity.  The exactly
orthonormal block is returned as the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tps import PenaltyOperator

__all__ = [
    "RhoTooSmallError",
    "SolverConfig",
    "AdmmState",
    "EigenBasis",
    "QuadraticTerm",
    "soft_threshold",
    "initial_phi",
    "precompute_quadratic",
    "admm_step",
    "fit",
]


class RhoTooSmallError(ValueError):
    """rho does not make the Phi-update quadratic term positive definite."""

    def __init__(self, rho: float, min_rho: float):
        super().__init__(
            f"rho = {rho:.6g} is too small for a positive definite update; "
            f"need rho > {min_rho:.6g}"
        )
        self.min_rho = min_rho


@dataclass(frozen=True)
class SolverConfig:
    """Penalty weights and iteration controls.

    rho0 = "auto" starts the penalty parameter at 10 times the largest
    eigenvalue of Y'Y, which guarantees the positive definiteness the updates
    require.  rho is multiplied by rho_growth each iteration and capped at
    1e12 * rho0.
    """

    tau1: float = 0.0
    tau2: float = 0.0
    k: int = 1
    rho0: float | str = "auto"
    rho_growth: float = 1.5
    tolerance: float = 1e-6
    max_iterations: int = 1000

    def __post_init__(self):
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if isinstance(self.rho0, str):
            if self.rho0 != "auto":
                raise ValueError('rho0 must be "auto" or a positive number')
        elif self.rho0 <= 0:
            raise ValueError('rho0 must be "auto" or a positive number')
        if self.rho_growth <= 1.0:
            raise ValueError("rho_growth must exceed 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class AdmmState:
    """One iterate: primal blocks phi/q/r, multipliers gamma1/gamma2, and rho.

    q carries the orthonormality constraint (columns orthonormal to 1e-12
    after every update); r carries the sparsity constraint.
    """

    phi: np.ndarray
    q: np.ndarray
    r: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    rho: float


@dataclass(frozen=True)
class EigenBasis:
    """Fitted basis: orthonormal columns ordered by explained sample variance.

    sample_variances[k] = phi_k' S phi_k with S = Y'Y/n, nonincreasing.
    The basis lives on the p sites only; tps.solve_coefficients(penalty, phi)
    gives its interpolants where off-node values are needed.
    """

    phi: np.ndarray
    sample_variances: np.ndarray
    config: SolverConfig
    converged: bool
    iterations: int


@dataclass(frozen=True)
class QuadraticTerm:
    """Spectral factorization of B = Y'Y - tau1*omega, shared across rho values.

    (tau1*omega + rho*I - Y'Y)^{-1} x = vectors diag(1/(rho - values)) vectors' x,
    valid whenever rho exceeds values[-1].  lam_max_yty is the largest
    eigenvalue of Y'Y, ||Y||_2^2, used by the rho0 = "auto" rule.
    """

    vectors: np.ndarray
    values: np.ndarray
    lam_max_yty: float

    @property
    def beta_max(self) -> float:
        return float(self.values[-1])

    def shifted_solve(self, rho: float, rhs: np.ndarray) -> np.ndarray:
        return (self.vectors / (rho - self.values)) @ (self.vectors.T @ rhs)


def soft_threshold(m, tau: float):
    """Elementwise shrinkage sign(m) * max(|m| - tau, 0)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(m, dtype=float)
    out = np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0)
    return float(out) if arr.ndim == 0 else out


def _check_data(y, penalty: PenaltyOperator) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("data must be an n x p matrix")
    if not np.all(np.isfinite(y)):
        raise ValueError("data must be finite; drop or impute missing values first")
    if y.shape[1] != penalty.domain.p:
        raise ValueError(
            f"data has {y.shape[1]} site columns but the penalty was built "
            f"for {penalty.domain.p} sites"
        )
    return y


def _fix_signs(phi: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of each column made nonnegative, ties at the lowest index
    phi = phi.copy()
    for c in range(phi.shape[1]):
        lead = int(np.argmax(np.abs(phi[:, c])))
        if phi[lead, c] < 0:
            phi[:, c] = -phi[:, c]
    return phi


def _polar(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def _fro(m: np.ndarray) -> float:
    return float(np.sqrt(np.sum(m * m)))


def precompute_quadratic(y, penalty: PenaltyOperator, tau1: float) -> QuadraticTerm:
    """Factor the Phi-update quadratic once; reusable across rho and tau2 values."""
    y = _check_data(y, penalty)
    yty = y.T @ y
    yty = 0.5 * (yty + yty.T)
    b = yty - tau1 * penalty.omega
    b = 0.5 * (b + b.T)
    values, vectors = np.linalg.eigh(b)
    # the n x p thin SVD is far cheaper than a p x p eigensolve when n < p
    lam_max = float(np.max(np.linalg.svd(y, compute_uv=False), initial=0.0) ** 2)
    return QuadraticTerm(vectors=vectors, values=values, lam_max_yty=lam_max)


def initial_phi(quad: QuadraticTerm, k: int) -> np.ndarray:
    """Leading k eigenvectors of Y'Y - tau1*omega from quad, the no-sparsity warm start."""
    p = quad.vectors.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, p] = [1, {p}], got {k}")
    return _fix_signs(quad.vectors[:, ::-1][:, :k])


def admm_step(state: AdmmState, quad: QuadraticTerm, tau2: float) -> AdmmState:
    """One three-block pass at the state's rho, quad from precompute_quadratic.

    Phi <- (tau1*omega + rho*I - Y'Y)^{-1} (rho(Q + R) - Gamma1 - Gamma2) / 2
    Q   <- polar factor of Phi + Gamma2/rho
    R   <- soft_threshold(rho*Phi + Gamma1, tau2) / rho
    Gamma1 <- Gamma1 + rho(Phi - R);  Gamma2 <- Gamma2 + rho(Phi - Q)

    Each multiplier ascends on the gap of the block its proximal step reads;
    pairing them the other way makes the dual error double per iteration.

    Raises RhoTooSmallError when rho does not exceed the largest eigenvalue
    of Y'Y - tau1*omega (carried as .min_rho).
    """
    rho = state.rho
    if rho <= quad.beta_max:
        raise RhoTooSmallError(rho, quad.beta_max)
    rhs = rho * (state.q + state.r) - state.gamma1 - state.gamma2
    phi = 0.5 * quad.shifted_solve(rho, rhs)
    q = _polar(phi + state.gamma2 / rho)
    r = soft_threshold(rho * phi + state.gamma1, tau2) / rho
    gamma1 = state.gamma1 + rho * (phi - r)
    gamma2 = state.gamma2 + rho * (phi - q)
    return AdmmState(phi=phi, q=q, r=r, gamma1=gamma1, gamma2=gamma2, rho=rho)


def _initial_rho(config: SolverConfig, quad: QuadraticTerm) -> float:
    if config.rho0 == "auto":
        return 10.0 * quad.lam_max_yty if quad.lam_max_yty > 0 else 1.0
    return float(config.rho0)


def _check_warm(warm_start, p: int, k: int) -> np.ndarray:
    w = np.asarray(warm_start, dtype=float)
    if w.shape != (p, k):
        raise ValueError(f"warm start must be {p} x {k}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("warm start must be finite")
    return w.copy()


def _finish(y, config, q, converged: bool, iterations: int) -> EigenBasis:
    yq = y @ q
    variances = np.einsum("ij,ij->j", yq, yq) / y.shape[0]
    order = np.argsort(-variances, kind="stable")
    q = _fix_signs(q[:, order])
    variances = variances[order]
    q.setflags(write=False)
    variances.setflags(write=False)
    return EigenBasis(
        phi=q,
        sample_variances=variances,
        config=config,
        converged=converged,
        iterations=iterations,
    )


def fit(
    y,
    penalty: PenaltyOperator,
    config: SolverConfig,
    warm_start=None,
    quad: QuadraticTerm | None = None,
) -> EigenBasis:
    """Estimate the regularized eigenbasis at the p sites by iterating admm_step.

    No spline is solved here: a caller that needs the basis off the sites
    solves its interpolants once, tps.solve_coefficients(penalty, basis.phi).
    Non-convergence within max_iterations is reported through the returned
    converged flag, never as an exception.  quad is a performance hook: pass
    the result of precompute_quadratic(y, penalty, config.tau1) when fitting
    the same data repeatedly (as the tuning sweeps do).
    """
    y = _check_data(y, penalty)
    n, p = y.shape
    k = config.k
    if k > min(n, p):
        raise ValueError(f"k = {k} exceeds min(n, p) = {min(n, p)}")
    if quad is None:
        quad = precompute_quadratic(y, penalty, config.tau1)
    rho0 = _initial_rho(config, quad)
    rho_cap = 1e12 * rho0
    q0 = _check_warm(warm_start, p, k) if warm_start is not None else initial_phi(quad, k)
    zeros = np.zeros((p, k))
    state = AdmmState(
        phi=q0, q=q0, r=q0.copy(), gamma1=zeros, gamma2=zeros.copy(), rho=rho0
    )
    scale = 1.0 / math.sqrt(p)
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        prev_phi = state.phi
        state = admm_step(state, quad, config.tau2)
        crit = scale * max(
            _fro(state.phi - prev_phi),
            _fro(state.phi - state.r),
            _fro(state.phi - state.q),
        )
        if crit <= config.tolerance:
            converged = True
            break
        state = replace(state, rho=min(state.rho * config.rho_growth, rho_cap))
    return _finish(y, config, state.q, converged, iterations)

