"""Covariance estimation on top of a fitted eigenbasis.

Given the sample covariance S and an orthonormal basis Phi, the estimator
solves, in closed form,

    min_{Lambda >= 0, sigma2 >= 0}  (1/2) ||S - Phi Lambda Phi' - sigma2 I||_F^2
                                    + gamma ||Phi Lambda Phi'||_*

where ||.||_* is the nuclear norm.  The solution shares eigenvectors with
Phi' S Phi; its eigenvalues are soft-thresholded by sigma2 + gamma, and it
needs only Phi' S Phi and tr(S) (estimate_from_moments, the rule's one home).
SampleCovariance holds the data rows Y and gives those two as Z'Z/n and
||Y||_F^2/n with Z = Y Phi, so no p x p matrix is formed; estimate_parameters
is the covariance step of select_and_fit and of callers alike.
(Lambda, sigma2) yields a PSD covariance surface and best linear predictions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .solver import EigenBasis, _check_data, _fix_signs
from .tps import PenaltyOperator, SplineCoefficients, evaluate, solve_coefficients

__all__ = [
    "SampleCovariance",
    "CovarianceModel",
    "estimate_parameters",
    "covariance_at",
    "rotated_eigenfunctions",
    "predict",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SampleCovariance:
    """S = Y'Y / n for centered data, held as the n x p rows y, never as S."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float, order="C")
        if y.ndim != 2 or y.shape[0] < 1:
            raise ValueError("data must be an n x p matrix with at least one row")
        if not np.all(np.isfinite(y)):
            raise ValueError("data must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    def moments(self, phi: np.ndarray) -> tuple[np.ndarray, float]:
        """(Phi' S Phi, tr(S)) as (Z'Z/n, ||Y||_F^2/n) with Z = Y Phi."""
        y, n = self.y, self.y.shape[0]
        z = y @ phi
        return z.T @ (z / n), float(np.sum(y * y)) / n


@dataclass(frozen=True)
class CovarianceModel:
    """Closed-form (Lambda, sigma2) estimate for a fixed basis.

    lam is K x K symmetric PSD with eigenvalues lambda_star (nonincreasing)
    and eigenvectors vhat; l_hat counts the eigenvalues kept above the
    noise-plus-shrinkage floor.
    """

    sigma2: float
    lam: np.ndarray
    vhat: np.ndarray
    lambda_star: np.ndarray
    l_hat: int
    gamma: float
    basis: EigenBasis


def _sorted_eig_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # deterministic descending eigendecomposition: canonical column signs,
    # exact ties ordered by the entries of the eigenvectors themselves
    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = _fix_signs(v[:, ::-1])
    order = sorted(range(w.shape[0]), key=lambda j: (-w[j], tuple(v[:, j])))
    return w[order], v[:, order]


def _shrink(d: np.ndarray, tr: float, p: int, gamma: float) -> tuple[float, int, np.ndarray]:
    """(sigma2, l_hat, lambda*) from the nonincreasing eigenvalues d of
    Phi' S Phi and tr(S); the rule is stated in estimate_parameters."""
    l_hat = 0
    sigma2 = tr / p
    if d[0] > gamma:
        head = 0.0
        for ell in range(1, d.shape[0] + 1):
            head += d[ell - 1] - gamma
            candidate = (tr - head) / (p - ell)
            if d[ell - 1] - gamma > candidate:
                l_hat = ell
                sigma2 = candidate
    if sigma2 < 0.0:
        # cannot happen in exact arithmetic; clamp roundoff dust
        logger.warning("clamping tiny negative noise variance %.3e to 0", sigma2)
        sigma2 = 0.0
    return sigma2, l_hat, np.maximum(d - sigma2 - gamma, 0.0)


def _check_gamma(gamma: float) -> None:
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and nonnegative")


def estimate_from_moments(m, tr: float, basis: EigenBasis, gammas) -> list[CovarianceModel]:
    """The rule of estimate_parameters at each of gammas from M = Phi' S Phi (K x K,
    symmetrized here, one eigendecomposition) and tr(S), e.g. Z'Z/n and ||Y||_F^2/n."""
    for gamma in gammas:
        _check_gamma(gamma)
    p, k = basis.phi.shape
    if k >= p:
        raise ValueError(f"need k < p to identify the noise variance, got k = {k}, p = {p}")
    d, v = _sorted_eig_desc(0.5 * (m + m.T))
    v.setflags(write=False)
    models = []
    for gamma in gammas:
        sigma2, l_hat, lambda_star = _shrink(d, tr, p, gamma)
        lam = (v * lambda_star) @ v.T
        lam = 0.5 * (lam + lam.T)
        lam.setflags(write=False)
        lambda_star.setflags(write=False)
        models.append(CovarianceModel(sigma2=float(sigma2), lam=lam, vhat=v, l_hat=l_hat,
                                      lambda_star=lambda_star, gamma=float(gamma), basis=basis))
    return models


def estimate_parameters(s: SampleCovariance, basis: EigenBasis, gamma: float) -> CovarianceModel:
    """Closed-form noise variance and component covariance for a fitted basis.

    With d_1 >= ... >= d_K the eigenvalues of Phi' S Phi:

    * if d_1 > gamma, sigma2 = (tr(S) - sum_{k<=L}(d_k - gamma)) / (p - L)
      for the largest L whose d_L - gamma stays above that average;
      otherwise sigma2 = tr(S) / p;
    * lambda*_k = max(d_k - sigma2 - gamma, 0), reassembled around the
      eigenvectors of Phi' S Phi.

    The rule lives in estimate_from_moments, which takes Phi' S Phi and
    tr(S) from s.moments.  Requires K < p so the noise variance is
    identifiable.
    """
    if s.y.shape[1] != basis.phi.shape[0]:
        raise ValueError(f"data have p = {s.y.shape[1]}, basis has p = {basis.phi.shape[0]}")
    return estimate_from_moments(*s.moments(basis.phi), basis, [gamma])[0]


def _basis_at(splines: SplineCoefficients, penalty: PenaltyOperator, point) -> np.ndarray:
    d = penalty.domain.d
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    if pt.shape != (d,):
        raise ValueError(f"point must have {d} coordinates, got shape {pt.shape}")
    return evaluate(splines, penalty.domain, pt[None, :])[0]


def _symmetric_cov(psi: np.ndarray, lam: np.ndarray, psi_ref: np.ndarray):
    """psi' Lambda psi_ref for psi a length-K vector or a q x K matrix, as the
    mean of both association orders, so swapping two vectors is exact."""
    return 0.5 * (psi @ (lam @ psi_ref) + (psi @ lam.T) @ psi_ref)


def covariance_at(model: CovarianceModel, penalty: PenaltyOperator, s_point, s_star) -> float:
    """Estimated covariance between the process at two locations.

    C(s, s*) = psi(s)' Lambda psi(s*) with psi the spline interpolant of the
    basis, solved from penalty on each call.  Computed in symmetrized form,
    so swapping arguments returns the identical float.
    """
    splines = solve_coefficients(penalty, model.basis.phi)
    ps, pt = (_basis_at(splines, penalty, x) for x in (s_point, s_star))
    return float(_symmetric_cov(ps, model.lam, pt))


def rotated_eigenfunctions(model: CovarianceModel) -> np.ndarray:
    """Basis columns rotated to diagonalize the component covariance: Phi Vhat."""
    return model.basis.phi @ model.vhat


def predict(model: CovarianceModel, penalty: PenaltyOperator, y, query) -> np.ndarray:
    """Best linear prediction of each observation at new locations.

    yhat_i(s0) = psi(s0)' Lambda Phi' (Phi Lambda Phi' + sigma2 I)^{-1} y_i.

    Phi is orthonormal, so Lambda Phi' (Phi Lambda Phi' + sigma2 I)^{-1} equals
    Vhat diag(w) Vhat' Phi' with w_k = lambda*_k / (lambda*_k + sigma2): the
    prediction costs K x K work after Phi'y, and no p x p matrix is formed.
    Components with lambda*_k at roundoff level get w_k = 0, which for
    sigma2 == 0 is the Moore-Penrose pseudoinverse (projection of y_i onto the
    range of Lambda in basis coordinates).

    psi is the spline interpolant of the basis, solved from penalty in one
    p x K solve per call and evaluated at the q query points by
    :func:`~spatpca.tps.evaluate`, which holds the q x K values and one row
    block of the kernel, never a q x p matrix.  Returns an n x q matrix, one
    row per observation.
    """
    y = _check_data(y, penalty)  # n x p and finite, as fit requires
    phi = model.basis.phi
    psi = evaluate(solve_coefficients(penalty, phi), penalty.domain, query)
    lam_star = model.lambda_star
    keep = lam_star > 1e-12 * max(1.0, float(lam_star.max(initial=0.0)))
    w = np.zeros_like(lam_star)
    w[keep] = lam_star[keep] / (lam_star[keep] + model.sigma2)
    return (psi @ ((model.vhat * w) @ (model.vhat.T @ (phi.T @ y.T)))).T
