"""Cross-validated selection of the penalty weights and the shrinkage level.

The (tau1, tau2) criterion scores held-out reconstruction error of the basis
fitted on the training folds; the gamma criterion scores how well the fitted
covariance built from training folds matches the held-out sample covariance.
Phi is orthonormal, so both scores need only the K basis coordinates Y Phi
and a few traces: the CV scores form no p x p matrix.  Each (fold, tau1)
cell is one chain of solver.fit_chains on the fold's training rows: fits
along increasing tau2, each warm started from the last, the one at
tau2 = 0 in closed form.  cv_tau makes one fit_chains call over all of
them, which builds, groups and stacks their terms.

select_and_fit is the whole tuned-fit pipeline: (tau1, tau2) by CV, a refit
on all rows (a plain solver.fit), gamma by CV, then the public covariance
step, estimate_parameters on a SampleCovariance of the rows, which reads
Y Phi and ||Y||_F^2 alone.  The fold count lives only in the FoldAssignment
the caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import (
    CovarianceModel,
    SampleCovariance,
    _check_gamma,
    estimate_from_moments,
    estimate_parameters,
)
from .solver import EigenBasis, SolverConfig, fit, fit_chains
from .tps import PenaltyOperator

__all__ = [
    "FoldAssignment",
    "TuningGrid",
    "CvReport",
    "TunedFit",
    "partition_folds",
    "default_log_grid",
    "gamma_grid",
    "cv_tau",
    "cv_gamma",
    "restrict_grid",
    "select_and_fit",
]

def default_log_grid(count: int, low: float = 1.0, high: float = 1e3) -> np.ndarray:
    """{0} followed by count-1 log-spaced values in [low, high], endpoints exact."""
    if count < 2:
        return np.array([0.0])
    vals = np.geomspace(low, high, count - 1)
    vals[0] = low
    vals[-1] = high
    return np.concatenate([[0.0], vals])


@dataclass(frozen=True)
class FoldAssignment:
    """Balanced random partition: assignment[i] in 1..m, sizes differ by <= 1."""

    assignment: np.ndarray
    m: int
    seed: int

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


def partition_folds(n: int, m: int, seed: int) -> FoldAssignment:
    """Seeded random balanced split of n row indices into m folds."""
    if m < 2:
        raise ValueError("need at least 2 folds")
    if m > n:
        raise ValueError(f"cannot split {n} rows into {m} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=int)
    base, rem = divmod(n, m)
    start = 0
    for fold in range(m):
        size = base + (1 if fold < rem else 0)
        labels[perm[start : start + size]] = fold + 1
        start += size
    labels.setflags(write=False)
    return FoldAssignment(assignment=labels, m=m, seed=seed)


@dataclass(frozen=True)
class TuningGrid:
    """Candidate penalty values and the shrinkage-grid recipe.

    Defaults: tau1 is {0} plus 10 log-spaced values in [1, 1e3]; tau2 the
    same with 30 log-spaced values; the gamma grid has gamma_value_count
    points from 0 up to the leading eigenvalue of Phi' S Phi, with lower end
    1 unless gamma_lower_fraction scales it relative to that eigenvalue.
    """

    tau1_values: np.ndarray = field(default_factory=lambda: default_log_grid(11))
    tau2_values: np.ndarray = field(default_factory=lambda: default_log_grid(31))
    gamma_value_count: int = 11
    gamma_lower_fraction: float | None = None

    def __post_init__(self):
        for name in ("tau1_values", "tau2_values"):
            vals = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if vals.size == 0:
                raise ValueError(f"{name} must be nonempty")
            if np.any(vals < 0) or not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} must be finite and nonnegative")
            if np.any(np.diff(vals) <= 0) and vals.size > 1:
                raise ValueError(f"{name} must be strictly ascending")
            vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)
        if self.gamma_value_count < 1:
            raise ValueError("gamma_value_count must be at least 1")
        if self.gamma_lower_fraction is not None and not 0 < self.gamma_lower_fraction <= 1:
            raise ValueError("gamma_lower_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class CvReport:
    """Criterion surface over a grid plus the selected point.

    kind is "tau" (criterion indexed tau1 x tau2, selected a pair) or
    "gamma" (one-dimensional).  converged mirrors the criterion shape and is
    False wherever some fold fit hit the iteration cap.  For kind "tau",
    iterations[i, j] is the number of ADMM iterations cell (i, j) took,
    summed over the folds: 0 at tau2 = 0, solved in closed form.
    """

    kind: str
    criterion: np.ndarray
    selected: tuple[float, float] | float
    folds: FoldAssignment
    converged: np.ndarray
    tau1_values: np.ndarray | None = None
    tau2_values: np.ndarray | None = None
    gamma_values: np.ndarray | None = None
    iterations: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "criterion": self.criterion.tolist(),
            "selected": list(self.selected) if self.kind == "tau" else self.selected,
            "converged": self.converged.tolist(),
            "folds": {
                "m": self.folds.m,
                "seed": self.folds.seed,
                "assignment": self.folds.assignment.tolist(),
            },
        }
        for name in ("tau1_values", "tau2_values", "gamma_values", "iterations"):
            vals = getattr(self, name)
            if vals is not None:
                out[name] = vals.tolist()
        return out


def _check_folds(folds: FoldAssignment, n: int):
    if folds.n != n:
        raise ValueError(f"fold assignment covers {folds.n} rows, data has {n}")


def _first_minimum(crit: np.ndarray) -> tuple[int, ...]:
    """Index of the smallest non-NaN cell; ties go to the first in C order,
    which for a tau1 x tau2 surface is the smallest (tau1, tau2) pair."""
    flat = crit.ravel()
    ok = np.flatnonzero(~np.isnan(flat))
    if ok.size == 0:
        raise ValueError("cross-validation criterion is NaN everywhere")
    best = ok[np.argmin(flat[ok])]
    return tuple(int(i) for i in np.unravel_index(best, crit.shape))


def cv_tau(y, penalty: PenaltyOperator, k: int, grid: TuningGrid, folds: FoldAssignment) -> CvReport:
    """M-fold score of every (tau1, tau2) cell by held-out reconstruction error.

    criterion[i, j] = (1/M) sum_m ||Y_m - Y_m Phi Phi'||_F^2 with Phi fitted
    on the other folds at (tau1_i, tau2_j), computed as
    ||Y_m||^2 - ||Y_m Phi||^2 since Phi is orthonormal.  Ties select the
    smallest (tau1, tau2) in lexicographic order; NaN cells are skipped.

    The M x T1 (fold, tau1) chains run through one solver.fit_chains
    call, each along the whole tau2 grid.  Every fit is bit-identical to
    fitting its cell alone, and the folds' terms are summed in fold order,
    so how fit_chains groups the chains never changes a bit of the report.
    """
    y = np.asarray(y, dtype=float)
    _check_folds(folds, y.shape[0])
    t1s, t2s = grid.tau1_values, grid.tau2_values
    trains = [y[folds.assignment != m] for m in range(1, folds.m + 1)]
    valids = [y[folds.assignment == m] for m in range(1, folds.m + 1)]
    va_sq = [float(np.sum(y_va * y_va)) for y_va in valids]
    shape = (folds.m, t1s.size, t2s.size)
    loss, conv, iters = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=int)
    chains = [(m, float(t1)) for m in range(folds.m) for t1 in t1s]
    for c, j, basis in fit_chains(trains, chains, penalty, SolverConfig(k=k), t2s):
        m, i = divmod(c, t1s.size)
        proj = valids[m] @ basis.phi
        loss[m, i, j] = va_sq[m] - float(np.sum(proj * proj))
        conv[m, i, j] = basis.converged
        iters[m, i, j] = basis.iterations
    crit = np.zeros(shape[1:])
    for fold_loss in loss:
        crit += fold_loss
    crit /= folds.m

    i, j = _first_minimum(crit)
    return CvReport(
        kind="tau",
        criterion=crit,
        selected=(float(t1s[i]), float(t2s[j])),
        folds=folds,
        converged=conv.all(axis=0),
        tau1_values=t1s,
        tau2_values=t2s,
        iterations=iters.sum(axis=0),
    )


def gamma_grid(dhat1: float, count: int, lower_fraction: float | None = None) -> np.ndarray:
    """{0} plus count-1 log-spaced values up to dhat1.

    The lower end is 1, or dhat1 * lower_fraction when given.  Degenerate
    cases collapse: dhat1 <= lower end yields {0, dhat1}; dhat1 <= 0 yields
    {0}.
    """
    if dhat1 <= 0.0:
        return np.array([0.0])
    low = dhat1 * lower_fraction if lower_fraction is not None else 1.0
    if dhat1 <= low or count < 2:
        return np.unique(np.array([0.0, float(dhat1)]))
    return default_log_grid(count, low, dhat1)


def cv_gamma(y, basis: EigenBasis, grid: TuningGrid, folds: FoldAssignment) -> CvReport:
    """M-fold score of the shrinkage level for a basis fitted on all rows.

    Each fold re-estimates (Lambda, sigma2) from the training rows with
    estimate_from_moments, and scores ||S_m - Phi Lambda Phi' -
    sigma2 I||_F^2 against the held-out sample covariance S_m.  With Phi
    orthonormal that is

        ||S_m||^2 - 2 <Phi' S_m Phi, Lambda> - 2 sigma2 tr(S_m)
                  + ||Lambda||^2 + 2 sigma2 tr(Lambda) + p sigma2^2,

    so each fold needs the coordinates Y Phi of both row sets, two traces,
    ||S_m||^2 = ||Y_m Y_m'||^2 / n_m^2 and one K x K eigendecomposition.
    The grid ends at the leading eigenvalue of Phi' S Phi.  Ties select the
    smallest gamma.
    """
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    _check_folds(folds, n)
    z = y @ basis.phi
    dhat1 = float(np.linalg.eigvalsh(z.T @ (z / n))[-1])
    gammas = gamma_grid(dhat1, grid.gamma_value_count, grid.gamma_lower_fraction)

    crit = np.zeros(gammas.size)
    for m in range(1, folds.m + 1):
        mask = folds.assignment == m
        y_tr, y_va, z_tr, z_va = y[~mask], y[mask], z[~mask], z[mask]
        n_va = y_va.shape[0]
        m_tr = z_tr.T @ (z_tr / z_tr.shape[0])
        tr_tr = float(np.sum(y_tr * y_tr)) / y_tr.shape[0]
        gram = y_va @ y_va.T
        s_va_sq, tr_va = float(np.sum(gram * gram)) / n_va**2, float(np.trace(gram)) / n_va
        models = estimate_from_moments(m_tr, tr_tr, basis, gammas)
        v = models[0].vhat  # the eigenvectors of M, the same at every gamma
        # diagonal of Vhat' Phi' S_m Phi Vhat: <Phi' S_m Phi, Lambda> = w . lambda*
        w = np.sum(v * (z_va.T @ (z_va @ v)), axis=0) / n_va
        for gi, model in enumerate(models):
            sigma2, lam = model.sigma2, model.lambda_star
            fitted_sq = float(lam @ lam) + 2.0 * sigma2 * float(lam.sum()) + p * sigma2 * sigma2
            crit[gi] += s_va_sq - 2.0 * (float(w @ lam) + sigma2 * tr_va) + fitted_sq
    crit /= folds.m

    (best,) = _first_minimum(crit)
    return CvReport(
        kind="gamma",
        criterion=crit,
        selected=float(gammas[best]),
        folds=folds,
        converged=np.ones(gammas.size, dtype=bool),
        gamma_values=gammas,
    )


def restrict_grid(grid: TuningGrid, tau1=None, tau2=None) -> TuningGrid:
    """Pin one or both penalty axes to fixed values, keeping the rest."""
    changes = {}
    if tau1 is not None:
        changes["tau1_values"] = np.array([float(tau1)])
    if tau2 is not None:
        changes["tau2_values"] = np.array([float(tau2)])
    return replace(grid, **changes) if changes else grid


@dataclass(frozen=True)
class TunedFit:
    """Outcome of select_and_fit: the basis refitted on all rows, its
    covariance model, and the CV reports (None where a pin skipped CV)."""

    basis: EigenBasis
    model: CovarianceModel
    tau_report: CvReport | None
    gamma_report: CvReport | None


def select_and_fit(
    y, penalty: PenaltyOperator, k: int, grid: TuningGrid, folds: FoldAssignment,
    gamma: float | None = None, max_iterations: int = SolverConfig.max_iterations,
) -> TunedFit:
    """Tune and fit: (tau1, tau2) by cv_tau unless the grid has a single
    cell, a refit on all rows, gamma by cv_gamma unless given, then
    estimate_parameters on the rows' SampleCovariance.

    Pin a penalty axis with restrict_grid.  max_iterations caps the final
    fit only; the CV fits keep SolverConfig's default cap.  The refit is a
    lone fit at the selection, whose term follows the rule of every chain.
    k >= p, which leaves no noise variance to estimate, is refused up front,
    as are a bad max_iterations or gamma.
    """
    y, p = np.asarray(y, dtype=float), penalty.domain.p
    if k >= p:
        raise ValueError(f"need k < p to identify the noise variance, got k = {k}, p = {p}")
    config = SolverConfig(k=k, max_iterations=max_iterations)
    if gamma is not None:
        _check_gamma(gamma)
    tau_report = None
    if grid.tau1_values.size * grid.tau2_values.size > 1:
        tau_report = cv_tau(y, penalty, k, grid, folds)
        t1, t2 = tau_report.selected
    else:
        t1, t2 = float(grid.tau1_values[0]), float(grid.tau2_values[0])
    basis = fit(y, penalty, replace(config, tau1=t1, tau2=t2))
    gamma_report = None
    if gamma is None:
        gamma_report = cv_gamma(y, basis, grid, folds)
        gamma = gamma_report.selected
    model = estimate_parameters(SampleCovariance(y), basis, gamma)
    return TunedFit(basis=basis, model=model, tau_report=tau_report, gamma_report=gamma_report)
