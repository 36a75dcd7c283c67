"""Workload definitions and their seeded inputs.

Inputs follow the paper's simulation design (a Gaussian bump and its odd
first-moment sibling, unit-normalized on an equispaced grid over [-5, 5]^d,
scores xi_i ~ N(0, diag(lambda1, lambda2)) and unit white noise), but they are
drawn here with ``numpy.random.default_rng([seed, dataset])`` rather than by
``spatpca.simulate``, so a change to that module cannot change a workload.
The program under test only ever sees the CSV files written from these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTERVAL = (-5.0, 5.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark design: the data shape, the CLI flags and the eval grid.

    eval_repeats is the number of eval and of predict operations after each
    fit; it is raised where those operations take milliseconds, so that their
    medians rest on enough samples.  datasets is the number of independent
    draws of the fit data that one run takes in turn.  Where tau is chosen by
    CV, the choice, and with it the loss, jumps between neighbouring grid
    values from one draw to the next (holdout2d picks tau1 = 10 for about one
    seed in seven, 21.5 otherwise, and its loss rises by a quarter), so a run
    reports the mean over several draws; pinned1600's two fits per run leave
    room for one.

    reference_s is what this workload's reference unit (reference.py) takes
    on a quiet 2-core Xeon with one BLAS thread: the machine speed at which
    its end-to-end times are reported.  It is None where the operations are
    large LAPACK and memory-bound work that other tenants slow less than they
    slow the reference unit, so that the rescaling would add spread instead
    of removing it; those times are reported as measured, and the unit is
    not run.
    """

    name: str
    d: int
    points_per_dim: int
    n: int
    k: int
    eigenvalues: tuple[float, float]
    eval_points_per_axis: int
    eval_repeats: int
    datasets: int
    tau1: float | None
    tau2: float | None
    reference_s: float | None

    @property
    def p(self) -> int:
        return self.points_per_dim**self.d


# BENCHMARK.json gives the reason each workload exists.  pinned1600 is left
# out of it and runs only by hand (--workload pinned1600): on a shared machine
# its memory-heavy p = 1600 work slows by up to 30% for many minutes at a
# time, which no reference unit tracks, so that the medians of two sets of
# ten runs differed by more than any allowed regression bound
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv1d",
            d=1,
            points_per_dim=50,
            n=100,
            k=2,
            eigenvalues=(9.0, 4.0),
            eval_points_per_axis=2001,
            eval_repeats=10,
            datasets=4,
            tau1=None,
            tau2=None,
            reference_s=0.0030,
        ),
        Workload(
            name="holdout2d",
            d=2,
            points_per_dim=20,
            n=60,
            k=5,
            eigenvalues=(101.7, 17.1),
            eval_points_per_axis=60,
            eval_repeats=1,
            datasets=4,
            tau1=None,
            tau2=0.0,
            reference_s=0.018,
        ),
        Workload(
            name="pinned1600",
            d=2,
            points_per_dim=40,
            n=100,
            k=5,
            eigenvalues=(101.7, 17.1),
            eval_points_per_axis=60,
            eval_repeats=1,
            datasets=1,
            tau1=100.0,
            tau2=0.0,
            reference_s=None,
        ),
    )
}


def sites(w: Workload) -> np.ndarray:
    """p x d site coordinates, row-major over the grid in 2-d."""
    axis = np.linspace(*INTERVAL, w.points_per_dim)
    if w.d == 1:
        return axis[:, None]
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def true_basis(locations: np.ndarray) -> np.ndarray:
    """The two unit-norm true eigenvectors at the sites (p x 2)."""
    bump = np.exp(-np.sum(locations * locations, axis=1))
    odd = np.prod(locations, axis=1) * bump
    return np.column_stack([bump / np.linalg.norm(bump), odd / np.linalg.norm(odd)])


def true_covariance(w: Workload) -> np.ndarray:
    phi = true_basis(sites(w))
    return (phi * np.asarray(w.eigenvalues)) @ phi.T


@dataclass(frozen=True)
class Inputs:
    """Fit data y = xi Phi' + eps and a second draw y_new for prediction."""

    locations: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    y_new: np.ndarray


def draw(w: Workload, seed: int, dataset: int) -> Inputs:
    rng = np.random.default_rng([seed, dataset])
    loc = sites(w)
    phi = true_basis(loc)
    scale = np.sqrt(np.asarray(w.eigenvalues))
    xi = rng.standard_normal((w.n, 2)) * scale
    y = xi @ phi.T + rng.standard_normal((w.n, w.p))
    xi_new = rng.standard_normal((w.n, 2)) * scale
    y_new = xi_new @ phi.T + rng.standard_normal((w.n, w.p))
    return Inputs(locations=loc, y=y, xi=xi, y_new=y_new)


def pca_estimate(y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain K-PCA of the same data, the estimator with no penalty: the top K
    eigenvectors of S = Y'Y/n, and Lambda = diag(d_k - sigma2)_+ with sigma2
    the mean of the remaining eigenvalues of S."""
    n, p = y.shape
    _, sv, vt = np.linalg.svd(y, full_matrices=False)
    d = sv * sv / n
    sigma2 = float(d[k:].sum()) / (p - k)
    return vt[:k].T, np.diag(np.maximum(d[:k] - sigma2, 0.0))


def losses(w: Workload, inputs: Inputs, model: dict) -> dict:
    """Estimation losses of a fitted model (its JSON document) against the truth,
    next to those of plain K-PCA on the same data.

    loss_phi = sum_i ||Phi Phi' y_i - Phi_true xi_i||^2 and
    loss_cov = ||Phi Lambda Phi' - C_true||_F^2.  The benchmark bounds
    loss_phi over K-PCA's loss_phi: the denominator does not depend on the
    fitted model, so the ratio moves with loss_phi, but it shares the luck of
    the draw, so that on cv1d the ratio spreads by 6% across seeds (IQR over
    median) where loss_phi spreads by 15%.  loss_cov spreads by 90% or more:
    it is dominated by the sampling error of two eigenvalues, and dividing it
    by an error that does not depend on the fitted model (that of the sample
    covariance, of K-PCA, or of the true basis with eigenvalues estimated
    from the same data) leaves 30% or more, and the mean over a run's four
    holdout2d draws still 32%.  It is therefore checked, not bounded: a run's
    fitted covariances must be closer to C_true than K-PCA's.
    """
    signal = inputs.xi @ true_basis(inputs.locations).T
    c_true = true_covariance(w)

    def loss(phi, lam):
        recon = (inputs.y @ phi) @ phi.T - signal
        cov = phi @ lam @ phi.T - c_true
        return float(np.sum(recon * recon)), float(np.sum(cov * cov))

    loss_phi, loss_cov = loss(
        np.asarray(model["basis"]["phi"]), np.asarray(model["covariance"]["lambda"])
    )
    pca_loss_phi, pca_loss_cov = loss(*pca_estimate(inputs.y, w.k))
    return {
        "loss_phi": loss_phi,
        "loss_cov": loss_cov,
        "pca_loss_phi": pca_loss_phi,
        "pca_loss_cov": pca_loss_cov,
    }


def csv_text(m: np.ndarray) -> str:
    """Headerless CSV with round-trip exact cells."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)


def input_files(w: Workload, seed: int) -> dict[str, str]:
    """The CSV texts the program reads, keyed by file name."""
    files = {"locations.csv": csv_text(sites(w))}
    for j in range(w.datasets):
        files[f"data-{j}.csv"] = csv_text(draw(w, seed, j).y)
    return files


def grid_spec(w: Workload) -> str:
    """The ``spatpca eval --grid`` argument: lo:hi:count on every axis."""
    lo, hi = INTERVAL
    return ",".join([f"{lo!r}:{hi!r}:{w.eval_points_per_axis}"] * w.d)


def grid_points(w: Workload) -> np.ndarray:
    """The points ``grid_spec`` names, in the CLI's row order."""
    axis = np.linspace(*INTERVAL, w.eval_points_per_axis)
    if w.d == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * w.d), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def origin(w: Workload) -> str:
    """The ``spatpca eval --ref`` argument."""
    return ",".join(["0.0"] * w.d)
