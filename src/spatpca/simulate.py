"""Simulation harness: synthetic fields, loss metrics, and the method sweep.

Data are drawn as y_i = Phi xi_i + eps_i with two fixed smooth eigenfunctions
(a Gaussian bump and its odd first-moment sibling, unit-normalized on the
grid), xi_i ~ N(0, diag(lambda1, lambda2)) and unit white noise.  The runner
compares plain PCA against smoothness-only, sparseness-only, and fully
regularized fits, each tuned by cross-validation, and records subspace and
covariance losses per replicate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .tps import SpatialDomain, build_penalty
from .tuning import TuningGrid, partition_folds, restrict_grid, select_and_fit

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "LossRecord",
    "make_domain",
    "true_eigenfunctions",
    "true_covariance",
    "generate",
    "generate_with_scores",
    "loss_phi",
    "loss_cov",
    "run_experiment",
    "records_csv_text",
    "summarize",
    "summary_json_text",
    "spec_from_dict",
]

# the penalty axes each method pins; select_and_fit cross-validates the rest
_METHOD_PINS = {"pca": {"tau1": 0.0, "tau2": 0.0}, "smooth-only": {"tau2": 0.0},
                "sparse-only": {"tau1": 0.0}, "spatpca": {}}
METHODS = tuple(_METHOD_PINS)

# substream roles for the seeded generator: (seed, replicate, role)
_ROLE_SCORES = 0
_ROLE_NOISE = 1
_ROLE_FOLDS = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation design.

    Args:
        d: spatial dimension of the grid, 1 or 2.
        n: observations per replicate.
        points_per_dim: grid resolution per axis (p = points_per_dim ** d).
        interval: common coordinate range of the grid.
        eigenvalues: variances (lambda1, lambda2) of the two true components.
        k_fit: basis sizes to fit, each run separately and each below p.
        replicates: independent datasets per method.
        seed: master seed; every replicate derives its own substreams.
        methods: subset of METHODS to run.
        folds: cross-validation folds.
        grid: candidate penalty values used by the tuned methods.
        label: free-form tag copied into every record.
    """

    d: int = 1
    n: int = 100
    points_per_dim: int = 50
    interval: tuple[float, float] = (-5.0, 5.0)
    eigenvalues: tuple[float, float] = (9.0, 0.0)
    k_fit: tuple[int, ...] = (2,)
    replicates: int = 20
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    folds: int = 5
    grid: TuningGrid = field(default_factory=TuningGrid)
    label: str = ""

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("simulated domains are 1- or 2-dimensional")
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.points_per_dim < 4:
            raise ValueError("points_per_dim must be at least 4")
        for name in ("interval", "eigenvalues"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"'{name}' must be finite")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval must be an increasing pair")
        lam1, lam2 = self.eigenvalues
        if lam2 < 0 or lam1 < lam2:
            raise ValueError("eigenvalues must satisfy lambda1 >= lambda2 >= 0")
        if not self.k_fit or any(k < 1 for k in self.k_fit):
            raise ValueError("k_fit must be a nonempty list of positive integers")
        if max(self.k_fit) >= self.p:
            raise ValueError(f"'k_fit' entries must be below p = {self.p}, got {max(self.k_fit)}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        if self.folds < 2 or self.folds > self.n:
            raise ValueError("folds must be in [2, n]")

    @property
    def p(self) -> int:
        return self.points_per_dim**self.d


@dataclass(frozen=True)
class LossRecord:
    """Per-(replicate, method, k) outcome with the selected tuning."""

    label: str
    method: str
    k: int
    replicate: int
    loss_phi: float
    loss_cov: float
    tau1: float
    tau2: float
    gamma: float
    converged: bool = True
    error: str = ""


def make_domain(spec: ExperimentSpec) -> SpatialDomain:
    """Equispaced grid over spec.interval, row-major in 2-d."""
    lo, hi = spec.interval
    axis = np.linspace(lo, hi, spec.points_per_dim)
    if spec.d == 1:
        return SpatialDomain(axis[:, None])
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return SpatialDomain(np.column_stack([xx.ravel(), yy.ravel()]))


def true_eigenfunctions(domain: SpatialDomain) -> np.ndarray:
    """Two unit-norm columns: exp(-||x||^2) and (prod_j x_j) exp(-||x||^2)."""
    x = domain.locations
    bump = np.exp(-np.sum(x * x, axis=1))
    odd = np.prod(x, axis=1) * bump
    n1, n2 = np.linalg.norm(bump), np.linalg.norm(odd)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("degenerate grid: a true eigenfunction vanishes everywhere")
    return np.column_stack([bump / n1, odd / n2])


def true_covariance(spec: ExperimentSpec, domain: SpatialDomain | None = None) -> np.ndarray:
    """Noise-free covariance of the signal at the nodes: Phi diag(lambda) Phi'."""
    phi = true_eigenfunctions(domain if domain is not None else make_domain(spec))
    return (phi * np.asarray(spec.eigenvalues, dtype=float)) @ phi.T


def _rng(seed: int, replicate: int, role: int) -> np.random.Generator:
    return np.random.default_rng([seed, replicate, role])


def generate_with_scores(
    spec: ExperimentSpec, replicate: int, domain: SpatialDomain | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (y, xi) for one replicate; y = xi Phi' + eps, both n x (.)."""
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    phi = true_eigenfunctions(domain if domain is not None else make_domain(spec))
    scale = np.sqrt(np.asarray(spec.eigenvalues, dtype=float))
    xi = _rng(spec.seed, replicate, _ROLE_SCORES).standard_normal((spec.n, 2)) * scale
    eps = _rng(spec.seed, replicate, _ROLE_NOISE).standard_normal((spec.n, phi.shape[0]))
    return xi @ phi.T + eps, xi


def generate(spec: ExperimentSpec, replicate: int) -> np.ndarray:
    """Data matrix for one replicate; deterministic in (spec.seed, replicate)."""
    return generate_with_scores(spec, replicate)[0]


def loss_phi(phi_hat, phi_true, xi, y) -> float:
    """Signal reconstruction loss sum_i ||Phi Phi' y_i - Phi_true xi_i||^2."""
    phi_hat, phi_true, xi, y = (np.asarray(a, dtype=float) for a in (phi_hat, phi_true, xi, y))
    if y.ndim != 2 or phi_hat.ndim != 2 or y.shape[1] != phi_hat.shape[0]:
        raise ValueError("y must be n x p and phi_hat p x k")
    if phi_true.shape[0] != y.shape[1] or xi.shape != (y.shape[0], phi_true.shape[1]):
        raise ValueError("truth must pair phi_true (p x r) with xi (n x r)")
    diff = (y @ phi_hat) @ phi_hat.T - xi @ phi_true.T
    return float(np.sum(diff * diff))


def loss_cov(c_hat, c_true) -> float:
    """Entrywise squared error between two covariance surfaces on the nodes."""
    c_hat, c_true = np.asarray(c_hat, dtype=float), np.asarray(c_true, dtype=float)
    if c_hat.shape != c_true.shape:
        raise ValueError(f"covariance shapes differ: {c_hat.shape} vs {c_true.shape}")
    diff = c_hat - c_true
    return float(np.sum(diff * diff))


def run_experiment(spec: ExperimentSpec) -> list[LossRecord]:
    """Run every (replicate, k, method) cell of the design.

    Each cell runs tuning.select_and_fit on its method's slice of the tau
    grid: CV of (tau1, tau2), a refit on the full replicate, CV of gamma.
    A failed cell is recorded with NaN losses and the error message; the run
    continues.
    """
    domain = make_domain(spec)
    penalty = build_penalty(domain)
    phi_true = true_eigenfunctions(domain)
    c_true = true_covariance(spec, domain)
    records: list[LossRecord] = []

    for rep in range(spec.replicates):
        y, xi = generate_with_scores(spec, rep, domain)
        fold_seed = int(
            np.random.SeedSequence([spec.seed, rep, _ROLE_FOLDS]).generate_state(1)[0]
        )
        folds = partition_folds(spec.n, spec.folds, fold_seed)
        for k in spec.k_fit:
            for method in spec.methods:
                cell = {"label": spec.label, "method": method, "k": k, "replicate": rep}
                try:
                    grid = restrict_grid(spec.grid, **_METHOD_PINS[method])
                    tuned = select_and_fit(y, penalty, k, grid, folds)
                    basis, model = tuned.basis, tuned.model
                    record = LossRecord(
                        **cell,
                        loss_phi=loss_phi(basis.phi, phi_true, xi, y),
                        loss_cov=loss_cov(basis.phi @ model.lam @ basis.phi.T, c_true),
                        tau1=basis.config.tau1,
                        tau2=basis.config.tau2,
                        gamma=model.gamma,
                        converged=basis.converged,
                    )
                except Exception as exc:  # noqa: BLE001, survive a bad cell
                    nan = math.nan
                    record = LossRecord(
                        **cell, loss_phi=nan, loss_cov=nan, tau1=nan, tau2=nan, gamma=nan,
                        converged=False, error=f"{type(exc).__name__}: {exc}",
                    )
                records.append(record)
    return records


_CSV_FIELDS = tuple(f.name for f in fields(LossRecord))


def records_csv_text(records: list[LossRecord]) -> str:
    """Per-replicate results as CSV text, one row per record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in records:
        writer.writerow([getattr(r, f) for f in _CSV_FIELDS])
    return buf.getvalue()


def summarize(records: list[LossRecord]) -> dict:
    """Quartiles of both losses per (label, method, k), plus failure counts."""
    groups: dict[tuple[str, str, int], list[LossRecord]] = {}
    for r in records:
        groups.setdefault((r.label, r.method, r.k), []).append(r)
    out = {}
    for (label, method, k), rows in sorted(groups.items()):
        entry: dict = {"replicates": len(rows), "failures": sum(1 for r in rows if r.error)}
        for loss_name in ("loss_phi", "loss_cov"):
            vals = [getattr(r, loss_name) for r in rows if not math.isnan(getattr(r, loss_name))]
            if vals:
                q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
                entry[loss_name] = {"q1": float(q1), "median": float(med), "q3": float(q3)}
            else:
                entry[loss_name] = None
        key = f"{label}|{method}|k={k}" if label else f"{method}|k={k}"
        out[key] = entry
    return out


def summary_json_text(records: list[LossRecord]) -> str:
    return json.dumps(summarize(records), indent=2, sort_keys=True) + "\n"


_SPEC_KEYS = {
    "label": str,
    "d": int,
    "n": int,
    "points_per_dim": int,
    "interval": list,
    "eigenvalues": list,
    "k_fit": list,
    "replicates": int,
    "seed": int,
    "methods": list,
    "folds": int,
    "tau1_values": list,
    "tau2_values": list,
    "gamma_value_count": int,
    "gamma_lower_fraction": float,
}
_GRID_KEYS = ("tau1_values", "tau2_values", "gamma_value_count", "gamma_lower_fraction")
# JSON lists become the tuples that ExperimentSpec holds, item by item
_TUPLE_ITEMS = {"interval": float, "eigenvalues": float, "k_fit": int, "methods": str}


def spec_from_dict(raw: dict, default_label: str = "") -> ExperimentSpec:
    """Build an ExperimentSpec from parsed JSON, naming the offending field on error.

    Absent fields take the defaults of ExperimentSpec and TuningGrid.
    """
    if not isinstance(raw, dict):
        raise ValueError("experiment spec must be a JSON object")
    unknown = sorted(set(raw) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError(f"experiment spec has unknown fields: {', '.join(unknown)}")

    values = {"label": default_label}
    for key, val in raw.items():
        kind = _SPEC_KEYS[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        # bool is an int subclass but no spec value is a flag, and int() would
        # truncate a fractional count without a word
        if isinstance(val, bool) or not isinstance(val, kind):
            raise ValueError(f"experiment spec field '{key}' must be of type {kind.__name__}")
        counts = _TUPLE_ITEMS.get(key) is int
        if kind is list and any(
            isinstance(v, bool) or counts and isinstance(v, float) and not v.is_integer()
            for v in val
        ):
            raise ValueError(f"experiment spec field '{key}' holds a boolean or a fractional count")
        values[key] = val
    grid = {key: values.pop(key) for key in _GRID_KEYS if key in values}
    try:
        for key, item in _TUPLE_ITEMS.items():
            if key in values:
                values[key] = tuple(item(v) for v in values[key])
        return ExperimentSpec(grid=TuningGrid(**grid), **values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid experiment spec: {exc}") from exc
