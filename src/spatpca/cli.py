"""Command line interface: fit, eval, scree, simulate, cv.

Data files are headerless CSVs with observations in rows and sites in
columns; the companion locations file lists one coordinate row per site.
Cells that are empty or read NA/NaN are treated as missing, and any site
column containing a missing value is dropped (and reported) before fitting.
Fitted models are stored as schema-versioned JSON that round-trips exactly.

Exit codes: 0 success, 1 usage or parse errors, 2 warnings with outputs
still written (the solver hit its iteration cap, or a simulate cell failed),
3 internal errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._files import atomic_write_text
from .covariance import CovarianceModel, _symmetric_cov
from .simulate import (
    records_csv_text,
    run_experiment,
    spec_from_dict,
    summary_json_text,
)
from .solver import EigenBasis, SolverConfig
from .tps import SpatialDomain, SplineCoefficients, build_penalty, evaluate, solve_coefficients
from .tuning import TuningGrid, partition_folds, restrict_grid, select_and_fit

__all__ = ["ingest", "save_model", "load_model", "main"]

SCHEMA_VERSION = 1
_NA_TOKENS = {"", "na"}  # besides any cell that parses to NaN


# ---------------------------------------------------------------- ingestion


def _read_matrix(path, what: str, allow_missing: bool) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        for r, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{what}: row {r} has {len(row)} fields, expected {width}"
                )
            try:
                parsed = list(map(float, row))  # strips blanks; reads " nan " too
                whole = allow_missing or not any(map(math.isnan, parsed))
            except ValueError:
                whole = False
            if not whole:  # "", "NA", a bad cell, or a NaN where none may be
                parsed = []
                for c, cell in enumerate(row, start=1):
                    text = cell.strip()
                    try:
                        value = float(text)
                    except ValueError:
                        if text.lower() not in _NA_TOKENS:
                            raise ValueError(
                                f"{what}: unparseable cell at row {r}, column {c}: {text!r}"
                            ) from None
                        value = math.nan
                    # any NaN ("nan", "-nan", "+NaN") is a missing value
                    if math.isnan(value) and not allow_missing:
                        raise ValueError(f"{what}: missing value at row {r}, column {c}")
                    parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{what}: file {path} is empty")
    return np.asarray(rows, dtype=float)


def ingest(data_path, locations_path, center: bool = False, deseasonalize: int | None = None):
    """Read the data and locations CSVs; drop incomplete sites; apply transforms.

    Returns (y, domain, dropped_sites), the last the indices of the site
    columns dropped.  Deseasonalization subtracts per-column per-phase means
    with phase = row index mod period, then centering subtracts the
    remaining column means.
    """
    data = _read_matrix(data_path, "data", allow_missing=True)
    loc = _read_matrix(locations_path, "locations", allow_missing=False)
    if data.shape[1] != loc.shape[0]:
        raise ValueError(
            f"data has {data.shape[1]} site columns but locations lists "
            f"{loc.shape[0]} sites"
        )
    missing = np.isnan(data).any(axis=0)
    if missing.all():
        raise ValueError("every site column contains missing values")
    y = data[:, ~missing].copy()
    domain = SpatialDomain(loc[~missing, :])

    if deseasonalize is not None:
        if deseasonalize < 1:
            raise ValueError("deseasonalize period must be a positive integer")
        phases = np.arange(y.shape[0]) % deseasonalize
        for phase in range(deseasonalize):
            idx = phases == phase
            if np.any(idx):
                y[idx] -= y[idx].mean(axis=0)
    if center:
        y -= y.mean(axis=0)
    return y, domain, tuple(int(i) for i in np.flatnonzero(missing))


# ------------------------------------------------------------- model file


@dataclass(frozen=True)
class ModelBundle:
    """Contents of a model file.  splines holds the stored interpolants of the
    basis columns (a p x K, b (d + 1) x K): evaluation needs no penalty."""

    domain: SpatialDomain
    basis: EigenBasis
    splines: SplineCoefficients
    covariance: CovarianceModel
    provenance: dict


def model_to_dict(bundle: ModelBundle) -> dict:
    domain, basis, covariance = bundle.domain, bundle.basis, bundle.covariance
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "domain": {"d": domain.d, "locations": domain.locations.tolist()},
        "basis": {
            **asdict(basis.config),
            "phi": basis.phi.tolist(),
            "sample_variances": basis.sample_variances.tolist(),
            "splines": [
                {"a": a, "b": b}
                for a, b in zip(bundle.splines.a.T.tolist(), bundle.splines.b.T.tolist())
            ],
            "converged": basis.converged,
            "iterations": basis.iterations,
        },
        "covariance": {
            "gamma": covariance.gamma,
            "sigma2": covariance.sigma2,
            "l_hat": covariance.l_hat,
            "lambda_star": covariance.lambda_star.tolist(),
            "vhat": covariance.vhat.tolist(),
            "lambda": covariance.lam.tolist(),
        },
        "provenance": bundle.provenance,
    }


def save_model(path, bundle: ModelBundle):
    doc = model_to_dict(bundle)
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _field(doc, path: str, kind, name: str | None = None):
    """The entry at a dotted path of a model document; ValueError naming it
    (as name, if given) if absent or not of type kind (a JSON boolean is only
    a bool)."""
    name = name or path
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"model file lacks field {name!r}")
        doc = doc[key]
    if not isinstance(doc, kind) or isinstance(doc, bool) is not (kind is bool):
        raise ValueError(f"model file field {name!r} has the wrong type {type(doc).__name__}")
    return doc


def _array(value: list, name: str, *shape) -> np.ndarray:
    """A model-file list as a finite float array of the given shape (None
    matches any length); ValueError naming the field otherwise."""
    try:
        arr = np.asarray(value, dtype=float)  # a JSON null reads as NaN
    except (TypeError, ValueError):
        raise ValueError(f"model file field {name!r} is not an array of numbers") from None
    if arr.ndim != len(shape) or any(w not in (None, n) for n, w in zip(arr.shape, shape)):
        want = " x ".join("any" if w is None else str(w) for w in shape)
        raise ValueError(f"model file field {name!r} has shape {arr.shape}, expected {want}")
    if not np.isfinite(arr).all():
        raise ValueError(f"model file field {name!r} holds a value that is not finite")
    return arr


def load_model(path) -> ModelBundle:
    """Read a model file, checking every field's type and every array's shape
    against the domain's p and d and phi's K, and every value the estimator
    bounds: phi and vhat orthonormal to 1e-8, sigma2, gamma, lambda_star and
    the iteration count nonnegative, l_hat in [0, K]; ValueError naming the field."""
    with open(path) as fh:
        doc = json.load(fh)
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version: {version!r}")
    def array(path, *shape):
        return _array(_field(doc, path, list), path, *shape)
    def number(path, kind, bound=math.inf):  # in [0, bound), as the estimator writes it
        value = _field(doc, path, kind)
        if not 0 <= value < bound:
            raise ValueError(f"model file field {path!r} is {value!r}, outside [0, {bound})")
        return value
    def orthonormal(path, *shape):  # as predict's K x K formula assumes
        q = array(path, *shape)
        err = float(np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0))
        if err > 1e-8:
            raise ValueError(f"model file field {path!r} is not orthonormal: "
                             f"its Gram matrix is {err:.3g} from I")
        return q
    domain = SpatialDomain(array("domain.locations", None, None))
    p, d = domain.p, domain.d
    phi = orthonormal("basis.phi", p, None)
    k = phi.shape[1]
    # typed as the defaults; other keys (an old "variant" or "rho0") are ignored
    kinds = {int: int, float: (int, float)}
    config = SolverConfig(**{f.name: _field(doc, f"basis.{f.name}", kinds[type(f.default)])
                             for f in fields(SolverConfig)})
    if config.k != k:
        raise ValueError(f"model file field 'basis.k' is {config.k}, but phi has {k} columns")
    # one {"a", "b"} entry per column on file, one p x K object in memory
    columns = _field(doc, "basis.splines", list)
    if len(columns) != k:
        raise ValueError(
            f"model file field 'basis.splines' has {len(columns)} entries, expected {k}"
        )
    def column(i, key, n):
        name = f"basis.splines[{i}].{key}"
        return _array(_field(columns[i], key, list, name), name, n)
    splines = SplineCoefficients(a=np.asarray([column(i, "a", p) for i in range(k)]).T,
                                 b=np.asarray([column(i, "b", d + 1) for i in range(k)]).T)
    basis = EigenBasis(phi=phi, sample_variances=array("basis.sample_variances", k),
                       config=config, converged=_field(doc, "basis.converged", bool),
                       iterations=number("basis.iterations", int))
    _field(doc, "covariance", dict)
    lambda_star = array("covariance.lambda_star", k)
    if (lambda_star < 0).any():
        raise ValueError("model file field 'covariance.lambda_star' holds a negative value")
    # number's range for gamma must stay covariance._check_gamma's
    covariance = CovarianceModel(
        sigma2=number("covariance.sigma2", (int, float)), lam=array("covariance.lambda", k, k),
        vhat=orthonormal("covariance.vhat", k, k), lambda_star=lambda_star,
        l_hat=number("covariance.l_hat", int, k + 1),
        gamma=number("covariance.gamma", (int, float)), basis=basis,
    )
    return ModelBundle(domain, basis, splines, covariance, doc.get("provenance", {}))


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------- commands


def _tuned_fit(args, gamma):
    """Ingest, then select_and_fit under the CLI's pins: (penalty, dropped_sites, tuned)."""
    y, domain, dropped = ingest(args.data, args.locations, args.center, args.deseasonalize)
    penalty = build_penalty(domain)
    folds = partition_folds(y.shape[0], args.folds, args.seed)
    grid = restrict_grid(TuningGrid(), tau1=args.tau1, tau2=args.tau2)
    tuned = select_and_fit(
        y, penalty, args.k, grid, folds, gamma=gamma, max_iterations=args.max_iterations
    )
    return penalty, dropped, tuned


def _cap_status(basis: EigenBasis) -> int:
    """Exit status after a tuned fit: 2, with a warning, when the final fit hit its cap."""
    if basis.converged:
        return 0
    print("warning: solver hit its iteration cap", file=sys.stderr)
    return 2


def cmd_fit(args) -> int:
    penalty, dropped, tuned = _tuned_fit(args, args.gamma)
    basis, model = tuned.basis, tuned.model
    tau_report, gamma_report = tuned.tau_report, tuned.gamma_report

    provenance = {
        "data": os.fspath(args.data),
        "data_sha256": _sha256(args.data),
        "locations": os.fspath(args.locations),
        "locations_sha256": _sha256(args.locations),
        "seed": args.seed,
        "folds": args.folds,
        "center": args.center,
        "deseasonalize": args.deseasonalize,
        "dropped_sites": list(dropped),
        "tau_grid": None
        if tau_report is None
        else {
            "tau1_values": tau_report.tau1_values.tolist(),
            "tau2_values": tau_report.tau2_values.tolist(),
        },
        "gamma_grid": None
        if gamma_report is None
        else gamma_report.gamma_values.tolist(),
    }
    splines = solve_coefficients(penalty, basis.phi)
    save_model(args.out, ModelBundle(penalty.domain, basis, splines, model, provenance))

    print(f"sites: {penalty.domain.p} kept, {len(dropped)} dropped")
    how_tau = "fixed" if tau_report is None else f"{args.folds}-fold CV"
    how_gamma = "fixed" if gamma_report is None else f"{args.folds}-fold CV"
    print(f"tau1={basis.config.tau1!r} tau2={basis.config.tau2!r} ({how_tau})")
    print(f"gamma={model.gamma!r} ({how_gamma})")
    print("component variances: " + ", ".join(repr(float(v)) for v in basis.sample_variances))
    print(f"noise variance: {model.sigma2!r}")
    print(f"retained components: {model.l_hat}")
    state = "converged" if basis.converged else "NOT converged"
    print(f"iterations: {basis.iterations} ({state})")
    print(f"model written to {args.out}")
    return _cap_status(basis)


def _parse_grid_spec(text: str, d: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != d:
        raise ValueError(f"--grid needs {d} axis specs (lo:hi:count), got {len(parts)}")
    axes = []
    for i, part in enumerate(parts, start=1):
        where = f"--grid axis {i} spec {part!r}"
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"{where}: expected lo:hi:count")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise ValueError(f"{where}: lo and hi must be numbers, count an integer") from None
        if not math.isfinite(hi - lo):
            raise ValueError(f"{where}: lo, hi and hi - lo must be finite")
        if count < 2 or not lo < hi:
            raise ValueError(f"{where}: need lo < hi and count >= 2")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    d = bundle.domain.d
    if args.query is not None:
        pts = _read_matrix(args.query, "query", allow_missing=False)
        if pts.shape[1] != d:
            raise ValueError(f"query points have {pts.shape[1]} coordinates, model has d={d}")
    elif args.grid is not None:
        pts = _parse_grid_spec(args.grid, d)
    else:
        raise ValueError("eval needs either --query or --grid")
    if args.ref is not None:  # checked before any evaluation
        try:
            ref = np.array([float(v) for v in args.ref.split(",")])
        except ValueError:
            raise ValueError(f"--ref {args.ref!r}: coordinates must be numbers") from None
        if ref.shape != (d,) or not np.all(np.isfinite(ref)):
            raise ValueError(f"--ref {args.ref!r}: needs {d} comma-separated finite coordinates")

    k = bundle.basis.phi.shape[1]
    psi = evaluate(bundle.splines, bundle.domain, pts)
    header = [f"x{j + 1}" for j in range(d)] + [
        f"{name}_{j + 1}" for name in ("phi", "phi_rot") for j in range(k)
    ]
    blocks = [pts, psi, psi @ bundle.covariance.vhat]
    if args.ref is not None:
        psi_ref = evaluate(bundle.splines, bundle.domain, ref[None, :])[0]
        header.append("cov_ref")
        blocks.append(_symmetric_cov(psi, bundle.covariance.lam, psi_ref))

    # repr of a Python float is the shortest text that parses back exactly
    rows = np.column_stack(blocks).tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {pts.shape[0]} rows to {args.out}")
    return 0


def cmd_scree(args) -> int:
    y, _, dropped = ingest(args.data, args.locations, args.center, args.deseasonalize)
    sv = np.linalg.svd(y, compute_uv=False)  # S = Y'Y/n: rank <= n, zeros to p
    values = np.concatenate([sv * sv / y.shape[0], np.zeros(y.shape[1] - sv.size)])
    total = float(values.sum())
    cumulative = np.cumsum(values) / total if total > 0 else np.zeros_like(values)
    lines = ["component,eigenvalue,cumulative_fraction"]
    for i, (v, c) in enumerate(zip(values, cumulative), start=1):
        lines.append(f"{i},{float(v)!r},{float(c)!r}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"sites: {y.shape[1]} kept, {len(dropped)} dropped")
    print(f"wrote {values.size} eigenvalues to {args.out}")
    return 0


def cmd_cv(args) -> int:
    _, _, tuned = _tuned_fit(args, None)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "cv",
        # null where both taus are pinned and no tau CV ran
        "tau": None if tuned.tau_report is None else tuned.tau_report.to_dict(),
        "gamma": tuned.gamma_report.to_dict(),
    }
    atomic_write_text(args.out, json.dumps(doc, indent=2) + "\n")
    config = tuned.basis.config
    print(f"selected tau1={config.tau1!r} tau2={config.tau2!r} gamma={tuned.model.gamma!r}")
    print(f"report written to {args.out}")
    return _cap_status(tuned.basis)


def cmd_simulate(args) -> int:
    with open(args.spec) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"experiment spec is not valid JSON: {exc}") from exc
    raw_list = raw if isinstance(raw, list) else [raw]
    if not raw_list:
        raise ValueError("experiment spec list is empty")
    specs = [spec_from_dict(item, default_label=f"exp{i}") for i, item in enumerate(raw_list)]
    os.makedirs(args.out, exist_ok=True)
    records = []
    for spec in specs:
        records.extend(run_experiment(spec))
    records_path = os.path.join(args.out, "records.csv")
    summary_path = os.path.join(args.out, "summary.json")
    atomic_write_text(records_path, records_csv_text(records))
    atomic_write_text(summary_path, summary_json_text(records))
    failures = sum(1 for r in records if r.error)
    print(f"{len(records)} records ({failures} failed cells)")
    print(f"wrote {records_path} and {summary_path}")
    if failures:
        print(f"warning: {failures} of {len(records)} cells failed", file=sys.stderr)
        return 2
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_io_flags(sub):
    sub.add_argument("--data", required=True, help="CSV, observations x sites, no header")
    sub.add_argument(
        "--locations", required=True, help="CSV, one coordinate row per site column"
    )
    sub.add_argument("--center", action="store_true", help="subtract column means")
    sub.add_argument(
        "--deseasonalize",
        type=int,
        default=None,
        metavar="PERIOD",
        help="subtract per-column means of each row-index phase (e.g. 12 for monthly data)",
    )


def _add_fit_flags(sub):
    sub.add_argument("--k", type=int, required=True, help="number of components")
    sub.add_argument("--tau1", type=float, default=None, help="smoothness weight (else CV)")
    sub.add_argument("--tau2", type=float, default=None, help="sparseness weight (else CV)")
    sub.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    sub.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    sub.add_argument(
        "--max-iterations", type=int, default=SolverConfig.max_iterations,
        help="ADMM iteration cap of the final fit (a tau2 = 0 fit is closed-form: 0 iterations)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spatpca", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_fit = commands.add_parser("fit", help="fit a model and write it as JSON")
    _add_io_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--gamma", type=float, default=None, help="shrinkage level (else CV)")
    p_fit.add_argument("--out", required=True, help="model JSON path")
    p_fit.set_defaults(handler=cmd_fit)

    p_eval = commands.add_parser("eval", help="evaluate a fitted model at new locations")
    p_eval.add_argument("--model", required=True, help="model JSON from fit")
    points = p_eval.add_mutually_exclusive_group()
    points.add_argument("--query", default=None, help="CSV of query points, one per row")
    points.add_argument(
        "--grid", default=None, help="lo:hi:count per axis, comma-separated across axes"
    )
    p_eval.add_argument(
        "--ref", default=None, help="reference point for a covariance column (comma-separated)"
    )
    p_eval.add_argument("--out", required=True, help="output CSV path")
    p_eval.set_defaults(handler=cmd_eval)

    p_scree = commands.add_parser("scree", help="sample-covariance spectrum as CSV")
    _add_io_flags(p_scree)
    p_scree.add_argument("--out", required=True, help="output CSV path")
    p_scree.set_defaults(handler=cmd_scree)

    p_cv = commands.add_parser("cv", help="tuning surfaces only, written as JSON")
    _add_io_flags(p_cv)
    _add_fit_flags(p_cv)
    p_cv.add_argument("--out", required=True, help="report JSON path")
    p_cv.set_defaults(handler=cmd_cv)

    p_sim = commands.add_parser("simulate", help="run a simulation experiment spec")
    p_sim.add_argument("--spec", required=True, help="experiment spec JSON (object or list)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"spatpca: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 3
    except Exception:  # noqa: BLE001, anything else is an internal error
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
