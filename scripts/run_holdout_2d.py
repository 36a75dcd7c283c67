#!/usr/bin/env python3
"""Held-out covariance comparison on a 20x20 grid (p = 400).

Each replicate draws n observations of a two-component field plus unit noise,
splits them in half, fits the regularized basis and plain PCA on the training
half (smoothness weight by cross-validation, sparseness off, shrinkage by
cross-validation), and scores ||Sigma_hat - S_validation||_F^2.  Prints one
line per replicate and the win count.
"""

import argparse
import csv
import io
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spatpca import TuningGrid, build_penalty, partition_folds, restrict_grid  # noqa: E402
from spatpca import select_and_fit  # noqa: E402
from spatpca._files import atomic_write_text  # noqa: E402
from spatpca.simulate import ExperimentSpec, generate, make_domain  # noqa: E402
from spatpca.tuning import default_log_grid  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--n", type=int, default=120, help="rows per replicate (half held out)")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results_2d")
    args = parser.parse_args()

    spec = ExperimentSpec(
        d=2,
        n=args.n,
        points_per_dim=20,
        eigenvalues=(101.7, 17.1),
        k_fit=(args.k,),
        replicates=args.replicates,
        seed=args.seed,
    )
    dom = make_domain(spec)
    pen = build_penalty(dom)
    p = dom.p
    grid = TuningGrid(
        tau1_values=default_log_grid(6, low=10.0, high=1e5),
        tau2_values=[0.0],
        gamma_value_count=11,
        gamma_lower_fraction=1e-3,
    )
    pca_grid = restrict_grid(grid, tau1=0.0, tau2=0.0)
    n_tr = args.n // 2

    def held_out_sse(y_tr, s_va, folds, tau_grid):
        tuned = select_and_fit(y_tr, pen, args.k, tau_grid, folds)
        basis, model = tuned.basis, tuned.model
        sigma_hat = basis.phi @ model.lam @ basis.phi.T + model.sigma2 * np.eye(p)
        return float(np.sum((sigma_hat - s_va) ** 2)), (basis.config.tau1, model.gamma)

    t0 = time.time()
    wins = 0
    rows = []
    for rep in range(args.replicates):
        y = generate(spec, rep)
        y_tr, y_va = y[:n_tr], y[n_tr:]
        s_va = y_va.T @ y_va / y_va.shape[0]
        folds = partition_folds(n_tr, 5, rep)
        sse_spat, (tau1, gamma) = held_out_sse(y_tr, s_va, folds, grid)
        sse_pca, _ = held_out_sse(y_tr, s_va, folds, pca_grid)
        won = sse_spat < sse_pca
        wins += won
        rows.append([rep, sse_spat, sse_pca, tau1, gamma, won])
        print(
            f"rep {rep}: regularized {sse_spat:.1f} vs pca {sse_pca:.1f} "
            f"({'win' if won else 'loss'}, tau1={tau1:g}, gamma={gamma:.3g}) "
            f"[{time.time() - t0:.0f}s]"
        )

    os.makedirs(args.out, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate", "sse_regularized", "sse_pca", "tau1", "gamma", "win"])
    writer.writerows(rows)
    atomic_write_text(os.path.join(args.out, "holdout.csv"), buf.getvalue())
    print(f"wins: {wins}/{args.replicates}; table written to {args.out}/holdout.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
