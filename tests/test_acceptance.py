"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test covers one written criterion and prints a single summary line on
success, so a full run reads as a checklist.  Budgets are asserted too; they
are generous compared to measured times on a laptop-class machine.
"""

import json
import math
import time

import numpy as np

from spatpca import (
    SolverConfig,
    SpatialDomain,
    TuningGrid,
    build_penalty,
    fit,
    partition_folds,
    restrict_grid,
    select_and_fit,
    solve_coefficients,
    evaluate,
)
from spatpca.cli import main
from spatpca.simulate import ExperimentSpec, generate, make_domain, run_experiment
from spatpca.solver import (
    AdmmState,
    admm_step,
    initial_phi,
    precompute_quadratic,
    soft_threshold,
    _polar,
)
from spatpca.tuning import default_log_grid

from checks import (
    covariance_reference,
    fit_lasso_inner,
    kernel_matrix_reference,
    minimize_shrinkage_objective,
    principal_angle,
    random_orthonormal,
    random_psd,
    shrinkage_objective,
)


def test_acceptance_1_zero_penalty_reduces_to_pca():
    t0 = time.time()
    dom = SpatialDomain(np.linspace(-5.0, 5.0, 30))
    pen = build_penalty(dom)
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(case)
        y = rng.standard_normal((50, 30))
        k = 1 if case % 2 == 0 else 3
        basis = fit(y, pen, SolverConfig(tau1=0.0, tau2=0.0, k=k))
        w, v = np.linalg.eigh(y.T @ y)
        worst = max(worst, principal_angle(basis.phi, v[:, ::-1][:, :k]))
    dt = time.time() - t0
    assert worst < 1e-4, f"largest principal angle to the PCA subspace: {worst:.3e}"
    assert dt < 10.0
    print(f"ACCEPTANCE 1 PASS: 20 datasets, max angle {worst:.2e} rad, {dt:.1f}s")


def test_acceptance_2_closed_form_matches_numerical_minimizer():
    from spatpca.solver import EigenBasis

    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(50):
        p = int(rng.integers(3, 9))
        k = min(int(rng.integers(1, 4)), p - 1)
        s = random_psd(rng, p)
        phi = random_orthonormal(rng, p, k)
        gamma = float(rng.uniform(0.0, 2.0))
        shell = EigenBasis(
            phi=phi,
            sample_variances=np.zeros(k),
            config=SolverConfig(k=k),
            converged=True,
            iterations=0,
        )
        model = covariance_reference(s, shell, gamma)
        closed = shrinkage_objective(s, phi, model.lam, model.sigma2, gamma)
        _, _, oracle = minimize_shrinkage_objective(s, phi, gamma)
        worst = max(worst, closed - oracle)
    dt = time.time() - t0
    assert worst <= 1e-5, f"closed form exceeds the numerical minimizer by {worst:.3e}"
    assert dt < 60.0
    print(f"ACCEPTANCE 2 PASS: 50 instances, worst objective gap {worst:+.2e}, {dt:.1f}s")


def test_acceptance_3_penalty_operator_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    reports = []
    for dom in (
        SpatialDomain(np.linspace(-5.0, 5.0, 50)),
        SpatialDomain(
            np.column_stack(
                [m.ravel() for m in np.meshgrid(*2 * [np.linspace(-3.0, 3.0, 6)], indexing="ij")]
            )
        ),
    ):
        pen = build_penalty(dom)
        p, d = dom.p, dom.d
        e = np.column_stack([np.ones(p), dom.locations])

        annihilation = np.abs(pen.omega @ e).max()
        assert annihilation < 1e-8, f"d={d}: ||Omega E|| = {annihilation:.3e}"

        coef = rng.standard_normal(d + 1)
        affine = e @ coef
        c = solve_coefficients(pen, affine)
        query = rng.uniform(-2.5, 2.5, size=(40, d))
        got = evaluate(c, dom, query)
        want = coef[0] + query @ coef[1:]
        affine_err = np.abs(got - want).max()
        assert affine_err < 1e-10, f"d={d}: affine reproduction error {affine_err:.3e}"

        g = kernel_matrix_reference(dom.locations, dom.locations, d)
        energy_rel = 0.0
        for _ in range(20):
            v = rng.standard_normal(p)
            cv = solve_coefficients(pen, v)
            quad = float(v @ pen.omega @ v)
            energy = float(cv.a @ g @ cv.a)
            energy_rel = max(energy_rel, abs(quad - energy) / max(abs(energy), 1e-12))
        assert energy_rel < 1e-8, f"d={d}: energy identity off by {energy_rel:.3e} relative"

        v = rng.standard_normal(p)
        node_err = np.abs(evaluate(solve_coefficients(pen, v), dom, dom.locations) - v).max()
        assert node_err < 1e-8, f"d={d}: node interpolation error {node_err:.3e}"
        reports.append(f"d={d}: annihilation {annihilation:.1e}, nodes {node_err:.1e}")
    dt = time.time() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 3 PASS: {'; '.join(reports)}, {dt:.1f}s")


def test_acceptance_4_solver_variants_agree():
    t0 = time.time()
    spec = ExperimentSpec()  # 1-d experiment design: n=100, p=50
    pen = build_penalty(make_domain(spec))
    y = generate(spec, 0)
    worst = 0.0
    # a patient schedule separates genuine disagreement from early freezing
    # of the consensus gap under fast rho growth
    for t1, t2 in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (10.0, 10.0)]:
        kw = dict(tau1=t1, tau2=t2, k=1, rho_growth=1.001, tolerance=1e-8, max_iterations=5000)
        a = fit(y, pen, SolverConfig(**kw))
        b = fit_lasso_inner(y, pen, SolverConfig(**kw))
        assert a.converged and b.converged
        worst = max(worst, principal_angle(a.phi, b.phi))
    dt = time.time() - t0
    assert worst < 1e-3, f"fit and the lasso-inner oracle disagree by {worst:.3e} rad"
    assert dt < 60.0
    print(f"ACCEPTANCE 4 PASS: 5 penalty pairs vs oracle, max angle {worst:.2e} rad, {dt:.1f}s")


def _win_counts(records, challenger, baseline, loss_name):
    per_rep = {}
    for r in records:
        assert r.error == "", f"cell failed: {r.error}"
        per_rep.setdefault(r.replicate, {})[r.method] = getattr(r, loss_name)
    wins = sum(
        1 for losses in per_rep.values() if losses[challenger] < losses[baseline]
    )
    return wins, len(per_rep)


def test_acceptance_5_simulation_loss_ordering():
    t0 = time.time()
    lines = []
    for eigs, baseline, loss_name, need in [
        ((9.0, 0.0), "pca", "loss_phi", 16),
        ((1.0, 0.0), "pca", "loss_phi", 16),
        ((9.0, 4.0), "sparse-only", "loss_cov", 14),
    ]:
        spec = ExperimentSpec(
            eigenvalues=eigs, methods=(baseline, "spatpca"), replicates=20, k_fit=(2,)
        )
        wins, total = _win_counts(run_experiment(spec), "spatpca", baseline, loss_name)
        assert wins >= need, (
            f"eigenvalues {eigs}: spatpca beat {baseline} on {loss_name} in only "
            f"{wins}/{total} replicates, needed {need}"
        )
        lines.append(f"{eigs}: {wins}/{total} vs {baseline}")
    dt = time.time() - t0
    assert dt < 900.0
    print(f"ACCEPTANCE 5 PASS: {'; '.join(lines)}, {dt:.0f}s")


def test_acceptance_6_update_law_properties(small_penalty):
    t0 = time.time()
    rng = np.random.default_rng(2)

    # soft threshold: nonexpansive, dead zone, identity at zero
    a = rng.uniform(-100.0, 100.0, 1000)
    b = rng.uniform(-100.0, 100.0, 1000)
    tau = rng.uniform(0.0, 100.0, 1000)
    for i in range(1000):
        sa, sb = soft_threshold(a[i], tau[i]), soft_threshold(b[i], tau[i])
        assert abs(sa - sb) <= abs(a[i] - b[i]) + 1e-12
        if abs(a[i]) <= tau[i]:
            assert sa == 0.0
        assert soft_threshold(a[i], 0.0) == a[i]

    # orthonormality of every Q update
    worst_q = 0.0
    for i in range(1000):
        p = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(4, p) + 1))
        q = _polar(rng.standard_normal((p, k)))
        worst_q = max(worst_q, np.abs(q.T @ q - np.eye(k)).max())
    assert worst_q < 1e-12, f"Q update orthogonality defect {worst_q:.3e}"

    # dual updates are exactly the scaled consensus gaps of the blocks that
    # their proximal steps read
    y = rng.standard_normal((25, 12))
    cfg = SolverConfig(tau1=1.0, tau2=0.7, k=2)
    quad = precompute_quadratic(y, small_penalty, 1)(cfg.tau1)
    phi0 = initial_phi(quad, cfg.k)
    for i in range(1000):
        state = AdmmState(
            phi=phi0,
            q=_polar(phi0 + 0.1 * rng.standard_normal(phi0.shape)),
            r=phi0 + 0.1 * rng.standard_normal(phi0.shape),
            gamma1=rng.standard_normal(phi0.shape),
            gamma2=rng.standard_normal(phi0.shape),
            rho=float(rng.uniform(1.01, 50.0)) * quad.beta_max,
        )
        new = admm_step(state, quad, cfg.tau2)
        assert np.array_equal(new.gamma1, state.gamma1 + state.rho * (new.phi - new.r))
        assert np.array_equal(new.gamma2, state.gamma2 + state.rho * (new.phi - new.q))
    dt = time.time() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 6 PASS: 1000 cases per law, Q defect {worst_q:.2e}, {dt:.1f}s")


def test_acceptance_7_command_determinism(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(3)
    x = np.linspace(-2.0, 2.0, 10)
    y = rng.standard_normal((16, 10)) + 3.0 * np.outer(
        rng.standard_normal(16), np.exp(-(x**2))
    )
    data = tmp_path / "data.csv"
    loc = tmp_path / "loc.csv"
    data.write_text("\n".join(",".join(map(str, row)) for row in y) + "\n")
    loc.write_text("\n".join(str(v) for v in x) + "\n")

    fits = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        rc = main([
            "fit", "--data", str(data), "--locations", str(loc),
            "--k", "1", "--tau1", "0.0", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        fits.append(out.read_bytes())
    assert fits[0] == fits[1], "fit outputs differ between identical runs"

    spec = {
        "n": 12, "points_per_dim": 8, "replicates": 2, "k_fit": [1],
        "methods": ["pca", "spatpca"], "folds": 3,
        "tau1_values": [0.0, 1.0], "tau2_values": [0.0], "gamma_value_count": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    sims = []
    for name in ("s1", "s2"):
        rc = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / name)])
        assert rc == 0
        sims.append(
            (tmp_path / name / "records.csv").read_bytes()
            + (tmp_path / name / "summary.json").read_bytes()
        )
    assert sims[0] == sims[1], "simulate outputs differ between identical runs"
    dt = time.time() - t0
    assert dt < 120.0
    print(f"ACCEPTANCE 7 PASS: fit and simulate reruns byte-identical, {dt:.1f}s")


def test_acceptance_8_held_out_covariance_on_large_grid():
    t0 = time.time()
    spec = ExperimentSpec(
        d=2, n=120, points_per_dim=20, eigenvalues=(101.7, 17.1),
        k_fit=(5,), replicates=10, seed=0,
    )
    dom = make_domain(spec)
    pen = build_penalty(dom)
    p = dom.p
    cv_grid = TuningGrid(
        tau1_values=default_log_grid(6, low=10.0, high=1e5),
        tau2_values=[0.0],
        gamma_value_count=11,
        gamma_lower_fraction=1e-3,
    )
    pca_grid = restrict_grid(cv_grid, tau1=0.0, tau2=0.0)

    def held_out_sse(y_tr, s_va, folds, grid):
        tuned = select_and_fit(y_tr, pen, 5, grid, folds)
        basis, model = tuned.basis, tuned.model
        sigma_hat = basis.phi @ model.lam @ basis.phi.T + model.sigma2 * np.eye(p)
        return float(np.sum((sigma_hat - s_va) ** 2))

    wins = 0
    for rep in range(10):
        y = generate(spec, rep)
        y_tr, y_va = y[:60], y[60:]
        s_va = y_va.T @ y_va / 60
        folds = partition_folds(60, 5, rep)
        sse_spat = held_out_sse(y_tr, s_va, folds, cv_grid)
        sse_pca = held_out_sse(y_tr, s_va, folds, pca_grid)
        wins += sse_spat < sse_pca
    dt = time.time() - t0
    assert wins >= 7, f"regularized fit beat plain PCA in only {wins}/10 replicates"
    print(f"ACCEPTANCE 8 PASS: held-out covariance SSE wins {wins}/10 at p={p}, {dt:.0f}s")
