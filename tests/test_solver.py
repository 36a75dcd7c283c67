import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg

import spatpca.cli
import spatpca.solver
import spatpca.tps
from spatpca import (
    RhoTooSmallError,
    SolverConfig,
    SpatialDomain,
    TuningGrid,
    build_penalty,
    default_log_grid,
    evaluate,
    fit,
    partition_folds,
    restrict_grid,
    select_and_fit,
    solve_coefficients,
)
from spatpca.solver import (
    AdmmState,
    ClosedFormTerm,
    LowRankTerm,
    QuadraticTerm,
    admm_step,
    fit_chains,
    initial_phi,
    precompute_quadratic,
    soft_threshold,
    _fit_group,
    _initial_rho,
    _polar,
    _stack_chains,
    _stacked_bytes,
)

from checks import (
    chain_on_term,
    fit_lasso_inner,
    fit_on_term,
    fit_reference,
    lasso_cd,
    low_rank_term,
    principal_angle,
    random_orthonormal,
    smooth_rank1_data,
    spatpca_objective,
    spectral_term,
)


def _fro(m):
    return float(np.sqrt(np.sum(m * m)))


def _state_at_eigvecs(y, k, tau2_free=True):
    """KKT point of the tau1 = tau2 = 0 problem as an AdmmState."""
    yty = y.T @ y
    w, v = np.linalg.eigh(yty)
    phi = v[:, ::-1][:, :k]
    rho = 10.0 * float(w[-1])
    return AdmmState(
        phi=phi,
        q=phi.copy(),
        r=phi.copy(),
        gamma1=np.zeros_like(phi),
        gamma2=2.0 * yty @ phi,
        rho=rho,
    )


class TestSoftThreshold:
    def test_hand_cases(self):
        assert soft_threshold(3.0, 2.0) == 1.0
        assert soft_threshold(-1.0, 2.0) == 0.0
        assert soft_threshold(-3.5, 2.0) == -1.5

    def test_zero_threshold_is_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.floats(-1e6, 1e6, allow_nan=False),
        b=st.floats(-1e6, 1e6, allow_nan=False),
        tau=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_nonexpansive_and_dead_zone(self, a, b, tau):
        sa, sb = soft_threshold(a, tau), soft_threshold(b, tau)
        assert abs(sa - sb) <= abs(a - b) + 1e-9
        if abs(a) <= tau:
            assert sa == 0.0
        else:
            assert sa == pytest.approx(math.copysign(abs(a) - tau, a), rel=1e-12)


class TestInitialPhi:
    def test_diagonal_case_picks_axis_vectors(self):
        dom = SpatialDomain(np.array([0.0, 1.0, 2.0]))
        pen = build_penalty(dom)
        y = np.diag(np.sqrt([3.0, 2.0, 1.0]))
        phi = initial_phi(spectral_term(y, pen, 0.0), 2)
        assert np.allclose(np.abs(phi), np.eye(3)[:, :2], atol=1e-12)
        # sign convention: the dominant entry is nonnegative
        assert phi[0, 0] > 0 and phi[1, 1] > 0

    def test_matches_dense_eigendecomposition(self, small_penalty):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((20, 12))
        phi = initial_phi(spectral_term(y, small_penalty, 5.0), 3)
        a = y.T @ y - 5.0 * small_penalty.omega
        w, v = np.linalg.eigh(0.5 * (a + a.T))
        assert principal_angle(phi, v[:, ::-1][:, :3]) < 1e-8
        assert np.abs(phi.T @ phi - np.eye(3)).max() < 1e-12

    def test_subset_eigensolve_matches_full_eigh(self, penalty_1d):
        # n < p: the low-rank term's start, its closed form (a thin SVD at
        # tau1 = 0, a top-k subset eigensolve otherwise), against the leading
        # columns of a full eigendecomposition
        rng = np.random.default_rng(25)
        y = rng.standard_normal((15, 50))
        for tau1 in (0.0, 10.0, 1000.0):
            quad = low_rank_term(y, penalty_1d, tau1)
            full = spectral_term(y, penalty_1d, tau1)
            for k in (1, 3):
                phi = initial_phi(quad, k)
                assert principal_angle(phi, full.vectors[:, ::-1][:, :k]) < 1e-10
                assert np.abs(phi.T @ phi - np.eye(k)).max() < 1e-12

    def test_rejects_bad_rank(self, small_penalty):
        # k > n is rejected by fit (TestFit.test_data_validation)
        y = np.random.default_rng(0).standard_normal((5, 12))
        quad = spectral_term(y, small_penalty, 0.0)
        for k in (0, 13):
            with pytest.raises(ValueError):
                initial_phi(quad, k)


class TestAdmmStep:
    def test_q_block_orthonormal(self, small_penalty):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((25, 12))
        cfg = SolverConfig(tau1=1.0, tau2=0.5, k=2)
        quad = spectral_term(y, small_penalty, 1.0)
        phi0 = initial_phi(quad, 2)
        state = AdmmState(
            phi=phi0,
            q=phi0.copy(),
            r=phi0.copy(),
            gamma1=rng.standard_normal((12, 2)),
            gamma2=rng.standard_normal((12, 2)),
            rho=10.0 * quad.lam_max_yty,
        )
        new = admm_step(state, quad, cfg.tau2)
        assert np.abs(new.q.T @ new.q - np.eye(2)).max() < 1e-12

    def test_kkt_state_is_fixed_point(self, small_penalty):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((30, 12))
        state = _state_at_eigvecs(y, 2)
        new = admm_step(state, spectral_term(y, small_penalty, 0.0), 0.0)
        for name in ("phi", "q", "r"):
            assert _fro(getattr(new, name) - getattr(state, name)) < 1e-10

    def test_zero_threshold_r_update(self, small_penalty):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((25, 12))
        quad = spectral_term(y, small_penalty, 2.0)
        phi0 = initial_phi(quad, 1)
        g1 = rng.standard_normal((12, 1))
        state = AdmmState(
            phi=phi0, q=phi0.copy(), r=phi0.copy(),
            gamma1=g1, gamma2=np.zeros((12, 1)), rho=10.0 * quad.lam_max_yty,
        )
        new = admm_step(state, quad, 0.0)
        assert np.allclose(new.r, new.phi + g1 / state.rho, atol=1e-12)

    def test_rho_too_small_raises_with_floor(self, small_penalty):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((25, 12))
        quad = spectral_term(y, small_penalty, 0.0)
        phi0 = initial_phi(quad, 1)
        state = AdmmState(
            phi=phi0, q=phi0.copy(), r=phi0.copy(),
            gamma1=np.zeros((12, 1)), gamma2=np.zeros((12, 1)),
            rho=0.5 * quad.beta_max,
        )
        with pytest.raises(RhoTooSmallError) as err:
            admm_step(state, quad, 0.0)
        assert err.value.min_rho == pytest.approx(quad.beta_max)

    def test_shifted_solve_matches_dense_inverse(self, small_penalty):
        rng = np.random.default_rng(9)
        tau1 = 3.0
        # an n >= p and an n < p design, each through the spectral and the
        # Woodbury term
        for n in (20, 7):
            y = rng.standard_normal((n, 12))
            rhs = rng.standard_normal((12, 2))
            for build in (spectral_term, low_rank_term):
                quad = build(y, small_penalty, tau1)
                rho = 10.0 * quad.lam_max_yty
                direct = np.linalg.solve(
                    tau1 * small_penalty.omega + rho * np.eye(12) - y.T @ y, rhs
                )
                assert np.abs(quad.shifted_solve(rho, rhs) - direct).max() < 1e-10

    def test_lam_max_is_largest_eigenvalue_of_yty(self, small_penalty):
        rng = np.random.default_rng(24)
        # both ADMM terms: the spectral one for 20 rows, the low-rank one for 3
        for n, kind in ((20, QuadraticTerm), (3, LowRankTerm)):
            y = rng.standard_normal((n, 12))
            want = np.linalg.eigvalsh(y.T @ y)[-1]
            for tau1 in (0.0, 3.0):
                quad = precompute_quadratic(y, small_penalty, 1)(tau1)
                assert type(quad) is kind
                assert quad.lam_max_yty == pytest.approx(want, rel=1e-12)


class TestFit:
    def test_zero_penalties_reduce_to_pca(self, small_penalty):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((40, 12))
        basis = fit(y, small_penalty, SolverConfig(tau1=0.0, tau2=0.0, k=3))
        w, v = np.linalg.eigh(y.T @ y)
        assert principal_angle(basis.phi, v[:, ::-1][:, :3]) < 1e-4

    def test_large_sparsity_penalty_zeroes_silent_sites(self, domain_1d, penalty_1d):
        rng = np.random.default_rng(11)
        x = domain_1d.locations[:, 0]
        phi = np.where(np.abs(x) < 2.0, np.cos(np.pi * x / 4.0), 0.0)
        phi /= np.linalg.norm(phi)
        y = rng.normal(0, 5, size=(80, 1)) @ phi[None, :] + rng.normal(0, 0.5, (80, 50))
        basis = fit(y, penalty_1d, SolverConfig(tau1=0.0, tau2=1000.0, k=1))
        assert basis.converged
        assert np.abs(basis.phi[np.abs(x) >= 3.0, 0]).max() < 1e-3

    def test_invariants_after_fit(self, penalty_1d, domain_1d):
        rng = np.random.default_rng(12)
        y, _ = smooth_rank1_data(rng, domain_1d.locations[:, 0], 60)
        basis = fit(y, penalty_1d, SolverConfig(tau1=2.0, tau2=1.0, k=3))
        k = 3
        assert np.abs(basis.phi.T @ basis.phi - np.eye(k)).max() < 1e-6
        assert np.all(np.diff(basis.sample_variances) <= 1e-12)
        for c in range(k):
            lead = int(np.argmax(np.abs(basis.phi[:, c])))
            assert basis.phi[lead, c] >= 0
        splines = solve_coefficients(penalty_1d, basis.phi)
        assert splines.a.shape == (domain_1d.p, k) and splines.b.shape == (2, k)
        at_nodes = evaluate(splines, domain_1d, domain_1d.locations)
        assert np.abs(at_nodes - basis.phi).max() < 1e-8
        with pytest.raises(ValueError):
            basis.phi[0, 0] = 1.0

    def test_sample_variances_match_definition(self, small_penalty):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((30, 12))
        basis = fit(y, small_penalty, SolverConfig(k=2))
        s = y.T @ y / 30
        expected = np.array([basis.phi[:, c] @ s @ basis.phi[:, c] for c in range(2)])
        assert np.allclose(basis.sample_variances, expected, rtol=1e-12)

    def test_splines_solved_only_to_write_the_model(
        self, small_penalty, tmp_path, monkeypatch, capsys
    ):
        calls = []
        original = spatpca.tps.solve_coefficients

        def counting(penalty, values):
            calls.append(np.shape(values))
            return original(penalty, values)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spatpca" and vars(module).get("solve_coefficients") is original:
                monkeypatch.setattr(module, "solve_coefficients", counting)
        rng = np.random.default_rng(14)
        p = small_penalty.domain.p
        y = rng.standard_normal((30, p))
        fit(y, small_penalty, SolverConfig(tau1=1.0, tau2=0.5, k=3))
        grid = TuningGrid(tau1_values=[0.0, 1.0], tau2_values=[0.0, 0.5], gamma_value_count=3)
        select_and_fit(y, small_penalty, 2, grid, partition_folds(30, 3, seed=0))
        assert calls == []

        data, loc = tmp_path / "data.csv", tmp_path / "loc.csv"
        data.write_text("\n".join(",".join(map(repr, row)) for row in y.tolist()) + "\n")
        sites = small_penalty.domain.locations.tolist()
        loc.write_text("\n".join(",".join(map(repr, row)) for row in sites) + "\n")
        assert spatpca.cli.main([
            "fit", "--data", str(data), "--locations", str(loc), "--k", "3",
            "--tau1", "1.0", "--tau2", "0.5", "--gamma", "0.1",
            "--out", str(tmp_path / "model.json"),
        ]) == 0
        capsys.readouterr()
        assert calls == [(p, 3)]

    def test_stopping_quantity_below_tolerance_when_converged(self, small_penalty):
        # replay the iteration and confirm the reported stop was genuine
        rng = np.random.default_rng(14)
        y = rng.standard_normal((30, 12))
        cfg = SolverConfig(tau1=1.0, tau2=0.5, k=2)
        basis = fit(y, small_penalty, cfg)
        assert basis.converged

        quad = precompute_quadratic(y, small_penalty, 1)(cfg.tau1)
        rho0 = 10.0 * quad.lam_max_yty
        phi0 = initial_phi(quad, cfg.k)
        state = AdmmState(
            phi=phi0, q=phi0, r=phi0.copy(),
            gamma1=np.zeros((12, 2)), gamma2=np.zeros((12, 2)), rho=rho0,
        )
        scale = 1.0 / math.sqrt(12)
        for it in range(1, cfg.max_iterations + 1):
            prev = state.phi
            state = admm_step(state, quad, cfg.tau2)
            crit = scale * max(
                _fro(state.phi - prev),
                _fro(state.phi - state.r),
                _fro(state.phi - state.q),
            )
            if crit <= cfg.tolerance:
                break
            state = replace(state, rho=min(state.rho * cfg.rho_growth, 1e12 * rho0))
        assert it == basis.iterations
        assert crit <= cfg.tolerance
        assert principal_angle(state.q, basis.phi) < 1e-10

    def test_scale_coherence(self, small_penalty):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((30, 12))
        c = 3.7
        b1 = fit(y, small_penalty, SolverConfig(tau1=2.0, tau2=1.0, k=2))
        b2 = fit(c * y, small_penalty, SolverConfig(tau1=2.0 * c * c, tau2=1.0 * c * c, k=2))
        assert principal_angle(b1.phi, b2.phi) < 1e-4

    def test_nonconvergence_is_flagged_not_raised(self, small_penalty):
        # tau2 > 0: a tau2 = 0 fit is solved in closed form and runs no iteration
        rng = np.random.default_rng(16)
        y = rng.standard_normal((30, 12))
        basis = fit(y, small_penalty, SolverConfig(tau2=0.5, k=1, max_iterations=1))
        assert not basis.converged
        assert basis.iterations == 1

    def test_data_validation(self, small_penalty):
        bad = np.ones((10, 12))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit(bad, small_penalty, SolverConfig(k=1))
        with pytest.raises(ValueError):
            fit(np.ones((10, 9)), small_penalty, SolverConfig(k=1))
        with pytest.raises(ValueError):
            fit(np.ones((3, 12)), small_penalty, SolverConfig(k=5))

    def test_strided_view_fits_as_its_contiguous_copy(self, small_penalty):
        y = np.random.default_rng(39).standard_normal((60, 36))[:, ::3]
        for tau1, tau2 in ((10.0, 0.0), (10.0, 1.0), (0.0, 0.5)):
            cfg = SolverConfig(tau1=tau1, tau2=tau2, k=3)
            got, want = fit(y, small_penalty, cfg), fit(y.copy(), small_penalty, cfg)
            assert np.array_equal(got.phi, want.phi)
            assert np.array_equal(got.sample_variances, want.sample_variances)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau1=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(k=0)
        with pytest.raises(ValueError):
            SolverConfig(rho_growth=1.0)
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("name", ["tau1", "tau2", "rho_growth", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, name, value):
        # unchecked, a non-finite setting ends in a LAPACK error or in
        # max_iterations idle iterations
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{name: value})

    def test_sparsity_count_trends_upward_in_tau2(self, penalty_1d, domain_1d):
        rng = np.random.default_rng(19)
        y, _ = smooth_rank1_data(rng, domain_1d.locations[:, 0], 100)
        quad = spectral_term(y, penalty_1d, 0.0)
        taus = np.concatenate([[0.0], np.geomspace(1.0, 1e3, 30)])
        cfg = SolverConfig(tau1=0.0, k=1)
        bases = chain_on_term(y, cfg, quad, taus)
        # the path's fit at taus[j] is the last of the chain along taus[:j + 1]
        for j in (0, 1, 15):
            assert np.array_equal(chain_on_term(y, cfg, quad, taus[: j + 1])[-1].phi, bases[j].phi)
        counts = [int(np.sum(np.abs(basis.phi) < 1e-6)) for basis in bases]
        inversions = sum(1 for a, b in zip(counts, counts[1:]) if b < a)
        assert inversions <= 2
        assert counts[-1] > counts[0]


class TestClosedForm:
    """tau2 = 0: the K leading eigenvectors of Y'Y - tau1*omega, with no ADMM step."""

    def test_fit_is_leading_eigenvectors_of_b(self, penalty_1d):
        # every term: no step runs
        rng = np.random.default_rng(35)
        for n in (60, 15):
            y = rng.standard_normal((n, 50))
            for tau1 in (0.0, 5.0, 200.0):
                b = y.T @ y - tau1 * penalty_1d.omega
                _, v = np.linalg.eigh(0.5 * (b + b.T))
                terms = [None, low_rank_term(y, penalty_1d, tau1),
                         spectral_term(y, penalty_1d, tau1),
                         precompute_quadratic(y, penalty_1d, 0)(tau1)]
                for k in (1, 3):
                    want = v[:, ::-1][:, :k]
                    cfg = SolverConfig(tau1=tau1, k=k)
                    for quad in terms:
                        if quad is None:
                            basis = fit(y, penalty_1d, cfg)
                        else:
                            basis = fit_on_term(y, cfg, quad)
                        assert (basis.converged, basis.iterations) == (True, 0)
                        # the same columns up to order and sign
                        match = np.argmax(np.abs(want.T @ basis.phi), axis=0)
                        assert sorted(match) == list(range(k))
                        signs = np.sign(np.sum(want[:, match] * basis.phi, axis=0))
                        assert np.abs(basis.phi - want[:, match] * signs).max() < 1e-10
                        if isinstance(quad, (LowRankTerm, QuadraticTerm)):
                            # the first fit of a chain on to a tau2 above 0
                            first = chain_on_term(y, cfg, quad, [0.0, 1.0])[0]
                            assert np.array_equal(first.phi, basis.phi)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 30),
        k=st.integers(1, 3),
        tau1=st.sampled_from([0.0, 0.5, 20.0]),
    )
    def test_objective_not_above_admm_from_random_start(self, seed, n, k, tau1):
        rng = np.random.default_rng(seed)
        pen = build_penalty(SpatialDomain(np.sort(rng.uniform(-5.0, 5.0, 12))))
        y = rng.standard_normal((n, 12)) * rng.uniform(0.2, 3.0, 12)
        cfg = SolverConfig(tau1=tau1, k=k)
        closed = fit(y, pen, cfg)
        admm = fit_reference(y, pen, cfg, warm_start=random_orthonormal(rng, 12, k))
        assert closed.iterations == 0
        got = spatpca_objective(y, pen, closed.phi, tau1, 0.0)
        other = spatpca_objective(y, pen, admm.phi, tau1, 0.0)
        assert got <= other + 1e-10 * abs(other)
        # Ky Fan: the minimum is ||Y||^2 less the K largest eigenvalues of B
        b = y.T @ y - tau1 * pen.omega
        bound = float(np.sum(y * y)) - float(np.sum(np.linalg.eigvalsh(0.5 * (b + b.T))[-k:]))
        assert got == pytest.approx(bound, rel=1e-10, abs=1e-10 * float(np.sum(y * y)))

    def test_closed_form_term_gives_k_columns_past_the_rank(self, small_penalty):
        # 3 rows: a thin SVD has 3 right singular vectors, and k = 5 asks for 5
        y = np.random.default_rng(45).standard_normal((3, 12))
        for tau1 in (0.0, 1.0):
            phi = initial_phi(precompute_quadratic(y, small_penalty, 0)(tau1), 5)
            assert phi.shape == (12, 5)
            assert np.abs(phi.T @ phi - np.eye(5)).max() < 1e-12
            want = initial_phi(spectral_term(y, small_penalty, tau1), 3)
            assert principal_angle(phi[:, :3], want) < 1e-8

    def test_tau1_zero_fit_is_one_thin_svd(self, domain_2d, monkeypatch):
        # tau1 = tau2 = 0: plain PCA, the top K right singular vectors of Y,
        # with no p x p eigensolve of either library and no spectrum of omega
        p = domain_2d.p
        penalty = build_penalty(domain_2d)
        y = np.random.default_rng(42).standard_normal((8, p))
        want = np.linalg.eigh(y.T @ y)[1][:, ::-1][:, :3]
        full, subset = TestLowRankTerm._count_eigensolves(monkeypatch)
        svds = TestLowRankTerm._count_svds(monkeypatch)
        basis = fit(y, penalty, SolverConfig(k=3))
        assert svds == [((8, p), False)]
        assert [shape for shape in full if shape == (p, p)] == [] and subset == []
        assert "spectrum" not in vars(penalty)
        assert principal_angle(basis.phi, want) < 1e-10

    def test_yty_is_formed_only_when_a_tau1_above_zero_reads_it(self):
        # p = 400, 8 rows: a lone fit at tau1 = tau2 = 0 reads the thin SVD
        # alone, and the p x p Y'Y (8p^2 bytes) is never formed
        axis = np.linspace(0.0, 1.0, 20)
        penalty = build_penalty(SpatialDomain(np.column_stack([c.ravel() for c in np.meshgrid(axis, axis)])))
        p = penalty.domain.p
        y = np.random.default_rng(46).standard_normal((8, p))
        tracemalloc.start()
        try:
            fit(y, penalty, SolverConfig(k=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p * p / 4
        # formed once, on first use, and shared by the data set's tau1 values
        family = precompute_quadratic(y, penalty, 0)
        first, second = family(1.0), family(2.0)
        assert first.yty() is second.yty()
        assert np.array_equal(first.yty(), y.T @ y)

    def test_select_and_fit_at_tau2_zero_takes_no_admm_step(self, penalty_1d, monkeypatch):
        calls = []
        original = spatpca.solver.admm_step

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(spatpca.solver, "admm_step", counting)
        rng = np.random.default_rng(36)
        grid = restrict_grid(TuningGrid(tau1_values=default_log_grid(4)), tau2=0.0)
        for n in (60, 15):  # closed-form chains: no tau2 value above 0
            y = rng.standard_normal((n, 50))
            tuned = select_and_fit(y, penalty_1d, 2, grid, partition_folds(n, 3, seed=0))
            assert (tuned.basis.converged, tuned.basis.iterations) == (True, 0)
            assert tuned.tau_report.converged.all() and not tuned.tau_report.iterations.any()
        # a lone fit
        assert fit(y, penalty_1d, SolverConfig(tau1=1.0, k=2)).iterations == 0
        assert calls == []
        # the spy sees the steps of a tau2 > 0 fit
        fit(y, penalty_1d, SolverConfig(tau2=1.0, k=2))
        assert calls


class TestLowRankTerm:
    """The n < p Woodbury term against the spectral term on the same data."""

    def test_yty_is_shared_by_a_data_set_never_by_a_stack(self, penalty_1d):
        # a term's start is its closed form's, bit for bit, and the closed
        # forms of a data set's terms read one Y'Y; a stack holds no closed form
        rng = np.random.default_rng(37)
        ys = [rng.standard_normal((10, 50)) for _ in range(2)]
        families = [precompute_quadratic(y, penalty_1d, 1) for y in ys]
        tau1s = (0.0, 1.0, 50.0)
        terms = [family(t1) for family in families for t1 in tau1s]
        assert {type(term) for term in terms} == {LowRankTerm}
        first, second = ({term.closed.yty for term in terms[i:i + 3]} for i in (0, 3))
        assert len(first) == len(second) == 1 and first != second
        assert terms[1].closed.yty() is terms[2].closed.yty()
        assert np.array_equal(terms[1].closed.yty(), ys[0].T @ ys[0])
        for term, (y, t1) in zip(terms, [(y, t1) for y in ys for t1 in tau1s]):
            alone = precompute_quadratic(y, penalty_1d, 0)(t1)
            assert np.array_equal(initial_phi(term, 3), initial_phi(alone, 3))
        stack, start = _stack_chains(iter(terms), len(terms), 50, 3)
        assert stack.closed is None
        assert np.array_equal(start, [initial_phi(term, 3) for term in terms])
        # each member's floor is its own term's, and bounds the top eigenvalue
        # of B, the spectral term's exact beta_max on the same rows and tau1
        assert np.array_equal(stack.floor_bound, [t.floor_bound for t in terms])
        exact = [spectral_term(y, penalty_1d, t1).beta_max for y in ys for t1 in tau1s]
        assert np.all(exact <= stack.floor_bound * (1.0 + 64 * np.finfo(float).eps))

    def test_fit_matches_spectral_term(self, penalty_1d, domain_1d):
        rng = np.random.default_rng(26)
        y, _ = smooth_rank1_data(rng, domain_1d.locations[:, 0], 20)
        for cfg in (
            SolverConfig(tau1=0.0, tau2=0.0, k=2),
            SolverConfig(tau1=10.0, tau2=1.0, k=2),
            SolverConfig(tau1=100.0, tau2=10.0, k=3),
        ):
            got = fit_on_term(y, cfg, low_rank_term(y, penalty_1d, cfg.tau1))
            want = fit_on_term(y, cfg, spectral_term(y, penalty_1d, cfg.tau1))
            assert got.converged and want.converged
            assert got.iterations == want.iterations
            assert np.abs(got.phi - want.phi).max() < 1e-10

    def test_rho_floor_matches_spectral_term(self, penalty_1d):
        # both terms refuse a rho at or below B's top eigenvalue, the spectral
        # term's exact beta_max; the spectral term reports that eigenvalue, the
        # low-rank term its floor_bound, Weyl's bound on it
        rng = np.random.default_rng(27)
        y = rng.standard_normal((15, 50))
        for tau1 in (0.0, 3.0):
            low = low_rank_term(y, penalty_1d, tau1)
            full = spectral_term(y, penalty_1d, tau1)
            assert full.beta_max <= low.floor_bound * (1.0 + 64 * np.finfo(float).eps)
            phi0 = initial_phi(full, 2)
            for factor, raises in ((0.5, True), (0.999, True), (1.001, False)):
                state = AdmmState(
                    phi=phi0, q=phi0, r=phi0, gamma1=0 * phi0, gamma2=0 * phi0,
                    rho=factor * full.beta_max,
                )
                errors = []
                for quad in (low, full):
                    try:
                        admm_step(state, quad, 0.0)
                    except RhoTooSmallError as err:
                        errors.append(err.min_rho)
                assert len(errors) == (2 if raises else 0)
                if raises:
                    assert errors == [low.floor_bound, full.beta_max]

    def test_term_follows_the_measured_crossover(self, penalty_1d, monkeypatch):
        # p = 50: Woodbury while n sqrt(T2) < 3p/8, spectral from there on, and
        # along tau2 = 0 alone the closed-form term whatever the shape, never
        # stacked; a lone fit is one chain along its own tau2 and follows the
        # same rule
        rng = np.random.default_rng(29)
        lone = []

        def spy(ys, tau1s, quads, *args):
            quads = list(quads)
            lone.extend(type(quad) for quad in quads)
            yield from group(ys, tau1s, quads, *args)

        group = spatpca.solver._fit_group
        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        for n, tau2_count, kind in (
            (18, 1, LowRankTerm), (19, 1, QuadraticTerm),
            (9, 4, LowRankTerm), (10, 4, QuadraticTerm), (60, 1, QuadraticTerm),
            (60, 0, ClosedFormTerm), (9, 0, ClosedFormTerm),  # tau2 = 0 alone: no ADMM step
        ):
            y = rng.standard_normal((n, 50))
            assert type(precompute_quadratic(y, penalty_1d, tau2_count)(1.0)) is kind
            if kind is not ClosedFormTerm:
                rows = n * 50 + 2 if kind is LowRankTerm else 50 * 50 + 51
                assert _stacked_bytes(n, 50, tau2_count) == 8 * rows
            if tau2_count <= 1:
                fit(y, penalty_1d, SolverConfig(tau1=1.0, tau2=float(tau2_count), k=2))
                assert lone == [kind]
                lone.clear()

    @staticmethod
    def _count_eigensolves(monkeypatch):
        full, subset = [], []
        numpy_eigh, scipy_eigh = np.linalg.eigh, scipy.linalg.eigh

        def counting_numpy(a, *args, **kwargs):
            full.append(np.shape(a))
            return numpy_eigh(a, *args, **kwargs)

        def counting_scipy(a, *args, **kwargs):
            subset.append((np.shape(a), kwargs.get("subset_by_index")))
            return scipy_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_numpy)
        monkeypatch.setattr(scipy.linalg, "eigh", counting_scipy)
        return full, subset

    @staticmethod
    def _count_svds(monkeypatch):
        svds = []
        numpy_svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            svds.append((np.shape(a), kwargs.get("full_matrices")))
            return numpy_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return svds

    def test_select_and_fit_decomposes_omega_once(self, domain_2d, monkeypatch):
        # 6 training rows, 36 sites: neither the (fold, tau1) chains nor the
        # refit decompose a p x p matrix in full, only omega is, once
        from spatpca import default_log_grid

        p = domain_2d.p
        penalty = build_penalty(domain_2d)
        full, subset = self._count_eigensolves(monkeypatch)
        svds = self._count_svds(monkeypatch)
        y = np.random.default_rng(28).standard_normal((8, p))
        grid = TuningGrid(tau1_values=default_log_grid(3), tau2_values=[0.0, 1.0])
        select_and_fit(y, penalty, 2, grid, partition_folds(8, 4, seed=0), gamma=0.0)
        assert [shape for shape in full if shape == (p, p)] == [(p, p)]
        # the 9 chains at a tau1 above 0 start from a top-K subset eigensolve
        # of B, the 4 at tau1 = 0 from a thin SVD of their training rows
        assert subset == [((p, p), [p - 2, p - 1])] * 9
        assert [svd for svd in svds if svd[1] is False] == [((6, p), False)] * 4

    def test_lone_fit_decomposes_omega_once_per_domain(self, domain_2d, monkeypatch):
        # 8 rows, 36 sites, tau2 = 1: the low-rank term, whose decomposition
        # of omega the penalty keeps for the next fit; 14 rows (n >= 3p/8):
        # the spectral term, one eigendecomposition of B, omega's never read
        p = domain_2d.p
        penalty = build_penalty(domain_2d)
        full, subset = self._count_eigensolves(monkeypatch)
        rng = np.random.default_rng(34)
        cfg = SolverConfig(tau1=1.0, tau2=1.0, k=2)
        for omega_eighs in ([(p, p)], []):
            fit(rng.standard_normal((8, p)), penalty, cfg)
            assert [shape for shape in full if shape == (p, p)] == omega_eighs
            assert subset == [((p, p), [p - 2, p - 1])]
            full.clear()
            subset.clear()
        fresh = build_penalty(domain_2d)
        fit(rng.standard_normal((14, p)), fresh, cfg)
        assert [shape for shape in full if shape == (p, p)] == [(p, p)]
        assert subset == []
        assert "spectrum" not in vars(fresh)

    def test_holdout_shape_never_decomposes_omega(self, monkeypatch):
        # 60 rows on a 20 x 20 grid, 5 folds, tau2 pinned at 0: the chains
        # and the refit all take the closed-form term, so build_penalty and
        # select_and_fit together make no numpy p x p eigensolve, and omega's
        # spectrum is never computed
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        axis = np.linspace(-5.0, 5.0, 20)
        domain = SpatialDomain(np.array([(a, b) for a in axis for b in axis]))
        p = domain.p
        y = np.random.default_rng(39).standard_normal((60, p))
        grid = restrict_grid(TuningGrid(tau1_values=default_log_grid(4)), tau2=0.0)
        penalty = build_penalty(domain)
        select_and_fit(y, penalty, 5, grid, partition_folds(60, 5, seed=0))
        assert [call for call in calls if call[1] == (p, p)] == []
        assert "spectrum" not in vars(penalty)

    def test_holdout_shape_solves_one_subset_per_cell_above_tau1_zero(
        self, domain_2d, monkeypatch
    ):
        # tau2 pinned at 0, 5 folds, 4 tau1 values: each (fold, tau1 > 0) cell
        # and a refit at tau1 > 0 make one top-K subset eigensolve of B; each
        # tau1 = 0 cell, and a refit there, one thin SVD of its rows
        p, k = domain_2d.p, 2
        penalty = build_penalty(domain_2d)
        full, subset = self._count_eigensolves(monkeypatch)
        svds = self._count_svds(monkeypatch)
        y = np.random.default_rng(41).standard_normal((20, p))
        grid = restrict_grid(TuningGrid(tau1_values=default_log_grid(4)), tau2=0.0)
        tuned = select_and_fit(y, penalty, k, grid, partition_folds(20, 5, seed=0), gamma=0.0)
        refit_subset = tuned.tau_report.selected[0] > 0
        assert [shape for shape in full if shape == (p, p)] == []
        assert subset == [((p, p), [p - k, p - 1])] * (5 * 3 + refit_subset)
        assert svds == [((16, p), False)] * 5 + [((20, p), False)] * (not refit_subset)

    def test_rows_at_least_sites_never_decompose_omega(self, domain_1d, monkeypatch):
        # n >= p with every tau2 on the grid above 0: spectral chains and a
        # spectral refit, one eigendecomposition of B each
        penalty = build_penalty(domain_1d)
        full, subset = self._count_eigensolves(monkeypatch)
        y = np.random.default_rng(40).standard_normal((60, penalty.domain.p))
        grid = TuningGrid(tau1_values=default_log_grid(3), tau2_values=[1.0, 10.0])
        select_and_fit(y, penalty, 2, grid, partition_folds(60, 5, seed=0), gamma=0.0)
        p = penalty.domain.p
        assert [shape for shape in full if shape == (p, p)] == [(p, p)] * (5 * 3 + 1)
        assert subset == []
        assert "spectrum" not in vars(penalty)


class TestFitChains:
    def test_fit_matches_lone_chain_reference_bitwise(self, small_penalty):
        y = np.random.default_rng(30).standard_normal((30, 12))
        for cfg in (
            SolverConfig(tau1=1.0, tau2=0.5, k=2),
            SolverConfig(tau1=10.0, tau2=3.0, k=1, max_iterations=7),
            SolverConfig(tau2=0.2, k=3, rho_growth=1.2),
        ):
            got, want = fit(y, small_penalty, cfg), fit_reference(y, small_penalty, cfg)
            assert np.array_equal(got.phi, want.phi)
            assert np.array_equal(got.sample_variances, want.sample_variances)
            assert (got.converged, got.iterations) == (want.converged, want.iterations)
            assert got.config == cfg

    def test_member_at_its_cap_matches_separate_fits(self, small_penalty):
        # members of the stack run out of iterations while others converge,
        # and some finish on the same step; each must still get exactly the
        # bits it gets alone, and each (chain, tau2) is reported once.  The
        # second design has fewer rows than sites: a stack of Woodbury terms.
        rng = np.random.default_rng(31)
        designs = [
            ([rng.standard_normal((30, 12)), 5.0 * rng.standard_normal((24, 12))],
             spectral_term),
            ([rng.standard_normal((8, 12)), 5.0 * rng.standard_normal((8, 12))], low_rank_term),
        ]
        for ys, build in designs:
            chains = [(m, t1) for t1 in (0.0, 10.0, 100.0) for m in (0, 1)]
            tau2s = [1.0, 30.0, 300.0]
            cfg = SolverConfig(k=2, max_iterations=24)
            # (chain, j) alone: the last fit of the chain along tau2s[:j + 1]
            expected = {
                (c, j): chain_on_term(
                    ys[m], replace(cfg, tau1=t1), build(ys[m], small_penalty, t1), tau2s[: j + 1]
                )[-1]
                for c, (m, t1) in enumerate(chains) for j in range(len(tau2s))
            }
            assert {b.converged for b in expected.values()} == {True, False}

            members = [ys[m] for m, _ in chains]
            tau1s = [t1 for _, t1 in chains]
            quads = (build(y, small_penalty, t1) for y, t1 in zip(members, tau1s))
            results = list(_fit_group(members, tau1s, quads, cfg, np.array(tau2s)))
            got = {(c, j): b for c, j, b in results}
            assert len(results) == len(got) and got.keys() == expected.keys()
            for key, want in expected.items():
                assert np.array_equal(got[key].phi, want.phi)
                assert (got[key].converged, got[key].iterations) == (
                    want.converged, want.iterations
                )
                assert got[key].config == want.config

    def test_rejects_tau2_not_ascending_from_zero(self, small_penalty):
        y = np.random.default_rng(38).standard_normal((30, 12))
        for tau2s in ([], [1.0, 0.5], [0.0, 0.0], [-1.0], [-1.0, 0.0, 1.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="nonempty, nonnegative and strictly ascending"):
                list(fit_chains([y], [(0, 1.0)], small_penalty, SolverConfig(k=2), tau2s))

    def test_low_rank_stack_needs_equal_row_counts(self, penalty_1d, monkeypatch):
        # data sets of 8, 7 and 8 rows on 50 sites: Woodbury terms, which
        # fit_chains stacks by row count (then data set), each chain getting
        # the bits it gets alone, under its own index
        rng = np.random.default_rng(33)
        data = [rng.standard_normal((n, 50)) for n in (8, 7, 8)]
        chains = [(0, 1.0), (1, 1.0), (2, 5.0), (1, 10.0), (0, 0.0)]
        cfg, tau2s = SolverConfig(k=2), [0.0, 1.0, 10.0]
        assert type(precompute_quadratic(data[1], penalty_1d, 2)(1.0)) is LowRankTerm
        seen = []

        def spy(ys, tau1s, *args):
            seen.append([(len(y), t1) for y, t1 in zip(ys, tau1s)])
            yield from group(ys, tau1s, *args)

        group = spatpca.solver._fit_group
        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        got = {(c, j): b for c, j, b in fit_chains(data, chains, penalty_1d, cfg, tau2s)}
        assert seen == [[(7, 1.0), (7, 10.0)], [(8, 1.0), (8, 0.0), (8, 5.0)]]
        assert got.keys() == {(c, j) for c in range(5) for j in range(3)}
        for c, (d, t1) in enumerate(chains):
            for _, j, want in fit_chains([data[d]], [(0, t1)], penalty_1d, cfg, tau2s):
                assert np.array_equal(got[c, j].phi, want.phi)
                assert (got[c, j].converged, got[c, j].iterations) == (
                    want.converged, want.iterations
                )
                assert got[c, j].config == want.config

    def test_stacked_step_reports_first_member_below_floor(self, small_penalty):
        y = np.random.default_rng(32).standard_normal((25, 12))
        quads = [spectral_term(y, small_penalty, t1) for t1 in (0.0, 5.0)]
        stack = QuadraticTerm(
            np.stack([q.vectors for q in quads]), np.stack([q.values for q in quads]),
            np.array([q.lam_max_yty for q in quads]),
        )
        phi = np.stack([initial_phi(q, 1) for q in quads])
        rho = np.array([10.0 * quads[0].lam_max_yty, 0.5 * quads[1].beta_max])
        state = AdmmState(phi=phi, q=phi, r=phi, gamma1=0 * phi, gamma2=0 * phi, rho=rho)
        with pytest.raises(RhoTooSmallError) as err:
            admm_step(state, stack, np.zeros(2))
        assert err.value.min_rho == quads[1].beta_max


@pytest.fixture(scope="module")
def penalty_20x20():
    axis = np.linspace(-5.0, 5.0, 20)
    return build_penalty(SpatialDomain(np.array([(a, b) for a in axis for b in axis])))


class TestRhoStart:
    """rho starts at 10 ||Y||_2^2, or at 10 times the term's floor_bound where
    B's roundoff puts the floor above that."""

    @pytest.mark.parametrize(
        "sites, n, scale", [("1d", 60, 1e-7), ("2d", 60, 1e-8), ("2d", 12, 1e-8)]
    )
    def test_small_scale_data_fit(self, penalty_1d, penalty_20x20, sites, n, scale):
        # on these designs B's roundoff puts the rho floor above 10 ||Y||_2^2
        penalty = penalty_1d if sites == "1d" else penalty_20x20
        y = np.random.default_rng(1).standard_normal((n, penalty.domain.p)) * scale
        cfg = SolverConfig(tau1=1000.0, tau2=1e-9, k=2)
        terms = [spectral_term(y, penalty, cfg.tau1)]
        if sites == "2d":
            terms.append(low_rank_term(y, penalty, cfg.tau1))
        for quad in terms:
            assert 10.0 * quad.lam_max_yty <= quad.floor_bound
        for basis in [fit(y, penalty, cfg)] + [fit_on_term(y, cfg, quad) for quad in terms]:
            assert basis.converged
            assert np.abs(basis.phi.T @ basis.phi - np.eye(2)).max() < 1e-12

    def test_start_is_ten_lam_max_above_the_bound(self, penalty_1d):
        rng = np.random.default_rng(41)
        for n, build in ((60, spectral_term), (15, low_rank_term)):
            y = rng.standard_normal((n, 50))
            tau1s = (0.0, 10.0, 1000.0)
            quads = [build(y, penalty_1d, t1) for t1 in tau1s]
            stack, _ = _stack_chains(iter(quads), len(quads), 50, 1)
            assert np.array_equal(_initial_rho(stack), [10.0 * q.lam_max_yty for q in quads])
            # Weyl's inequality bounds the top eigenvalue of B, the spectral
            # term's exact beta_max on the same rows and tau1, from above, up to
            # the roundoff of two eigensolves: at tau1 = 0 the bound is ||Y||_2^2,
            # the same eigenvalue taken from an SVD of Y
            for quad, t1 in zip(quads, tau1s):
                exact = spectral_term(y, penalty_1d, t1).beta_max
                assert exact <= quad.floor_bound * (1.0 + 64 * np.finfo(float).eps)
            zero = build(np.zeros((n, 50)), penalty_1d, 10.0)
            stack, _ = _stack_chains(iter([zero]), 1, 50, 1)
            assert np.array_equal(_initial_rho(stack), [1.0])


class TestLassoVariant:
    """fit against the two-block lasso-inner oracle, and the oracle's lasso."""

    def test_toy_lasso_matches_analytic_solution(self):
        # orthonormal design: minimizer of ||z - I w||^2 + tau ||w||_1
        # is the soft threshold of z at tau / 2
        x = np.eye(2)
        z = np.array([1.3, -0.4])
        col_sq = np.array([1.0, 1.0])
        for tau in (0.0, 0.5, 1.0, 3.0):
            got = lasso_cd(x, z, np.zeros(2), tau, col_sq)
            expected = soft_threshold(z, tau / 2.0)
            assert np.allclose(got, expected, atol=1e-12)

    def test_general_lasso_satisfies_kkt(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((10, 6))
        z = rng.standard_normal(10)
        tau = 1.5
        col_sq = np.einsum("ij,ij->j", x, x)
        w = lasso_cd(x, z, np.zeros(6), tau, col_sq)
        grad = 2.0 * x.T @ (x @ w - z)
        for j in range(6):
            if w[j] != 0.0:
                assert grad[j] + tau * np.sign(w[j]) == pytest.approx(0.0, abs=1e-6)
            else:
                assert abs(grad[j]) <= tau + 1e-6

    def test_matches_closed_form_at_zero_sparsity(self, small_penalty):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((30, 12))
        for tau1 in (0.0, 4.0):
            b1 = fit(y, small_penalty, SolverConfig(tau1=tau1, tau2=0.0, k=2))
            b2 = fit_lasso_inner(y, small_penalty, SolverConfig(tau1=tau1, tau2=0.0, k=2))
            assert principal_angle(b1.phi, b2.phi) < 1e-6

    def test_agrees_with_closed_form_under_patient_schedule(self, penalty_1d, domain_1d):
        rng = np.random.default_rng(22)
        y, _ = smooth_rank1_data(rng, domain_1d.locations[:, 0], 100)
        kwargs = dict(tau1=10.0, tau2=10.0, k=1, rho_growth=1.001,
                      tolerance=1e-9, max_iterations=20000)
        b1 = fit(y, penalty_1d, SolverConfig(**kwargs))
        b2 = fit_lasso_inner(y, penalty_1d, SolverConfig(**kwargs))
        assert b1.converged and b2.converged
        assert principal_angle(b1.phi, b2.phi) < 1e-5

    def test_rho_too_small_raises(self, small_penalty):
        rng = np.random.default_rng(23)
        y = rng.standard_normal((30, 12))
        quad = spectral_term(y, small_penalty, 0.0)
        with pytest.raises(RhoTooSmallError) as err:
            fit_lasso_inner(y, small_penalty, SolverConfig(k=1), rho0=1.5 * quad.beta_max)
        assert err.value.min_rho == pytest.approx(2.0 * quad.beta_max)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_polar_factor_is_orthonormal(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((8, 3))
    q = _polar(m)
    assert np.abs(q.T @ q - np.eye(3)).max() < 1e-12


def _svd_polar(m):
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


class TestGramPolar:
    def test_matches_svd_polar_near_orthonormal_input(self):
        rng = np.random.default_rng(40)
        for p, k in ((50, 2), (400, 5), (12, 3)):
            m = random_orthonormal(rng, p, k) + 1e-3 * rng.standard_normal((p, k))
            assert np.abs(_polar(m) - _svd_polar(m)).max() < 1e-14

    def test_rank_deficient_member_alone_takes_the_svd(self):
        rng = np.random.default_rng(41)
        m = np.stack(
            [random_orthonormal(rng, 20, 3) + 0.1 * rng.standard_normal((20, 3)) for _ in range(5)]
        )
        m[2, :, 1] = 0.5 * m[2, :, 0]  # rank 2: its Gram has a zero eigenvalue
        q = _polar(m)
        assert np.array_equal(q[2], _svd_polar(m[2]))
        assert np.abs(q[2].T @ q[2] - np.eye(3)).max() < 1e-12
        for i in (0, 1, 3, 4):
            assert np.array_equal(q[i], _polar(m[i]))
            assert not np.array_equal(q[i], _svd_polar(m[i]))
