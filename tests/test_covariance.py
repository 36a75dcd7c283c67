import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatpca import (
    CovarianceModel,
    SampleCovariance,
    SolverConfig,
    covariance_at,
    estimate_parameters,
    evaluate,
    fit,
    predict,
    rotated_eigenfunctions,
    solve_coefficients,
)
from spatpca.solver import EigenBasis

from checks import (
    covariance_reference,
    minimize_shrinkage_objective,
    random_orthonormal,
    random_psd,
    shrinkage_objective,
    smooth_rank1_data,
)


def _plain_basis(phi):
    phi = np.asarray(phi, dtype=float)
    k = phi.shape[1]
    return EigenBasis(
        phi=phi,
        sample_variances=np.zeros(k),
        config=SolverConfig(k=k),
        converged=True,
        iterations=0,
    )


class TestSampleCovariance:
    def test_from_data(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((15, 4))
        sc = SampleCovariance(np.asfortranarray(y))
        assert sc.y.shape == (15, 4) and sc.y.flags.c_contiguous
        assert np.array_equal(sc.y, y) and not np.shares_memory(sc.y, y)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n x p"):
            SampleCovariance(np.ones(3))
        with pytest.raises(ValueError, match="n x p"):
            SampleCovariance(np.ones((0, 3)))
        for bad in (np.nan, np.inf):
            y = np.ones((4, 3))
            y[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                SampleCovariance(y)

    def test_matrix_is_read_only(self):
        sc = SampleCovariance(np.eye(3))
        with pytest.raises(ValueError):
            sc.y[0, 0] = 2.0

    @pytest.mark.parametrize("n", [3, 40])
    def test_moments_match_reference(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 8))
        phi = random_orthonormal(rng, 8, 2)
        s = y.T @ y / n
        m, tr = SampleCovariance(y).moments(phi)
        np.testing.assert_allclose(m, phi.T @ s @ phi, rtol=1e-12)
        np.testing.assert_allclose(tr, np.trace(s), rtol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        n_above_p=st.booleans(),
        gamma=st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_row_form_matches_reference(self, seed, n_above_p, gamma):
        rng = np.random.default_rng(seed)
        # k < n, so that Phi' S Phi has k distinct eigenvalues and vhat is unique
        p = int(rng.integers(3, 12))
        k = int(rng.integers(1, p - 1))
        n = int(rng.integers(p + 1, 3 * p)) if n_above_p else int(rng.integers(k + 1, p))
        y = rng.standard_normal((n, 1)) * rng.standard_normal(p) + rng.standard_normal((n, p))
        basis = _plain_basis(random_orthonormal(rng, p, k))
        got = estimate_parameters(SampleCovariance(y), basis, gamma)
        ref = covariance_reference(y.T @ y / n, basis, gamma)
        np.testing.assert_allclose(got.sigma2, ref.sigma2, rtol=1e-12)
        # lambda* = d - sigma2 - gamma cancels, so it and Lambda are held to
        # 1e-12 of the eigenvalue scale d_1 (lambda*_1 + sigma2 + gamma when
        # kept), vhat's unit columns to 1e-12; measured 2e-15 and 7e-14
        scale = ref.lambda_star[0] + ref.sigma2 + gamma
        for name, tol in (("lambda_star", scale), ("lam", scale), ("vhat", 1.0)):
            assert np.abs(getattr(got, name) - getattr(ref, name)).max() <= 1e-12 * tol
        assert got.l_hat == ref.l_hat


class TestEstimateParameters:
    """Hand-checked closed forms for S = diag(4, 1) and phi = e1."""

    S = np.diag([4.0, 1.0])
    basis = _plain_basis([[1.0], [0.0]])

    def test_no_shrinkage(self):
        m = covariance_reference(self.S, self.basis, gamma=0.0)
        assert m.sigma2 == pytest.approx(1.0)
        assert m.lambda_star[0] == pytest.approx(3.0)
        assert m.l_hat == 1

    def test_partial_shrinkage(self):
        m = covariance_reference(self.S, self.basis, gamma=0.5)
        assert m.sigma2 == pytest.approx(1.5)
        assert m.lambda_star[0] == pytest.approx(2.0)

    def test_full_shrinkage_falls_back_to_mean_variance(self):
        m = covariance_reference(self.S, self.basis, gamma=4.0)
        assert m.sigma2 == pytest.approx(2.5)  # tr(S) / p
        assert m.lambda_star[0] == 0.0
        assert m.l_hat == 0
        assert np.all(m.lam == 0.0)

    def test_errors(self):
        rows = SampleCovariance(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            estimate_parameters(rows, self.basis, gamma=-0.1)
        with pytest.raises(ValueError):
            estimate_parameters(rows, _plain_basis(np.eye(2)), gamma=0.0)
        with pytest.raises(ValueError):
            estimate_parameters(SampleCovariance(np.ones((5, 3))), self.basis, 0.0)

    def test_matches_independent_minimizer(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = int(rng.integers(3, 8))
            k = int(rng.integers(1, min(3, p - 1) + 1))
            s = random_psd(rng, p)
            phi = random_orthonormal(rng, p, k)
            gamma = float(rng.uniform(0.0, 1.5))
            model = covariance_reference(s, _plain_basis(phi), gamma)
            closed = shrinkage_objective(s, phi, model.lam, model.sigma2, gamma)
            _, _, oracle = minimize_shrinkage_objective(s, phi, gamma)
            assert closed <= oracle + 1e-5

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), gamma=st.floats(0.0, 10.0, allow_nan=False))
    def test_solution_invariants(self, seed, gamma):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 9))
        k = int(rng.integers(1, p))
        s = random_psd(rng, p)
        phi = random_orthonormal(rng, p, k)
        model = covariance_reference(s, _plain_basis(phi), gamma)
        assert model.sigma2 >= 0.0
        assert np.all(np.diff(model.lambda_star) <= 1e-12)
        assert np.all(model.lambda_star >= 0.0)
        assert np.linalg.eigvalsh(model.lam)[0] >= -1e-10
        assert 0 <= model.l_hat <= k
        # shrinking harder never keeps more components
        harder = covariance_reference(s, _plain_basis(phi), gamma + 1.0)
        assert harder.l_hat <= model.l_hat


@pytest.fixture(scope="module")
def fitted(domain_1d_module, penalty_1d_module):
    rng = np.random.default_rng(3)
    y, _ = smooth_rank1_data(rng, domain_1d_module.locations[:, 0], 80)
    basis = fit(y, penalty_1d_module, SolverConfig(tau1=1.0, k=2))
    sc = SampleCovariance(y)
    model = estimate_parameters(sc, basis, gamma=0.2)
    return y, basis, sc, model


@pytest.fixture(scope="module")
def domain_1d_module():
    from spatpca import SpatialDomain

    return SpatialDomain(np.linspace(-5.0, 5.0, 50))


@pytest.fixture(scope="module")
def penalty_1d_module(domain_1d_module):
    from spatpca import build_penalty

    return build_penalty(domain_1d_module)


class TestCovarianceSurface:
    def test_symmetry_is_exact(self, fitted, penalty_1d_module):
        _, _, _, model = fitted
        a = covariance_at(model, penalty_1d_module, 1.3, -2.1)
        b = covariance_at(model, penalty_1d_module, -2.1, 1.3)
        assert a == b

    def test_node_values_match_matrix_form(self, fitted, penalty_1d_module, domain_1d_module):
        _, basis, _, model = fitted
        c = basis.phi @ model.lam @ basis.phi.T
        x = domain_1d_module.locations[:, 0]
        scale = max(1.0, np.abs(c).max())
        for i, j in [(0, 0), (5, 40), (20, 20), (49, 3)]:
            got = covariance_at(model, penalty_1d_module, x[i], x[j])
            assert abs(got - c[i, j]) < 1e-6 * scale

    def test_point_dimension_checked(self, fitted, penalty_1d_module):
        _, _, _, model = fitted
        with pytest.raises(ValueError):
            covariance_at(model, penalty_1d_module, [1.0, 2.0], 0.0)

    def test_rotated_eigenfunctions_diagonalize(self, fitted):
        _, basis, _, model = fitted
        rot = rotated_eigenfunctions(model)
        assert np.abs(rot.T @ rot - np.eye(2)).max() < 1e-10
        diag = rot.T @ (basis.phi @ model.lam @ basis.phi.T) @ rot
        assert np.allclose(diag, np.diag(model.lambda_star), atol=1e-10)


class TestPredict:
    def test_matches_direct_formula_at_nodes(self, fitted, penalty_1d_module, domain_1d_module):
        y, basis, _, model = fitted
        assert model.sigma2 > 0.0
        p = basis.phi.shape[0]
        c = basis.phi @ model.lam @ basis.phi.T + model.sigma2 * np.eye(p)
        expected = (basis.phi @ model.lam @ basis.phi.T @ np.linalg.solve(c, y.T)).T
        got = predict(model, penalty_1d_module, y, domain_1d_module.locations)
        assert got.shape == y.shape
        assert np.abs(got - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())

    def test_matches_direct_formula_off_nodes(self, fitted, penalty_1d_module, domain_1d_module):
        y, basis, _, model = fitted
        assert model.sigma2 > 0.0
        query = np.linspace(-4.9, 4.9, 37)
        assert np.abs(query[:, None] - domain_1d_module.locations[:, 0]).min() > 1e-3
        p = basis.phi.shape[0]
        c = basis.phi @ model.lam @ basis.phi.T + model.sigma2 * np.eye(p)
        splines = solve_coefficients(penalty_1d_module, basis.phi)
        psi = evaluate(splines, domain_1d_module, query)
        expected = (psi @ model.lam @ basis.phi.T @ np.linalg.solve(c, y.T)).T
        got = predict(model, penalty_1d_module, y, query)
        assert got.shape == (y.shape[0], query.size)
        assert np.abs(got - expected).max() < 1e-10 * max(1.0, np.abs(expected).max())

    def test_zero_noise_branch_projects(self, fitted, penalty_1d_module, domain_1d_module):
        y, basis, _, model = fitted
        noiseless = CovarianceModel(
            sigma2=0.0,
            lam=model.lam,
            vhat=model.vhat,
            lambda_star=model.lambda_star,
            l_hat=model.l_hat,
            gamma=model.gamma,
            basis=basis,
        )
        got = predict(noiseless, penalty_1d_module, y, domain_1d_module.locations)
        assert np.all(np.isfinite(got))
        w, u = np.linalg.eigh(model.lam)
        keep = u[:, w > 1e-12 * w.max()]
        expected = (basis.phi @ keep @ keep.T @ basis.phi.T @ y.T).T
        assert np.abs(got - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())

    def test_single_query_point(self, fitted, penalty_1d_module):
        y, _, _, model = fitted
        out = predict(model, penalty_1d_module, y, [0.25])
        assert out.shape == (y.shape[0], 1)

    def test_rejects_wrong_width(self, fitted, penalty_1d_module):
        _, _, _, model = fitted
        with pytest.raises(ValueError):
            predict(model, penalty_1d_module, np.ones((4, 7)), [0.0])

    def test_rejects_non_finite_data(self, fitted, penalty_1d_module):
        y, _, _, model = fitted
        for bad in (np.nan, np.inf):
            data = y.copy()
            data[1, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                predict(model, penalty_1d_module, data, [0.0, 0.5])
