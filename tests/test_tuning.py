import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatpca import (
    SampleCovariance,
    SolverConfig,
    TuningGrid,
    cv_gamma,
    cv_tau,
    default_log_grid,
    fit,
    partition_folds,
    restrict_grid,
    select_and_fit,
)
from spatpca.solver import (
    ClosedFormTerm, LowRankTerm, QuadraticTerm, _fit_group, _low_rank_pays, _stacked_bytes,
    precompute_quadratic,
)
import spatpca.solver
import spatpca.tuning
from spatpca.covariance import estimate_from_moments
from spatpca.tuning import _first_minimum, gamma_grid

from checks import covariance_reference, cv_tau_reference, smooth_rank1_data


class TestGrids:
    def test_default_log_grid_endpoints_exact(self):
        g = default_log_grid(11)
        assert g.size == 11
        assert g[0] == 0.0 and g[1] == 1.0 and g[-1] == 1000.0
        assert np.all(np.diff(g) > 0)

    def test_default_log_grid_degenerate(self):
        assert np.array_equal(default_log_grid(1), [0.0])
        assert np.array_equal(default_log_grid(2), [0.0, 1000.0])

    def test_default_log_grid_custom_range(self):
        g = default_log_grid(5, low=0.5, high=8.0)
        assert g[1] == 0.5 and g[-1] == 8.0 and g.size == 5

    def test_gamma_grid_shapes(self):
        g = gamma_grid(50.0, 6)
        assert g.size == 6
        assert g[0] == 0.0 and g[1] == 1.0 and g[-1] == 50.0
        assert np.all(np.diff(g) > 0)

    def test_gamma_grid_degenerate(self):
        assert np.array_equal(gamma_grid(-1.0, 5), [0.0])
        assert np.array_equal(gamma_grid(0.0, 5), [0.0])
        assert np.array_equal(gamma_grid(0.5, 5), [0.0, 0.5])  # below the lower end
        assert np.array_equal(gamma_grid(7.0, 1), [0.0, 7.0])

    def test_gamma_grid_lower_fraction(self):
        g = gamma_grid(100.0, 4, lower_fraction=1e-2)
        assert g[0] == 0.0 and g[1] == 1.0 and g[-1] == 100.0

    def test_tuning_grid_validation(self):
        with pytest.raises(ValueError):
            TuningGrid(tau1_values=[])
        with pytest.raises(ValueError):
            TuningGrid(tau1_values=[-1.0, 0.0])
        with pytest.raises(ValueError):
            TuningGrid(tau2_values=[0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            TuningGrid(gamma_value_count=0)
        with pytest.raises(ValueError):
            TuningGrid(gamma_lower_fraction=0.0)
        with pytest.raises(ValueError):
            TuningGrid(gamma_lower_fraction=1.5)

    def test_restrict_grid(self):
        grid = TuningGrid()
        pinned = restrict_grid(grid, tau1=3.5)
        assert np.array_equal(pinned.tau1_values, [3.5])
        assert pinned.tau2_values.size == grid.tau2_values.size
        both = restrict_grid(grid, tau1=0.0, tau2=2.0)
        assert np.array_equal(both.tau1_values, [0.0])
        assert np.array_equal(both.tau2_values, [2.0])
        assert restrict_grid(grid) is grid


class TestPartitionFolds:
    def test_balanced_cover(self):
        fa = partition_folds(23, 5, seed=7)
        assert fa.n == 23 and fa.m == 5 and fa.seed == 7
        sizes = [int(np.sum(fa.assignment == m)) for m in range(1, 6)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = partition_folds(40, 4, seed=3).assignment
        b = partition_folds(40, 4, seed=3).assignment
        c = partition_folds(40, 4, seed=4).assignment
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_errors(self):
        with pytest.raises(ValueError):
            partition_folds(10, 1, seed=0)
        with pytest.raises(ValueError):
            partition_folds(3, 4, seed=0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 60),
        m=st.integers(2, 6),
        seed=st.integers(0, 1_000),
    )
    def test_partition_properties(self, n, m, seed):
        if m > n:
            return
        fa = partition_folds(n, m, seed)
        assert set(np.unique(fa.assignment)) == set(range(1, m + 1))
        sizes = np.bincount(fa.assignment)[1:]
        assert sizes.max() - sizes.min() <= 1


@pytest.fixture(scope="module")
def cv_setup():
    from spatpca import SpatialDomain, build_penalty

    dom = SpatialDomain(np.linspace(-4.0, 4.0, 14))
    pen = build_penalty(dom)
    rng = np.random.default_rng(5)
    y, _ = smooth_rank1_data(rng, dom.locations[:, 0], 36)
    return y, pen


class TestCvTau:
    def test_trivial_grid_matches_svd_oracle(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 4, seed=1)
        grid = TuningGrid(tau1_values=[0.0], tau2_values=[0.0])
        rep = cv_tau(y, pen, 2, grid, folds)

        expected = 0.0
        for m in range(1, 5):
            mask = folds.assignment == m
            y_tr, y_va = y[~mask], y[mask]
            w, v = np.linalg.eigh(y_tr.T @ y_tr)
            phi = v[:, ::-1][:, :2]
            expected += float(np.sum((y_va - y_va @ phi @ phi.T) ** 2))
        expected /= 4.0
        assert rep.criterion[0, 0] == pytest.approx(expected, rel=1e-10)
        assert rep.selected == (0.0, 0.0)

    def test_selection_is_first_strict_minimum(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=2)
        grid = TuningGrid(tau1_values=[0.0, 1.0, 10.0], tau2_values=[0.0, 1.0, 10.0])
        rep = cv_tau(y, pen, 1, grid, folds)
        assert rep.criterion.shape == (3, 3)

        best = None
        for i in range(3):
            for j in range(3):
                if np.isnan(rep.criterion[i, j]):
                    continue
                if best is None or rep.criterion[i, j] < rep.criterion[best]:
                    best = (i, j)
        assert rep.selected == (
            float(grid.tau1_values[best[0]]),
            float(grid.tau2_values[best[1]]),
        )
        assert rep.converged.shape == (3, 3)

    def test_penalized_cell_matches_explicit_residual(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 4, seed=3)
        grid = TuningGrid(tau1_values=[1.0], tau2_values=[0.5])
        rep = cv_tau(y, pen, 2, grid, folds)

        expected = 0.0
        for m in range(1, 5):
            mask = folds.assignment == m
            y_tr, y_va = y[~mask], y[mask]
            phi = fit(y_tr, pen, SolverConfig(tau1=1.0, tau2=0.5, k=2)).phi
            expected += float(np.sum((y_va - y_va @ phi @ phi.T) ** 2))
        expected /= 4.0
        assert rep.criterion[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_report_serializes(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=2)
        grid = TuningGrid(tau1_values=[0.0, 1.0], tau2_values=[0.0])
        rep = cv_tau(y, pen, 1, grid, folds)
        d = rep.to_dict()
        round_trip = json.loads(json.dumps(d))
        assert round_trip["kind"] == "tau"
        assert round_trip["selected"] == list(rep.selected)
        assert round_trip["folds"]["m"] == 3
        assert len(round_trip["criterion"]) == 2

    def test_fold_count_mismatch(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(10, 2, seed=0)
        with pytest.raises(ValueError):
            cv_tau(y, pen, 1, TuningGrid(), folds)


class TestCvTauGroups:
    # 3 folds x 4 tau1 values = 12 chains, each along 6 tau2 values, in
    # ceil(12 / cap) groups whose sizes differ by at most one
    @pytest.mark.parametrize(
        "size, sizes",
        [(1, [1] * 12), (2, [2] * 6), (5, [4, 4, 4]), (12, [12]), (7, [6, 6])],
    )
    def test_grouping_is_bit_identical_to_per_cell_loop(self, cv_setup, monkeypatch, size, sizes):
        y, pen = cv_setup
        p = y.shape[1]
        folds = partition_folds(y.shape[0], 3, seed=2)
        grid = TuningGrid(
            tau1_values=default_log_grid(4), tau2_values=default_log_grid(6, 0.1, 100.0)
        )
        seen = []

        def spy(ys, *args):
            seen.append(len(ys))
            yield from _fit_group(ys, *args)

        # 24 training rows per fold, more than p = 14: spectral terms
        monkeypatch.setattr(spatpca.solver, "_GROUP_BYTES", size * _stacked_bytes(24, p, 6))
        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        rep = cv_tau(y, pen, 2, grid, folds)
        assert seen == sizes

        crit, conv, iters = cv_tau_reference(y, pen, 2, grid, folds)
        assert np.array_equal(rep.criterion, crit)
        assert np.array_equal(rep.converged, conv)
        assert np.array_equal(rep.iterations, iters)
        assert rep.to_dict()["iterations"] == iters.tolist()


    def test_low_rank_chains_group_by_row_count(self, domain_1d, penalty_1d, monkeypatch):
        # 13 rows in 3 folds of 5, 4, 4: 8 or 9 training rows, far fewer than
        # the 50 sites, so the Woodbury chains stack by training row count;
        # a cap of 4 splits the six 9-row chains 3 + 3
        y, _ = smooth_rank1_data(np.random.default_rng(5), domain_1d.locations[:, 0], 13)
        pen = penalty_1d
        p = y.shape[1]
        folds = partition_folds(13, 3, seed=4)
        grid = TuningGrid(tau1_values=default_log_grid(3), tau2_values=[0.0, 1.0, 10.0])
        seen = []

        def spy(ys, *args):
            seen.append([y_tr.shape[0] for y_tr in ys])
            yield from _fit_group(ys, *args)

        assert type(precompute_quadratic(y[:9], pen, 3)(1.0)) is LowRankTerm
        monkeypatch.setattr(spatpca.solver, "_GROUP_BYTES", 4 * _stacked_bytes(9, p, 3))
        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        rep = cv_tau(y, pen, 2, grid, folds)
        assert seen == [[8] * 3, [9] * 3, [9] * 3]

        crit, conv, iters = cv_tau_reference(y, pen, 2, grid, folds)
        assert np.array_equal(rep.criterion, crit)
        assert np.array_equal(rep.converged, conv)
        assert np.array_equal(rep.iterations, iters)


    def test_cv1d_shape_is_one_stack_at_the_default_cap(self, domain_1d, penalty_1d, monkeypatch):
        # n = 100, p = 50, 5 folds of 80 training rows, the default 11 x 31
        # grid: the 55 spectral chains of the one training size share a stack
        y, _ = smooth_rank1_data(np.random.default_rng(6), domain_1d.locations[:, 0], 100)
        seen = []

        def spy(ys, *args):
            seen.append(len(ys))
            yield from _fit_group(ys, *args)

        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        cv_tau(y, penalty_1d, 2, TuningGrid(), partition_folds(100, 5, seed=1))
        assert seen == [55]

    def test_spectral_chains_stack_across_row_counts(self, domain_1d, penalty_1d, monkeypatch):
        # the cv1d shape at n = 101: 80 or 81 training rows, spectral terms
        # whose stack holds no rows, so all 55 chains share one stack
        y, _ = smooth_rank1_data(np.random.default_rng(7), domain_1d.locations[:, 0], 101)
        folds = partition_folds(101, 5, seed=1)
        seen = []

        def spy(ys, *args):
            seen.append(sorted({y_tr.shape[0] for y_tr in ys}) + [len(ys)])
            yield from _fit_group(ys, *args)

        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        rep = cv_tau(y, penalty_1d, 2, TuningGrid(), folds)
        assert seen == [[80, 81, 55]]
        crit, conv, iters = cv_tau_reference(y, penalty_1d, 2, TuningGrid(), folds)
        assert np.array_equal(rep.criterion, crit)
        assert np.array_equal(rep.converged, conv)
        assert np.array_equal(rep.iterations, iters)

    @pytest.mark.parametrize(
        "n, tau2_values, groups",
        [
            # 26 or 27 training rows: spectral terms, one stack
            (33, [0.5, 5.0, 50.0], [15]),
            # the same with a leading 0, whose closed form alone takes another term
            (33, [0.0, 0.5, 5.0], [15]),
            # 8 or 9 training rows: low-rank terms, one stack per row count
            (11, [1.0, 3.0, 10.0], [3, 12]),
            # tau2 = 0 alone: closed forms, unstacked
            (33, [0.0], [15]),
            # low-rank terms with a leading 0: each chain starts from its closed form
            (11, [0.0, 1.0, 3.0], [3, 12]),
        ],
    )
    def test_cell_is_the_last_fit_of_its_chain_prefix(
        self, domain_1d, penalty_1d, monkeypatch, n, tau2_values, groups
    ):
        # 5 folds of unequal size; cell (i, j) of fold m is the last basis of
        # the chain (fold m, tau1_i) along tau2_values[:j + 1] alone
        y, _ = smooth_rank1_data(np.random.default_rng(9), domain_1d.locations[:, 0], n)
        grid = TuningGrid(tau1_values=default_log_grid(3), tau2_values=tau2_values)
        cfg, t2s = SolverConfig(k=2), grid.tau2_values
        cells, seen = {}, []

        def spy_group(ys, *args):
            seen.append(len(ys))
            yield from _fit_group(ys, *args)

        def spy_chains(data, chains, *args):
            for c, j, basis in spatpca.solver.fit_chains(data, chains, *args):
                m, t1 = chains[c]
                cells[m, t1, j] = data[m], basis
                yield c, j, basis

        monkeypatch.setattr(spatpca.solver, "_fit_group", spy_group)
        monkeypatch.setattr(spatpca.tuning, "fit_chains", spy_chains)
        cv_tau(y, penalty_1d, 2, grid, partition_folds(n, 5, seed=3))
        assert seen == groups and len(cells) == 5 * 3 * t2s.size
        for (m, t1, j), (y_tr, got) in cells.items():
            *_, (_, _, want) = spatpca.solver.fit_chains(
                [y_tr], [(0, t1)], penalty_1d, cfg, t2s[: j + 1]
            )
            assert (got.converged, got.iterations, got.config) == (
                want.converged, want.iterations, want.config
            )
            low_rank = _low_rank_pays(len(y_tr), y_tr.shape[1], int(np.count_nonzero(t2s)))
            if j == 0 and t2s[0] == 0 and t2s.size > 1 and not low_rank:
                # the prefix [0] takes the ClosedFormTerm, the chain the spectral
                # term, which starts from its own eigendecomposition
                assert np.abs(got.phi - want.phi).max() < 1e-10
            else:
                assert np.array_equal(got.phi, want.phi)

    def test_tau2_zero_grid_builds_no_stack(self, cv_setup, monkeypatch):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=2)
        grid = TuningGrid(tau1_values=default_log_grid(4), tau2_values=[0.0])
        stacks = []

        def spy(*args):
            stacks.append(args[1])
            return stack_chains(*args)

        stack_chains = spatpca.solver._stack_chains
        monkeypatch.setattr(spatpca.solver, "_stack_chains", spy)
        rep = cv_tau(y, pen, 2, grid, folds)
        assert stacks == []
        crit, conv, iters = cv_tau_reference(y, pen, 2, grid, folds)
        assert np.array_equal(rep.criterion, crit)
        assert rep.converged.all() and not rep.iterations.any()
        # the spy sees the stack of a grid with a tau2 above 0
        cv_tau(y, pen, 2, TuningGrid(tau1_values=[1.0], tau2_values=[0.0, 1.0]), folds)
        assert stacks == [3]

    def test_pinned_tau2_zero_takes_the_closed_form_term(self, penalty_1d, monkeypatch):
        # 24 rows in 5 folds: 19 or 20 training rows, just above 3p/8 = 18.75,
        # where a single tau2 value above 0 takes the spectral term; along
        # tau2 = 0 alone nothing is stacked, and the shape picks nothing
        y = np.random.default_rng(8).standard_normal((24, 50))
        assert type(precompute_quadratic(y[:19], penalty_1d, 1)(1.0)) is QuadraticTerm
        groups = []

        def spy(ys, tau1s, quads, *args):
            quads = list(quads)
            groups.append([type(quad) for quad in quads])
            yield from _fit_group(ys, tau1s, quads, *args)

        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        grid = restrict_grid(TuningGrid(tau1_values=default_log_grid(3)), tau2=0.0)
        select_and_fit(y, penalty_1d, 2, grid, partition_folds(24, 5, seed=3), gamma=0.0)
        # cv_tau's chains, whatever their training row counts, then the refit
        assert groups == [[ClosedFormTerm] * 15, [ClosedFormTerm]]


class TestCvGamma:
    def test_matches_per_fold_reestimation(self, cv_setup):
        y, pen = cv_setup
        basis = fit(y, pen, SolverConfig(tau1=1.0, k=2))
        folds = partition_folds(y.shape[0], 3, seed=4)
        grid = TuningGrid(gamma_value_count=4)
        rep = cv_gamma(y, basis, grid, folds)
        assert rep.kind == "gamma"

        s_full = y.T @ y / y.shape[0]
        dhat1 = float(np.linalg.eigvalsh(basis.phi.T @ s_full @ basis.phi)[-1])
        # cv_gamma takes dhat1 from a different product, so it may differ in the last ulp
        np.testing.assert_allclose(rep.gamma_values, gamma_grid(dhat1, 4), rtol=1e-14)
        gammas = rep.gamma_values

        expected = np.zeros(gammas.size)
        p = y.shape[1]
        for m in range(1, 4):
            mask = folds.assignment == m
            y_tr, y_va = y[~mask], y[mask]
            s_tr, s_va = y_tr.T @ y_tr / y_tr.shape[0], y_va.T @ y_va / y_va.shape[0]
            for gi, g in enumerate(gammas):
                model = covariance_reference(s_tr, basis, float(g))
                resid = s_va - basis.phi @ model.lam @ basis.phi.T - model.sigma2 * np.eye(p)
                expected[gi] += np.sum(resid * resid)
        expected /= 3.0
        assert np.allclose(rep.criterion, expected, rtol=1e-12)
        assert rep.selected == float(gammas[int(np.argmin(expected))])

    def test_report_serializes(self, cv_setup):
        y, pen = cv_setup
        basis = fit(y, pen, SolverConfig(k=1))
        folds = partition_folds(y.shape[0], 3, seed=4)
        rep = cv_gamma(y, basis, TuningGrid(gamma_value_count=3), folds)
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["kind"] == "gamma"
        assert isinstance(d["selected"], float)
        assert "gamma_values" in d


class TestFirstMinimum:
    def test_skips_nan_and_keeps_first_tie(self):
        crit = np.array([[np.nan, 3.0, 2.0], [2.0, np.nan, 5.0]])
        assert _first_minimum(crit) == (0, 2)
        assert _first_minimum(np.array([np.nan, 1.0, 0.5, 0.5, np.nan])) == (2,)

    def test_nan_before_infinite_cell(self):
        assert _first_minimum(np.array([np.nan, np.inf])) == (1,)

    def test_all_nan_raises(self):
        with pytest.raises(ValueError, match="NaN everywhere"):
            _first_minimum(np.full((2, 3), np.nan))


class TestSelectAndFit:
    GRID = TuningGrid(tau1_values=[0.0, 1.0], tau2_values=[0.0, 0.5], gamma_value_count=4)

    def test_matches_hand_written_sequence(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=6)
        tuned = select_and_fit(y, pen, 2, self.GRID, folds)

        tau_rep = cv_tau(y, pen, 2, self.GRID, folds)
        t1, t2 = tau_rep.selected
        basis = fit(y, pen, SolverConfig(tau1=t1, tau2=t2, k=2))
        gamma_rep = cv_gamma(y, basis, self.GRID, folds)
        z, n = y @ basis.phi, y.shape[0]
        (model,) = estimate_from_moments(
            z.T @ (z / n), float(np.sum(y * y)) / n, basis, [gamma_rep.selected]
        )

        assert np.array_equal(tuned.tau_report.criterion, tau_rep.criterion)
        assert tuned.tau_report.selected == tau_rep.selected
        assert np.array_equal(tuned.gamma_report.criterion, gamma_rep.criterion)
        assert np.array_equal(tuned.basis.phi, basis.phi)
        assert tuned.basis.config == basis.config
        assert tuned.model.gamma == model.gamma == gamma_rep.selected
        assert tuned.model.sigma2 == model.sigma2
        assert np.array_equal(tuned.model.lam, model.lam)

    def test_builds_one_sample_covariance_of_the_rows(self, cv_setup, monkeypatch):
        built = []
        post_init = SampleCovariance.__post_init__

        def spy(self):
            post_init(self)
            built.append(self.y)

        monkeypatch.setattr(SampleCovariance, "__post_init__", spy)
        y, pen = cv_setup
        select_and_fit(y, pen, 2, self.GRID, partition_folds(y.shape[0], 3, seed=6))
        # the covariance step reads the (n, p) rows; CV builds none
        assert len(built) == 1 and built[0].shape == y.shape
        assert np.array_equal(built[0], y)

    @pytest.mark.parametrize("design", ["n_above_p", "n_below_p"])
    def test_model_matches_estimate_parameters(self, design, cv_setup, penalty_2d):
        if design == "n_above_p":
            y, pen = cv_setup
        else:
            pen = penalty_2d
            x = pen.domain.locations
            bump = np.exp(-np.sum(x * x, axis=1))
            rng = np.random.default_rng(11)
            y = rng.normal(0.0, 3.0, (10, 1)) * bump / np.linalg.norm(bump)
            y = y + rng.standard_normal((10, pen.domain.p))
        n, p = y.shape
        assert (n > p) == (design == "n_above_p")
        folds = partition_folds(n, 3, seed=6)
        # gamma by CV, inside the spectrum, and above its leading eigenvalue d_1
        for gamma in (None, 0.5, 1e3):
            tuned = select_and_fit(y, pen, 2, self.GRID, folds, gamma=gamma)
            ref = covariance_reference(y.T @ y / n, tuned.basis, tuned.model.gamma)
            got = tuned.model
            np.testing.assert_allclose(got.sigma2, ref.sigma2, rtol=1e-12)
            for name in ("lambda_star", "vhat", "lam"):
                np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=1e-12)
            assert got.l_hat == ref.l_hat
        assert not got.lambda_star.any() and got.sigma2 == pytest.approx(np.sum(y * y) / n / p)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"max_iterations": 0}, "max_iterations must be at least 1"),
            ({"gamma": -1.0}, "gamma must be finite and nonnegative"),
            ({"gamma": float("nan")}, "gamma must be finite and nonnegative"),
        ],
    )
    def test_bad_setting_is_refused_before_cross_validation(
        self, cv_setup, monkeypatch, bad, message
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("cross-validation ran for a bad setting")

        monkeypatch.setattr(spatpca.tuning, "cv_tau", forbidden)
        y, pen = cv_setup
        with pytest.raises(ValueError, match=message):
            select_and_fit(y, pen, 2, self.GRID, partition_folds(y.shape[0], 3, seed=6), **bad)

    def test_pins_skip_cross_validation(self, cv_setup, monkeypatch):
        import spatpca.tuning as tuning

        def forbidden(*args, **kwargs):
            raise AssertionError("cross-validation ran for a pinned weight")

        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=6)
        pinned = restrict_grid(self.GRID, tau1=1.0, tau2=0.5)
        monkeypatch.setattr(tuning, "cv_tau", forbidden)
        tuned = select_and_fit(y, pen, 2, pinned, folds)
        assert tuned.tau_report is None
        assert (tuned.basis.config.tau1, tuned.basis.config.tau2) == (1.0, 0.5)
        assert tuned.gamma_report is not None

        monkeypatch.setattr(tuning, "cv_gamma", forbidden)
        tuned = select_and_fit(y, pen, 2, pinned, folds, gamma=0.25)
        assert tuned.gamma_report is None
        assert tuned.model.gamma == 0.25

    def test_rejects_k_at_least_p_before_cross_validation(self, cv_setup, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cross-validation ran for k >= p")

        y, pen = cv_setup
        p = pen.domain.p
        monkeypatch.setattr(spatpca.tuning, "cv_tau", forbidden)
        for k in (p, p + 1):
            with pytest.raises(ValueError, match="need k < p to identify the noise variance"):
                select_and_fit(y, pen, k, self.GRID, partition_folds(y.shape[0], 3, seed=6))

    def test_iteration_cap_reaches_final_fit_only(self, cv_setup):
        y, pen = cv_setup
        folds = partition_folds(y.shape[0], 3, seed=6)
        tuned = select_and_fit(y, pen, 1, self.GRID, folds, gamma=0.0, max_iterations=1)
        assert tuned.tau_report.converged.all()
        assert tuned.basis.config.max_iterations == 1
        assert not tuned.basis.converged
