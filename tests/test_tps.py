import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from spatpca import (
    ConditioningError,
    SpatialDomain,
    build_penalty,
    evaluate,
    solve_coefficients,
)
from spatpca import tps
from spatpca.tps import SplineCoefficients, kernel

from checks import (
    affine_design,
    bordered_coefficients_reference,
    evaluate_reference,
    kernel_matrix_reference,
    kernel_reference,
    natural_spline_energy,
    penalty_reference,
)


def _unit_grid(count: int) -> np.ndarray:
    """count^2 sites on a regular grid over the unit square."""
    axis = np.linspace(0.0, 1.0, count)
    return np.column_stack([c.ravel() for c in np.meshgrid(axis, axis)])


class TestKernel:
    def test_one_dimensional_is_cubic(self):
        # closed form r^3 / 12
        assert kernel(2.0, 1) == pytest.approx(8.0 / 12.0, rel=1e-15)
        assert kernel(1.0, 1) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_two_dimensional_log_form(self):
        r = 1.7
        assert kernel(r, 2) == pytest.approx(r * r * math.log(r) / (16 * math.pi), rel=1e-14)

    def test_three_dimensional_is_negative_linear(self):
        # gamma(-1/2) = -2 sqrt(pi) makes the coefficient -1/(8 pi)
        r = 2.5
        assert kernel(r, 3) == pytest.approx(-r / (8 * math.pi), rel=1e-13)

    def test_zero_distance_maps_to_zero(self):
        for d in (1, 2, 3):
            assert kernel(0.0, d) == 0.0
        arr = kernel(np.array([0.0, 1.0, 0.0]), 2)
        assert arr[0] == 0.0 and arr[2] == 0.0

    def test_array_shape_and_scalar_type(self):
        out = kernel(np.ones((3, 4)), 2)
        assert out.shape == (3, 4)
        assert isinstance(kernel(1.0, 1), float)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            kernel(1.0, 4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflow_and_bad_distances_raise(self, d):
        # r^2 overflows at r = 1e200, and in 1-d g = r^3 / 12 already at 1e120;
        # either raises ValueError, with no RuntimeWarning on the way
        far = (1e200, np.array([1.0, 1e200])) + ((1e120,) if d == 1 else ())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r in far:
                with pytest.raises(ValueError, match="overflows"):
                    kernel(r, d)
            for r in (-1.0, np.nan, np.array([1.0, np.nan])):
                with pytest.raises(ValueError, match="nonnegative"):
                    kernel(r, d)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64"
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_squared_distance_form_is_accurate(self, d):
        # g is built from s = r^2; the r-based formulas, evaluated in extended
        # precision, must agree within a few ulp from 1e-8 to 1e8 and near
        # r = 1, where the 2-d kernel changes sign
        rng = np.random.default_rng(50 + d)
        r = np.concatenate([np.logspace(-8.0, 8.0, 4001), 1.0 + np.linspace(-1e-3, 1e-3, 401),
                            1.0 + rng.uniform(-1e-12, 1e-12, 200)])
        x = r.astype(np.longdouble)
        pi = 4 * np.arctan(np.longdouble(1))
        if d == 2:
            exact = x * x * np.log(x) / (16 * pi)
            scale = x * x * (1 + np.abs(np.log(x))) / (16 * pi)
        else:
            # Gamma(-3/2) / (16 pi^(1/2)) = 1/12 and Gamma(-1/2) / (16 pi^(3/2)) = -1/(8 pi)
            exact = x**3 / 12 if d == 1 else -x / (8 * pi)
            scale = np.abs(exact)
        err = np.abs(kernel(r, d).astype(np.longdouble) - exact)
        assert np.all(err <= 4 * np.spacing(scale.astype(float)))


class TestSpatialDomain:
    def test_one_dimensional_array_becomes_column(self):
        dom = SpatialDomain(np.array([0.0, 1.0, 2.0, 3.0]))
        assert dom.locations.shape == (4, 1)
        assert dom.p == 4 and dom.d == 1

    def test_rejects_too_few_sites(self):
        with pytest.raises(ValueError):
            SpatialDomain(np.array([[0.0], [1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpatialDomain(np.array([0.0, 1.0, np.nan, 3.0]))

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            SpatialDomain(np.zeros((10, 4)) + np.arange(10)[:, None])

    def test_locations_read_only(self):
        dom = SpatialDomain(np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            dom.locations[0, 0] = 9.9


class TestBuildPenalty:
    def test_duplicate_sites_name_the_pair(self):
        dom = SpatialDomain(np.array([0.0, 1.0, 1.0, 3.0]))
        with pytest.raises(ConditioningError) as err:
            build_penalty(dom)
        assert err.value.pair == (1, 2)

    def test_collinear_or_coplanar_sites_rejected(self):
        t = np.linspace(-2.0, 3.0, 8)
        line_2d = np.column_stack([t, 0.3 * t + 0.1])
        vertical_2d = np.column_stack([np.full(8, 1e3), t])
        u, v = np.meshgrid(t[:4], t[:4], indexing="ij")
        u, v = u.ravel(), v.ravel()
        plane_3d = np.column_stack([u, v, 0.7 * u - 1.3 * v + 2.0])
        line_3d = np.column_stack([t, 2.0 * t, -t + 1.0])
        for loc, shape in [
            (line_2d, "line"), (vertical_2d, "line"), (plane_3d, "plane"), (line_3d, "plane"),
        ]:
            with pytest.raises(ConditioningError, match=shape) as err:
                build_penalty(SpatialDomain(loc))
            assert err.value.pair is None

    def test_grids_build(self):
        # the affine-rank check must not reject regular or offset grids
        axis = np.linspace(-1.0, 1.0, 3)
        grid_3d = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        axis = np.linspace(0.0, 1.0, 20)
        grid_2d = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        for loc in (grid_3d, grid_2d + 1e4):
            pen = build_penalty(SpatialDomain(loc))
            e = affine_design(loc)
            assert np.abs(pen.omega @ e).max() < 1e-8 * max(1.0, np.abs(e).max())

    def test_penalty_keeps_omega_and_no_kernel_matrix(self):
        # p = 900: omega is the one p x p array a built penalty keeps; the
        # kernel matrix g was a second one (about 2 x 8p^2 bytes in all)
        axis = np.linspace(0.0, 1.0, 30)
        domain = SpatialDomain(np.column_stack([c.ravel() for c in np.meshgrid(axis, axis)]))
        tracemalloc.start()
        try:
            pen = build_penalty(domain)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pen.omega.shape == (900, 900)
        assert kept < 1.1 * 8 * domain.p**2

    @pytest.mark.parametrize("case", ["1-d", "grid", "uniform", "clusters", "3-d"])
    def test_omega_matches_complete_qr_formula(self, case):
        # the two formulas round differently, so they agree to about the
        # core's condition number times eps.  The clusters are jittered 10 x 10
        # grids of side 1 at the corners of a square of side 3 (core condition
        # 1.7e5); Gaussian clusters with sites 6e-4 apart reach 7e8, and
        # differ by 2e-8 of max|omega|, either formula's residual that large
        rng = np.random.default_rng(21)
        clusters = 3.0 * _unit_grid(2)[:, None] + _unit_grid(10)
        loc = {
            "1-d": np.linspace(-5.0, 5.0, 50),
            "grid": _unit_grid(20),
            "uniform": rng.uniform(0.0, 1.0, size=(400, 2)),
            "clusters": (clusters + rng.uniform(-0.02, 0.02, clusters.shape)).reshape(-1, 2),
            "3-d": rng.uniform(-1.0, 1.0, size=(200, 3)),
        }[case]
        domain = SpatialDomain(loc)
        omega, expected = build_penalty(domain).omega, penalty_reference(domain)
        assert np.abs(omega - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_build_peak_memory_is_two_p_by_p_arrays(self):
        # p = 900: g's buffer, overwritten in place, and omega's; the complete-QR
        # formula peaked at 45 MB, about 7 x 8p^2 bytes
        domain = SpatialDomain(_unit_grid(30))
        tracemalloc.start()
        try:
            build_penalty(domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * domain.p**2

    def test_omega_symmetric_psd(self, penalty_1d):
        omega = penalty_1d.omega
        assert np.abs(omega - omega.T).max() == 0.0
        assert np.linalg.eigvalsh(omega)[0] >= -1e-10

    def test_psd_check_scales_with_omega(self, monkeypatch):
        # 200 sites in [0, 1]: omega's largest eigenvalue is about 4e8 and its
        # roundoff about 1e-8, far beyond an absolute 1e-10; the check must
        # pass it with no eigendecomposition
        domain = SpatialDomain(np.linspace(0.0, 1.0, 200))
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        omega = build_penalty(domain).omega
        assert calls == []
        monkeypatch.undo()
        w = np.linalg.eigvalsh(omega)
        assert w[0] >= -1e-10 * w[-1]

    def test_indefinite_omega_is_clipped(self, small_domain, monkeypatch):
        # a negated inverse of the core makes omega negative semidefinite: the
        # Cholesky check fails and the spectrum is clipped at zero
        scale = np.abs(build_penalty(small_domain).omega).max()
        invert = scipy.linalg.lapack.dpotri

        def negated(*args, **kwargs):
            inverse, info = invert(*args, **kwargs)
            inverse *= -1.0
            return inverse, info

        monkeypatch.setattr(scipy.linalg.lapack, "dpotri", negated)
        omega = build_penalty(small_domain).omega
        assert np.abs(omega - omega.T).max() == 0.0
        assert np.abs(omega).max() < 1e-10 * scale

    def test_omega_annihilates_affine_fields(self, penalty_1d, penalty_2d):
        for pen in (penalty_1d, penalty_2d):
            assert np.abs(pen.omega @ affine_design(pen.domain.locations)).max() < 1e-8

    def test_energy_matches_radial_coefficients(self, penalty_1d):
        # v' omega v == a' G a for the interpolating coefficients a
        loc = penalty_1d.domain.locations
        g = kernel_matrix_reference(loc, loc, 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(penalty_1d.domain.p)
            coeffs = solve_coefficients(penalty_1d, v)
            lhs = float(v @ penalty_1d.omega @ v)
            rhs = float(coeffs.a @ g @ coeffs.a)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_energy_matches_natural_cubic_spline(self, domain_1d, penalty_1d):
        # in 1-d the minimum-energy interpolant is the natural cubic spline,
        # so the quadratic form must equal its exact bending energy
        x = domain_1d.locations[:, 0]
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(x.size)
            expected = natural_spline_energy(x, v)
            got = float(v @ penalty_1d.omega @ v)
            assert got == pytest.approx(expected, rel=1e-4)

    def test_smooth_field_has_less_energy_than_rough(self, domain_1d, penalty_1d):
        x = domain_1d.locations[:, 0]
        smooth = np.exp(-(x**2))
        rough = np.sign(np.sin(7.3 * x))
        e_smooth = float(smooth @ penalty_1d.omega @ smooth)
        e_rough = float(rough @ penalty_1d.omega @ rough)
        assert e_smooth < e_rough


class TestInterpolation:
    def test_reproduces_values_at_nodes(self, penalty_1d, domain_1d):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(domain_1d.p)
        coeffs = solve_coefficients(penalty_1d, v)
        at_nodes = evaluate(coeffs, domain_1d, domain_1d.locations)
        assert np.abs(at_nodes - v).max() < 1e-8

    def test_reproduces_values_at_nodes_2d(self, penalty_2d, domain_2d):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(domain_2d.p)
        coeffs = solve_coefficients(penalty_2d, v)
        at_nodes = evaluate(coeffs, domain_2d, domain_2d.locations)
        assert np.abs(at_nodes - v).max() < 1e-8

    def test_affine_reproduction_is_exact(self, penalty_2d, domain_2d):
        # an affine field interpolates with a == 0 and evaluates exactly,
        # on and off the nodes
        loc = domain_2d.locations
        v = 2.0 + 3.0 * loc[:, 0] - 0.5 * loc[:, 1]
        coeffs = solve_coefficients(penalty_2d, v)
        assert np.abs(coeffs.a).max() < 1e-10
        query = np.array([[0.31, -1.47], [2.9, 2.9], [-0.01, 0.02]])
        expected = 2.0 + 3.0 * query[:, 0] - 0.5 * query[:, 1]
        assert np.abs(evaluate(coeffs, penalty_2d.domain, query) - expected).max() < 1e-10

    def test_coefficients_match_bordered_solve(self, penalty_1d, penalty_2d):
        rng = np.random.default_rng(12)
        penalty_3d = build_penalty(SpatialDomain(rng.uniform(-2.0, 2.0, size=(40, 3))))
        for pen in (penalty_1d, penalty_2d, penalty_3d):
            for shape in ((pen.domain.p,), (pen.domain.p, 5)):
                v = rng.standard_normal(shape)
                got = solve_coefficients(pen, v)
                want_a, want_b = bordered_coefficients_reference(pen.domain, v)
                scale = max(np.abs(want_a).max(), np.abs(want_b).max())
                assert np.abs(got.a - want_a).max() <= 1e-9 * scale
                assert np.abs(got.b - want_b).max() <= 1e-9 * scale

    def test_affine_field_has_zero_energy(self, penalty_1d, domain_1d):
        v = -1.0 + 0.25 * domain_1d.locations[:, 0]
        assert abs(float(v @ penalty_1d.omega @ v)) < 1e-10

    def test_query_shapes(self, penalty_1d, domain_1d):
        coeffs = solve_coefficients(penalty_1d, np.ones(domain_1d.p))
        flat = evaluate(coeffs, domain_1d, np.array([0.0, 1.0, 2.5]))
        assert flat.shape == (3,)
        # no query points give no rows, for one spline or K of them
        batched = solve_coefficients(penalty_1d, np.ones((domain_1d.p, 3)))
        assert evaluate(coeffs, domain_1d, np.empty((0, 1))).shape == (0,)
        assert evaluate(batched, domain_1d, np.empty((0, 1))).shape == (0, 3)

    def test_solve_rejects_bad_values(self, penalty_1d):
        with pytest.raises(ValueError):
            solve_coefficients(penalty_1d, np.ones(penalty_1d.domain.p - 1))
        bad = np.ones(penalty_1d.domain.p)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            solve_coefficients(penalty_1d, bad)
        p = penalty_1d.domain.p
        with pytest.raises(ValueError):
            solve_coefficients(penalty_1d, np.ones((p + 1, 2)))
        with pytest.raises(ValueError):
            solve_coefficients(penalty_1d, np.ones((p, 2, 2)))
        bad = np.ones((p, 3))
        bad[7, 2] = np.nan
        with pytest.raises(ValueError):
            solve_coefficients(penalty_1d, bad)

    def test_batched_matches_column_by_column(self, penalty_1d, penalty_2d):
        # for rough fields the kernel sum cancels terms far larger than its
        # value, so evaluations are compared relative to the terms' magnitudes
        rng = np.random.default_rng(4)
        for pen in (penalty_1d, penalty_2d):
            dom = pen.domain
            v = rng.standard_normal((dom.p, 3))
            batched = solve_coefficients(pen, v)
            assert batched.a.shape == (dom.p, 3) and batched.b.shape == (dom.d + 1, 3)
            query = rng.uniform(-3.0, 3.0, size=(40, dom.d))
            values = evaluate(batched, dom, query)
            assert values.shape == (40, 3)
            dist = np.linalg.norm(query[:, None, :] - dom.locations[None, :, :], axis=-1)
            kern = np.abs(kernel(dist, dom.d))
            for j in range(3):
                single = solve_coefficients(pen, v[:, j])
                a, b = batched.a[:, j], batched.b[:, j]
                assert np.abs(a - single.a).max() <= 1e-10 * np.abs(single.a).max()
                assert np.abs(b - single.b).max() <= 1e-10 * np.abs(single.b).max()
                column = evaluate(SplineCoefficients(a=a, b=b), dom, query)
                terms = kern @ np.abs(a) + abs(b[0]) + np.abs(query) @ np.abs(b[1:])
                assert np.all(np.abs(values[:, j] - column) <= 1e-10 * terms)

    def test_evaluate_rejects_bad_query(self, penalty_2d):
        coeffs = solve_coefficients(penalty_2d, np.ones(penalty_2d.domain.p))
        with pytest.raises(ValueError):
            evaluate(coeffs, penalty_2d.domain, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            evaluate(coeffs, penalty_2d.domain, np.array([[0.0, np.nan]]))

    def test_evaluate_rejects_an_overflowing_query(self, penalty_1d, penalty_2d):
        # finite points far enough from the sites overflow the kernel, whether
        # in the first row block or the last of two, for one spline or three
        rng = np.random.default_rng(44)
        for pen, far in ((penalty_1d, [[1e308]]), (penalty_2d, [[0.0, 1e200]])):
            dom = pen.domain
            near = np.full((tps._BLOCK_BYTES // (16 * dom.p) + 1, dom.d), 0.5)
            for shape in ((dom.p,), (dom.p, 3)):
                coeffs = solve_coefficients(pen, rng.standard_normal(shape))
                for query in (np.array([[0.5] * dom.d, *far]), np.vstack([near, far])):
                    with pytest.raises(ValueError, match="overflows"):
                        evaluate(coeffs, dom, query)


class TestBlockedKernel:
    # evaluate builds the kernel in row blocks and multiplies each into its
    # rows of the result; build_penalty builds its kernel matrix whole.  Both
    # build g from squared distances in place, and must give the whole-matrix
    # formula's bits for g; evaluate's values must match the whole product's
    # to rounding, since BLAS promises no bits across row splits
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluate_kernel_is_bit_identical_to_whole_matrix(self, d):
        rng = np.random.default_rng(10 + d)
        dom = SpatialDomain(rng.uniform(-3.0, 3.0, size=(60, d)))
        coeffs = SplineCoefficients(a=rng.standard_normal((60, 4)), b=rng.standard_normal((d + 1, 4)))
        # identity radial weights and a zero affine part return the kernel itself
        unit = SplineCoefficients(a=np.eye(dom.p), b=np.zeros((d + 1, dom.p)))
        height = tps._BLOCK_BYTES // (16 * dom.p)
        loc = dom.locations
        for q in (1, height + 7, 3 * height + 11):
            # the first rows are sites: r = 0 there, which must give g = 0 quietly
            query = np.vstack([loc, rng.uniform(-4.0, 4.0, size=(q, d))])[:q]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = evaluate(coeffs, dom, query)
                g = evaluate(unit, dom, query)
            kern = kernel_matrix_reference(query, loc, d)
            assert np.array_equal(g, kern)
            # the K = 4 product within 1e-14 of the sum of the terms' magnitudes
            terms = np.abs(kern) @ np.abs(coeffs.a) + np.abs(coeffs.b[0]) + np.abs(query) @ np.abs(coeffs.b[1:])
            assert np.all(np.abs(got - evaluate_reference(coeffs, dom, query)) <= 1e-14 * terms)
            sites = np.arange(min(q, dom.p))
            assert np.all(g[sites, sites] == 0.0)

    @pytest.mark.parametrize("k", [5, None])
    def test_evaluate_matches_whole_matrix_at_holdout_scale(self, k):
        # q = 3600 queries, p = 400 sites in 23 row blocks: BLAS promises no
        # bits across row splits, so the blocked products are held to 1e-14 of
        # the sum of the terms' magnitudes, 20 times the 5e-16 measured
        dom = SpatialDomain(_unit_grid(20) * 10.0 - 5.0)
        query = _unit_grid(60) * 10.0 - 5.0
        rng = np.random.default_rng(31)
        shape = (400,) if k is None else (400, k)
        coeffs = SplineCoefficients(a=rng.standard_normal(shape), b=rng.standard_normal((3,) + shape[1:]))
        got = evaluate(coeffs, dom, query)
        assert got.shape == query.shape[:1] + shape[1:]
        kern = kernel_matrix_reference(query, dom.locations, 2)
        terms = np.abs(kern) @ np.abs(coeffs.a) + np.abs(coeffs.b[0]) + np.abs(query) @ np.abs(coeffs.b[1:])
        assert np.all(np.abs(got - evaluate_reference(coeffs, dom, query)) <= 1e-14 * terms)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_penalty_kernel_is_bit_identical_to_whole_matrix(self, d):
        loc = np.random.default_rng(20 + d).uniform(-3.0, 3.0, size=(40, d))
        # g itself is not kept: its product g q1 is that of the whole matrix
        q1, _, gq1 = build_penalty(SpatialDomain(loc)).affine
        assert np.array_equal(gq1, kernel_matrix_reference(loc, loc, d) @ q1)
        r = np.linalg.norm(loc[:7, None, :] - loc[None, :, :], axis=-1)
        assert np.array_equal(kernel(r, d), kernel_reference(r, d))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.sampled_from([1, 2, 3]), single=st.booleans())
    def test_kernel_bits_hold_across_magnitudes(self, seed, d, single):
        # each axis's differences are a BLAS product of [a_k, 1] and [1; -b_k],
        # which must round to a_k - b_k exactly: coordinates from 1e-150 to
        # 1e100 in magnitude, signed zeros and repeated sites, one query row
        # (a --ref point) or a count that is no multiple of the block height
        rng = np.random.default_rng(seed)

        def coords(n):
            x = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-150.0, 100.0, (n, d))
            x[rng.random((n, d)) < 0.1] = 0.0
            x[rng.random((n, d)) < 0.1] = -0.0
            return x

        p = int(rng.integers(d + 2, 40))
        loc = coords(p)
        loc[rng.integers(p, size=3)] = loc[rng.integers(p, size=3)]
        dom = SpatialDomain(loc)
        height = tps._BLOCK_BYTES // (16 * p)
        q = 1 if single else int(rng.integers(1, 3) * height + rng.integers(1, height))
        query = coords(q)
        query[rng.integers(q, size=min(q, 5))] = loc[rng.integers(p, size=min(q, 5))]
        unit = SplineCoefficients(a=np.eye(p), b=np.zeros((d + 1, p)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = evaluate(unit, dom, query)
        assert np.array_equal(g, kernel_matrix_reference(query, loc, d))

        # a domain build_penalty accepts: sites spread at one scale from 1e-90
        # to 1e90 (in 1-d, r^3 underflows further down) about an offset of up
        # to 1e10 times the spread, or about none with one -0.0 on each axis
        scale = 10.0 ** rng.uniform(-90.0, 90.0)
        offset = rng.choice([0.0, 1.0]) * rng.choice([-1.0, 1.0], d) * scale * 10.0 ** rng.uniform(0.0, 10.0, d)
        loc = offset + scale * rng.uniform(-1.0, 1.0, (int(rng.integers(d + 2, 40)), d))
        if not offset.any():
            loc[rng.integers(len(loc), size=d), np.arange(d)] = -0.0
        q1, _, gq1 = build_penalty(SpatialDomain(loc)).affine
        assert np.array_equal(gq1, kernel_matrix_reference(loc, loc, d) @ q1)

    def test_evaluate_peak_memory_is_the_result_and_a_block(self):
        # q = 3600 queries, p = 400 sites, K = 5: no q x p matrix (11.5 MB) is
        # held, only the 144 kB result and one 1 MiB block with its scratch
        axis = np.linspace(-5.0, 5.0, 20)
        dom = SpatialDomain(np.column_stack([c.ravel() for c in np.meshgrid(axis, axis)]))
        fine = np.linspace(-5.0, 5.0, 60)
        query = np.column_stack([c.ravel() for c in np.meshgrid(fine, fine)])
        rng = np.random.default_rng(30)
        coeffs = SplineCoefficients(a=rng.standard_normal((400, 5)), b=rng.standard_normal((3, 5)))
        tracemalloc.start()
        try:
            evaluate(coeffs, dom, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    p=st.integers(6, 14),
    d=st.sampled_from([1, 2]),
)
def test_energy_nonnegative_and_interpolation_holds(seed, p, d):
    rng = np.random.default_rng(seed)
    loc = rng.uniform(-4.0, 4.0, size=(p, d))
    # keep sites separated so the system stays well conditioned
    loc = loc + np.arange(p)[:, None] * 1e-3
    try:
        dom = SpatialDomain(loc)
        pen = build_penalty(dom)
    except ConditioningError:
        return
    v = rng.standard_normal(p)
    energy = float(v @ pen.omega @ v)
    assert energy >= -1e-8
    coeffs = solve_coefficients(pen, v)
    assert np.abs(evaluate(coeffs, dom, loc) - v).max() < 1e-6
