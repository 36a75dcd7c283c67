import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spatpca.cli
import spatpca.solver
import spatpca.tuning
from spatpca import SolverConfig, build_penalty, covariance_at, fit
from spatpca.cli import (
    SCHEMA_VERSION,
    _parse_grid_spec,
    _read_matrix,
    ingest,
    load_model,
    main,
    model_to_dict,
)
from spatpca.solver import LowRankTerm
from spatpca.tps import evaluate

from checks import smooth_rank1_data


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_rows(path, rows):
    return _write(path, "\n".join(",".join(str(v) for v in r) for r in rows) + "\n")


@pytest.fixture()
def dataset(tmp_path):
    x = np.linspace(-2.0, 2.0, 10)
    rng = np.random.default_rng(42)
    y, _ = smooth_rank1_data(rng, x, 16)
    data = _write_rows(tmp_path / "data.csv", y.tolist())
    loc = _write_rows(tmp_path / "loc.csv", [[v] for v in x])
    return data, loc, y, x


class TestIngest:
    def test_missing_tokens_drop_site(self, tmp_path):
        data = _write(
            tmp_path / "d.csv",
            "1.0,,3.0,4.0,0.5\n5.0,NA,7.0,nan,0.5\n9.0,10.0,11.0,NaN,0.5\n",
        )
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0], [2.0], [3.0], [4.0]])
        y, domain, dropped = ingest(data, loc)
        assert dropped == (1, 3)
        assert y.shape == (3, 3)
        assert domain.p == 3

    def test_all_sites_missing(self, tmp_path):
        data = _write(tmp_path / "d.csv", "NA,1.0\n2.0,NA\n")
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0]])
        with pytest.raises(ValueError, match="every site"):
            ingest(data, loc)

    def test_ragged_row(self, tmp_path):
        data = _write(tmp_path / "d.csv", "1.0,2.0\n3.0\n")
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0]])
        with pytest.raises(ValueError, match="row 2"):
            ingest(data, loc)

    def test_unparseable_cell(self, tmp_path):
        data = _write(tmp_path / "d.csv", "1.0,abc\n")
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0]])
        with pytest.raises(ValueError, match="unparseable"):
            ingest(data, loc)

    def test_locations_must_be_complete(self, tmp_path):
        data = _write(tmp_path / "d.csv", "1.0,2.0\n")
        loc = _write(tmp_path / "l.csv", "0.0\nNA\n")
        with pytest.raises(ValueError, match="locations"):
            ingest(data, loc)

    def test_site_count_mismatch(self, tmp_path):
        data = _write(tmp_path / "d.csv", "1.0,2.0,3.0\n")
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0]])
        with pytest.raises(ValueError, match="site columns"):
            ingest(data, loc)

    def test_empty_file(self, tmp_path):
        data = _write(tmp_path / "d.csv", "")
        loc = _write_rows(tmp_path / "l.csv", [[0.0]])
        with pytest.raises(ValueError, match="empty"):
            ingest(data, loc)

    def test_byte_order_mark_is_skipped(self, dataset, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with U+FEFF
        data, loc, _, _ = dataset
        marked = [
            _write(tmp_path / f"bom_{name}.csv", "\ufeff" + Path(path).read_text())
            for name, path in (("data", data), ("loc", loc))
        ]
        y, domain, _ = ingest(*marked)
        want_y, want_domain, _ = ingest(data, loc)
        assert np.array_equal(y, want_y)
        assert np.array_equal(domain.locations, want_domain.locations)

    @pytest.mark.parametrize(
        "text, data, locations",
        [
            # each cell at row 2, column 2 of a file read as data (missing
            # values allowed) and as locations (none allowed): the values
            # read, NaN for missing, or the error's text
            ("1.5,2.5\n3.5,\n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 2, column 2"),
            ("1.5,2.5\n3.5,NA\n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 2, column 2"),
            ("1.5,2.5\n3.5, nan \n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 2, column 2"),
            ("1.5,2.5\n3.5,-nan\n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 2, column 2"),
            ('1.5,2.5\n3.5,"4.5"\n', [[1.5, 2.5], [3.5, 4.5]], [[1.5, 2.5], [3.5, 4.5]]),
            ("1.5,2.5\n3.5, -4.5e1 \n", [[1.5, 2.5], [3.5, -45.0]], [[1.5, 2.5], [3.5, -45.0]]),
            ("1.5,2.5\n3.5,inf\n", [[1.5, 2.5], [3.5, "inf"]], [[1.5, 2.5], [3.5, "inf"]]),
            ("\ufeff1.5,2.5\n3.5,4.5\n", [[1.5, 2.5], [3.5, 4.5]], [[1.5, 2.5], [3.5, 4.5]]),
            ("1.5,2.5\n3.5, abc \n", "unparseable cell at row 2, column 2: 'abc'",
             "unparseable cell at row 2, column 2: 'abc'"),
            ("1.5,2.5\nNA,abc\n", "unparseable cell at row 2, column 2: 'abc'",
             "missing value at row 2, column 1"),
            ("1.5,2.5\n\n3.5,NA\n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 3, column 2"),
            ("1.5,2.5\n3.5\n", "row 2 has 1 fields, expected 2", "row 2 has 1 fields, expected 2"),
            ("1.5,2.5\n3.5,+NaN\n", [[1.5, 2.5], [3.5, "nan"]], "missing value at row 2, column 2"),
        ],
    )
    def test_cells_read_as_data_and_as_locations(self, tmp_path, text, data, locations):
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        for what, allow_missing, want in (("data", True, data), ("locations", False, locations)):
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    _read_matrix(path, what, allow_missing)
                assert str(err.value) == f"{what}: {want}"
            else:
                got = _read_matrix(path, what, allow_missing)
                expected = np.array(want, dtype=float)
                assert np.array_equal(np.isnan(got), np.isnan(expected))
                assert np.array_equal(got[~np.isnan(got)], expected[~np.isnan(expected)])

    def test_deseasonalize_subtracts_phase_means(self, tmp_path):
        base = np.array([1.0, 3.0, 5.0, 7.0])
        cols = np.column_stack([base + j for j in range(3)])
        data = _write_rows(tmp_path / "d.csv", cols.tolist())
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0], [2.0]])
        y, domain, dropped = ingest(data, loc, deseasonalize=2)
        expected = np.tile([[-2.0], [-2.0], [2.0], [2.0]], (1, 3))
        assert np.array_equal(y, expected)
        assert dropped == () and domain.p == 3

    def test_center_subtracts_column_means(self, tmp_path):
        data = _write_rows(tmp_path / "d.csv", [[1.0, 10.0, 0.0], [3.0, 14.0, 8.0]])
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0], [2.0]])
        y, domain, dropped = ingest(data, loc, center=True)
        assert np.array_equal(y, [[-1.0, -2.0, -4.0], [1.0, 2.0, 4.0]])
        assert dropped == () and domain.p == 3

    def test_bad_period(self, tmp_path):
        data = _write_rows(tmp_path / "d.csv", [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        loc = _write_rows(tmp_path / "l.csv", [[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="period"):
            ingest(data, loc, deseasonalize=0)


class TestFitCommand:
    def _fit_args(self, dataset, out, extra=()):
        data, loc, _, _ = dataset
        return [
            "fit", "--data", data, "--locations", loc,
            "--k", "1", "--tau1", "1.0", "--tau2", "0.0", "--gamma", "0.1",
            "--out", str(out), *extra,
        ]

    def test_fit_writes_loadable_model(self, dataset, tmp_path, capsys):
        data, loc, y, x = dataset
        out = tmp_path / "model.json"
        assert main(self._fit_args(dataset, out)) == 0
        text = capsys.readouterr().out
        assert "model written" in text and "(fixed)" in text

        assert "variant" not in json.loads(out.read_text())["basis"]
        bundle = load_model(out)
        assert bundle.domain.p == 10
        direct = fit(y, build_penalty(bundle.domain), SolverConfig(tau1=1.0, tau2=0.0, k=1))
        assert np.allclose(bundle.basis.phi, direct.phi, atol=1e-12)
        assert bundle.covariance is not None
        assert bundle.covariance.gamma == 0.1
        prov = bundle.provenance
        assert len(prov["data_sha256"]) == 64
        assert prov["dropped_sites"] == []
        assert prov["tau_grid"] is None and prov["gamma_grid"] is None

    def test_model_json_round_trips_exactly(self, dataset, tmp_path):
        out = tmp_path / "model.json"
        assert main(self._fit_args(dataset, out)) == 0
        bundle = load_model(out)
        doc = json.loads(out.read_text())
        redone = model_to_dict(bundle)
        assert json.dumps(redone, indent=2) + "\n" == json.dumps(doc, indent=2) + "\n"

    def test_fit_rerun_is_byte_identical(self, dataset, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(self._fit_args(dataset, out1)) == 0
        assert main(self._fit_args(dataset, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cv_path_records_grids(self, dataset, tmp_path, capsys):
        data, loc, _, _ = dataset
        out = tmp_path / "model.json"
        rc = main([
            "fit", "--data", data, "--locations", loc,
            "--k", "1", "--tau1", "0.0", "--out", str(out),
        ])
        assert rc == 0
        assert "5-fold CV" in capsys.readouterr().out
        prov = load_model(out).provenance
        assert prov["tau_grid"]["tau1_values"] == [0.0]
        assert len(prov["tau_grid"]["tau2_values"]) == 31
        assert isinstance(prov["gamma_grid"], list)

    def test_iteration_cap_exits_2_but_writes(self, dataset, tmp_path, capsys):
        out = tmp_path / "model.json"
        # tau2 > 0: a tau2 = 0 fit is solved in closed form and runs no iteration
        rc = main(self._fit_args(dataset, out, extra=["--tau2", "0.5", "--max-iterations", "1"]))
        assert rc == 2
        assert "iteration cap" in capsys.readouterr().err
        assert not load_model(out).basis.converged

    def test_non_finite_gamma_exits_1_and_writes_nothing(self, dataset, tmp_path, capsys):
        for value in ("nan", "inf"):
            out = tmp_path / "model.json"
            assert main(self._fit_args(dataset, out, extra=["--gamma", value])) == 1
            assert "gamma must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_k_at_least_p_exits_1_before_cross_validation(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("cross-validation ran for k >= p")

        data, loc, _, _ = dataset
        monkeypatch.setattr(spatpca.tuning, "cv_tau", forbidden)
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", data, "--locations", loc, "--k", "10", "--out", str(out)])
        assert rc == 1
        assert "need k < p" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_1(self, dataset, tmp_path, capsys):
        _, loc, _, _ = dataset
        rc = main([
            "fit", "--data", str(tmp_path / "nope.csv"), "--locations", loc,
            "--k", "1", "--tau1", "0", "--tau2", "0", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_usage_errors_exit_1(self, capsys):
        assert main(["fit", "--k", "1"]) == 1  # missing required flags
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_small_scale_data_fit(self, tmp_path, capsys):
        # 60 rows of N(0, 1) 1e-7 on 50 sites: in the tau1 CV, B's roundoff
        # puts the rho floor above 10 ||Y||_2^2
        x = np.linspace(-5.0, 5.0, 50)
        y = np.random.default_rng(1).standard_normal((60, 50)) * 1e-7
        data = _write_rows(tmp_path / "data.csv", y.tolist())
        loc = _write_rows(tmp_path / "loc.csv", [[v] for v in x])
        out = tmp_path / "model.json"
        assert main(["fit", "--data", data, "--locations", loc, "--k", "2", "--tau2", "1e-9",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        basis = load_model(out).basis
        assert basis.converged and basis.iterations > 0
        assert np.abs(basis.phi.T @ basis.phi - np.eye(2)).max() < 1e-12

    def test_variant_flag_is_a_usage_error(self, dataset, tmp_path, capsys):
        data, loc, _, _ = dataset
        out = tmp_path / "model.json"
        assert main(self._fit_args(dataset, out, extra=["--variant", "closed-form"])) == 1
        assert "--variant" in capsys.readouterr().err
        assert not out.exists()
        rc = main([
            "cv", "--data", data, "--locations", loc, "--k", "1", "--tau1", "0.0",
            "--tau2", "0.0", "--variant", "lasso-inner", "--out", str(tmp_path / "cv.json"),
        ])
        assert rc == 1
        assert "--variant" in capsys.readouterr().err


@pytest.fixture()
def fitted_model(dataset, tmp_path):
    data, loc, y, x = dataset
    out = tmp_path / "model.json"
    rc = main([
        "fit", "--data", data, "--locations", loc,
        "--k", "1", "--tau1", "1.0", "--tau2", "0.0", "--gamma", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    return out


class TestEvalCommand:
    def test_grid_output_matches_library(self, fitted_model, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(fitted_model), "--grid=-2:2:9",
                     "--ref", "0.0", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["x1", "phi_1", "phi_rot_1", "cov_ref"]
        assert len(rows) == 10

        bundle = load_model(fitted_model)
        pen = build_penalty(bundle.domain)
        pts = np.linspace(-2.0, 2.0, 9)
        psi = evaluate(bundle.splines, bundle.domain, pts[:, None])[:, 0]
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == pts[i]
            assert float(row[1]) == pytest.approx(psi[i], abs=1e-12)
            got_cov = float(row[3])
            want = covariance_at(bundle.covariance, pen, [pts[i]], [0.0])
            assert got_cov == pytest.approx(want, abs=1e-12)

    def test_cells_parse_back_exactly(self, dataset, tmp_path, capsys):
        data, loc, _, _ = dataset
        model_path = tmp_path / "model2.json"
        assert main([
            "fit", "--data", data, "--locations", loc, "--k", "2",
            "--tau1", "1.0", "--tau2", "0.0", "--gamma", "0.1", "--out", str(model_path),
        ]) == 0
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model_path), "--grid=-2:2:13",
                     "--ref", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,phi_1,phi_2,phi_rot_1,phi_rot_2,cov_ref"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

        bundle = load_model(model_path)
        pts = np.linspace(-2.0, 2.0, 13)[:, None]
        psi = evaluate(bundle.splines, bundle.domain, pts)
        psi_ref = evaluate(bundle.splines, bundle.domain, np.array([[0.5]]))[0]
        lam = bundle.covariance.lam
        cov = 0.5 * (psi @ (lam @ psi_ref) + (psi @ lam.T) @ psi_ref)
        want = np.column_stack([pts, psi, psi @ bundle.covariance.vhat, cov])
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_query_file(self, fitted_model, tmp_path, capsys):
        # a byte-order mark, as spreadsheet "CSV UTF-8" exports write, is skipped
        outs = []
        for name, mark in (("plain", ""), ("bom", "\ufeff")):
            q = _write(tmp_path / f"q_{name}.csv", mark + "-1.5\n0.25\n")
            outs.append(tmp_path / f"eval_{name}.csv")
            assert main(["eval", "--model", str(fitted_model), "--query", q,
                         "--out", str(outs[-1])]) == 0
        capsys.readouterr()
        assert len(outs[0].read_text().splitlines()) == 3
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_needs_query_or_grid(self, fitted_model, tmp_path, capsys):
        rc = main(["eval", "--model", str(fitted_model), "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "--query or --grid" in capsys.readouterr().err

    def test_query_and_grid_refused_together(self, fitted_model, tmp_path, capsys):
        q = _write(tmp_path / "q.csv", "-1.5\n0.25\n")
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(fitted_model), "--query", q, "--grid=-2:2:5",
                   "--out", str(out)])
        assert rc == 1
        assert "not allowed with argument --query" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_spec(self, fitted_model, tmp_path, capsys):
        rc = main(["eval", "--model", str(fitted_model), "--grid", "0:1",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["-5:5:3.5", "a:5:3", "-5:5:x"])
    def test_unparseable_grid_axis_is_named(self, fitted_model, tmp_path, capsys, spec):
        rc = main(["eval", "--model", str(fitted_model), f"--grid={spec}",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert f"--grid axis 1 spec '{spec}'" in capsys.readouterr().err

    def test_unparseable_ref_is_named(self, fitted_model, tmp_path, capsys):
        rc = main(["eval", "--model", str(fitted_model), "--grid=-1:1:3",
                   "--ref", "0,x", "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "--ref '0,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["-inf:5:4", "0:inf:4", "nan:5:4", "-1e308:1e308:3"])
    def test_non_finite_grid_axis_is_named(self, fitted_model, tmp_path, capsys, spec):
        # a bound that is not finite, or a span that overflows, is refused
        # before np.linspace warns; on a 2-d grid the second axis is named
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(fitted_model), f"--grid={spec}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--grid axis 1 spec '{spec}': lo, hi and hi - lo must be finite" in err
        assert not out.exists()
        with pytest.raises(ValueError, match=re.escape(f"--grid axis 2 spec '{spec}'")):
            _parse_grid_spec(f"0:1:3,{spec}", 2)

    @pytest.mark.parametrize("ref", ["nan", "inf", "-inf"])
    def test_non_finite_ref_is_named(self, fitted_model, tmp_path, capsys, ref):
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(fitted_model), "--grid=-1:1:3",
                   f"--ref={ref}", "--out", str(out)])
        assert rc == 1
        assert f"--ref '{ref}': needs 1 comma-separated finite coordinates" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_grid_fails(self, fitted_model, tmp_path, capsys):
        # finite grid points far from the sites overflow the kernel: no NaN cells
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(fitted_model), "--grid=0:1e308:3",
                   "--ref", "0.0", "--out", str(out)])
        assert rc == 1
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_query_dimension_mismatch(self, fitted_model, tmp_path, capsys):
        q = _write_rows(tmp_path / "q.csv", [[0.0, 1.0]])
        rc = main(["eval", "--model", str(fitted_model), "--query", q,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        capsys.readouterr()

    # the ids end in "-True" as when a model file could lack its covariance
    # estimate and a case named whether it had one
    @pytest.mark.parametrize("ref", ["0,x", "nan", "0,0"], ids=lambda ref: f"{ref}-True")
    def test_bad_ref_exits_before_any_evaluation(
        self, fitted_model, tmp_path, capsys, monkeypatch, ref
    ):
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(spatpca.cli, "evaluate", counted)
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(fitted_model), "--grid=-2:2:9", f"--ref={ref}",
                   "--out", str(out)])
        assert rc == 1
        assert "--ref" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("rho0", ["auto", 5000.0])
    def test_model_with_rho0_key_loads(self, fitted_model, tmp_path, capsys, rho0):
        # model files of schema 1 used to record the solver's rho0 after k
        doc = json.loads(fitted_model.read_text())
        assert "rho0" not in doc["basis"]
        basis = {}
        for key, value in doc["basis"].items():
            basis[key] = value
            if key == "k":
                basis["rho0"] = rho0
        doc["basis"] = basis
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc, indent=2) + "\n")
        assert np.array_equal(load_model(old).basis.phi, load_model(fitted_model).basis.phi)
        outputs = []
        for model in (old, fitted_model):
            out = tmp_path / f"eval-{model.stem}.csv"
            assert main(["eval", "--model", str(model), "--grid=-2:2:9",
                         "--ref", "0.0", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_model_with_variant_key_loads(self, fitted_model, tmp_path, capsys):
        # model files of schema 1 used to record the solver variant after k
        doc = json.loads(fitted_model.read_text())
        basis = {}
        for key, value in doc["basis"].items():
            basis[key] = value
            if key == "k":
                basis["variant"] = "lasso-inner"
        doc["basis"] = basis
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc, indent=2) + "\n")
        bundle = load_model(old)
        assert np.array_equal(bundle.basis.phi, load_model(fitted_model).basis.phi)
        outputs = []
        for model in (old, fitted_model):
            out = tmp_path / f"eval-{model.stem}.csv"
            assert main(["eval", "--model", str(model), "--grid=-2:2:9",
                         "--ref", "0.0", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_wrong_schema_version(self, fitted_model, tmp_path, capsys):
        doc = json.loads(fitted_model.read_text())
        doc["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(bad), "--grid=-1:1:3",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "schema" in capsys.readouterr().err


    @pytest.mark.parametrize("field", ["basis.iterations", "schema_version"])
    def test_malformed_model_file_exits_1(self, fitted_model, tmp_path, capsys, field):
        doc = json.loads(fitted_model.read_text())
        if field == "basis.iterations":
            del doc["basis"]["iterations"]
        else:
            doc = [doc]  # a JSON list holds no fields at all
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(bad), "--grid=-1:1:3",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert f"lacks field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("tau1", float("nan")), ("tau2", float("inf")), ("rho_growth", float("inf"))],
    )
    def test_non_finite_solver_setting_exits_1(self, fitted_model, tmp_path, capsys, field, value):
        doc = json.loads(fitted_model.read_text())
        doc["basis"][field] = value  # written as NaN or Infinity, which json reads back
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(bad), "--grid=-1:1:3",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("splines", 3), ("tau1", "1.0")])
    def test_mistyped_model_field_exits_1(self, fitted_model, tmp_path, capsys, field, value):
        doc = json.loads(fitted_model.read_text())
        doc["basis"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(bad), "--grid=-1:1:3",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert f"field 'basis.{field}' has the wrong type" in capsys.readouterr().err


def _drop_phi_column(doc):
    doc["basis"]["phi"] = [row[:1] for row in doc["basis"]["phi"]]


def _extra_spline(doc):
    doc["basis"]["splines"].append(doc["basis"]["splines"][0])


def _null_in_spline(doc):
    doc["basis"]["splines"][1]["a"][2] = None


def _short_spline_b(doc):
    doc["basis"]["splines"][0]["b"].pop()


def _drop_phi_row(doc):
    doc["basis"]["phi"].pop()


def _short_variances(doc):
    doc["basis"]["sample_variances"].pop()


def _vhat_one_row(doc):
    doc["covariance"]["vhat"] = doc["covariance"]["vhat"][:1]


def _ragged_lambda(doc):
    doc["covariance"]["lambda"][0].pop()


def _nan_lambda_star(doc):
    doc["covariance"]["lambda_star"][0] = float("nan")


def _negative_sigma2(doc):
    doc["covariance"]["sigma2"] = -1.0


def _infinite_sigma2(doc):
    doc["covariance"]["sigma2"] = float("inf")


def _nan_gamma(doc):
    doc["covariance"]["gamma"] = float("nan")


def _negative_gamma(doc):
    doc["covariance"]["gamma"] = -1.0


def _infinite_gamma(doc):
    doc["covariance"]["gamma"] = float("inf")


def _negative_l_hat(doc):
    doc["covariance"]["l_hat"] = -3


def _l_hat_above_k(doc):
    doc["covariance"]["l_hat"] = 99


def _negative_iterations(doc):
    doc["basis"]["iterations"] = -5


def _negative_lambda_star(doc):
    # every weight of predict would be zeroed: all-zero predictions
    doc["covariance"]["lambda_star"] = [-1.0, -2.0]


def _doubled_vhat(doc):
    doc["covariance"]["vhat"] = [[2.0, 0.0], [0.0, 2.0]]


def _doubled_phi(doc):
    doc["basis"]["phi"] = [[2.0 * v for v in row] for row in doc["basis"]["phi"]]


def _null_covariance(doc):
    doc["covariance"] = None


def _no_covariance(doc):
    del doc["covariance"]


class TestModelCrossChecks:
    # every shape is checked against the domain's p and d and phi's K, every
    # number must be finite and in the estimator's range, and phi and vhat
    # orthonormal: a corrupt model file exits 1 naming the field and writes nothing
    @pytest.fixture()
    def two_component_model(self, dataset, tmp_path):
        data, loc, _, _ = dataset
        out = tmp_path / "model2.json"
        assert main(["fit", "--data", data, "--locations", loc, "--k", "2", "--tau1", "1.0",
                     "--tau2", "0.0", "--gamma", "0.1", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("corrupt, field", [
        (_drop_phi_column, "basis.k"),
        (_extra_spline, "basis.splines"),
        (_null_in_spline, "basis.splines[1].a"),
        (_short_spline_b, "basis.splines[0].b"),
        (_drop_phi_row, "basis.phi"),
        (_short_variances, "basis.sample_variances"),
        (_vhat_one_row, "covariance.vhat"),
        (_ragged_lambda, "covariance.lambda"),
        (_nan_lambda_star, "covariance.lambda_star"),
        (_negative_sigma2, "covariance.sigma2"),
        (_infinite_sigma2, "covariance.sigma2"),
        (_null_covariance, "covariance"),
        (_no_covariance, "covariance"),
        (_nan_gamma, "covariance.gamma"),
        (_negative_gamma, "covariance.gamma"),
        (_infinite_gamma, "covariance.gamma"),
        (_negative_l_hat, "covariance.l_hat"),
        (_l_hat_above_k, "covariance.l_hat"),
        (_negative_iterations, "basis.iterations"),
        (_negative_lambda_star, "covariance.lambda_star"),
        (_doubled_vhat, "covariance.vhat"),
        (_doubled_phi, "basis.phi"),
    ])
    def test_corrupt_model_exits_1_naming_the_field(
        self, two_component_model, tmp_path, capsys, corrupt, field
    ):
        doc = json.loads(two_component_model.read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as json writes and reads them
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", str(bad), "--grid=-1:1:3", "--ref", "0.0",
                   "--out", str(out)])
        assert rc == 1
        assert f"field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_intact_model_loads(self, two_component_model, tmp_path, capsys):
        bundle = load_model(two_component_model)
        assert bundle.basis.phi.shape[1] == 2 and bundle.splines.a.shape[1] == 2
        out = tmp_path / "e.csv"
        assert main(["eval", "--model", str(two_component_model), "--grid=-1:1:3",
                     "--ref", "0.0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "x1,phi_1,phi_2,phi_rot_1,phi_rot_2,cov_ref"


# run in a fresh interpreter (argv: src directory, data, locations, model,
# output directory): whether scipy is loaded after the import and after each
# command, then after a build_penalty
_SCIPY_PROBE = """
import sys
src, data, loc, model, out = sys.argv[1:]
sys.path.insert(0, src)
from spatpca.cli import main
loaded = ["scipy" in sys.modules]
for argv in (["--help"], ["scree", "--data", data, "--locations", loc, "--out", out + "/s.csv"],
             ["eval", "--model", model, "--grid=-1:1:3", "--ref", "0.0", "--out", out + "/e.csv"]):
    assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
from spatpca import SpatialDomain, build_penalty
build_penalty(SpatialDomain([0.0, 1.0, 3.0]))
loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_only_penalty_building_loads_scipy(dataset, fitted_model, tmp_path):
    # eval and scree use numpy alone: scipy is imported where a penalty is
    # built or a basis fitted, not on `import spatpca.cli`
    data, loc, _, _ = dataset
    src = str(Path(spatpca.cli.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src, data, loc,
                          str(fitted_model), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[False, False, False, False, True]"


class TestScreeCommand:
    def test_values_match_spectrum(self, dataset, tmp_path, capsys):
        _, loc, y_all, _ = dataset
        for n in (16, 6):  # n > p, and n < p, where the last p - n values are 0
            y = y_all[:n]
            data = _write_rows(tmp_path / f"rows{n}.csv", y.tolist())
            out = tmp_path / "scree.csv"
            assert main(["scree", "--data", data, "--locations", loc, "--out", str(out)]) == 0
            capsys.readouterr()
            rows = [r.split(",") for r in out.read_text().splitlines()]
            assert rows[0] == ["component", "eigenvalue", "cumulative_fraction"]
            got = np.array([float(r[1]) for r in rows[1:]])
            want = np.linalg.eigvalsh(y.T @ y / n)[::-1]
            assert got.size == y.shape[1]
            assert np.allclose(got, want, rtol=1e-12)
            assert float(rows[-1][2]) == pytest.approx(1.0)


class TestCvCommand:
    def _cv_args(self, dataset, out, *taus):
        data, loc, _, _ = dataset
        return ["cv", "--data", data, "--locations", loc, "--k", "1", *taus, "--out", str(out)]

    def test_report_structure(self, dataset, tmp_path, capsys):
        out = tmp_path / "cv.json"
        assert main(self._cv_args(dataset, out, "--tau1", "0.0")) == 0
        assert "selected" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "cv"
        assert doc["tau"]["kind"] == "tau"
        assert doc["tau"]["tau1_values"] == [0.0]
        assert len(doc["tau"]["tau2_values"]) == 31
        assert doc["gamma"]["kind"] == "gamma"

    def test_iteration_cap_exits_2_but_writes(self, dataset, tmp_path, capsys):
        out = tmp_path / "cv.json"
        args = self._cv_args(dataset, out, "--tau1", "1.0", "--tau2", "0.5")
        assert main([*args, "--max-iterations", "1"]) == 2
        assert "iteration cap" in capsys.readouterr().err
        assert json.loads(out.read_text())["command"] == "cv"

    def test_pinned_taus_skip_tau_cv(self, dataset, tmp_path, capsys, monkeypatch):
        def no_cv_tau(*args, **kwargs):
            raise AssertionError("cv_tau ran although both taus are pinned")

        monkeypatch.setattr("spatpca.tuning.cv_tau", no_cv_tau)
        out = tmp_path / "cv.json"
        assert main(self._cv_args(dataset, out, "--tau1", "0.0", "--tau2", "0.0")) == 0
        assert "tau1=0.0 tau2=0.0" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["tau"] is None
        assert doc["gamma"]["kind"] == "gamma"

    def test_selects_what_fit_writes(self, dataset, tmp_path, capsys):
        taus = ("--tau2", "0.0")
        report, model = tmp_path / "cv.json", tmp_path / "model.json"
        assert main(self._cv_args(dataset, report, *taus)) == 0
        fit_args = self._cv_args(dataset, model, *taus)
        fit_args[0] = "fit"
        assert main(fit_args) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        bundle = load_model(model)
        config = bundle.basis.config
        assert tuple(doc["tau"]["selected"]) == (config.tau1, config.tau2)
        assert doc["gamma"]["selected"] == bundle.covariance.gamma
        assert doc["gamma"]["gamma_values"] == bundle.provenance["gamma_grid"]


class TestLowRankPath:
    """fit and cv on 6 x 6 sites and 10 rows at tau2 = 1: 8 training rows per
    fold, and 10 in the refit, below 3p/8, so every chain takes the low-rank term."""

    @pytest.fixture()
    def grid_files(self, tmp_path):
        axis = np.linspace(0.0, 1.0, 6)
        loc = np.column_stack([c.ravel() for c in np.meshgrid(axis, axis)])
        y = np.random.default_rng(47).standard_normal((10, 36))
        data = _write_rows(tmp_path / "data.csv", y.tolist())
        return data, _write_rows(tmp_path / "loc.csv", loc.tolist())

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_run_takes_low_rank_terms_and_repeats(
        self, grid_files, tmp_path, capsys, monkeypatch, command
    ):
        kinds = []
        group = spatpca.solver._fit_group

        def spy(ys, tau1s, quads, *args):
            quads = list(quads)
            kinds.extend(type(quad) for quad in quads)
            yield from group(ys, tau1s, quads, *args)

        monkeypatch.setattr(spatpca.solver, "_fit_group", spy)
        data, loc = grid_files
        outs = [tmp_path / f"{command}{i}.json" for i in range(2)]
        for out in outs:
            args = [command, "--data", data, "--locations", loc, "--k", "2", "--tau2", "1"]
            assert main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        # 5 folds x 11 tau1 values and the refit, per run
        assert kinds == [LowRankTerm] * 2 * 56
        assert outs[0].read_bytes() == outs[1].read_bytes()
        if command == "fit":
            assert load_model(outs[0]).basis.iterations > 0
        else:
            assert np.min(json.loads(outs[0].read_text())["tau"]["iterations"]) > 0


class TestSimulateCommand:
    SPEC = {
        "n": 12,
        "points_per_dim": 8,
        "replicates": 1,
        "k_fit": [1],
        "methods": ["pca"],
        "folds": 3,
        "tau1_values": [0.0],
        "tau2_values": [0.0],
        "gamma_value_count": 2,
    }

    def test_deterministic_outputs(self, tmp_path, capsys):
        spec = _write(tmp_path / "spec.json", json.dumps(self.SPEC))
        rc1 = main(["simulate", "--spec", spec, "--out", str(tmp_path / "run1")])
        rc2 = main(["simulate", "--spec", spec, "--out", str(tmp_path / "run2")])
        capsys.readouterr()
        assert rc1 == 0 and rc2 == 0
        for name in ("records.csv", "summary.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b

    def test_spec_list_gets_default_labels(self, tmp_path, capsys):
        spec = _write(tmp_path / "spec.json", json.dumps([self.SPEC, self.SPEC]))
        assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        text = (tmp_path / "out" / "records.csv").read_text()
        assert "exp0,pca" in text and "exp1,pca" in text

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        spec = _write(tmp_path / "spec.json", "{nope")
        assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "out")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [("[]", "spec list is empty"), ('{"eigenvalues": [Infinity, 0.0]}', "'eigenvalues'"),
         ('{"k_fit": [50]}', "'k_fit'")],
    )
    def test_refused_spec_exits_1_before_writing(self, tmp_path, capsys, text, named):
        spec = _write(tmp_path / "spec.json", text)
        assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_cells_exit_2_with_outputs_written(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        # every basis fit of a cell runs inside tuning.select_and_fit
        monkeypatch.setattr(spatpca.tuning, "fit", boom)
        spec = _write(tmp_path / "spec.json", json.dumps(self.SPEC))
        out = tmp_path / "out"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == 2
        assert "1 of 1 cells failed" in capsys.readouterr().err
        assert (out / "summary.json").exists()
        assert "synthetic failure" in (out / "records.csv").read_text()
