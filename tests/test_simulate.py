import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spatpca.cli import main
from spatpca.simulate import (
    METHODS,
    ExperimentSpec,
    LossRecord,
    generate,
    generate_with_scores,
    loss_cov,
    loss_phi,
    make_domain,
    records_csv_text,
    run_experiment,
    spec_from_dict,
    summarize,
    summary_json_text,
    true_covariance,
    true_eigenfunctions,
)
from spatpca.tuning import TuningGrid

TINY = ExperimentSpec(
    d=1,
    n=12,
    points_per_dim=10,
    replicates=2,
    k_fit=(1,),
    methods=("pca", "spatpca"),
    folds=3,
    grid=TuningGrid(tau1_values=[0.0, 1.0], tau2_values=[0.0, 1.0], gamma_value_count=2),
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec()
        assert spec.p == 50
        assert ExperimentSpec(d=2, points_per_dim=6).p == 36

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 3},
            {"n": 3},
            {"points_per_dim": 3},
            {"interval": (2.0, -2.0)},
            {"interval": (-math.inf, 2.0)},
            {"interval": (0.0, math.nan)},
            {"eigenvalues": (math.inf, 0.0)},
            {"eigenvalues": (math.nan, 0.0)},
            {"eigenvalues": (1.0, 2.0)},
            {"eigenvalues": (3.0, -1.0)},
            {"k_fit": ()},
            {"k_fit": (0,)},
            {"replicates": 0},
            {"seed": -1},
            {"methods": ("pca", "ridge")},
            {"methods": ()},
            {"folds": 1},
            {"folds": 200},
            {"k_fit": (50,)},
        ],
    )
    def test_rejects_bad_field(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)


class TestDomainAndTruth:
    def test_domain_1d(self):
        dom = make_domain(ExperimentSpec(points_per_dim=7, interval=(-1.0, 1.0)))
        assert dom.locations.shape == (7, 1)
        assert dom.locations[0, 0] == -1.0 and dom.locations[-1, 0] == 1.0

    def test_domain_2d_row_major(self):
        spec = ExperimentSpec(d=2, points_per_dim=4, interval=(-3.0, 3.0))
        dom = make_domain(spec)
        assert dom.locations.shape == (16, 2)
        axis = np.linspace(-3.0, 3.0, 4)
        # first coordinate varies slowest
        assert np.array_equal(dom.locations[:4, 0], np.full(4, -3.0))
        assert np.array_equal(dom.locations[:4, 1], axis)
        assert np.array_equal(dom.locations[4], [axis[1], axis[0]])

    def test_eigenfunctions_shape_and_norms(self):
        dom = make_domain(ExperimentSpec())
        phi = true_eigenfunctions(dom)
        assert phi.shape == (50, 2)
        assert np.allclose(np.linalg.norm(phi, axis=0), 1.0, atol=1e-14)

    def test_eigenfunctions_parity_and_orthogonality(self):
        dom = make_domain(ExperimentSpec(points_per_dim=40))
        phi = true_eigenfunctions(dom)
        assert np.allclose(phi[:, 0], phi[::-1, 0], atol=1e-12)  # even
        assert np.allclose(phi[:, 1], -phi[::-1, 1], atol=1e-12)  # odd
        assert abs(phi[:, 0] @ phi[:, 1]) < 1e-12

    def test_true_covariance_formula(self):
        spec = ExperimentSpec(eigenvalues=(4.0, 1.0), points_per_dim=9)
        dom = make_domain(spec)
        phi = true_eigenfunctions(dom)
        expected = 4.0 * np.outer(phi[:, 0], phi[:, 0]) + 1.0 * np.outer(phi[:, 1], phi[:, 1])
        assert np.allclose(true_covariance(spec, dom), expected, atol=1e-14)
        assert np.allclose(true_covariance(spec), expected, atol=1e-14)


class TestGenerate:
    def test_deterministic_per_replicate(self):
        spec = ExperimentSpec(n=8, points_per_dim=6, replicates=2)
        a = generate(spec, 0)
        b = generate(spec, 0)
        c = generate(spec, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (8, 6)

    def test_scores_consistent_with_data(self):
        spec = ExperimentSpec(n=8, points_per_dim=6)
        dom = make_domain(spec)
        y1, xi = generate_with_scores(spec, 3, dom)
        y2 = generate(spec, 3)
        assert np.array_equal(y1, y2)
        assert xi.shape == (8, 2)
        # residual after removing the signal is the unit-variance noise draw
        resid = y1 - xi @ true_eigenfunctions(dom).T
        assert 0.5 < resid.var() < 2.0

    def test_zero_variance_component_contributes_nothing(self):
        spec = ExperimentSpec(n=8, points_per_dim=6, eigenvalues=(9.0, 0.0))
        _, xi = generate_with_scores(spec, 0)
        assert np.all(xi[:, 1] == 0.0)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            generate(ExperimentSpec(), -1)


class TestLosses:
    def test_loss_phi_hand_case(self):
        phi_hat = np.array([[1.0], [0.0], [0.0]])
        y = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        phi_true = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        xi = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert loss_phi(phi_hat, phi_true, xi, y) == 23.0

    def test_loss_phi_zero_when_exact(self):
        rng = np.random.default_rng(0)
        phi = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        xi = rng.standard_normal((5, 2))
        y = xi @ phi.T
        assert loss_phi(phi, phi, xi, y) < 1e-24

    def test_loss_phi_shape_errors(self):
        with pytest.raises(ValueError):
            loss_phi(np.ones((3, 1)), np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            loss_phi(np.ones((3, 1)), np.ones((3, 2)), np.ones((5, 2)), np.ones((2, 3)))

    def test_loss_cov(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert loss_cov(a, a) == 0.0
        assert loss_cov(a, b) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            loss_cov(np.eye(2), np.eye(3))


class TestRunExperiment:
    def test_tiny_run_record_layout(self):
        records = run_experiment(TINY)
        assert len(records) == 4  # 2 replicates x 1 k x 2 methods
        assert [r.method for r in records] == ["pca", "spatpca", "pca", "spatpca"]
        for r in records:
            assert r.error == ""
            assert r.converged
            assert math.isfinite(r.loss_phi) and math.isfinite(r.loss_cov)
        for r in records:
            if r.method == "pca":
                assert r.tau1 == 0.0 and r.tau2 == 0.0
            else:
                assert r.tau1 in (0.0, 1.0) and r.tau2 in (0.0, 1.0)

    def test_rerun_is_deterministic(self):
        a = records_csv_text(run_experiment(TINY))
        b = records_csv_text(run_experiment(TINY))
        assert a == b

    def test_failed_cell_recorded_not_raised(self, monkeypatch):
        import spatpca.tuning as tuning

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        # every basis fit of a cell runs inside tuning.select_and_fit
        monkeypatch.setattr(tuning, "fit", boom)
        records = run_experiment(TINY)
        assert len(records) == 4
        for r in records:
            assert math.isnan(r.loss_phi) and math.isnan(r.loss_cov)
            assert not r.converged
            assert "synthetic failure" in r.error


class TestReporting:
    RECORDS = [
        LossRecord("", "pca", 2, 0, 4.0, 8.0, 0.0, 0.0, 0.0),
        LossRecord("", "pca", 2, 1, 2.0, 6.0, 0.0, 0.0, 0.0),
        LossRecord("", "pca", 2, 2, 6.0, 10.0, 0.0, 0.0, 0.0),
        LossRecord("", "pca", 2, 3, math.nan, math.nan, math.nan, math.nan, math.nan,
                   converged=False, error="RuntimeError: x"),
        LossRecord("exp2", "spatpca", 1, 0, 1.0, 2.0, 1.0, 10.0, 0.5),
    ]

    def test_csv_layout(self):
        text = records_csv_text(self.RECORDS)
        lines = text.splitlines()
        assert lines[0] == "label,method,k,replicate,loss_phi,loss_cov,tau1,tau2,gamma,converged,error"
        assert len(lines) == 6
        assert lines[1].startswith(",pca,2,0,4.0,8.0,")
        assert lines[5].startswith("exp2,spatpca,1,0,")

    def test_summarize_quartiles_and_failures(self):
        summary = summarize(self.RECORDS)
        pca = summary["pca|k=2"]
        assert pca["replicates"] == 4 and pca["failures"] == 1
        q1, med, q3 = np.percentile([4.0, 2.0, 6.0], [25, 50, 75])
        assert pca["loss_phi"] == {"q1": q1, "median": med, "q3": q3}
        assert summary["exp2|spatpca|k=1"]["replicates"] == 1

    def test_all_nan_group_reports_none(self):
        only_bad = [self.RECORDS[3]]
        summary = summarize(only_bad)
        assert summary["pca|k=2"]["loss_phi"] is None

    def test_summary_json_text_round_trips(self):
        text = summary_json_text(self.RECORDS)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert set(parsed) == {"pca|k=2", "exp2|spatpca|k=1"}


class TestSpecFromDict:
    def test_defaults(self):
        # every absent field takes the dataclass default
        spec = spec_from_dict({}, default_label="exp0")
        base = ExperimentSpec(label="exp0")
        for f in fields(ExperimentSpec):
            if f.name != "grid":
                assert getattr(spec, f.name) == getattr(base, f.name), f.name
        for f in fields(TuningGrid):
            assert np.array_equal(getattr(spec.grid, f.name), getattr(base.grid, f.name)), f.name

    def test_explicit_label_wins(self):
        assert spec_from_dict({"label": "mine"}, default_label="x").label == "mine"

    def test_full_round_trip(self):
        raw = {
            "label": "a",
            "d": 2,
            "n": 30,
            "points_per_dim": 5,
            "interval": [0.0, 1.0],
            "eigenvalues": [4.0, 1.0],
            "k_fit": [1, 2],
            "replicates": 3,
            "seed": 9,
            "methods": ["pca"],
            "folds": 3,
            "tau1_values": [0.0, 2.0],
            "tau2_values": [0.0],
            "gamma_value_count": 4,
            "gamma_lower_fraction": 0.01,
        }
        spec = spec_from_dict(raw)
        assert spec.d == 2 and spec.n == 30 and spec.k_fit == (1, 2)
        assert np.array_equal(spec.grid.tau1_values, [0.0, 2.0])
        assert spec.folds == 3 and spec.grid.gamma_value_count == 4
        assert spec.grid.gamma_lower_fraction == 0.01

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="taus"):
            spec_from_dict({"taus": [1.0]})

    def test_wrong_type_named(self):
        with pytest.raises(ValueError, match="'n'"):
            spec_from_dict({"n": "many"})

    def test_int_coerced_to_float(self):
        spec = spec_from_dict({"gamma_lower_fraction": 1})
        assert spec.grid.gamma_lower_fraction == 1.0

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"replicates": True}, "replicates"),
            ({"gamma_lower_fraction": False}, "gamma_lower_fraction"),
            ({"k_fit": [2.7]}, "k_fit"),
            ({"k_fit": [True]}, "k_fit"),
            ({"interval": [True, 2]}, "interval"),
            ({"eigenvalues": [9.0, False]}, "eigenvalues"),
            ({"tau1_values": [0.0, True]}, "tau1_values"),
            ({"eigenvalues": [math.inf, 0.0]}, "eigenvalues"),
            ({"eigenvalues": [math.nan, 0.0]}, "eigenvalues"),
            ({"interval": [-5.0, math.inf]}, "interval"),
        ],
    )
    def test_booleans_and_fractional_counts_rejected(self, raw, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            spec_from_dict(raw)

    def test_integral_float_count_accepted(self):
        assert spec_from_dict({"k_fit": [2.0, 3]}).k_fit == (2, 3)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict([1, 2])

    def test_invalid_values_wrapped(self):
        with pytest.raises(ValueError, match="invalid experiment spec"):
            spec_from_dict({"d": 7})

    def test_methods_list_preserved_order(self):
        spec = spec_from_dict({"methods": ["spatpca", "pca"]})
        assert spec.methods == ("spatpca", "pca")
        assert set(spec.methods) <= set(METHODS)


EXPERIMENTS = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.json"))
# per-file trims on top of one replicate, so each committed design runs in seconds
TRIMS = {"sweep_1d.json": {"methods": ["pca"]}, "holdout_2d.json": {"n": 20, "k_fit": [2]}}


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
def test_committed_experiment_runs(path, tmp_path, capsys):
    raw = json.loads(path.read_text())
    trimmed = [{**item, "replicates": 1, **TRIMS.get(path.name, {})}
               for item in (raw if isinstance(raw, list) else [raw])]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(trimmed))
    specs = [spec_from_dict(item) for item in trimmed]
    expected = sum(s.replicates * len(s.k_fit) * len(s.methods) for s in specs)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    assert f"{expected} records (0 failed cells)" in capsys.readouterr().out
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert len(lines) == 1 + expected
