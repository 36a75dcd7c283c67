"""The benchmark's tracer must still find every name it wraps in the package."""

import importlib.util
from pathlib import Path

import numpy as np

import spatpca.cli  # noqa: F401, the tracer wraps the names each loaded module binds
import spatpca.solver
import spatpca.tuning
from spatpca import SolverConfig, TuningGrid, default_log_grid, partition_folds

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name(small_penalty):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        y = np.random.default_rng(0).standard_normal((20, small_penalty.domain.p))
        # looked up on the module at call time, where the tracer put its wrapper
        spatpca.solver.fit(y, small_penalty, SolverConfig(tau1=1.0, tau2=0.5, k=2))
        tracer.active = False
    finally:
        restored = tracer.uninstall()
    assert restored
    names = {span[0] for span in tracer.spans}
    assert {"solver.fit", "solver.admm_step", "solver.precompute_quadratic"} <= names


def test_traced_cv_tau_builds_one_term_family_per_fold(small_penalty):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        y = np.random.default_rng(1).standard_normal((20, small_penalty.domain.p))
        grid = TuningGrid(tau1_values=default_log_grid(3), tau2_values=[0.0, 1.0])
        spatpca.tuning.cv_tau(y, small_penalty, 2, grid, partition_folds(20, 4, seed=0))
        tracer.active = False
    finally:
        assert tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("tuning.cv_tau") == 1
    assert names.count("solver.precompute_quadratic") == 4
