"""Per-layer tracing from outside the package.

A ``Tracer`` replaces each layer's public functions with timing wrappers at
every import site (``spatpca.cli.cv_tau``, ``spatpca.tuning.fit``,
``spatpca.solver.admm_step``, ...), plus the numpy ``eigh``/``eigvalsh``/
``svd`` kernels and ``SampleCovariance.__post_init__``.  Spans (name, start,
end, parent, detail) are kept in memory and summarized into per-layer
metrics once the run ends; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, public name, span name)
FUNCTIONS = (
    ("spatpca.cli", "ingest", "cli.ingest"),
    ("spatpca.cli", "save_model", "cli.save_model"),
    ("spatpca.cli", "load_model", "cli.load_model"),
    ("spatpca.cli", "cmd_eval", "cli.cmd_eval"),
    ("spatpca._files", "atomic_write_text", "files.write"),
    ("spatpca.tps", "build_penalty", "tps.build_penalty"),
    ("spatpca.tps", "solve_coefficients", "tps.solve_coefficients"),
    ("spatpca.tps", "evaluate", "tps.evaluate"),
    ("spatpca.solver", "fit", "solver.fit"),
    ("spatpca.solver", "precompute_quadratic", "solver.precompute_quadratic"),
    ("spatpca.solver", "initial_phi", "solver.initial_phi"),
    ("spatpca.solver", "admm_step", "solver.admm_step"),
    ("spatpca.tuning", "cv_tau", "tuning.cv_tau"),
    ("spatpca.tuning", "cv_gamma", "tuning.cv_gamma"),
    ("spatpca.covariance", "estimate_parameters", "covariance.estimate_parameters"),
    ("spatpca.covariance", "predict", "covariance.predict"),
)
KERNELS = ("eigh", "eigvalsh", "svd")

# LAPACK flop models for a symmetric n x n eigenproblem (Golub & Van Loan)
_EIG_FLOPS = {"eigh": 9.0, "eigvalsh": 4.0 / 3.0}


def _query_rows(args, result):
    domain, query = args[1], np.asarray(args[2])
    if query.ndim == 2:
        return query.shape[0]
    return query.size if domain.d == 1 else 1


def _text_bytes(args, result):
    return len(args[1].encode())


def _matrix_order(args, result):
    return np.shape(args[0])[-1]


def _not_converged(args, result):
    return 0 if result.converged else 1


_DETAIL = {
    "tps.evaluate": _query_rows,
    "files.write": _text_bytes,
    "linalg.eigh": _matrix_order,
    "linalg.eigvalsh": _matrix_order,
    "solver.fit": _not_converged,
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        detail = _DETAIL.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.spans[idx] = (name, start, time.perf_counter(), parent, 0)
                raise
            end = time.perf_counter()
            self._stack.pop()
            extra = detail(args, result) if detail else 0
            self.spans[idx] = (name, start, end, parent, extra)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name wherever a spatpca module binds it."""
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "spatpca"]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        sample_cov = importlib.import_module("spatpca.covariance").SampleCovariance
        self._patch(
            sample_cov,
            "__post_init__",
            self._wrap("covariance.sample_covariance", sample_cov.__post_init__),
        )
        for attr in KERNELS:
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> bool:
        """Restore every patched name; True when no wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(getattr(o, attr) is orig for o, attr, orig in self._patches)
        self._patches = []
        owners = [m for key, m in sys.modules.items() if key.split(".")[0] == "spatpca"]
        owners += [np.linalg, importlib.import_module("spatpca.covariance").SampleCovariance]
        leftover = any(
            hasattr(value, "__perfbench_original__")
            for owner in owners
            for value in list(vars(owner).values())
        )
        return restored and not leftover


def _ancestor_names(spans, idx):
    names = set()
    parent = spans[idx][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def span_totals(spans) -> dict:
    """Per-name calls, total seconds, self seconds and summed detail."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own, detail = Counter(), defaultdict(float), defaultdict(float), Counter()
    for idx, (name, start, end, _, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[idx]
        detail[name] += extra
    return {"calls": calls, "total": total, "self": own, "detail": detail}


def cycle_metrics(spans, p: int) -> dict:
    """Per-layer metrics of one traced (fit, eval, predict) cycle.

    Maps each metric name to (value, unit).  The "count" and "bytes" values
    must repeat exactly when the same cycle runs again on the same input.
    """
    t = span_totals(spans)
    calls, total, own, detail = t["calls"], t["total"], t["self"], t["detail"]
    pp = [s for s in spans if s[0] in ("linalg.eigh", "linalg.eigvalsh") and s[4] == p]
    gflop = sum(_EIG_FLOPS[s[0].split(".")[1]] * float(s[4]) ** 3 for s in pp) / 1e9

    def cells(name, ancestor):
        return sum(
            1
            for i, s in enumerate(spans)
            if s[0] == name and ancestor in _ancestor_names(spans, i)
        )

    admm = calls["solver.admm_step"]
    fits = calls["solver.fit"]
    return {
        "solver.admm_step_calls": (admm, "count"),
        "solver.admm_step_s": (total["solver.admm_step"], "s"),
        "solver.admm_step_us": (1e6 * total["solver.admm_step"] / max(admm, 1), "us"),
        "solver.iterations_per_fit": (admm / max(fits, 1), "ratio"),
        "solver.fit_calls": (fits, "count"),
        "solver.fit_self_s": (own["solver.fit"], "s"),
        "solver.nonconverged_frac": (detail["solver.fit"] / max(fits, 1), "ratio"),
        "solver.precompute_quadratic_calls": (calls["solver.precompute_quadratic"], "count"),
        "solver.precompute_quadratic_s": (total["solver.precompute_quadratic"], "s"),
        "solver.initial_phi_calls": (calls["solver.initial_phi"], "count"),
        "solver.initial_phi_s": (total["solver.initial_phi"], "s"),
        "linalg.eigh_pp_calls": (len(pp), "count"),
        "linalg.eigh_pp_s": (sum(s[2] - s[1] for s in pp), "s"),
        "linalg.eigh_gflop_computed": (gflop, "GFLOP"),
        "linalg.svd_calls": (calls["linalg.svd"], "count"),
        "linalg.svd_s": (total["linalg.svd"], "s"),
        "tps.build_penalty_s": (total["tps.build_penalty"], "s"),
        "tps.solve_coefficients_calls": (calls["tps.solve_coefficients"], "count"),
        "tps.solve_coefficients_s": (total["tps.solve_coefficients"], "s"),
        "tps.evaluate_calls": (calls["tps.evaluate"], "count"),
        "tps.evaluate_points": (detail["tps.evaluate"], "count"),
        "tps.evaluate_s": (total["tps.evaluate"], "s"),
        "tuning.cv_tau_s": (total["tuning.cv_tau"], "s"),
        "tuning.cv_tau_cells": (cells("solver.fit", "tuning.cv_tau"), "count"),
        "tuning.cv_tau_self_s": (own["tuning.cv_tau"], "s"),
        "tuning.cv_gamma_s": (total["tuning.cv_gamma"], "s"),
        "tuning.cv_gamma_cells": (
            cells("covariance.estimate_parameters", "tuning.cv_gamma"),
            "count",
        ),
        "tuning.cv_gamma_self_s": (own["tuning.cv_gamma"], "s"),
        "covariance.sample_covariance_calls": (calls["covariance.sample_covariance"], "count"),
        "covariance.sample_covariance_s": (total["covariance.sample_covariance"], "s"),
        "covariance.estimate_parameters_calls": (
            calls["covariance.estimate_parameters"],
            "count",
        ),
        "covariance.estimate_parameters_s": (total["covariance.estimate_parameters"], "s"),
        "covariance.predict_s": (total["covariance.predict"], "s"),
        "cli.ingest_s": (total["cli.ingest"], "s"),
        "cli.save_model_s": (total["cli.save_model"], "s"),
        "cli.load_model_s": (total["cli.load_model"], "s"),
        "cli.eval_self_s": (own["cli.cmd_eval"], "s"),
        "files.write_s": (total["files.write"], "s"),
        "files.bytes_written": (detail["files.write"], "bytes"),
    }
