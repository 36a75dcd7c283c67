"""Closed-loop worker: (fit, eval, predict) cycles back to back until time is up.

    python3 perfbench/worker.py JOB_JSON

``run.py`` starts this as one fresh process with BLAS threads already pinned.
The job names the workload, seed, seconds, trace flag, source directory and
work directory (which holds locations.csv and data-0.csv, data-1.csv, ...).
An untraced run's cycles take the workload's data sets in turn; a traced run
fits data-0.csv only, so that its exact counts repeat.  Every operation is
checked; the report, written to report.json in the work directory, lists each
operation's wall and CPU time, the reference unit timed just before it where
the workload has one (see reference.py) and its error, and, for a traced run,
the per-layer metrics of the traced cycles.

The worker runs inside the work directory and names its files there by
relative paths, so that the model JSON, whose provenance records the input
paths, has the same bytes wherever the checkout and work directory lie.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from reference import ReferenceUnit


def _timed(call):
    """Run call(); return (result, wall seconds, CPU seconds, error text)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = call(), ""
    except Exception as exc:  # noqa: BLE001, any exception fails the operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - wall, time.process_time() - cpu, error


class Loop:
    """One workload's operations and the checks on their outputs."""

    def __init__(self, job: dict):
        import spatpca
        import spatpca.cli

        self.spatpca, self.cli = spatpca, spatpca.cli
        self.w = w = workloads.WORKLOADS[job["workload"]]
        self.eval_path = Path("eval.csv")
        self.fit_flags = [
            "--locations", "locations.csv",
            "--k", str(w.k),
            "--seed", str(job["seed"]),
        ]
        for flag, value in (("--tau1", w.tau1), ("--tau2", w.tau2)):
            if value is not None:
                self.fit_flags += [flag, repr(value)]
        self.eval_flags = [
            f"--grid={workloads.grid_spec(w)}",
            "--ref", workloads.origin(w),
            "--out", str(self.eval_path),
        ]
        inputs = workloads.draw(w, job["seed"], 0)
        self.y_new = inputs.y_new
        self.grid = workloads.grid_points(w)
        self.penalty = spatpca.build_penalty(spatpca.SpatialDomain(inputs.locations))
        self.reference = ReferenceUnit(w.p) if w.reference_s is not None else None
        self.dataset = 0
        self.first_models = {}
        self.bundle = None

    @property
    def model_path(self) -> Path:
        return Path(f"model-{self.dataset}.json")

    def _cli(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-300:]}")

    def fit(self):
        data = f"data-{self.dataset}.csv"
        self._cli(["fit", "--data", data, *self.fit_flags, "--out", str(self.model_path)])

    def check_fit(self, _):
        raw = self.model_path.read_bytes()
        if raw != self.first_models.setdefault(self.dataset, raw):
            raise AssertionError("model JSON differs from the first fit on this input")
        bundle = self.cli.load_model(self.model_path)
        basis, cov = bundle.basis, bundle.covariance
        phi = basis.phi
        if not basis.converged:
            raise AssertionError("model reports converged = false")
        gram_err = float(np.abs(phi.T @ phi - np.eye(phi.shape[1])).max())
        if gram_err > 1e-8:
            raise AssertionError(f"Phi'Phi differs from I by {gram_err:.3g}")
        if cov is None:
            raise AssertionError("model has no covariance estimate")
        # with orthonormal Phi the spectrum of Phi Lambda Phi' + sigma2 I is
        # eig(Lambda) + sigma2 together with sigma2 itself
        tol = 1e-10 * max(1.0, float(np.abs(cov.lam).max()))
        low = min(float(np.linalg.eigvalsh(cov.lam)[0]), 0.0) + cov.sigma2
        if cov.sigma2 < 0.0 or low < -tol:
            raise AssertionError("Phi Lambda Phi' + sigma2 I is not PSD")
        self.bundle = bundle

    def eval(self):
        self._cli(["eval", "--model", str(self.model_path), *self.eval_flags])

    def check_eval(self, _):
        out = np.loadtxt(self.eval_path, delimiter=",", skiprows=1, ndmin=2)
        shape = (self.grid.shape[0], self.w.d + 2 * self.w.k + 1)
        if out.shape != shape or not np.all(np.isfinite(out)):
            raise AssertionError(f"eval output has shape {out.shape}, expected finite {shape}")

    def predict(self):
        return self.spatpca.predict(self.bundle.covariance, self.penalty, self.y_new, self.grid)

    def check_predict(self, out):
        shape = (self.y_new.shape[0], self.grid.shape[0])
        if np.shape(out) != shape or not np.all(np.isfinite(out)):
            raise AssertionError(f"predictions have shape {np.shape(out)}, expected finite {shape}")


def run_cycle(loop: Loop, tracer: tracing.Tracer | None, index: int) -> list[dict]:
    """One fit, then eval and predict eval_repeats times; checks are untraced."""
    ops = []

    def record(name, call, check):
        ref = loop.reference() if loop.reference else None
        if tracer:
            tracer.active = True
        result, wall, cpu, error = _timed(call)
        if tracer:
            tracer.active = False
        if not error:
            error = _timed(lambda: check(result))[3]
        ops.append(
            {"op": name, "cycle": index, "dataset": loop.dataset, "traced": tracer is not None,
             "wall_s": wall, "cpu_s": cpu, "ref_s": ref, "error": error}
        )
        return not error

    if record("fit", loop.fit, loop.check_fit):
        for _ in range(loop.w.eval_repeats):
            record("eval", loop.eval, loop.check_eval)
            record("predict", loop.predict, loop.check_predict)
    return ops


def main(job_path) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    os.chdir(job["workdir"])
    loop = Loop(job)
    traced_run = bool(job["trace"])
    # a traced run alternates untraced and traced cycles so that the tracing
    # overhead is measured in one process: the first cycle warms up, then
    # traced and untraced cycles take turns, two of each at least, which also
    # checks that exact counts repeat; an untraced run fits one data set twice
    # at least, to check that the model JSON repeats
    min_cycles = 5 if traced_run else loop.w.datasets + 1
    ops, layers, restored = [], [], True
    cycle_walls = []
    deadline = time.perf_counter() + job["seconds"]
    index = 0
    while True:
        tracer = tracing.Tracer() if traced_run and index % 2 == 1 else None
        loop.dataset = 0 if traced_run else index % loop.w.datasets
        start = time.perf_counter()
        if tracer:
            tracer.install()
            try:
                cycle = run_cycle(loop, tracer, index)
            finally:
                restored &= tracer.uninstall()
            metrics = tracing.cycle_metrics(tracer.spans, loop.w.p)
            wall = sum(o["wall_s"] for o in cycle)
            cpu = sum(o["cpu_s"] for o in cycle)
            metrics["process.cpu_s"] = (cpu, "s")
            metrics["process.cpu_util"] = (cpu / wall, "ratio")
            layers.append(metrics)
        else:
            cycle = run_cycle(loop, None, index)
        ops += cycle
        cycle_walls.append(time.perf_counter() - start)
        index += 1
        if index >= min_cycles and (
            time.perf_counter() + statistics.median(cycle_walls) > deadline
        ):
            break

    report = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers_restored": restored,
        "layers": layers,
    }
    Path("report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
