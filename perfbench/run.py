"""spatpca benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cv1d --seed 1 --seconds 45 --trace 0

Run from anywhere inside a spatpca source tree; the sources are taken from
``src/`` next to this directory.  The run writes the workload's seeded input
CSVs to a scratch directory inside the tree, times the per-domain set-up in
fresh interpreters, then starts one worker process that issues
``spatpca fit``, ``spatpca eval`` and ``spatpca.predict`` back to back (a closed
loop) for the given seconds and checks every output.

Standard output ends with three JSON lines: the environment record, the run
details (sample counts, checks, input hashes, per-operation wall times,
losses), and the result ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer metrics of a traced run, which alternates untraced and
traced cycles so that the tracing overhead is measured in the same process.

The end-to-end times (setup_s, fit_s, eval_s, predict_s) are medians over
the run's operations.  For cv1d and holdout2d they are reported at a nominal
machine speed: a fixed reference unit (reference.py) is timed next to every
operation, and each median wall time is multiplied by the workload's nominal
reference time over the run's median reference time.  On a shared 2-core
machine other tenants move wall times by up to 60% for tens of seconds at a
time, which spreads these workloads' raw medians across runs by up to a
third and moves the median of ten runs by up to a fifth; the rescaling
roughly halves the spread and keeps those medians within 6%.  pinned1600's
large memory-heavy work does not slow the way the reference unit does, so
its times are reported as measured (see workloads.WORKLOADS).

Each run keeps the SHA-256 of its input CSVs, and a traced run its exact
per-layer counts, in ``.perfbench_work/record.json`` inside the tree; a later
run of the same workload and seed in the same tree must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RECORD = WORK_ROOT / "record.json"

# BLAS threads per process: one, no more than nproc, so that other tenants of
# a small shared machine disturb the timings as little as possible
BLAS_THREADS = 1
SETUP_REPEATS = 5
# the whole run must end within 180 s
WORKER_TIMEOUT_S = 170.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def _environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _setup_times(locations: Path, reference) -> tuple[list[float], list[float]]:
    """Samples of import + build_penalty, each in a fresh interpreter, and
    the reference unit timed right after each sample, if there is one."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    # the first probe only imports, filling the bytecode and file caches
    subprocess.run(probe, check=True, capture_output=True, timeout=60)
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            probe + [str(locations)], check=True, capture_output=True, text=True, timeout=60
        )
        times.append(float(out.stdout))
        if reference:
            refs.append(statistics.median(reference() for _ in range(3)))
    return times, refs


def _matches_earlier_runs(key: str, value: dict) -> bool:
    """False if an earlier run in this tree recorded another value for key."""
    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    if key in record:
        return record[key] == value
    record[key] = value
    RECORD.write_text(json.dumps(record, indent=0, sort_keys=True))
    return True


def _median(values):
    return statistics.median(values) if values else float("nan")


def _total(losses, key: str) -> float:
    return sum(x[key] for x in losses)


def _nominal(walls, refs, reference_s: float | None) -> float:
    """Median wall time, rescaled to the nominal machine speed if one is set."""
    if reference_s is None:
        return _median(walls)
    return _median(walls) * reference_s / _median(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spatpca" / "cli.py").is_file():
        print(f"error: no spatpca sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    import workloads
    from reference import ReferenceUnit

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()

    work = WORK_ROOT / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = workloads.input_files(w, args.seed)
        hashes = {n: hashlib.sha256(t.encode()).hexdigest() for n, t in files.items()}
        inputs_repeat = _matches_earlier_runs(f"{w.name}/{args.seed}/inputs", hashes)
        for name, text in files.items():
            (work / name).write_text(text)
        setup, setup_refs = [], []
        if not args.trace:
            reference = ReferenceUnit(w.p) if w.reference_s is not None else None
            setup, setup_refs = _setup_times(work / "locations.csv", reference)

        job = {
            "workload": w.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "src": str(SRC),
            "workdir": str(work),
        }
        (work / "job.json").write_text(json.dumps(job))
        timeout = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
            check=True,
            stdout=sys.stderr,
            timeout=timeout,
        )
        report = json.loads((work / "report.json").read_text())
        ops = report["ops"]
        # one entry per data set the run fitted
        losses = [
            workloads.losses(w, workloads.draw(w, args.seed, j), json.loads(path.read_text()))
            for j in range(w.datasets)
            if (path := work / f"model-{j}.json").is_file()
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for o in ops if o["error"])
    timing = {
        name: [o["wall_s"] for o in ops if o["op"] == name and not o["traced"] and not o["error"]]
        for name in ("fit", "eval", "predict")
    }
    refs = [o["ref_s"] for o in ops if not o["traced"] and o["ref_s"] is not None]
    checks = {
        "inputs_match_earlier_runs": inputs_repeat,
        "operations_ok": failed == 0,
        "wrappers_restored": report["wrappers_restored"],
        # the penalized estimates must beat the unpenalized ones on the same
        # data, in total over the run's data sets: a single holdout2d draw
        # comes within 15% of K-PCA's loss_cov, a run's total within 30%
        "loss_phi_below_pca": bool(losses)
        and _total(losses, "loss_phi") < _total(losses, "pca_loss_phi"),
        "loss_cov_below_pca": bool(losses)
        and _total(losses, "loss_cov") < _total(losses, "pca_loss_cov"),
    }

    if args.trace:
        layers = report["layers"]
        counts = {
            name: [cycle[name][0] for cycle in layers]
            for name, (_, unit) in layers[0].items()
            if unit in ("count", "bytes")
        }
        first_counts = {name: v[0] for name, v in counts.items()}
        checks["counts_repeat"] = all(len(set(v)) == 1 for v in counts.values())
        checks["counts_match_earlier_runs"] = _matches_earlier_runs(
            f"{w.name}/{args.seed}/counts", first_counts
        )
        metrics = {
            name: {"value": statistics.fmean(c[name][0] for c in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        # the first, untraced cycle warms up and stays out of the comparison
        fit_s, traced_fit_s = (
            _median(
                [
                    o["wall_s"]
                    for o in ops
                    if o["op"] == "fit" and o["cycle"] and o["traced"] == traced and not o["error"]
                ]
            )
            for traced in (False, True)
        )
        overhead = traced_fit_s - fit_s
        metrics["trace.overhead_fit_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": overhead / fit_s, "unit": "ratio"}
        loss_cov = losses[0]["loss_cov"] if losses else float("nan")
        metrics["covariance.loss_cov"] = {"value": loss_cov, "unit": "sq_error"}
        details = {"counts": first_counts, "traced_cycles": len(layers)}
    else:
        metrics = {
            "setup_s": {"value": _nominal(setup, setup_refs, w.reference_s), "unit": "s"},
            "fit_s": {"value": _nominal(timing["fit"], refs, w.reference_s), "unit": "s"},
            "eval_s": {"value": _nominal(timing["eval"], refs, w.reference_s), "unit": "s"},
            "predict_s": {"value": _nominal(timing["predict"], refs, w.reference_s), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "loss_phi_vs_pca": {
                "value": statistics.fmean(x["loss_phi"] / x["pca_loss_phi"] for x in losses)
                if losses
                else float("nan"),
                "unit": "ratio",
            },
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        details = {"setup_samples_s": setup, "setup_ref_median_s": _median(setup_refs)}

    env = _environment()
    env.update(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
               operations=attempted)
    details.update(
        samples={name: len(v) for name, v in timing.items()},
        samples_s=timing,
        wall_median_s={name: _median(v) for name, v in timing.items()},
        ref_median_s=_median(refs),
        losses=losses,
        checks=checks,
        errors=[o["error"] for o in ops if o["error"]][:5],
        inputs_sha256=hashes,
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
