"""One workload in one fresh process; prints its measurements as JSON.

``run.py`` starts this script with BLAS pinned to one thread. With
``--mode setup`` it builds the workload's inputs and exits, which measures
set-up in a fresh process. With ``--mode run`` it also runs one untimed
warm-up job, whose outcome every later job must reproduce, then times jobs
for ``--seconds``. With ``--trace 1`` it alternates traced and untraced
jobs instead and appends the Woodbury solver-scaling sweep.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import stackmbrl  # noqa: E402
from stackmbrl.woodbury import WoodburySolver, random_factors  # noqa: E402

from spec import SOLVER_SIZES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_TIMED_JOBS = 3
SOLVER_RANKS = dict(m=16, big_m=32, z_rank=16)   # as `woodbury-bench` uses
SOLVER_REPEATS = 5


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "seed": seed}


def solver_scaling(seed: int) -> dict:
    """Median build+solve time of ``WoodburySolver`` per n_phi at fixed
    ranks, and the least-squares line time = a + slope * n_phi."""
    out, sizes, times = {}, [], []
    for size in SOLVER_SIZES:
        factors = random_factors(size, seed=seed, **SOLVER_RANKS)
        rhs = np.random.default_rng((seed, size)).standard_normal(size)
        samples = []
        for _ in range(SOLVER_REPEATS):
            tick = time.perf_counter()
            WoodburySolver(factors).solve(rhs)
            samples.append(time.perf_counter() - tick)
        out[f"woodbury.scaling.{size}.s"] = statistics.median(samples)
        sizes.append(size)
        times.append(out[f"woodbury.scaling.{size}.s"])
    design = np.column_stack([sizes, np.ones(len(sizes))])
    coef, *_ = np.linalg.lstsq(design, times, rcond=None)
    resid = np.asarray(times) - design @ coef
    total = float(((np.asarray(times) - np.mean(times)) ** 2).sum())
    out["woodbury.scaling.slope_s_per_param"] = float(coef[0])
    out["woodbury.scaling.r2"] = 1.0 - float((resid ** 2).sum()) / total
    return out


def run(workload, inputs, seconds: float, trace: bool, seed: int) -> dict:
    reference = workload.run_job(inputs)
    jobs, traced = [], []
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # Start no job that would end after ``seconds``, judged by the warm-up.
    started = time.perf_counter()
    while (len(jobs) < MIN_TIMED_JOBS or time.perf_counter() - started
           + reference.seconds <= seconds):
        if tracer is not None and len(traced) < len(jobs):
            tracer.reset()
            with tracer:
                result = workload.run_job(inputs)
            traced.append((result, tracer.summary()))
        else:
            jobs.append(workload.run_job(inputs))
    all_jobs = [reference] + jobs + [result for result, _ in traced]
    violations = [v for job in all_jobs for v in job.violations]
    violations += [f"job {k}: outcome differs from the warm-up job"
                   for k, job in enumerate(all_jobs)
                   if job.fingerprint != reference.fingerprint]
    out = {
        "attempted": sum(job.attempted for job in all_jobs),
        "violations": violations,
        "op_seconds": [t for job in jobs for t in job.op_seconds],
        "job_seconds": [job.seconds for job in jobs],
        "budget_seconds": [job.budget_seconds for job in jobs],
        "eval_seconds": [job.eval_seconds for job in jobs],
        "ops_per_job": workload.n_ops,
        "stats": reference.stats,
    }
    if traced:
        summaries = [summary for _, summary in traced]
        keys = sorted(set().union(*summaries))
        out["layers"] = {key: statistics.median(s.get(key, 0.0)
                                                for s in summaries)
                         for key in keys}
        untraced = statistics.mean(job.seconds for job in jobs)
        out["layers"]["trace.overhead_frac"] = (
            statistics.mean(result.seconds for result, _ in traced)
            / untraced - 1.0)
        out["layers"].update(solver_scaling(seed))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(stackmbrl.__file__).resolve().parent != SRC / "stackmbrl":
        raise SystemExit(f"imported stackmbrl from {stackmbrl.__file__}, "
                         f"not from {SRC}")
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    out = {"setup_s": time.perf_counter() - STARTED}
    if args.mode == "run":
        out.update(run(workload, inputs, args.seconds, bool(args.trace),
                       args.seed))
        out["environment"] = environment(args.seed)
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
