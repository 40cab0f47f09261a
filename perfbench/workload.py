"""One workload process: set up once, then run a fixed number of passes.

Started by run.py with BLAS pinned through the environment and ``src`` on
PYTHONPATH.  Prints one JSON line with its timings, check results and, when
traced, its per-layer metrics.  Times count from ``--t0``, the monotonic
clock reading the parent took just before starting this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

from workloads import WORKLOADS, master_seed

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _fingerprint() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def numerics(gain) -> dict:
    """Bits of the set-up gain and of a small tanh/BLAS probe.  Other CPUs or
    libraries can differ here in the last bit, and batch-1 SGD at lr = 1 can
    grow such a bit into a different cell value."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.standard_normal((64, 64))
    # One row, as batch-1 training multiplies, and a block, as a probe batch.
    probe = sum(float(np.tanh(rng.standard_normal((rows, 64)) @ w).sum()) for rows in (1, 256))
    bits = {"sigma_w_sq": gain.sigma_w_sq, "q_star": gain.q_star, "mu1": gain.mu1, "probe": probe}
    return {k: float(v).hex() for k, v in bits.items()}


def setup(work, out: str):
    """Task and gain of ``work``, as the runner's own set-up makes them."""
    from vannodes import experiments
    from vannodes.config import ExperimentConfig

    base = ExperimentConfig(**work.config, out_dir=out)
    sigma_x_sq = base.sigma_x_sq
    if "dataset" in work.config:
        train_set, _ = experiments.build_task(base)
        sigma_x_sq = float(train_set.inputs.var())
    return base, experiments.resolve_gain(base, sigma_x_sq, base.init_kind)


def run_pass(work, base, gain, seed: int, out_dir: str, refs: dict | None):
    """Run one pass of ``work`` into ``out_dir``, check it and remove the
    directory.  The gain resolved at set-up is handed to the runner, whose
    own resolve_gain then reproduces q* and mu_1 bit for bit without tuning
    again.  Returns (runner seconds, CheckResult)."""
    from vannodes import experiments

    from checker import check_pass

    config = base.with_overrides(
        {"sigma_w_sq": gain.sigma_w_sq, "master_seed": seed, "out_dir": out_dir}
    )
    fresh = not os.path.exists(out_dir)
    start = time.monotonic()
    returned = getattr(experiments, work.runner)(config)
    seconds = time.monotonic() - start
    result = check_pass(work.name, config, returned, fresh, refs)
    shutil.rmtree(out_dir)
    return seconds, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--process", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    t0 = args.t0
    t0_perf = time.perf_counter() - (time.monotonic() - t0)
    work = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.begin("import")
    import vannodes.experiments  # noqa: F401  (what `vannodes <cmd>` imports)

    if tracer:
        tracer.end()
        tracer.install(work.cell_start, work.cell_end)
    from checker import GAIN_RESIDUAL_SLACK, gain_residual

    base, gain = setup(work, args.out)
    setup_s = time.monotonic() - t0

    with open(REFS) as f:
        refs = json.load(f)
    failures = []
    gain_ok = True
    if work.tuned:
        residual = gain_residual(gain)
        limit = refs["gain_residual"][work.name] * (1.0 + GAIN_RESIDUAL_SLACK)
        gain_ok = residual <= limit
        if not gain_ok:
            # Every cell then ran at a wrong gain.
            failures.append(f"gain: |sigma_w^2 mu_1 - 1| = {residual:.3g} > {limit:.3g}")
    # The per-cell references hold only where set-up reproduces their numerics.
    same_numerics = numerics(gain) == refs["numerics"][work.name]
    cell_refs = refs["cells"][work.name] if same_numerics else {}

    wall_s = None
    rates, attempted, failed = [], 0, 0
    for index in range(args.passes):
        seed = master_seed(args.seed, args.process, index)
        started = time.monotonic()
        seconds, result = run_pass(
            work, base, gain, seed, os.path.join(args.out, f"pass{index}"), cell_refs.get(str(seed))
        )
        if wall_s is None:
            wall_s = started - t0 + seconds
        failures.extend(result.failures)
        attempted += result.attempted
        failed += result.failed if gain_ok else result.attempted
        rates.append(result.attempted / seconds)

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells_per_s": rates,  # one rate per pass
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "gain": {"sigma_w_sq": gain.sigma_w_sq, "q_star": gain.q_star, "mu1": gain.mu1},
        "same_numerics": same_numerics,
        "fingerprint": _fingerprint(),
    }
    if tracer:
        report["per_layer"] = tracer.metrics(wall_s, t0_perf)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
