#!/usr/bin/env python3
"""vannodes benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 6 --trace 0

Runs the workload's processes one after another (see workloads.py), each
with BLAS pinned to one thread and ``src`` on PYTHONPATH.  Each process sets
up once and then makes a fixed number of passes, set by ``--seconds`` and the
workload alone.  Every pass is checked.  Prints a table of metrics with units
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the processes (``cells_per_s``: over the passes).  Every process and
every pass repeats the same amount of work, so their number is the same on
every commit.
With ``--trace 1`` the first process runs untraced and the others traced,
one pass each; the metrics are the per-layer ones (medians over the traced
processes) and ``trace_overhead_s``, traced minus untraced ``wall_s``.
Exits non-zero without a result line when anything fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BLAS_ENV, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # the whole run, so that it exits within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _spawn(args, process: int, traced: bool, out_root: str, env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--process", str(process),
        # A traced run makes one pass per process: one `vannodes <cmd>` run.
        "--passes", str(1 if args.trace else WORKLOADS[args.workload].passes(args.seconds)),
        "--trace", str(int(traced)),
        "--t0", repr(t0),
        "--out", os.path.join(out_root, f"process{process}"),
    ]  # fmt: skip
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process {process} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _table(rows) -> str:
    return "\n".join(f"  {name:<48} {value:>14.6g} {unit}" for name, value, unit in rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "vannodes", "__init__.py")):
        print(f"no vannodes sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that the running workload process is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORKLOADS[args.workload]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(x for x in (src, env.get("PYTHONPATH")) if x)
    env.update(BLAS_ENV)
    # Byte-compile first so that no process pays for compiling in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", src, HERE], check=True, env=env)

    out_root = os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        reports = [
            _spawn(args, i, args.trace and i > 0, out_root, env, deadline)
            for i in range(work.processes)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    fp = dict(reports[0]["fingerprint"], seed=args.seed)
    print(f"vannodes benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print("gain: " + " ".join(f"{k}={v:.10g}" for k, v in reports[0]["gain"].items()))
    print(f"processes: {len(reports)}, passes: {[len(r['cells_per_s']) for r in reports]}")
    if not reports[0]["same_numerics"]:
        print("numerics differ from references.json: per-cell references not applied")
    for r in reports:
        for failure in r["failures"]:
            print(f"FAILED {failure}")
    measured = reports[1:] if args.trace else reports
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in measured),
        "wall_s": statistics.median(r["wall_s"] for r in measured),
        "cells_per_s": statistics.median(x for r in measured for x in r["cells_per_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
    }
    label = "end to end (traced)" if args.trace else "end to end"
    print(f"{label}, {len(measured)} processes (medians; cells_per_s: median pass)")
    print(_table([(name, e2e[name], unit) for name, unit in END_TO_END]))
    print(_table([("fail_frac", failed / attempted if attempted else 1.0, f"({failed}/{attempted} cells)")]))

    if args.trace:
        from tracer import METRICS

        per_layer = {
            name: statistics.median(r["per_layer"][name] for r in measured)
            for name in METRICS
            if name != "trace_overhead_s"
        }
        per_layer["trace_overhead_s"] = e2e["wall_s"] - reports[0]["wall_s"]
        if per_layer["trace.span_coverage"] < 0.9:
            print("WARNING: spans cover less than 90% of traced wall_s")
        self_times = sorted(
            ((n, v) for n, v in per_layer.items() if n.endswith(".self_s")), key=lambda x: -x[1]
        )
        print(f"per-layer self time (share of traced wall_s {e2e['wall_s']:.4g} s):")
        print(_table([(n, v, f"s  {v / e2e['wall_s']:6.1%}") for n, v in self_times]))
        print("per-layer counts and derived:")
        print(_table([(n, v, METRICS[n][0]) for n, v in per_layer.items() if not n.endswith(".self_s")]))
        metrics = {n: {"value": v, "unit": METRICS[n][0]} for n, v in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
