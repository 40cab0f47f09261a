#!/usr/bin/env python3
"""Record the checker's references at the current commit.

    PYTHONPATH=src python3 perfbench/record.py

Writes references.json: the tuned gains' |sigma_w^2 mu_1 - 1|, the bits of
each workload's set-up numerics and, for the pinned seeds, every cell value
of the first pass of every process.  Run it only at a commit whose outputs
are the reference; the benchmark's checker compares later commits against
this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from workloads import BLAS_ENV, WORKLOADS, master_seed

PINNED_SEEDS = range(11)


def main() -> int:
    os.environ.update(BLAS_ENV)  # before numpy is imported
    from checker import gain_residual
    from workload import REFS, numerics, run_pass, setup

    refs = {"pinned_seeds": list(PINNED_SEEDS), "gain_residual": {}, "numerics": {}, "cells": {}}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for work in WORKLOADS.values():
            base, gain = setup(work, tmp)
            if work.tuned:
                refs["gain_residual"][work.name] = gain_residual(gain)
            refs["numerics"][work.name] = numerics(gain)
            cells = refs["cells"][work.name] = {}
            for seed in PINNED_SEEDS:
                for process in range(work.processes):
                    ms = master_seed(seed, process, 0)
                    _, result = run_pass(work, base, gain, ms, os.path.join(tmp, "pass"), None)
                    if result.failures:
                        raise SystemExit(f"{work.name} seed {ms}: {result.failures}")
                    cells[str(ms)] = result.values
            print(f"recorded {work.name}", file=sys.stderr)
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
