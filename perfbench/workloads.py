"""The benchmark's workloads: one `vannodes` runner at a fixed desk shape each.

This module is plain data so that the parent process can read it without
importing numpy or vannodes.  Each workload runs as a few closed-loop
processes one after another: a process sets up once (interpreter, import,
task, gain) and then runs a fixed number of whole passes of its runner back
to back, each pass with a fresh ``out_dir`` and its own master seed.  Why
each workload was chosen is stated in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # name of the runner in vannodes.experiments
    config: dict  # ExperimentConfig fields
    # Set-ups per run: setup_s is the median over these processes.
    processes: int
    # Seconds of one pass at the seed commit on the baseline host.  It only
    # turns --seconds into a pass count, so that the count never depends on
    # the speed of the code under test.
    pass_s: float
    # Traced-run boundaries that open and close one cell's span group.
    cell_start: str
    cell_end: str

    @property
    def tuned(self) -> bool:
        """sigma_w_sq <= 0 asks set-up to tune sigma_w^2 mu_1 = 1."""
        return self.config["sigma_w_sq"] <= 0

    def passes(self, seconds: float) -> int:
        """Passes per process that fill ``seconds`` at the baseline speed."""
        return max(1, int(seconds / (self.processes * self.pass_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            runner="run_vni_sweep",
            config=dict(
                experiment="vni_sweep",
                depths=[5, 10, 20, 40, 60, 80, 100],
                widths=[50, 200],
                activation="hard_tanh",
                init="scaled_gaussian",
                sigma_w_sq=0.0,
                sigma_x_sq=0.1,
                probe_samples=2000,
                runs=1,
            ),
            processes=4,
            pass_s=4.2,
            cell_start="experiments.build_network",
            cell_end="experiments.RunStore.add",
        ),
        Workload(
            name="grid-tanh",
            runner="run_grid",
            config=dict(
                experiment="grid",
                dataset="and4",
                depths=[3, 10, 25],
                widths=[32],
                activation="tanh",
                init="scaled_gaussian",
                sigma_w_sq=0.0,
                optimizer="sgd",
                learning_rates=[0.01, 0.1, 1.0],
                batch_size=1,
                epochs=10,
                max_epochs=10,
                early_stop=False,
                runs=1,
                success_metric="train_accuracy",
                success_threshold=0.99,
            ),
            # Two set-ups, not three: each is a 17-35 s tune, and a third
            # would bring a run to ~110 s on a slow host.
            processes=2,
            pass_s=0.55,
            cell_start="experiments.train",
            cell_end="experiments.RunStore.add",
        ),
        Workload(
            name="orth-householder",
            runner="run_orthogonal_table",
            config=dict(
                experiment="orthogonal_table",
                dataset="and4",
                depths=[10],
                widths=[64],
                activation="tanh",
                init="scaled_gaussian",
                sigma_w_sq=1.0,
                optimizer="sgd",
                learning_rates=[0.1],
                batch_size=4,
                epochs=3,
                max_epochs=3,
                early_stop=False,
                runs=1,
                success_metric="train_accuracy",
                success_threshold=0.99,
            ),
            processes=4,
            pass_s=1.15,
            cell_start="experiments.train",
            cell_end="experiments.train",
        ),
    )
}


def master_seed(seed: int, process: int, pass_index: int) -> int:
    """Master seed of one pass; the same benchmark seed gives the same inputs.
    A run ends within 170 s, so a process makes far fewer than 1000 passes."""
    return (seed * 10 + process) * 1000 + pass_index


# BLAS threads of every workload process.  One, because with two every large
# product waits for whichever core is slower: on a shared 2-vCPU host that
# cost sweep 20-50% of its speed in 3 of 10 runs.
BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
