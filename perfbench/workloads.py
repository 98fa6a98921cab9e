"""Benchmark workloads: each one is a fednb config derived from a seed.

synth-grid   configs/synth.cfg as shipped, seed overridden on the command line.
             The paper's grid (35 cells, K=3); the weights layer dominates.
wide-k10     6000 rows, K=10, 6 cells. Nelder-Mead searches 9 dimensions, so
             evaluations per start and cost per evaluation both grow.
pooled-large 200k rows, K=3, 35 cells, proposals C/B/E only. The optimizer
             never runs; data, partition, local_model and mog do the work.
tiny         a few hundred rows and two cells, for the benchmark's own tests.

How long Nelder-Mead runs depends on the data, so one grid's cost varies
from seed to seed (total evaluations on synth-grid span about +-7%, and the
single cell that `verify` re-runs varies far more). A workload with an
optimizer therefore runs several inputs per benchmark run, derived from the
run's seed, and the benchmark reports the mean over inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# results.csv sha256 of the first input at seed 42. Any change to the program
# must leave these outputs byte-identical. At other seeds a run checks that
# repeats of one input agree with each other instead.
REFERENCE_SEED = 42
REFERENCE_SHA256 = {
    "synth-grid": "01102000be67071f90862196de0bc5664555bf36fd6706b9aaf2347aace3552c",
    "wide-k10": "dc153441db734ddf42bb14574ccbb0252f693dcbc7e6fb7bf690c4ae6dcef5b0",
    "pooled-large": "6f4c816a94e8be6cabe06fcb9709074e6c24708735222eff2a6f90e81fdc45b4",
}

SYNTH_PROFILES = (
    ("Financial", 4, 0.82, 0.12, 3.2),
    ("Health", 3, 0.70, 0.25, 5.1),
    ("Government", 2, 0.55, 0.40, 6.8),
)
SYNTH_NOISE = (0.0, 0.2, 0.45)


def wide_profiles(k: int = 10):
    """Node i: cmm 5 - floor(4i/k), kci 0.90 - 0.04i, kri 0.10 + 0.04i,
    cvss 3.0 + 0.4i; noise rises linearly from 0 to 0.45."""
    profiles = tuple(
        (f"N{i}", 5 - (4 * i) // k, round(0.90 - 0.04 * i, 4), round(0.10 + 0.04 * i, 4),
         round(3.0 + 0.4 * i, 4))
        for i in range(k)
    )
    noise = tuple(round(0.45 * i / (k - 1), 6) for i in range(k))
    return profiles, noise


def config_text(*, name, seed, n_rows, alphas, reps, proposals, profiles, noise) -> str:
    """INI text in the grammar of fednb.config; optimizer settings as shipped."""
    lines = [
        "[experiment]",
        f"name = {name}",
        f"seed = {seed}",
        "alphas = " + ", ".join(f"{a:.2f}" for a in alphas),
        f"reps = {reps}",
        "proposals = " + ", ".join(proposals),
        "train_frac = 0.6",
        "val_frac = 0.2",
        "test_frac = 0.2",
        "lambda = 0.10",
        "floor_delta = 0.05",
        "max_iters = 500",
        "n_starts = 5",
        "",
        "[synth]",
        f"n_rows = {n_rows}",
        "n_classes = 2",
        "n_categorical = 2",
        "n_numerical = 3",
        "n_categories = 4",
        "class_sep = 2.0",
        "node_noise = " + ", ".join(str(x) for x in noise),
        "",
        "[profiles]",
    ]
    lines += [f"{n} = {cmm}, {kci}, {kri}, {cvss}" for n, cmm, kci, kri, cvss in profiles]
    return "\n".join(lines) + "\n"


INPUT_SEED_STRIDE = 100_000
PAPER_ALPHAS = (0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 1.00)


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    k: int
    alphas: tuple
    reps: int
    proposals: tuple
    inputs: int = 1  # distinct inputs per run, to average out input-driven cost
    shipped: bool = False  # use configs/synth.cfg with --set seed=N

    def input_seeds(self, seed: int) -> list[int]:
        """Config seeds of this run's inputs; the first is the run's own seed."""
        return [seed + INPUT_SEED_STRIDE * j for j in range(self.inputs)]

    def cli_config_args(self, root: str, workdir: str, seed: int) -> list[str]:
        """The --config (and --set) arguments fednb needs for this seed."""
        if self.shipped:
            return ["--config", os.path.join(root, "configs", "synth.cfg"), "--set", f"seed={seed}"]
        if self.k == 3:
            profiles, noise = SYNTH_PROFILES, SYNTH_NOISE
        else:
            profiles, noise = wide_profiles(self.k)
        path = os.path.join(workdir, f"{self.name}-{seed}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(
                name=self.name, seed=seed, n_rows=self.n_rows, alphas=self.alphas,
                reps=self.reps, proposals=self.proposals, profiles=profiles, noise=noise,
            ))
        return ["--config", path]

    def reference_sha256(self, seed: int) -> str | None:
        return REFERENCE_SHA256.get(self.name) if seed == REFERENCE_SEED else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-grid", 3000, 3, PAPER_ALPHAS, 5, ("C", "B", "E", "A"), inputs=3, shipped=True),
        Workload("wide-k10", 6000, 10, (0.10, 0.30, 1.00), 2, ("C", "B", "E", "A"), inputs=2),
        Workload("pooled-large", 200_000, 3, PAPER_ALPHAS, 5, ("C", "B", "E")),
        Workload("tiny", 600, 3, (0.10, 1.00), 1, ("C", "B", "E", "A")),
    )
}
