#!/usr/bin/env python3
"""Scale sweep: which layer dominates one grid cell as the problem grows.

Runs one traced cell (alpha 0.10, rep 0, proposals C/B/E/A) at every point of
n_rows in {3000, 30000} x K in {3, 10}, and prints each layer's share of the
cell's wall time and the optimizer's evaluations per start. It is not gated
and not part of BENCHMARK.json; it needs no input beyond the seed.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py [--seed 42]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import run  # sets the thread variables before numpy loads
import tracer
from workloads import SYNTH_NOISE, SYNTH_PROFILES, config_text, wide_profiles

ROWS = (3000, 30000)
NODES = (3, 10)
ALPHA = 0.10


def sweep_point(n_rows: int, k: int, seed: int, work: str) -> dict:
    from fednb import experiment
    from fednb.config import load_config

    profiles, noise = (SYNTH_PROFILES, SYNTH_NOISE) if k == 3 else wide_profiles(k)
    path = os.path.join(work, f"sweep-{n_rows}-{k}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(name="sweep", seed=seed, n_rows=n_rows, alphas=(ALPHA,), reps=1,
                             proposals=("C", "B", "E", "A"), profiles=profiles, noise=noise))
    config = load_config(path)
    with tracer.Tracer() as tr:
        tr.instrument()
        t0 = time.perf_counter()
        experiment.run_cell(config, ALPHA, 0)  # the wrapped run_cell is the root span
        wall_ms = (time.perf_counter() - t0) * 1000.0
    layers = tracer.layer_self_ms(tr.spans)
    m = tracer.layer_metrics(tr.spans)
    return {
        "n_rows": n_rows,
        "k": k,
        "cell_ms": wall_ms,
        "share": {name: ms / wall_ms for name, ms in layers.items() if ms > 0},
        "obj_evals": m["weights.obj_evals"][0],
        "obj_eval_us": m["weights.obj_eval_us"][0],
        "evals_per_start": tracer.evals_per_start(tr.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    problem = run.checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    points = []
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        for n_rows in ROWS:
            for k in NODES:
                p = sweep_point(n_rows, k, args.seed, work)
                points.append(p)
                top = sorted(p["share"].items(), key=lambda kv: -kv[1])[:3]
                print(f"n_rows={n_rows:6d} K={k:2d} cell {p['cell_ms']:9.1f} ms"
                      f"  evals/start {p['evals_per_start']}"
                      f"  {p['obj_eval_us']:7.1f} us/eval  top: "
                      + ", ".join(f"{name} {share:.1%}" for name, share in top))
    print(json.dumps({"seed": args.seed, "env": run.environment(), "points": points}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
