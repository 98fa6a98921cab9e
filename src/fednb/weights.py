"""Node weight strategies: learned (Nelder-Mead + coherence prior) and baselines.

The learned strategy minimizes

    J(w) = ANLL_val(w) + lambda * ||w - prior||^2

over the floor-constrained simplex. Optimization runs in an unconstrained
space of K-1 reals mapped through softmax and the weight floor, so the
simplex search never sees an infeasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import OptimizerError
from .mog import StackedScores, anll_from_stacked, stack_scores
from .partition import entropy2


# learn_weights_icc's start points: prior, uniform, two Dirichlet draws, their midpoint
N_START_POINTS = 5


@dataclass(frozen=True)
class OptimizerConfig:
    lam: float = 0.10
    floor_delta: float = 0.05
    max_iters: int = 500
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not 0.0 <= self.floor_delta < 1.0:
            raise ValueError("floor_delta outside [0, 1)")
        if self.max_iters < 1:
            raise ValueError(f"max_iters {self.max_iters} must be >= 1")
        if not 1 <= self.n_starts <= N_START_POINTS:
            raise ValueError(f"n_starts {self.n_starts} outside [1, {N_START_POINTS}]")


def to_floored_simplex(theta: np.ndarray, k: int, delta: float) -> np.ndarray:
    """w = delta + (1 - K*delta) * softmax([theta, 0]); every entry >= delta.

    theta is a float64 array of K-1 coordinates and K*delta < 1, as
    learn_weights_icc ensures; this is the map of every objective evaluation.
    exp and the (pairwise) sum stay in numpy; the shift, the division, the
    scale and the floor are the same IEEE operations on Python floats.
    """
    t = theta.tolist()
    top = max(0.0, *t)
    z = [x - top for x in t]
    z.append(-top)
    p = np.exp(z)
    total = float(np.add.reduce(p))
    scale = 1.0 - k * delta
    return np.array([delta + scale * (x / total) for x in p.tolist()])


def from_simplex(w, delta: float) -> np.ndarray:
    """Gauge-fixed inverse of to_floored_simplex (last coordinate pinned to 0)."""
    w = np.asarray(w, dtype=np.float64)
    k = len(w)
    w = np.maximum(w, delta + 1e-6)
    p = (w - delta) / (1.0 - k * delta)
    logp = np.log(p)
    return logp[:-1] - logp[-1]


def objective(w, scores: StackedScores, prior, lam: float) -> float:
    """Composite validation objective J(w): validation ANLL plus prior penalty.
    scores holds the cell's validation tensor, labels and per-cell constants
    (mog.StackedScores); the ANLL takes anll_from_stacked's cheap path when
    scores.covered holds and every weight is > 0, with the same float."""
    w = np.asarray(w, dtype=np.float64)
    return anll_from_stacked(w, scores) + lam * float(np.add.reduce((w - prior) ** 2))


def nelder_mead(f, start, max_iters: int):
    """Simplex minimization: reflect 1, expand 2, contract 0.5, shrink 0.5.

    Initial simplex perturbs each coordinate by 5% (0.00025 absolute for
    zero coordinates). Stops at max_iters or when the vertex function
    spread falls below 1e-10 with the vertices within 1e-8. Returns (best x,
    best f, n_evals, iterations, converged); converged is False when
    max_iters ran out. Raises OptimizerError, naming the point, at the first
    value of f that is not finite.

    The vertices and their values are Python floats, and each step is the
    same IEEE operation in the same order as on float64 arrays: the centroid
    is a left-to-right sum over the vertices divided by n. f still receives
    a float64 array. Before each step the vertices are ranked as
    np.argsort(fvals, kind="stable") ranks them, with a replaced vertex in
    the last slot, so it goes after the vertices of equal value.
    """

    def value(x: list) -> float:
        fx = float(f(np.array(x)))
        if not math.isfinite(fx):
            raise OptimizerError(f"objective not finite at {x}: {fx}")
        return fx

    simplex = [np.asarray(start, dtype=np.float64).tolist()]
    n = len(simplex[0])
    for i in range(n):
        x = list(simplex[0])
        x[i] = x[i] * 1.05 if x[i] != 0.0 else 0.00025
        simplex.append(x)
    fvals = [value(x) for x in simplex]
    evals = n + 1

    iterations, converged = 0, False
    while True:
        order = sorted(range(n + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if iterations >= max_iters:
            break
        best = simplex[0]
        # function spread alone can hit zero on a symmetric stall, so also
        # require the simplex itself to have collapsed (tested only then)
        if fvals[-1] - fvals[0] < 1e-10 and all(
            abs(a - b) < 1e-8 for x in simplex[1:] for a, b in zip(x, best)
        ):
            converged = True
            break
        iterations += 1
        centroid = best
        for x in simplex[1:-1]:
            centroid = [a + b for a, b in zip(centroid, x)]
        centroid = [a / n for a in centroid]
        worst = simplex[-1]

        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = value(xr)
        evals += 1
        if fr < fvals[0]:
            xe = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = value(xe)
            evals += 1
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = [c + 0.5 * (r - c) for c, r in zip(centroid, xr)]
            else:
                xc = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fc = value(xc)
            evals += 1
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = [b + 0.5 * (a - b) for a, b in zip(simplex[i], best)]
                    fvals[i] = value(simplex[i])
                evals += n

    return np.array(simplex[0]), fvals[0], evals, iterations, converged


@dataclass
class StartResult:
    initial_theta: np.ndarray
    final_theta: np.ndarray
    final_objective: float
    evaluations: int
    iterations: int
    converged: bool  # False: stopped at max_iters


@dataclass
class OptimizationTrace:
    starts: list[StartResult] = field(default_factory=list)
    chosen: int = -1


def learn_weights_icc(models, val: Dataset, prior, config: OptimizerConfig):
    """Multi-start Nelder-Mead over the floored simplex; returns (weights, trace).

    models: the K local models whose mixture is weighted; val: the validation
    split the ANLL is taken on; prior: the normalized coherence vector
    (governance.coherence_prior), both a start point and the target of the
    penalty. Starts: the prior, the uniform vector, two Dirichlet(1) draws
    and their elementwise midpoint — all mapped to unconstrained space. The
    weights returned are those of trace.chosen, the first start with the
    lowest final objective.

    The per-cell constants are built once, in one mog.StackedScores that
    every evaluation of every start reuses: the label indices of each row
    block, the flag saying whether every (class, row) has a finite score in
    some node, and one row block's scratch. With that flag set and a positive
    floor, every evaluation takes anll_from_stacked's cheap path.
    """
    k = len(models)
    if k < 2:
        raise ValueError("weight learning needs K >= 2 nodes")
    if k * config.floor_delta >= 1.0:
        raise ValueError("K * floor_delta must be < 1")

    scores = StackedScores(stack_scores(models, val), val.labels)
    target = np.asarray(prior, dtype=np.float64)
    delta = config.floor_delta

    def f(theta):
        return objective(to_floored_simplex(theta, k, delta), scores, target, config.lam)

    rng = np.random.default_rng(config.seed)
    d1 = rng.dirichlet(np.ones(k))
    d2 = rng.dirichlet(np.ones(k))
    start_points = [
        target,
        np.full(k, 1.0 / k),
        d1,
        d2,
        (d1 + d2) / 2.0,
    ][: config.n_starts]

    trace = OptimizationTrace()
    for w0 in start_points:
        theta0 = from_simplex(w0, delta)
        theta, fv, ev, iters, converged = nelder_mead(f, theta0, max_iters=config.max_iters)
        trace.starts.append(StartResult(theta0, theta, fv, ev, iters, converged))
    trace.chosen = int(np.argmin([s.final_objective for s in trace.starts]))
    return to_floored_simplex(trace.starts[trace.chosen].final_theta, k, delta), trace


def weights_fedavg(node_sizes) -> np.ndarray:
    """Size-proportional weighting (baseline B)."""
    sizes = np.asarray(node_sizes, dtype=np.float64)
    if (sizes <= 0).any():
        raise ValueError("node sizes must be positive")
    return sizes / sizes.sum()


def weights_entropy(per_node_class_counts) -> np.ndarray:
    """Inverse label-entropy weighting (baseline E), base-2 entropy; 1e-6 is
    added to each entropy so that a single-class node gets a finite weight."""
    counts = np.asarray(per_node_class_counts, dtype=np.float64)
    totals = counts.sum(axis=1)
    if (totals <= 0).any():
        raise ValueError("empty node")
    h = np.array([entropy2(d) for d in counts / totals[:, None]])
    w = 1.0 / (h + 1e-6)
    return w / w.sum()
