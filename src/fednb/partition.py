"""Stratified splitting, Dirichlet Non-IID partitioning, JSD heterogeneity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, PartitionError, StratificationError


def largest_remainder(total: int, proportions) -> np.ndarray:
    """Apportion `total` into integer counts proportional to `proportions`.

    Floors first, then hands remaining units to the largest fractional
    parts (ties broken by lower index, for determinism).
    """
    p = np.asarray(proportions, dtype=np.float64)
    exact = p / p.sum() * total
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        frac = exact - counts
        order = np.lexsort((np.arange(len(p)), -frac))
        counts[order[:short]] += 1
    return counts


def stratified_split(labels, fracs, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class proportional train/val/test split of the rows of labels by
    the three positive fractions (ExperimentConfig checks them),
    deterministic in seed: three int64 row-index arrays, each class's rows
    in its shuffled order, classes ascending. Callers gather the rows they
    read, when they read them.
    """
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    # an absent class would shuffle an empty array, which draws nothing
    for cls, idx in class_rows(labels).items():
        if len(idx) < 3:
            raise StratificationError(f"class {cls} has only {len(idx)} samples")
        rng.shuffle(idx)
        counts = largest_remainder(len(idx), fracs)
        start = 0
        for s in range(3):
            parts[s].append(idx[start : start + counts[s]])
            start += counts[s]
    return tuple(np.concatenate(p) if p else np.array([], dtype=np.int64) for p in parts)


@dataclass
class Partition:
    """Disjoint per-node row-index lists covering the full index set, and
    ``counts[node, cls]``: the rows of each class dealt to each node."""

    node_indices: list[np.ndarray]
    counts: np.ndarray  # (k, max label + 1) int64


def class_rows(labels) -> dict[int, np.ndarray]:
    """Ascending row indices of each class present in labels, by ascending class."""
    labels = np.asarray(labels)  # any integer dtype, not copied
    try:  # the classes present, ascending; a tenth of np.unique's cost on 200k labels
        classes = np.flatnonzero(np.bincount(labels))
    except (TypeError, ValueError):  # floats, uint64; negative values
        raise PartitionError("labels must be non-negative integers") from None
    return {int(cls): np.flatnonzero(labels == cls) for cls in classes}


def dirichlet_partition(labels, k: int, alpha: float, seed: int) -> Partition:
    """Per-class Dirichlet(alpha) proportions, integerized by largest remainder.

    Each attempt shuffles a copy of each class's rows, ascending by class, and
    draws that class's proportions right after its shuffle. Retries with fresh
    sub-seeds (up to 100) if any node comes out empty.
    """
    by_class = class_rows(labels)
    width = max(by_class, default=-1) + 1
    for rng in _attempts(k, alpha, seed):
        if k == 1:  # one node holds every row, in order; nothing is drawn
            counts = np.bincount(labels)[None].astype(np.int64)
            return Partition([np.arange(len(labels), dtype=np.int64)], counts)
        counts = np.zeros((k, width), dtype=np.int64)
        shuffled = {}
        for cls, rows in by_class.items():
            shuffled[cls] = rng.permutation(rows)
            counts[:, cls] = largest_remainder(len(rows), _proportions(rng, k, alpha))
        if counts.any(axis=1).all():
            break
    del by_class, rows  # the class rows are freed before the node arrays are built
    ends = counts.cumsum(axis=0)  # each node's rows of a class end where the next node's start
    node_indices = [
        np.concatenate([idx[ends[node, cls] - counts[node, cls] : ends[node, cls]] for cls, idx in shuffled.items()])
        for node in range(k)
    ]
    return Partition(node_indices, counts)


def dirichlet_counts(class_sizes, k: int, alpha: float, seed: int) -> np.ndarray:
    """A (k, len(class_sizes)) int64 matrix of Dirichlet(alpha) counts per node
    and class, from the class sizes (``np.bincount(labels)``) alone: one draw
    per present class and attempt, with no shuffles, so not the counts of
    ``dirichlet_partition``, whose retry rule it shares."""
    sizes = np.asarray(class_sizes, dtype=np.int64)
    for rng in _attempts(k, alpha, seed):
        counts = np.zeros((k, len(sizes)), dtype=np.int64)
        for cls in np.flatnonzero(sizes):
            counts[:, cls] = largest_remainder(int(sizes[cls]), _proportions(rng, k, alpha))
        if counts.any(axis=1).all():
            return counts


def _attempts(k: int, alpha: float, seed: int):
    """The generator of each partition attempt, from sub-seed (seed, attempt);
    raises once 100 attempts have all left a node empty."""
    if k < 1:
        raise PartitionError("k must be >= 1")
    if not 0 < alpha < math.inf:
        raise PartitionError(f"alpha must be finite and positive, got {alpha}")
    for attempt in range(100):
        yield np.random.default_rng(np.random.SeedSequence([seed, attempt]))
    raise PartitionError(f"empty node persisted across 100 retries (alpha={alpha}, k={k})")


def _proportions(rng, k: int, alpha: float) -> np.ndarray:
    """One Dirichlet(alpha) draw over k nodes; numpy draws zeros where alpha * k overflows."""
    p = rng.dirichlet(np.full(k, alpha))
    if not (np.isfinite(p).all() and p.sum() > 0):
        raise PartitionError(f"Dirichlet(alpha={alpha}) over k={k} nodes drew {p.tolist()}: alpha * k is too large")
    return p


def entropy2(p: np.ndarray) -> float:
    """Base-2 entropy of a probability vector; zero entries contribute 0."""
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def jsd_heterogeneity(per_node_class_counts) -> float:
    """Generalized Jensen-Shannon divergence of per-node class distributions.

    Equal node weights, base-2 entropy, normalized by log2(K) into [0, 1];
    a single node is not heterogeneous, so K = 1 gives 0.
    """
    counts = np.asarray(per_node_class_counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] < 1:
        raise MetricError("need a K x n_classes count matrix with K >= 1")
    if counts.shape[0] == 1:
        return 0.0
    totals = counts.sum(axis=1)
    if (totals == 0).any():
        raise MetricError("empty node: class distribution undefined")
    dists = counts / totals[:, None]
    mixture = dists.mean(axis=0)
    jsd = entropy2(mixture) - float(np.mean([entropy2(d) for d in dists]))
    jsd /= np.log2(counts.shape[0])
    return float(min(max(jsd, 0.0), 1.0))
