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
    """Ascending row indices of each class present in labels, by ascending class.

    Callers that partition one label array many times build this once and
    pass it to ``dirichlet_counts``.
    """
    labels = np.asarray(labels)  # any integer dtype, not copied
    try:  # the classes present, ascending; a tenth of np.unique's cost on 200k labels
        classes = np.flatnonzero(np.bincount(labels))
    except (TypeError, ValueError):  # floats, uint64; negative values
        raise PartitionError("labels must be non-negative integers") from None
    return {int(cls): np.flatnonzero(labels == cls) for cls in classes}


def dirichlet_partition(labels, k: int, alpha: float, seed: int) -> Partition:
    """Per-class Dirichlet(alpha) proportions, integerized by largest remainder.

    Retries with fresh sub-seeds (up to 100) if any node comes out empty.
    """
    counts, shuffled = _deal(class_rows(labels), k, (alpha,), seed, keep_rows=True)[0]
    if k == 1:
        return Partition([np.arange(len(labels), dtype=np.int64)], counts)
    node_lists: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls, idx in shuffled.items():
        start = 0
        for node in range(k):
            node_lists[node].append(idx[start : start + counts[node, cls]])
            start += counts[node, cls]
    node_indices = [
        np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
        for chunks in node_lists
    ]
    return Partition(node_indices, counts)


def dirichlet_counts(by_class, k: int, alphas, seed: int) -> list[np.ndarray]:
    """``[dirichlet_partition(labels, k, a, seed).counts for a in alphas]``
    where by_class is ``class_rows(labels)``, without building the node index
    arrays."""
    return [counts for counts, _ in _deal(by_class, k, alphas, seed, keep_rows=False)]


def _deal(by_class, k, alphas, seed, keep_rows):
    """Per alpha, the counts and shuffled rows of each class from the first
    attempt that leaves no node empty.

    Each class's shuffle sets the Dirichlet draw after it, and depends only
    on the class's row count, so without ``keep_rows`` the shuffles run on
    one scratch buffer and no rows are returned. The first class's shuffle
    is the same for every alpha: it runs once per attempt, and the generator
    state after it is restored for each alpha. A later class's shuffle
    starts where an alpha's draws left the generator, and numpy shuffles by
    masked rejection, whose number of draws depends on the values drawn, so
    it runs once per alpha.
    """
    if k < 1:
        raise PartitionError("k must be >= 1")
    for alpha in alphas:
        if not 0 < alpha < math.inf:
            raise PartitionError(f"alpha must be finite and positive, got {alpha}")
    width = max(by_class, default=-1) + 1
    if k == 1:
        return [(np.array([[len(by_class.get(cls, ())) for cls in range(width)]], dtype=np.int64), None)
                for _ in alphas]
    scratch = None if keep_rows else np.empty(max(map(len, by_class.values()), default=0), dtype=np.int64)
    found = [None] * len(alphas)
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        first = {cls: _shuffled(rng, by_class[cls], scratch) for cls in list(by_class)[:1]}
        after_first = rng.bit_generator.state
        for i, alpha in enumerate(alphas):
            if found[i] is not None:
                continue
            rng.bit_generator.state = after_first
            counts = np.zeros((k, width), dtype=np.int64)
            shuffled = dict(first)
            for cls, rows in by_class.items():
                if cls not in shuffled:
                    shuffled[cls] = _shuffled(rng, rows, scratch)
                counts[:, cls] = largest_remainder(len(rows), rng.dirichlet(np.full(k, alpha)))
            if counts.any(axis=1).all():
                found[i] = counts, shuffled if keep_rows else None
        if all(f is not None for f in found):
            return found
    alpha = next(a for a, f in zip(alphas, found) if f is None)
    raise PartitionError(f"empty node persisted across 100 retries (alpha={alpha}, k={k})")


def _shuffled(rng, rows, scratch):
    """A shuffled copy of rows (callers reuse by_class), or with a scratch
    buffer only the draws of that shuffle."""
    idx = rows.copy() if scratch is None else scratch[: len(rows)]
    rng.shuffle(idx)
    return idx


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
