"""Mixture-of-Gaussians server: weighted combination of local joint scores.

The server never averages model parameters. Per class, it evaluates

    logsumexp_k( log w_k + joint_log_scores_k(row)[c] )

with max-subtraction for stability. Nodes lacking a class contribute the
-inf sentinel and thus drop out of the sum without weight renormalization;
a class absent from every node stays at the sentinel. ANLL clamps sentinel
contributions at a fixed 50-nat penalty so the optimizer objective remains
finite under extreme partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EnsembleError, MetricError, NormalizationError
from .local_model import NEG_INF, HybridModel, joint_log_scores_batch

SENTINEL_ANLL_PENALTY = 50.0  # nats charged when the true class exists in no node


def check_weights(w, k: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (k,):
        raise EnsembleError(f"weight vector has shape {w.shape}, expected ({k},)")
    if (w < 0).any():
        raise EnsembleError("negative weight")
    if abs(w.sum() - 1.0) > 1e-9:
        raise EnsembleError(f"weights sum to {w.sum()}, not 1")
    return w


@dataclass
class MoGEnsemble:
    models: list[HybridModel]
    weights: np.ndarray

    def __post_init__(self):
        if not self.models:
            raise EnsembleError("ensemble needs at least one model")
        first = self.models[0]
        for m in self.models[1:]:
            if m.n_classes != first.n_classes or m.n_cats != first.n_cats:
                raise EnsembleError("models disagree on schema or class universe")
        self.weights = check_weights(self.weights, len(self.models))

    @property
    def k(self) -> int:
        return len(self.models)


def stack_scores(models, data: Dataset) -> np.ndarray:
    """C-contiguous class-major (K, n_classes, n_rows) joint log-score tensor,
    one slice per node, so node and class reductions run over leading axes."""
    scores = [joint_log_scores_batch(m, data).T for m in models]
    # np.stack alone would keep the column-major strides of the .T views
    return np.stack(scores, out=np.empty((len(scores),) + scores[0].shape))


def mix_scores(weights: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """logsumexp over nodes of (log w_k + score_k), sentinel-safe: (K, C, n) -> (C, n)."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(weights, dtype=np.float64))
    # shifted and exponentiated in place: each call allocates one (K, C, n) buffer
    a = logw[:, None, None] + stacked
    m = a.max(axis=0)
    finite = np.isfinite(m)
    if finite.all():  # no sentinel-only (class, row): skip the masking
        a -= m
        return m + np.log(np.exp(a, out=a).sum(axis=0))
    out = np.full(m.shape, NEG_INF)
    if finite.any():
        a -= np.where(finite, m, 0.0)
        a[:, ~finite] = NEG_INF
        out[finite] = m[finite] + np.log(np.exp(a, out=a).sum(axis=0)[finite])
    return out


def mog_log_scores_batch(ensemble: MoGEnsemble, data: Dataset) -> np.ndarray:
    """(n_rows, n_classes) mixture scores, a transposed view of the class-major result."""
    return mix_scores(ensemble.weights, stack_scores(ensemble.models, data)).T


def _logsumexp_classes(a: np.ndarray) -> np.ndarray:
    """logsumexp over the leading class axis of a (C, n) array."""
    m = a.max(axis=0)
    if not np.isfinite(m).all():
        raise NormalizationError("a row has no finite class score to normalize")
    return m + np.log(np.exp(a - m).sum(axis=0))


def anll_from_mixed(mixed: np.ndarray, labels: np.ndarray) -> float:
    """ANLL of class-major (C, n) mixture scores: log-softmax over classes,
    evaluated at the true labels only."""
    if len(labels) == 0:
        raise MetricError("ANLL on empty data")
    ll = mixed[labels, np.arange(len(labels))] - _logsumexp_classes(mixed)
    ll = np.where(np.isfinite(ll), ll, -SENTINEL_ANLL_PENALTY)
    return float(-ll.mean())


def anll_from_stacked(weights, stacked: np.ndarray, labels: np.ndarray) -> float:
    """ANLL given a precomputed class-major (K, C, n) score tensor (used by the optimizer)."""
    return anll_from_mixed(mix_scores(np.asarray(weights), stacked), labels)


def anll(ensemble: MoGEnsemble, data: Dataset) -> float:
    """Mean negative log-softmax score of the true labels; always finite."""
    return anll_from_stacked(ensemble.weights, stack_scores(ensemble.models, data), data.labels)
