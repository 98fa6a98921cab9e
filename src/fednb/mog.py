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

import math

import numpy as np

from .data import Dataset, row_blocks
from .errors import EnsembleError, MetricError, NormalizationError, ShapeError
from .local_model import NEG_INF, joint_log_scores_batch

SENTINEL_ANLL_PENALTY = 50.0  # nats charged when the true class exists in no node


def check_weights(w, k: int) -> np.ndarray:
    """w as a float64 vector; EnsembleError unless it holds k finite,
    non-negative weights that sum to 1."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (k,):
        raise EnsembleError(f"weight vector has shape {w.shape}, expected ({k},)")
    if not np.isfinite(w).all():  # NaN fails neither test below
        raise EnsembleError(f"non-finite weight in {w}")
    if (w < 0).any():
        raise EnsembleError("negative weight")
    if abs(w.sum() - 1.0) > 1e-9:
        raise EnsembleError(f"weights sum to {w.sum()}, not 1")
    return w


def stack_scores(models, data: Dataset) -> np.ndarray:
    """C-contiguous class-major (K, n_classes, n_rows) joint log-score tensor,
    one slice per node, so node and class reductions run over leading axes.
    Each model scores one row block of data at a time (data.rows, views of
    its arrays), and the scores are copied into the tensor as they are
    computed, so one block's scoring scratch is alive beside it at a time."""
    stacked = np.empty((len(models), data.schema.n_classes, data.n_rows))
    for lo, hi in row_blocks(data.n_rows):
        block = data.rows(lo, hi)
        for k, m in enumerate(models):
            stacked[k, :, lo:hi] = joint_log_scores_batch(m, block).T
    return stacked


def mix_scores(weights, stacked: np.ndarray, out=None, *, covered: bool = False) -> np.ndarray:
    """logsumexp over nodes of (log w_k + score_k), sentinel-safe: (K, C, n) -> (C, n).

    out: a C-contiguous (K, C, n) float64 scratch buffer to shift and
    exponentiate in, overwritten by the call; without it each call allocates
    one. covered: the caller's promise that every weight is finite and > 0 and
    every (class, row) has a finite score in some node (StackedScores.covered).
    The node maximum is then finite everywhere, so the errstate blocks and the
    finiteness test are skipped; the floats are the same either way.

    Otherwise a non-finite node maximum is shifted by 0.0 instead: a
    (class, row) that no node scores mixes to log(0) = -inf, and a NaN or
    +inf score stays NaN or +inf.
    """
    if covered:
        logw = np.log(weights)
    else:
        with np.errstate(divide="ignore"):
            logw = np.log(np.asarray(weights, dtype=np.float64))
    a = np.add(logw[:, None, None], stacked, out=out)
    m = np.maximum.reduce(a, axis=0)
    if covered:
        a -= m
        return m + np.log(np.add.reduce(np.exp(a, out=a), axis=0))
    m[~np.isfinite(m)] = 0.0
    a -= m
    with np.errstate(divide="ignore"):
        return m + np.log(np.add.reduce(np.exp(a, out=a), axis=0))


def mix_blocks(weights, stacked: np.ndarray) -> np.ndarray:
    """mix_scores(weights, stacked), computed one row block at a time into
    one (C, n) result, so its scratch is one block's instead of a (K, C, n)
    buffer; the floats are the same."""
    mixed = np.empty(stacked.shape[1:])
    for lo, hi in row_blocks(stacked.shape[2]):
        mixed[:, lo:hi] = mix_scores(weights, stacked[:, :, lo:hi])
    return mixed


def mog_log_scores_batch(models, weights, data: Dataset) -> np.ndarray:
    """(n_rows, n_classes) scores of the mixture of models under weights (checked
    by check_weights first), a transposed view of the class-major result."""
    weights = check_weights(weights, len(models))
    return mix_blocks(weights, stack_scores(models, data)).T


def _logsumexp_classes(a: np.ndarray, checked: bool = True, first_row: int = 0) -> np.ndarray:
    """logsumexp over the leading class axis of a (C, n) array, rows
    first_row.. of some larger array. NormalizationError names the first row
    whose class maximum is not finite (every score -inf, or one NaN or +inf);
    checked=False skips that test."""
    m = np.maximum.reduce(a, axis=0)
    if checked and not np.isfinite(m).all():
        row = int(np.argmin(np.isfinite(m)))
        raise NormalizationError(f"row {first_row + row} has no finite class maximum: scores {a[:, row].tolist()}")
    shifted = a - m
    return m + np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=0))


def anll_from_mixed(mixed: np.ndarray, labels: np.ndarray) -> float:
    """ANLL of class-major (C, n) mixture scores: log-softmax over classes,
    evaluated at the true labels only, with a -inf entry clamped at the
    50-nat penalty. The per-row terms are computed one row block at a time
    into one (n,) vector, whose mean is one pairwise sum over all n rows."""
    if len(labels) == 0:
        raise MetricError("ANLL on empty data")
    ll = np.empty(len(labels))
    for lo, hi in row_blocks(len(labels)):
        block = mixed[:, lo:hi]
        terms = block[labels[lo:hi], np.arange(hi - lo)] - _logsumexp_classes(block, first_row=lo)
        terms[~np.isfinite(terms)] = -SENTINEL_ANLL_PENALTY
        ll[lo:hi] = terms
    return float(-ll.mean())


class StackedScores:
    """A class-major (K, C, n) score tensor (see stack_scores) with the true
    labels of its n rows, and the constants of the ANLL kernel that depend
    only on them, built once instead of on every weight vector:

    - flat_index: labels * n + arange(n), the true-label entries of a (C, n)
      array, read with ``take``;
    - covered: every (class, row) has a finite score in at least one node and
      no score is NaN or +inf, so the mixture under positive finite weights
      has no sentinel entry;
    - scratch: the (K, C, n) buffer that mix_scores overwrites on each call,
      so one StackedScores must not serve two calls at once.

    It also keeps anll_from_stacked's last weight vector (as bytes) and its
    ANLL, so the tensor and labels must not change after construction.
    """

    def __init__(self, stacked: np.ndarray, labels: np.ndarray):
        labels = np.asarray(labels)
        n = len(labels)
        if n == 0:
            raise MetricError("ANLL on empty data")
        stacked = np.ascontiguousarray(stacked, dtype=np.float64)
        if stacked.ndim != 3 or stacked.shape[2] != n:
            raise ShapeError(f"score tensor of shape {stacked.shape} for {n} labels")
        finite = np.isfinite(stacked)
        self.stacked = stacked
        self.labels = labels
        self.flat_index = labels.astype(np.intp) * n + np.arange(n)
        self.covered = bool(finite.any(axis=0).all() and (finite | (stacked == NEG_INF)).all())
        self.scratch = np.empty_like(stacked)
        self._last_weights: bytes | None = None
        self._last_anll = 0.0


def anll_from_stacked(weights, scores: StackedScores) -> float:
    """ANLL of the mixture of scores.stacked under weights; the optimizer's
    validation ANLL, called once per objective evaluation.

    When the weights are byte-equal to those of the previous call on the same
    scores, the call returns that call's float without mixing again (a
    Nelder-Mead start often evaluates a point whose floored weights equal
    the last ones). Only the last call is kept; -0.0 and 0.0 differ, and a
    call that raises keeps nothing.

    When scores.covered holds and every weight is finite and > 0, the call
    mixes into scores.scratch, takes the log-softmax over classes, gathers the
    true-label entries with scores.flat_index and returns add.reduce(ll) / n
    (what ll.mean() computes). The steps it skips (errstate, finiteness
    tests, the 50-nat clamp) are identities under that condition, so the
    float equals anll_from_mixed(mix_scores(weights, stacked), labels).
    Otherwise, e.g. for a class absent from every node or a zero weight, it
    takes that path itself.
    """
    w = np.asarray(weights, dtype=np.float64)
    key = w.tobytes()
    if key == scores._last_weights:
        return scores._last_anll
    if scores.covered and all(0.0 < x < math.inf for x in w.tolist()):
        mixed = mix_scores(w, scores.stacked, scores.scratch, covered=True)
        ll = mixed.take(scores.flat_index) - _logsumexp_classes(mixed, checked=False)
        value = float(-(np.add.reduce(ll) / len(ll)))
    else:
        value = anll_from_mixed(mix_scores(w, scores.stacked, scores.scratch), scores.labels)
    scores._last_weights, scores._last_anll = key, value
    return value


def anll(models, weights, data: Dataset) -> float:
    """ANLL of the mixture of models under weights (checked by check_weights
    first) on data: the mean negative log-softmax score of the true labels,
    always finite."""
    weights = check_weights(weights, len(models))
    return anll_from_stacked(weights, StackedScores(stack_scores(models, data), data.labels))
