"""Mixture-of-Gaussians server: weighted combination of local joint scores.

The server never averages model parameters. Per class, it evaluates

    logsumexp_k( log w_k + joint_log_scores_k(row)[c] )

with max-subtraction for stability. Nodes lacking a class contribute the
-inf sentinel and thus drop out of the sum without weight renormalization;
a class absent from every node stays at the sentinel. ANLL clamps sentinel
contributions at a fixed 50-nat penalty so the optimizer objective remains
finite under extreme partitions.

One kernel, anll_from_stacked, mixes a stacked score tensor and takes its
ANLL (and, when asked, its predictions) one data.row_blocks block at a time:
the optimizer's validation objective and every proposal's test scores.
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


def mog_log_scores_batch(models, weights, data: Dataset) -> np.ndarray:
    """(n_rows, n_classes) scores of the mixture of models under weights (checked
    by check_weights first), a transposed view of the class-major result."""
    weights = check_weights(weights, len(models))
    return mix_scores(weights, stack_scores(models, data)).T


def _logsumexp_classes(a: np.ndarray, checked: bool, first_row: int) -> np.ndarray:
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


class StackedScores:
    """A class-major (K, C, n) score tensor (see stack_scores) with the true
    labels of its n rows, and the constants of the ANLL kernel that depend
    only on them, built once instead of on every weight vector:

    - covered: every (class, row) has a finite score in at least one node and
      no score is NaN or +inf, so the mixture under positive finite weights
      has no sentinel entry; tested block by block (see blocks);
    - scratch: the widest row block's (K, C, rows) floats, which mix_scores
      overwrites, so one StackedScores must not serve two calls at once;
    - blocks: for each (lo, hi) of data.row_blocks(n), (lo, hi, the block's
      view of the tensor, a C-contiguous view of scratch of its shape, the
      block's true-label entries of a (C, hi - lo) array, read with take).

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
        self.stacked = stacked
        self.labels = labels
        k, c = stacked.shape[:2]
        bounds = row_blocks(n)
        self.scratch = np.empty(k * c * max(hi - lo for lo, hi in bounds))
        self.blocks = [
            (lo, hi, stacked[:, :, lo:hi], self.scratch[: k * c * (hi - lo)].reshape(k, c, hi - lo),
             labels[lo:hi].astype(np.intp) * (hi - lo) + np.arange(hi - lo))
            for lo, hi in bounds
        ]
        self.covered = all(_covered(block) for _, _, block, _, _ in self.blocks)
        self._last_weights: bytes | None = None
        self._last_anll = 0.0


def _covered(block: np.ndarray) -> bool:
    """StackedScores.covered of a (K, C, rows) block of a score tensor: every
    (class, row) is finite in some node, and every score is finite or -inf."""
    finite = np.isfinite(block)
    return bool(finite.any(axis=0).all() and (finite | (block == NEG_INF)).all())


def anll_from_stacked(weights, scores: StackedScores, preds: np.ndarray | None = None) -> float:
    """ANLL of the mixture of scores.stacked under weights, the mean negative
    log-softmax score of the true labels: the optimizer's validation ANLL
    (once per objective evaluation) and each proposal's test ANLL. preds, an
    (n,) intp array, receives each row's argmax class.

    Block by block, the call mixes into the block's view of scores.scratch
    and writes the true-label terms into one (n,) vector ll; it returns
    add.reduce(ll) / n (what ll.mean() computes), one sum over all n rows.
    When scores.covered holds and every weight is finite and > 0, the
    errstate blocks, finiteness tests and the 50-nat clamp are identities and
    are skipped. Otherwise, e.g. for a class absent from every node or a zero
    weight, they run, and NormalizationError names the first row (of all n)
    whose class maximum is not finite.

    Without preds, weights byte-equal to those of the previous call on the
    same scores return that call's float without mixing again (a Nelder-Mead
    start often evaluates a point whose floored weights equal the last ones).
    Only the last call is kept; -0.0 and 0.0 differ, and a call that raises
    keeps nothing.
    """
    w = np.asarray(weights, dtype=np.float64)
    key = w.tobytes()
    if preds is None and key == scores._last_weights:
        return scores._last_anll
    covered = scores.covered and all(0.0 < x < math.inf for x in w.tolist())
    ll = np.empty(len(scores.labels))
    for lo, hi, block, out, index in scores.blocks:
        mixed = mix_scores(w, block, out, covered=covered)
        if preds is not None:
            mixed.argmax(axis=0, out=preds[lo:hi])
        terms = np.subtract(mixed.take(index), _logsumexp_classes(mixed, not covered, lo), out=ll[lo:hi])
        if not covered:
            terms[~np.isfinite(terms)] = -SENTINEL_ANLL_PENALTY
    value = float(-(np.add.reduce(ll) / len(ll)))
    scores._last_weights, scores._last_anll = key, value
    return value


def anll(models, weights, data: Dataset) -> float:
    """ANLL of the mixture of models under weights (checked by check_weights
    first) on data: the mean negative log-softmax score of the true labels,
    always finite."""
    weights = check_weights(weights, len(models))
    return anll_from_stacked(weights, StackedScores(stack_scores(models, data), data.labels))
