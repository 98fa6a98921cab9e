"""Classification metrics: macro F1 and McNemar's paired test (Yates)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


def f1_macro(y_true, y_pred, n_classes: int) -> float:
    """Unweighted mean of per-class F1; classes with no support and no
    predictions contribute 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ShapeError("y_true and y_pred lengths differ")
    total = 0.0
    for c in range(n_classes):
        pred_c, true_c = y_pred == c, y_true == c
        tp = int((pred_c & true_c).sum())
        fp = int(pred_c.sum()) - tp
        fn = int(true_c.sum()) - tp
        if 2 * tp + fp + fn == 0:
            f1 = 0.0
        else:
            f1 = 2 * tp / (2 * tp + fp + fn)
        total += f1
    return total / n_classes


@dataclass(frozen=True)
class McNemarResult:
    b: int  # A correct, B wrong
    c: int  # A wrong, B correct
    chi2: float
    p_value: float


def mcnemar_yates(preds_a, preds_b, y_true) -> McNemarResult:
    """McNemar's test on discordant pairs with Yates' continuity correction.

    The correction is clamped at zero so the corrected statistic never
    exceeds the uncorrected one; b + c = 0 yields p = 1. p is the upper
    tail of chi-square with 1 df, erfc(sqrt(chi2 / 2)).
    """
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    y_true = np.asarray(y_true)
    if not (preds_a.shape == preds_b.shape == y_true.shape):
        raise ShapeError("prediction/label lengths differ")
    a_ok = preds_a == y_true
    b_ok = preds_b == y_true
    b = int((a_ok & ~b_ok).sum())
    c = int((~a_ok & b_ok).sum())
    if b + c == 0:
        chi2, p = 0.0, 1.0
    else:
        chi2 = max(0.0, abs(b - c) - 1.0) ** 2 / (b + c)
        p = math.erfc(math.sqrt(chi2 / 2.0))
    return McNemarResult(b=b, c=c, chi2=chi2, p_value=p)
