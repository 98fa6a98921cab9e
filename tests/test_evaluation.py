import numpy as np
import pytest

from fednb.errors import ShapeError
from fednb.evaluation import f1_macro, mcnemar_yates


def test_f1_perfect():
    assert f1_macro([0, 1, 2, 0], [0, 1, 2, 0], 3) == 1.0


def test_f1_hand_example():
    # class0: P=1, R=1/2 -> 2/3; class1: P=2/3, R=1 -> 0.8
    assert f1_macro([0, 0, 1, 1], [0, 1, 1, 1], 2) == pytest.approx(0.73333, abs=1e-4)


def test_f1_all_wrong_binary():
    assert f1_macro([0, 0, 1, 1], [1, 1, 0, 0], 2) == 0.0


def test_f1_absent_class_counts_zero():
    # class 2 never appears in truth or prediction -> contributes 0
    assert f1_macro([0, 1], [0, 1], 3) == pytest.approx(2 / 3)


def test_f1_joint_permutation_invariant():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, 50)
    p = rng.integers(0, 3, 50)
    base = f1_macro(y, p, 3)
    for _ in range(10):
        perm = rng.permutation(50)
        assert f1_macro(y[perm], p[perm], 3) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_f1_equals_the_per_row_count_formula(dtype):
    rng = np.random.default_rng(3)
    y = rng.choice((0, 1, 3, 4), 500)  # class 2 never true
    p = rng.integers(0, 5, 500)
    want = 0.0
    for c in range(6):  # class 5 neither true nor predicted
        tp = sum(1 for a, b in zip(y, p) if a == c and b == c)
        fp = sum(1 for a, b in zip(y, p) if a != c and b == c)
        fn = sum(1 for a, b in zip(y, p) if a == c and b != c)
        want += 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    assert f1_macro(y.astype(dtype), p, 6) == want / 6


def test_f1_length_mismatch():
    with pytest.raises(ShapeError):
        f1_macro([0, 1], [0], 2)


def _preds_with_discordance(b, c):
    """y_true all zeros; construct A/B prediction vectors with b and c counts."""
    n = b + c + 5
    y = np.zeros(n, dtype=int)
    a = np.zeros(n, dtype=int)
    bb = np.zeros(n, dtype=int)
    a[:c] = 1  # A wrong, B correct
    bb[c : c + b] = 1  # A correct, B wrong
    return a, bb, y


def test_mcnemar_hand_example():
    a, b, y = _preds_with_discordance(10, 2)
    res = mcnemar_yates(a, b, y)
    assert (res.b, res.c) == (10, 2)
    assert res.chi2 == pytest.approx(49 / 12, abs=1e-9)
    assert res.p_value == pytest.approx(0.0433, abs=1e-3)
    assert res.p_value < 0.05


def test_mcnemar_equal_discordance():
    a, b, y = _preds_with_discordance(5, 5)
    res = mcnemar_yates(a, b, y)
    assert res.chi2 == 0.0
    assert res.p_value == 1.0
    assert not res.p_value < 0.05


def test_mcnemar_identical_predictions():
    y = np.array([0, 1, 0, 1])
    preds = np.array([0, 1, 1, 1])
    res = mcnemar_yates(preds, preds, y)
    assert (res.b, res.c) == (0, 0)
    assert res.p_value == 1.0


def test_mcnemar_yates_clamped_at_small_gap():
    a, b, y = _preds_with_discordance(3, 2)
    res = mcnemar_yates(a, b, y)
    assert res.chi2 == 0.0  # |b - c| = 1 -> corrected statistic clamps to 0


def test_mcnemar_antisymmetric():
    a, b, y = _preds_with_discordance(8, 3)
    fwd = mcnemar_yates(a, b, y)
    rev = mcnemar_yates(b, a, y)
    assert (fwd.b, fwd.c) == (rev.c, rev.b)
    assert fwd.chi2 == rev.chi2
    assert fwd.p_value == rev.p_value


def test_mcnemar_length_mismatch():
    with pytest.raises(ShapeError):
        mcnemar_yates([0, 1], [0], [0, 1])


# (b, c, Yates statistic, its chi-square 1-df upper tail rounded to 4 decimals)
P_REFERENCE = [(5, 5, 0.0, 1.0), (5, 0, 16 / 5, 0.0736), (10, 2, 49 / 12, 0.0433),
               (8, 0, 49 / 8, 0.0133), (15, 3, 121 / 18, 0.0095), (9, 0, 64 / 9, 0.0077)]


def _mcnemar(b, c):
    return mcnemar_yates(*_preds_with_discordance(b, c))


def test_chi2_sf_reference_values():
    # mcnemar_yates's p-value is the chi-square 1-df upper tail of its statistic
    for b, c, chi2, p in P_REFERENCE:
        res = _mcnemar(b, c)
        assert res.chi2 == pytest.approx(chi2, abs=1e-12)
        assert res.p_value == (1.0 if chi2 == 0.0 else pytest.approx(p, abs=5e-4))
    # 3.841 and 6.635 are the 5% and 1% critical values of chi-square with 1 df
    p = {chi2: _mcnemar(b, c).p_value for b, c, chi2, _ in P_REFERENCE}
    assert p[16 / 5] > 0.05 > p[49 / 12]
    assert p[49 / 8] > 0.01 > p[121 / 18]


def test_chi2_sf_strictly_decreasing():
    results = [_mcnemar(b, 0) for b in range(2, 80)]
    assert all(r.chi2 < s.chi2 and r.p_value > s.p_value for r, s in zip(results, results[1:]))
    assert all(0 < r.p_value <= 1 for r in results)


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for b, c in ((3, 2), (4, 2), (5, 0), (10, 2), (40, 25), (60, 1), (400, 0), (3000, 0)):
        res = _mcnemar(b, c)
        assert res.p_value == pytest.approx(stats.chi2.sf(res.chi2, 1), rel=1e-12, abs=1e-300)
