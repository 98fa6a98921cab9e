import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import fednb.data
from fednb.data import SynthSpec, row_blocks, synth_generate
from fednb.errors import EnsembleError, MetricError, NormalizationError, ShapeError
from fednb.local_model import NEG_INF, fit_hybrid, joint_log_scores_batch
from fednb.mog import (
    SENTINEL_ANLL_PENALTY,
    StackedScores,
    anll,
    check_weights,
    anll_from_stacked,
    mix_scores,
    mog_log_scores_batch,
    stack_scores,
)


@pytest.fixture
def dataset():
    return synth_generate(SynthSpec(400, 2, 1, 2, (0.0,)), 8)


def test_k1_mixture_equals_local_model(dataset):
    model = fit_hybrid(dataset)
    assert np.array_equal(
        mog_log_scores_batch([model], np.array([1.0]), dataset), joint_log_scores_batch(model, dataset)
    )
    assert np.array_equal(
        mog_log_scores_batch([model], np.array([1.0]), dataset).argmax(axis=1),
        joint_log_scores_batch(model, dataset).argmax(axis=1),
    )


def test_identical_components_any_weights(dataset):
    model = fit_hybrid(dataset)
    assert np.allclose(
        mog_log_scores_batch([model, model], np.array([0.7, 0.3]), dataset), joint_log_scores_batch(model, dataset), atol=1e-12
    )


def test_two_component_hand_value():
    # weights (0.7, 0.3), component scores (ln 2, ln 4) -> ln 2.6
    s = np.array([[[math.log(2.0)]], [[math.log(4.0)]]])
    out = mix_scores(np.array([0.7, 0.3]), s)
    assert out[0, 0] == pytest.approx(math.log(2.6), abs=1e-12)


def test_extreme_magnitude_stays_finite():
    s = np.full((2, 1, 1), -1e4)
    out = mix_scores(np.array([0.5, 0.5]), s)
    assert out[0, 0] == pytest.approx(-1e4, abs=1e-9)
    s = np.full((2, 1, 1), 1e4)
    out = mix_scores(np.array([0.5, 0.5]), s)
    assert np.isfinite(out).all()


def test_all_sentinel_class_stays_sentinel():
    s = np.array([[[0.0, NEG_INF]], [[0.1, NEG_INF]]])
    out = mix_scores(np.array([0.5, 0.5]), s)
    assert out[0, 1] == NEG_INF
    assert np.isfinite(out[0, 0])


def test_weight_model_count_mismatch(dataset):
    model = fit_hybrid(dataset)
    with pytest.raises(EnsembleError):
        mog_log_scores_batch([model], np.array([0.5, 0.5]), dataset)
    with pytest.raises(EnsembleError):
        anll([model], np.array([1.2]), dataset)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(3))
def test_check_weights_rejects_a_non_finite_weight_naming_the_vector(bad, at):
    w = [0.5, 0.5, 0.0]
    w[at] = bad
    # NaN is neither negative nor does its sum miss 1 by more than 1e-9
    with pytest.raises(EnsembleError, match=r"non-finite weight in \[.*(nan|inf)"):
        check_weights(w, 3)


def log_softmax(v):
    """Log-softmax of one score vector, read off the ANLL of a one-node, one-row
    tensor; a -inf entry reads as the 50-nat clamp."""
    v = np.asarray(v, dtype=np.float64)
    one = np.array([1.0])
    return np.array([
        -anll_from_stacked(one, StackedScores(v[None, :, None], np.array([c]))) for c in range(len(v))
    ])


def test_log_softmax_symmetric_pair():
    out = log_softmax(np.array([0.0, 0.0]))
    assert np.allclose(out, [-math.log(2)] * 2, atol=1e-12)
    assert np.exp(out).sum() == pytest.approx(1.0, abs=1e-12)


def test_log_softmax_single_finite_mass():
    out = log_softmax(np.array([3.7, NEG_INF]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == -SENTINEL_ANLL_PENALTY


def test_log_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    v = rng.normal(size=6)
    for c in (-100.0, 0.5, 1e4):
        assert np.allclose(log_softmax(v + c), log_softmax(v), atol=1e-9)


def test_log_softmax_all_nonfinite_error():
    with pytest.raises(NormalizationError):
        log_softmax(np.array([NEG_INF, NEG_INF]))


def test_log_softmax_exponentials_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(scale=100.0, size=5)
        assert np.exp(log_softmax(v)).sum() == pytest.approx(1.0, abs=1e-12)


def test_anll_perfect_predictor_is_zero():
    # a point-mass on the true class: normalized score 0 everywhere
    s = np.array([[[0.0, NEG_INF], [NEG_INF, 0.0]]])
    labels = np.array([0, 1])
    assert anll_from_stacked(np.array([1.0]), StackedScores(s, labels)) == pytest.approx(0.0, abs=1e-12)


def test_anll_uniform_scores_ln2():
    s = np.zeros((1, 2, 3))  # class-major (K, C, n)
    labels = np.array([0, 1, 0])
    assert anll_from_stacked(np.array([1.0]), StackedScores(s, labels)) == pytest.approx(math.log(2), abs=1e-12)


def test_anll_hand_built_three_rows():
    # per-row scores with known normalization, class-major (K, C, n)
    raw = np.array([[[math.log(0.9), math.log(0.2), math.log(0.5)],
                     [math.log(0.1), math.log(0.8), math.log(0.5)]]])
    labels = np.array([0, 1, 1])
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.5)) / 3
    assert anll_from_stacked(np.array([1.0]), StackedScores(raw, labels)) == pytest.approx(expected, abs=1e-12)


def test_anll_sentinel_clamped_to_50():
    s = np.array([[[0.0], [NEG_INF]]])  # (K, C, n); true class 1 missing everywhere
    labels = np.array([1])
    assert anll_from_stacked(np.array([1.0]), StackedScores(s, labels)) == pytest.approx(50.0, abs=1e-12)


def test_anll_empty_data_error(dataset):
    model = fit_hybrid(dataset)
    with pytest.raises(MetricError):
        anll([model], np.array([1.0]), dataset.subset([]))


def test_mixture_permutation_invariance(dataset):
    half = dataset.subset(np.arange(0, 200))
    other = dataset.subset(np.arange(200, 400))
    m1, m2 = fit_hybrid(half), fit_hybrid(other)
    a = mog_log_scores_batch([m1, m2], np.array([0.3, 0.7]), dataset)
    b = mog_log_scores_batch([m2, m1], np.array([0.7, 0.3]), dataset)
    assert np.allclose(a, b, atol=1e-12)


def test_upweighting_stronger_component_monotone():
    # component 0 scores strictly higher on class 0; growing w0 must not
    # decrease the mixture score of class 0
    s = np.array([[[math.log(0.9)]], [[math.log(0.1)]]])
    prev = -np.inf
    for w0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        cur = mix_scores(np.array([w0, 1 - w0]), s)[0, 0]
        assert cur >= prev
        prev = cur


def test_missing_class_never_predicted():
    ds = synth_generate(SynthSpec(300, 3, 0, 2, (0.0,), class_sep=4.0), 14)
    sub = ds.subset(np.flatnonzero(ds.labels != 2))
    m1 = fit_hybrid(sub.subset(np.arange(0, sub.n_rows, 2)))
    m2 = fit_hybrid(sub.subset(np.arange(1, sub.n_rows, 2)))
    preds = mog_log_scores_batch([m1, m2], np.array([0.5, 0.5]), ds).argmax(axis=1)
    assert (preds != 2).all()


def test_mixture_scores_never_nan(dataset):
    rng = np.random.default_rng(6)
    half = dataset.subset(np.arange(0, 200))
    other = dataset.subset(np.arange(200, 400))
    models = [fit_hybrid(half), fit_hybrid(other)]
    for _ in range(20):
        w = rng.dirichlet(np.ones(2))
        out = mog_log_scores_batch(models, w, dataset)
        assert not np.isnan(out).any()


def test_stack_scores_is_class_major_and_contiguous(dataset):
    models = [fit_hybrid(dataset.subset(np.arange(i, 400, 2))) for i in range(2)]
    models.append(fit_hybrid(dataset.subset(np.flatnonzero(dataset.labels == 0))))  # lacks class 1
    for data in (dataset, dataset.subset([3, 3, 0]), dataset.subset([])):
        stacked = stack_scores(models, data)
        assert stacked.shape == (3, dataset.schema.n_classes, data.n_rows)
        assert stacked.flags["C_CONTIGUOUS"]
        want = np.stack([joint_log_scores_batch(m, data).T for m in models])
        assert stacked.dtype == want.dtype and stacked.tobytes() == want.tobytes()
        assert (stacked[2, 1] == NEG_INF).all()


# Oracle tests for the class-major kernel. Each case is (K, C, n, sentinels):
# sentinels knocks out (node, class) pairs, and a class missing from every node
# is the one whose true-label rows hit the 50-nat ANLL clamp.
ORACLE_CASES = [
    (3, 2, 40, ()),
    (3, 2, 40, ((0, 1), (2, 1))),
    (3, 2, 40, ((0, 1), (1, 1), (2, 1))),
    (10, 2, 60, ((4, 0), (7, 1))),
    (10, 5, 60, ((0, 3), (5, 3), (9, 0))),
    (3, 5, 40, ((0, 4), (1, 4), (2, 4), (1, 2))),
]


def _oracle_inputs(k, c, n, sentinels, seed):
    rng = np.random.default_rng(seed)
    stacked = rng.normal(scale=30.0, size=(k, c, n)) - 200.0
    for node, cls in sentinels:
        stacked[node, cls, :] = NEG_INF
    weights = rng.dirichlet(np.ones(k))
    labels = np.arange(n) % c  # every class, including a sentinel-only one
    return weights, stacked, labels


def _py_logsumexp(values):
    finite = [v for v in values if v != NEG_INF]
    if not finite:
        return NEG_INF
    m = max(finite)
    return m + math.log(sum(math.exp(v - m) for v in finite))


def _py_mix(weights, stacked):
    k, c, n = stacked.shape
    return [
        [_py_logsumexp([math.log(weights[j]) + stacked[j, cls, r] for j in range(k)])
         for r in range(n)]
        for cls in range(c)
    ]


def _py_anll(weights, stacked, labels):
    mixed = _py_mix(weights, stacked)
    total = 0.0
    for r, y in enumerate(labels):
        column = [mixed[cls][r] for cls in range(len(mixed))]
        ll = column[y] - _py_logsumexp(column)
        total += ll if math.isfinite(ll) else -SENTINEL_ANLL_PENALTY
    return -total / len(labels)


def _pre_class_major_anll(weights, stacked, labels):
    """The ANLL as computed before the class-major layout: row-major (K, n, C)
    tensor, full row-wise log-softmax, then the label gather."""
    mixed = mix_scores(weights, np.ascontiguousarray(stacked.transpose(0, 2, 1)))
    m = mixed.max(axis=1)
    lse = m + np.log(np.exp(mixed - m[:, None]).sum(axis=1))
    norm = mixed - lse[:, None]
    ll = norm[np.arange(len(labels)), labels]
    ll = np.where(np.isfinite(ll), ll, -SENTINEL_ANLL_PENALTY)
    return float(-ll.mean())


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_kernel_matches_python_oracle(case):
    weights, stacked, labels = _oracle_inputs(*case, seed=sum(case[:3]))
    mixed = mix_scores(weights, stacked)
    expected = np.array(_py_mix(weights, stacked))
    assert mixed.shape == expected.shape
    assert np.array_equal(np.isneginf(mixed), np.isneginf(expected))
    finite = np.isfinite(expected)
    assert np.max(np.abs(mixed[finite] - expected[finite])) <= 1e-12
    assert anll_from_stacked(weights, StackedScores(stacked, labels)) == pytest.approx(
        _py_anll(weights, stacked, labels), abs=1e-12
    )


def _masked_mix(weights, stacked):
    """The mixture as computed with a masked branch for sentinel entries, kept
    verbatim as an oracle: an entry whose node maximum is not finite (a
    sentinel-only one, but also a NaN or +inf score) is set to -inf."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(weights, dtype=np.float64))
    a = logw[:, None, None] + stacked
    m = a.max(axis=0)
    finite = np.isfinite(m)
    if finite.all():
        a -= m
        return m + np.log(np.exp(a, out=a).sum(axis=0))
    mixed = np.full(m.shape, NEG_INF)
    if finite.any():
        a -= np.where(finite, m, 0.0)
        a[:, ~finite] = NEG_INF
        mixed[finite] = m[finite] + np.log(np.exp(a, out=a).sum(axis=0)[finite])
    return mixed


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_nan_and_inf_scores_propagate_and_every_other_entry_keeps_the_masked_floats(case):
    k, c, n, sentinels = case
    weights, stacked, labels = _oracle_inputs(*case, seed=sum(case[:3]) + 3)
    stacked[0, 0, 1] = np.nan  # no case lacks class 0 in every node
    stacked[k - 1, 0, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mix_scores(weights, stacked)
    want = _masked_mix(weights, stacked)
    assert np.isnan(got[0, 1]) and got[0, 2] == np.inf
    assert want[0, 1] == want[0, 2] == NEG_INF  # read as "class absent" by the masked oracle
    in_no_node = [cls for cls in range(c) if all((node, cls) in sentinels for node in range(k))]
    assert (got[in_no_node] == NEG_INF).all()
    rest = np.ones(got.shape, dtype=bool)
    rest[0, 1:3] = False
    assert got[rest].tobytes() == want[rest].tobytes()


@pytest.mark.parametrize("row_scores", [[0.0, math.nan, -1.0], [0.0, -1.0, math.inf], [NEG_INF] * 3])
def test_normalization_error_names_the_first_row_without_a_finite_class_maximum(row_scores):
    # one node of weight 1 mixes to its own scores, NaN, +inf and -inf included
    stacked = np.zeros((1, 3, 6))
    stacked[0, :, 2] = row_scores
    stacked[0, :, 4] = NEG_INF  # a later such row is not the one named
    message = f"row 2 has no finite class maximum: scores {row_scores}"
    with pytest.raises(NormalizationError, match=f"^{re.escape(message)}$"):
        anll_from_stacked(np.array([1.0]), StackedScores(stacked, np.zeros(6, dtype=np.uint8)))


def _reference_anll(weights, stacked, labels):
    """The validation ANLL as computed before StackedScores, kept verbatim as an
    oracle: every call masks, tests finiteness and gathers with two arrays."""
    mixed = _masked_mix(weights, stacked)
    mc = mixed.max(axis=0)
    ll = mixed[labels, np.arange(len(labels))] - (mc + np.log(np.exp(mixed - mc).sum(axis=0)))
    ll = np.where(np.isfinite(ll), ll, -SENTINEL_ANLL_PENALTY)
    return float(-ll.mean())


def _assert_optimizer_path_bit_exact(scores, weight_vectors):
    """anll_from_stacked, reusing one StackedScores (and its scratch buffer)
    across weight vectors as the optimizer does, equals both a call on a fresh
    StackedScores that also fills preds, as the test scores do, and the
    reference formula with ==; preds are the argmax of the whole mixture."""
    for w in weight_vectors:
        got = anll_from_stacked(w, scores)
        preds = np.empty(len(scores.labels), dtype=np.intp)
        assert got == anll_from_stacked(w, StackedScores(scores.stacked, scores.labels), preds)
        assert np.array_equal(preds, mix_scores(w, scores.stacked).argmax(axis=0))
        assert got == _reference_anll(w, scores.stacked, scores.labels)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_anll_from_mixed_equals_anll_from_stacked(case):
    k, c, n, sentinels = case
    weights, stacked, labels = _oracle_inputs(*case, seed=sum(case[:3]))
    scores = StackedScores(stacked, labels)
    in_no_node = [cls for cls in range(c) if all((node, cls) in sentinels for node in range(k))]
    assert scores.covered == (not in_no_node)  # cheap path, or the uncovered one with the clamp
    others = np.random.default_rng(n).dirichlet(np.ones(k), size=3)
    _assert_optimizer_path_bit_exact(scores, [weights, *others, weights])
    assert np.array_equal(scores.stacked, stacked)


def test_cheap_path_when_a_node_lacks_a_class_another_has():
    weights, stacked, labels = _oracle_inputs(3, 3, 50, ((0, 2), (1, 0), (2, 0)), seed=11)
    scores = StackedScores(stacked, labels)
    assert scores.covered
    _assert_optimizer_path_bit_exact(scores, [weights, np.array([0.05, 0.05, 0.9])])


def test_uncovered_zero_shift_clamps_a_class_absent_from_every_node():
    weights, stacked, labels = _oracle_inputs(3, 3, 50, ((0, 2), (1, 2), (2, 2)), seed=12)
    scores = StackedScores(stacked, labels)
    assert not scores.covered
    _assert_optimizer_path_bit_exact(scores, [weights])
    got = anll_from_stacked(weights, scores)
    assert got == pytest.approx(_py_anll(weights, stacked, labels), abs=1e-12)
    assert got > SENTINEL_ANLL_PENALTY * np.mean(labels == 2)  # each such row costs 50 nats


@pytest.mark.parametrize("weights", [[0.0, 0.4, 0.6], [0.3, 0.7, 0.0]])
def test_zero_weight_takes_the_uncovered_zero_shift_without_warnings(weights):
    # only node 2 scores class 1, so the second vector leaves class 1 in no node
    _, stacked, labels = _oracle_inputs(3, 2, 40, ((0, 1), (1, 1)), seed=13)
    scores = StackedScores(stacked, labels)
    assert scores.covered
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_optimizer_path_bit_exact(scores, [np.array(weights)])


def test_stacked_scores_constants_and_input_errors(monkeypatch):
    _, stacked, labels = _oracle_inputs(3, 2, 40, (), seed=14)
    scores = StackedScores(stacked, labels)
    assert scores.covered
    [(lo, hi, block, out, index)] = scores.blocks
    assert (lo, hi) == (0, 40) and np.shares_memory(block, stacked)
    assert np.array_equal(index, labels * 40 + np.arange(40))
    assert scores.scratch.shape == (3 * 2 * 40,) and out.shape == stacked.shape and np.shares_memory(out, scores.scratch)
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 16)
    scores = StackedScores(stacked, labels)
    assert [(lo, hi) for lo, hi, *_ in scores.blocks] == [(0, 16), (16, 32), (32, 40)]
    assert scores.scratch.shape == (3 * 2 * 16,)  # the widest block's, not the tensor's
    for lo, hi, block, out, index in scores.blocks:
        assert np.array_equal(block, stacked[:, :, lo:hi]) and np.shares_memory(block, stacked)
        assert out.shape == block.shape and out.flags["C_CONTIGUOUS"] and np.shares_memory(out, scores.scratch)
        assert np.array_equal(index, labels[lo:hi] * (hi - lo) + np.arange(hi - lo))
    for bad in (np.nan, np.inf):  # neither is a score or the -inf sentinel
        poisoned = stacked.copy()
        poisoned[1, 0, 5] = bad
        assert not StackedScores(poisoned, labels).covered
    with pytest.raises(MetricError):
        StackedScores(stacked[:, :, :0], labels[:0])
    with pytest.raises(ShapeError):
        StackedScores(stacked, labels[:-1])


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_kernel_matches_scipy_logsumexp(case):
    special = pytest.importorskip("scipy.special")
    weights, stacked, labels = _oracle_inputs(*case, seed=sum(case[:3]) + 1)
    with np.errstate(divide="ignore"):
        expected = special.logsumexp(np.log(weights)[:, None, None] + stacked, axis=0)
    mixed = mix_scores(weights, stacked)
    assert np.array_equal(np.isneginf(mixed), np.isneginf(expected))
    finite = np.isfinite(expected)
    assert np.max(np.abs(mixed[finite] - expected[finite])) <= 1e-12
    norm = expected - special.logsumexp(expected, axis=0)
    ll = norm[labels, np.arange(len(labels))]
    want = float(-np.where(np.isfinite(ll), ll, -SENTINEL_ANLL_PENALTY).mean())
    assert anll_from_stacked(weights, StackedScores(stacked, labels)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_kernel_matches_pre_class_major_formula(case):
    # bit-exact for two classes; with more, the class-axis sum may reassociate
    weights, stacked, labels = _oracle_inputs(*case, seed=sum(case[:3]) + 2)
    got = anll_from_stacked(weights, StackedScores(stacked, labels))
    want = _pre_class_major_anll(weights, stacked, labels)
    if case[1] == 2:
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_anll_row_without_any_finite_class_error():
    s = np.full((2, 2, 3), NEG_INF)
    s[:, :, :2] = 0.0
    with pytest.raises(NormalizationError):
        anll_from_stacked(np.array([0.5, 0.5]), StackedScores(s, np.array([0, 1, 0])))


@pytest.fixture
def counted_mixes(monkeypatch):
    """The number of fednb.mog.mix_scores calls made so far, in a list."""
    calls = [0]
    real = mix_scores

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr("fednb.mog.mix_scores", counting)
    return calls


def test_repeated_weights_reuse_the_last_anll(counted_mixes):
    weights, stacked, labels = _oracle_inputs(3, 2, 60, (), seed=21)
    scores = StackedScores(stacked, labels)
    first = anll_from_stacked(weights, scores)
    again = anll_from_stacked(weights.copy(), scores)
    assert counted_mixes == [1] and np.float64(again).tobytes() == np.float64(first).tobytes()
    assert first == _reference_anll(weights, stacked, labels)
    # a fresh StackedScores of the same tensor keeps nothing of the first
    anll_from_stacked(weights, StackedScores(stacked, labels))
    assert counted_mixes == [2]


def test_weights_one_ulp_or_one_sign_bit_away_recompute(counted_mixes):
    weights, stacked, labels = _oracle_inputs(3, 2, 60, (), seed=22)
    scores = StackedScores(stacked, labels)
    anll_from_stacked(weights, scores)
    nudged = weights.copy()
    nudged[1] = np.nextafter(nudged[1], 1.0)
    assert anll_from_stacked(nudged, scores) == _reference_anll(nudged, stacked, labels)
    assert counted_mixes == [2]
    zero, negative_zero = np.array([0.0, 0.4, 0.6]), np.array([-0.0, 0.4, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert anll_from_stacked(zero, scores) == anll_from_stacked(negative_zero, scores)
    assert counted_mixes == [4]


def test_a_call_that_raises_keeps_nothing(counted_mixes):
    weights, stacked, labels = _oracle_inputs(2, 2, 3, (), seed=23)
    stacked[:, :, 2] = NEG_INF  # row 2 has no finite class score in any node
    scores = StackedScores(stacked, labels)
    for _ in range(2):
        with pytest.raises(NormalizationError):
            anll_from_stacked(weights, scores)
    assert counted_mixes == [2]


def test_only_the_last_weights_are_kept(counted_mixes):
    a, stacked, labels = _oracle_inputs(3, 2, 60, (), seed=24)
    b = np.array([0.2, 0.3, 0.5])
    scores = StackedScores(stacked, labels)
    values = [anll_from_stacked(w, scores) for w in (a, b, a)]
    assert counted_mixes == [3]
    assert values[0] == values[2] == _reference_anll(a, stacked, labels)


def _whole_tensor_covered(stacked):
    """StackedScores.covered computed on the whole (K, C, n) tensor at once."""
    finite = np.isfinite(stacked)
    return bool(finite.any(axis=0).all() and (finite | (stacked == NEG_INF)).all())


# (node, class, row, value) edits of a covered (3, 2, 10) tensor, all in its
# last row, and whether the edited tensor is covered
COVER_EDITS = {
    "covered": ([], True),
    "a -inf sentinel in one node": ([(0, 1, 9, NEG_INF)], True),
    "a class in no node": ([(k, 1, 9, NEG_INF) for k in range(3)], False),
    "a NaN": ([(1, 0, 9, np.nan)], False),
    "a +inf": ([(2, 1, 9, np.inf)], False),
}


@pytest.mark.parametrize("block, n_blocks", [(10**9, 1), (4, 3)])
@pytest.mark.parametrize("edits, covered", COVER_EDITS.values(), ids=COVER_EDITS)
def test_covered_per_row_block_equals_the_whole_tensor_formula(monkeypatch, edits, covered, block, n_blocks):
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", block)
    _, stacked, labels = _oracle_inputs(3, 2, 10, (), seed=15)
    for node, cls, row, value in edits:
        stacked[node, cls, row] = value
    scores = StackedScores(stacked, labels)
    assert len(scores.blocks) == n_blocks
    assert scores.covered == _whole_tensor_covered(stacked) == covered


@pytest.mark.parametrize("k, c", [(3, 2), (10, 15)])
def test_stacked_scores_construction_peaks_a_few_blocks_above_what_it_keeps(monkeypatch, k, c):
    """Tested block by block, covered's boolean temporaries are a fraction
    of a block whatever n is. Tested on the whole tensor, its three (K, C, n)
    boolean temporaries were 15 blocks' worth at these 40 blocks."""
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 256)
    _, stacked, labels = _oracle_inputs(k, c, 40 * 256, (), seed=16)
    block = k * c * 256 * 8  # one block's (K, C, rows) float64 buffer
    tracemalloc.start()
    try:
        scores = StackedScores(stacked, labels)
        kept, peak = tracemalloc.get_traced_memory()  # kept: the scratch and the label indices
    finally:
        tracemalloc.stop()
    assert scores.covered
    assert peak - kept < 2 * block, (peak - kept) / block


def test_stack_scores_peaks_a_few_blocks_above_its_output(monkeypatch):
    """Scored in blocks of 256 rows, the (C, F, rows) scoring buffers stay a
    few blocks' worth whatever n is; scored whole they would be about 94
    blocks' worth at these 40 blocks."""
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 256)
    c, f, n = 10, 8, 40 * 256
    ds = synth_generate(SynthSpec(n, c, 2, f, (0.0,)), 5)
    models = [fit_hybrid(ds.subset(range(i, n, 3))) for i in range(3)]
    tracemalloc.start()
    try:
        stacked = stack_scores(models, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_buffer = 256 * c * f * 8  # one block's (C, F, rows) float64 buffer
    assert peak - stacked.nbytes < 4 * block_buffer, (peak - stacked.nbytes) / block_buffer


def test_a_last_block_of_one_row_joins_the_block_before_it(monkeypatch):
    """numpy sums the class axis of a one-row (C, 1) slice pairwise and of a
    wider slice in order; for these ten class scores the two sums differ in
    the last bit, so a row alone in a block would change the ANLL."""
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 4)
    assert row_blocks(9) == [(0, 4), (4, 9)] and row_blocks(10) == [(0, 4), (4, 8), (8, 10)]
    scores = np.array([0.0] + [-36.8] * 9)
    in_order = 0.0
    for x in np.exp(scores):
        in_order += x
    assert in_order == 1.0 and np.add.reduce(np.exp(scores)) > 1.0  # pairwise: 1 + 7e-16
    stacked = np.repeat(scores[None, :, None], 9, axis=2)  # one node of weight 1 mixes to its scores
    one_row_blocks = StackedScores(stacked, np.zeros(9, dtype=np.uint8))
    assert anll_from_stacked(np.array([1.0]), one_row_blocks) == 0.0  # each row's class sum is 1.0


def test_normalization_error_names_the_row_of_the_whole_array_from_a_later_block(monkeypatch):
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 4)
    stacked = np.zeros((1, 2, 10))
    stacked[0, :, 7] = NEG_INF  # in the second block, at its row 3
    scores = StackedScores(stacked, np.zeros(10, dtype=np.uint8))
    with pytest.raises(NormalizationError, match=r"^row 7 has no finite class maximum: scores \[-inf, -inf\]$"):
        anll_from_stacked(np.array([1.0]), scores)


def test_calls_that_pass_preds_skip_the_memo_and_each_fill_preds(counted_mixes):
    """B and E can get byte-equal weights on the shared test scores; each
    proposal's predictions must still be written."""
    weights, stacked, labels = _oracle_inputs(3, 4, 60, (), seed=25)
    scores = StackedScores(stacked, labels)
    want = mix_scores(weights, stacked).argmax(axis=0)
    first, second = np.full(60, -1, dtype=np.intp), np.full(60, -1, dtype=np.intp)
    a = anll_from_stacked(weights, scores, first)
    b = anll_from_stacked(weights.copy(), scores, second)
    assert counted_mixes == [2] and a == b == _reference_anll(weights, stacked, labels)
    assert np.array_equal(first, want) and np.array_equal(second, want)
    assert anll_from_stacked(weights, scores) == a and counted_mixes == [2]  # a call without preds reads the memo


@pytest.mark.parametrize("k, c", [(3, 2), (10, 15)])
def test_one_evaluation_peaks_a_few_blocks_above_its_ll_vector(monkeypatch, k, c):
    """Mixed in blocks of 256 rows, an evaluation's temporaries beside the
    (n,) ll vector and preds stay a few blocks' worth whatever n is; the
    scratch too. Mixed whole, the (K, C, n) buffer alone would be 40 blocks'
    worth."""
    monkeypatch.setattr(fednb.data, "ROW_BLOCK", 256)
    n = 40 * 256
    weights, stacked, labels = _oracle_inputs(k, c, n, (), seed=26)
    scores = StackedScores(stacked, labels)
    block = k * c * 256 * 8  # one block's (K, C, rows) float64 buffer
    assert scores.scratch.nbytes == block
    preds = np.empty(n, dtype=np.intp)
    for p in (None, preds):
        tracemalloc.start()
        try:
            anll_from_stacked(weights, scores, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ll = 8 * n
        assert peak - ll < 4 * block, (peak - ll) / block
