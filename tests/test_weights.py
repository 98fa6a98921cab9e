import dataclasses
import json
import re

import numpy as np
import pytest

import fednb.cli
from fednb.data import SynthSpec, synth_generate
from fednb.errors import OptimizerError
from fednb.governance import NodeProfile, coherence_prior
from fednb.local_model import fit_hybrid
from fednb.mog import StackedScores, anll, stack_scores
from fednb.weights import (
    OptimizationTrace,
    OptimizerConfig,
    from_simplex,
    learn_weights_icc,
    nelder_mead,
    objective,
    to_floored_simplex,
    weights_entropy,
    weights_fedavg,
)

PROFILES = (
    NodeProfile("Financial", 4, 0.82, 0.12, 3.2),
    NodeProfile("Health", 3, 0.70, 0.25, 5.1),
    NodeProfile("Government", 2, 0.55, 0.40, 6.8),
)


def test_floored_simplex_uniform_at_zero():
    w = to_floored_simplex(np.zeros(2), 3, 0.05)
    assert np.allclose(w, [1 / 3] * 3, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_floored_simplex_saturation():
    w = to_floored_simplex(np.array([50.0, 0.0]), 3, 0.05)
    assert w[0] == pytest.approx(1 - 2 * 0.05, abs=1e-9)
    assert w[1] == pytest.approx(0.05, abs=1e-9)
    assert w[2] == pytest.approx(0.05, abs=1e-9)


def test_floored_simplex_hand_value():
    # softmax probabilities (0.8, 0.1, 0.1) -> (0.73, 0.135, 0.135)
    theta = np.log([0.8, 0.1]) - np.log(0.1)
    w = to_floored_simplex(theta, 3, 0.05)
    assert np.allclose(w, [0.73, 0.135, 0.135], atol=1e-9)


def test_floored_simplex_respects_floor_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = rng.normal(scale=10, size=3)
        w = to_floored_simplex(theta, 4, 0.05)
        assert (w >= 0.05 - 1e-12).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def _append_formula(theta, k, delta=0.05):
    """The floored simplex through np.append and z.max(), an independent oracle."""
    z = np.append(theta, 0.0)
    z -= z.max()
    p = np.exp(z) / np.exp(z).sum()
    return (delta + (1.0 - k * delta) * p).tobytes()


def test_floored_simplex_is_bit_exact_with_append_formula():
    rng = np.random.default_rng(2)
    thetas = [np.array(t) for t in ([0.0], [-0.0, 0.0], [-800.0, 800.0, -0.0])]
    for k in (2, 3, 10):
        for scale in (1e-3, 1.0, 30.0, 800.0):
            thetas += list(rng.normal(scale=scale, size=(25, k - 1)))
    for theta in thetas:
        k = len(theta) + 1
        assert to_floored_simplex(theta, k, 0.05).tobytes() == _append_formula(theta, k)


def test_centroid_expression_is_bit_exact_with_mean():
    # nelder_mead's centroid: np.add.reduce(...) / n, the steps of .mean(axis=0)
    rng = np.random.default_rng(4)
    for n in range(1, 10):
        for scale in (1e-3, 1.0, 40.0, 1e6):
            simplex = rng.normal(scale=scale, size=(n + 1, n))
            got = np.add.reduce(simplex[:-1], axis=0) / n
            assert got.tobytes() == simplex[:-1].mean(axis=0).tobytes()


# nelder_mead on Rosenbrock from linspace(-1.2, 1.3, n), max_iters 300, recorded
# with the centroid as .mean(axis=0): (best x, best f, evaluations, iterations,
# converged). At n = 2 (the K = 3 grid) any centroid formula divides exactly,
# so only these dimensions can show a last-ulp drift in the simplex steps.
NM_PINS = {
    3: ([1.0000000006515632, 1.0000000011179118, 1.00000000253859], 1.427146514102616e-17, 403, 222, True),
    5: ([-0.6543143322206715, 0.4370090236207769, 0.20198418451542552, 0.04911340606674355,
         -0.0005592334026299272], 4.6225321077101285, 483, 300, False),
    9: ([-0.7763649572595553, 0.5931313995835341, 0.2766349947142636, -0.31797406788433974,
         0.11372192697042614, 0.5232089137559438, 0.5103241094469436, 0.2597579372086035,
         0.17625628587263537], 56.35361963130279, 429, 300, False),
}


@pytest.mark.parametrize("n", sorted(NM_PINS))
def test_nelder_mead_matches_pinned_floats(n):
    def rosen(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    x, fv, ev, it, conv = nelder_mead(rosen, np.linspace(-1.2, 1.3, n), max_iters=300)
    assert (x.tolist(), fv, ev, it, conv) == NM_PINS[n]


def _reference_nelder_mead(f, start, max_iters: int = 500):
    """nelder_mead as it was before it kept its simplex as Python floats, kept
    verbatim as an oracle: the simplex is a 2-D array, re-sorted by argsort
    with two fancy-index copies on every iteration."""
    x0 = np.asarray(start, dtype=np.float64)
    n = len(x0)
    f0 = f(x0)
    if not np.isfinite(f0):
        raise OptimizerError(f"objective not finite at start: {f0}")
    evals = 1
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        x = simplex[i + 1]
        x[i] = x[i] * 1.05 if x[i] != 0.0 else 0.00025
    fvals = np.empty(n + 1)
    fvals[0] = f0
    for i in range(1, n + 1):
        fvals[i] = f(simplex[i])
    evals += n

    iterations, converged = 0, False
    while iterations < max_iters:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        # function spread alone can hit zero on a symmetric stall, so also
        # require the simplex itself to have collapsed (tested only then)
        if fvals[-1] - fvals[0] < 1e-10 and np.abs(simplex[1:] - simplex[0]).max() < 1e-8:
            converged = True
            break
        iterations += 1
        centroid = np.add.reduce(simplex[:-1], axis=0) / n  # what .mean(axis=0) computes
        worst = simplex[-1]

        xr = centroid + (centroid - worst)
        fr = f(xr)
        evals += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = f(xe)
            evals += 1
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (worst - centroid)
            fc = f(xc)
            evals += 1
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                for i in range(1, n + 1):
                    fvals[i] = f(simplex[i])
                evals += n

    i = int(np.argmin(fvals))
    return simplex[i].copy(), float(fvals[i]), evals, iterations, converged


def _bits(result):
    """nelder_mead's result with x and f as bytes, so == compares bits."""
    x, fv, evals, iterations, converged = result
    return x.tobytes(), np.float64(fv).tobytes(), evals, iterations, converged


def _rosen(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _quadratic(n, seed):
    """A random positive-definite quadratic in n dimensions and a start point."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    hess, centre = a @ a.T + 0.1 * np.eye(n), rng.normal(scale=3.0, size=n)

    def f(x):
        d = x - centre
        return float(d @ hess @ d)

    return f, rng.normal(scale=2.0, size=n)


def _nan_beyond_half(x):
    """NaN where a coordinate exceeds 0.5; the minimum lies in that part."""
    return float("nan") if x.max() > 0.5 else float(np.sum((x - 2.0) ** 2))


def _assert_matches_reference(f, start, max_iters=500):
    want = _reference_nelder_mead(f, start, max_iters)
    assert _bits(nelder_mead(f, start, max_iters)) == _bits(want)
    return want


@pytest.mark.parametrize("n", range(1, 10))
def test_nelder_mead_equals_the_reference_on_quadratics(n):
    _assert_matches_reference(*_quadratic(n, seed=n))


@pytest.mark.parametrize("n", range(2, 10))
def test_nelder_mead_equals_the_reference_on_rosenbrock(n):
    start = np.random.default_rng(100 + n).uniform(-2.0, 2.0, size=n)
    _assert_matches_reference(_rosen, start, max_iters=400)


@pytest.mark.parametrize("start", [[0.0], [0.0, 0.0, 0.0], [0.0, 1.5, -0.0, 2.0], [-0.0, 3.0]])
def test_nelder_mead_equals_the_reference_from_zero_coordinates(start):
    _assert_matches_reference(lambda x: float(np.sum((x - 0.3) ** 2)), np.array(start))


@pytest.mark.parametrize("n", [2, 3, 9])
def test_nelder_mead_equals_the_reference_through_shrinks(n):
    # a staircase: reflections and contractions land on the same step, so it shrinks
    f = lambda x: float(np.floor(4.0 * np.sum(x * x)))  # noqa: E731
    _, _, evals, iterations, _ = _assert_matches_reference(f, np.linspace(1.0, 3.0, n))
    # an iteration costs 1 or 2 evaluations, a shrink n more
    assert evals > 1 + n + 2 * iterations


@pytest.mark.parametrize("n", [1, 2, 5])
def test_nelder_mead_equals_the_reference_on_plateaus(n):
    _assert_matches_reference(lambda x: float(np.floor(np.sum(x * x))), np.full(n, 2.5))
    _assert_matches_reference(lambda x: 7.0, np.arange(1.0, n + 1.0))


@pytest.mark.parametrize("max_iters", [1, 7, 40])
def test_nelder_mead_equals_the_reference_at_max_iters(max_iters):
    result = _assert_matches_reference(_rosen, np.linspace(-1.2, 1.3, 4), max_iters=max_iters)
    assert result[3:] == (max_iters, False)


def _recording(f, points):
    """f, appending each point it is called at to points as a list of floats."""
    def g(x):
        points.append(x.tolist())
        return f(x)
    return g


@pytest.mark.parametrize("start, max_iters", [
    ([0.49], 60),
    ([0.49, 0.2], 2),
    ([0.49, 0.2, 0.2, 0.2], 60),
    ([0.49, 0.49, 0.2], 60),
    ([0.49, 0.49, 0.49, 0.2], 60),
    ([0.49], 1),
])
def test_nelder_mead_equals_the_reference_where_the_objective_is_nan(start, max_iters):
    # each coordinate of 0.49 perturbs to 0.5145, a vertex with a NaN value:
    # nelder_mead makes the reference's calls up to the first NaN value, and
    # there raises, naming that point
    want, got = [], []
    _reference_nelder_mead(_recording(_nan_beyond_half, want), np.array(start), max_iters=max_iters)
    first_nan = next(i for i, x in enumerate(want) if max(x) > 0.5)
    with pytest.raises(OptimizerError, match=re.escape(f"not finite at {want[first_nan]}: nan")):
        nelder_mead(_recording(_nan_beyond_half, got), np.array(start), max_iters=max_iters)
    assert got == want[: first_nan + 1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nelder_mead_raises_at_a_non_finite_value_after_the_initial_simplex(bad):
    # (x - 2)^2 has its minimum beyond 0.5, where the value is bad; the
    # initial simplex (0.3, 0.315) lies below it
    points = []

    def f(x):
        return bad if x[0] > 0.5 else float((x[0] - 2.0) ** 2)

    with pytest.raises(OptimizerError) as info:
        nelder_mead(_recording(f, points), np.array([0.3]), max_iters=500)
    assert len(points) > 2 and points[-1][0] > 0.5 >= max(p[0] for p in points[:-1])
    assert str(info.value) == f"objective not finite at {points[-1]}: {bad}"


def test_from_simplex_uniform_gives_zero_theta():
    theta = from_simplex(np.full(3, 1 / 3), 0.05)
    assert np.allclose(theta, 0.0, atol=1e-12)


def test_simplex_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        delta = 0.05
        p = rng.dirichlet(np.ones(k))
        w = delta + (1 - k * delta) * p
        back = to_floored_simplex(from_simplex(w, delta), k, delta)
        assert np.max(np.abs(back - w)) < 1e-9


def test_from_simplex_clips_floor_entries():
    w = np.array([0.05, 0.475, 0.475])
    back = to_floored_simplex(from_simplex(w, 0.05), 3, 0.05)
    assert np.max(np.abs(back - w)) <= 2e-6


def test_nelder_mead_1d_quadratic():
    x, fx, _, iters, converged = nelder_mead(
        lambda t: (t[0] - 3.0) ** 2, np.array([0.0]), max_iters=500
    )
    assert x[0] == pytest.approx(3.0, abs=1e-6)
    assert converged and 0 < iters < 500


def test_nelder_mead_reports_max_iters_stop():
    evals = []

    def f(t):
        evals.append(1)
        return (t[0] - 3.0) ** 2 + t[1] ** 2

    _, _, n_evals, iters, converged = nelder_mead(f, np.array([0.0, 1.0]), max_iters=4)
    assert (iters, converged) == (4, False)
    assert n_evals == len(evals)  # one objective call per counted evaluation


def test_nelder_mead_2d_anisotropic():
    x, fx, *_ = nelder_mead(
        lambda t: t[0] ** 2 + 10.0 * t[1] ** 2, np.array([5.0, 5.0]), max_iters=500
    )
    assert np.max(np.abs(x)) < 1e-5


def test_nelder_mead_constant_function():
    x, fx, *_ = nelder_mead(lambda t: 7.0, np.array([1.0, 2.0]), max_iters=100)
    assert fx == 7.0


def test_nelder_mead_nonfinite_start_error():
    with pytest.raises(OptimizerError):
        nelder_mead(lambda t: float("nan"), np.array([0.0]), max_iters=500)


@pytest.fixture
def small_setup():
    ds = synth_generate(SynthSpec(900, 2, 1, 2, (0.0, 0.0, 0.0), class_sep=2.0), 5)
    thirds = [ds.subset(np.arange(i, 900, 3)) for i in range(3)]
    models = [fit_hybrid(t) for t in thirds]
    val = ds.subset(np.arange(0, 900, 7))
    return models, val, coherence_prior(PROFILES)


def test_objective_reduces_to_anll(small_setup):
    models, val, prior = small_setup
    scores = StackedScores(stack_scores(models, val), val.labels)
    w = np.full(3, 1 / 3)
    base = anll(models, w, val)
    assert objective(w, scores, prior, 0.0) == pytest.approx(
        base, abs=1e-12
    )
    assert objective(prior, scores, prior, 0.1) == pytest.approx(
        anll(models, prior, val), abs=1e-12
    )


def test_objective_penalty_arithmetic(small_setup):
    models, val, prior = small_setup
    w = np.full(3, 1 / 3)
    pen = float(((w - prior) ** 2).sum())
    expected = anll(models, w, val) + 0.1 * pen
    scores = StackedScores(stack_scores(models, val), val.labels)
    assert objective(w, scores, prior, 0.1) == pytest.approx(
        expected, abs=1e-12
    )


def test_huge_lambda_pins_weights_to_prior(small_setup):
    models, val, prior = small_setup
    cfg = OptimizerConfig(lam=1e6, seed=2)
    w, trace = learn_weights_icc(models, val, prior, cfg)
    assert np.max(np.abs(w - prior)) < 1e-3


def test_zero_lambda_floors_noise_node():
    # two clean nodes sharing one distribution, one node with random labels
    rng = np.random.default_rng(10)
    ds = synth_generate(SynthSpec(3000, 2, 1, 2, (0.0, 0.0, 0.0), class_sep=2.0), 6)
    clean_a = ds.subset(np.arange(0, 2000, 2))
    clean_b = ds.subset(np.arange(1, 2000, 2))
    noise = ds.subset(np.arange(2000, 2600))
    noise.labels[:] = rng.integers(0, 2, size=noise.n_rows)
    models = [fit_hybrid(clean_a), fit_hybrid(clean_b), fit_hybrid(noise)]
    val = ds.subset(np.arange(2600, 3000))
    prior = coherence_prior(PROFILES)
    w, _ = learn_weights_icc(models, val, prior, OptimizerConfig(lam=0.0, seed=3))
    assert w[2] == pytest.approx(0.05, abs=0.02)


def test_identical_models_converge_to_prior():
    ds = synth_generate(SynthSpec(600, 2, 1, 1, (0.0, 0.0), class_sep=2.0), 7)
    model = fit_hybrid(ds)
    val = ds.subset(np.arange(0, 600, 3))
    prior = np.array([0.75, 0.25])
    w, _ = learn_weights_icc([model, model], val, prior, OptimizerConfig(seed=4))
    assert np.max(np.abs(w - prior)) < 1e-3


def test_learn_weights_deterministic(small_setup):
    models, val, prior = small_setup
    cfg = OptimizerConfig(seed=11)
    w1, t1 = learn_weights_icc(models, val, prior, cfg)
    w2, t2 = learn_weights_icc(models, val, prior, cfg)
    assert np.array_equal(w1, w2)
    assert t1.chosen == t2.chosen


def test_best_start_not_worse_than_prior_start(small_setup):
    models, val, prior = small_setup
    _, trace = learn_weights_icc(models, val, prior, OptimizerConfig(seed=12))
    best = min(s.final_objective for s in trace.starts)
    assert best <= trace.starts[0].final_objective + 1e-12
    assert trace.chosen == int(np.argmin([s.final_objective for s in trace.starts]))


def test_trace_records_stop_reason_and_round_trips(small_setup):
    models, val, prior = small_setup
    _, trace = learn_weights_icc(models, val, prior, OptimizerConfig(seed=12, max_iters=6))
    assert all(s.iterations is not None and s.converged is not None for s in trace.starts)
    assert any(s.converged is False and s.iterations == 6 for s in trace.starts)
    # saved and loaded as grid.json saves and loads it; each float's repr is exact
    saved = json.dumps(dataclasses.asdict(trace), default=np.ndarray.tolist)
    back = fednb.cli._decoded(OptimizationTrace, json.loads(saved), "0,0")
    assert json.dumps(dataclasses.asdict(back), default=np.ndarray.tolist) == saved
    assert all(type(s.initial_theta) is type(s.final_theta) is np.ndarray for s in back.starts)


def test_learned_weights_on_simplex_with_floor(small_setup):
    models, val, prior = small_setup
    w, _ = learn_weights_icc(models, val, prior, OptimizerConfig(seed=13))
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert (w >= 0.05 - 1e-12).all()


def test_fedavg_weights():
    assert np.allclose(weights_fedavg([100, 100, 100]), [1 / 3] * 3)
    assert np.allclose(weights_fedavg([60, 30, 10]), [0.6, 0.3, 0.1])
    assert weights_fedavg([1]).tolist() == [1.0]
    with pytest.raises(ValueError):
        weights_fedavg([10, 0])


def test_entropy_weights_symmetric():
    counts = np.array([[50, 50], [10, 10]])
    assert np.allclose(weights_entropy(counts), [0.5, 0.5], atol=1e-6)


def test_entropy_weights_hand_value():
    # entropies 0.5 and 1.0 bits -> weights proportional to (2, 1)
    # H(p) = 0.5 at p ~ 0.889972
    p = 0.8899750004807707
    counts = np.array([[int(p * 1e6), int((1 - p) * 1e6)], [500000, 500000]])
    w = weights_entropy(counts)
    assert np.allclose(w, [2 / 3, 1 / 3], atol=1e-3)


def test_entropy_weights_single_class_node_dominates():
    counts = np.array([[100, 0], [50, 50]])
    w = weights_entropy(counts)
    assert w[0] > 0.999
