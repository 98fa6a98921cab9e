import numpy as np
import pytest

from fednb.errors import DegeneratePriorError
from fednb.governance import NodeProfile, coherence_prior, compute_icc, normalize_prior

TABLE = [
    (4, 0.82, 0.12, 3.2, 0.393),
    (3, 0.70, 0.25, 5.1, 0.154),
    (2, 0.55, 0.40, 6.8, 0.042),
]


@pytest.mark.parametrize("cmm,kci,kri,cvss,expected", TABLE)
def test_reference_icc_values(cmm, kci, kri, cvss, expected):
    assert compute_icc(NodeProfile("n", cmm, kci, kri, cvss)) == pytest.approx(expected, abs=5e-4)


def test_icc_extremes():
    assert compute_icc(NodeProfile("best", 5, 1.0, 0.0, 0.0)) == 1.0
    assert compute_icc(NodeProfile("kri1", 5, 1.0, 1.0, 0.0)) == 0.0


def test_profile_range_validation():
    with pytest.raises(ValueError):
        NodeProfile("x", 0, 0.5, 0.5, 5.0)
    with pytest.raises(ValueError):
        NodeProfile("x", 3, 1.5, 0.5, 5.0)
    with pytest.raises(ValueError):
        NodeProfile("x", 3, 0.5, -0.1, 5.0)
    with pytest.raises(ValueError):
        NodeProfile("x", 3, 0.5, 0.5, 11.0)


def test_icc_monotonicity_random_profiles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        cmm = int(rng.integers(1, 5))
        kci = rng.uniform(0.05, 0.95)
        kri = rng.uniform(0.05, 0.95)
        cvss = rng.uniform(0.5, 9.5)
        base = compute_icc(NodeProfile("p", cmm, kci, kri, cvss))
        assert compute_icc(NodeProfile("p", cmm + 1, kci, kri, cvss)) >= base
        assert compute_icc(NodeProfile("p", cmm, min(kci + 0.05, 1), kri, cvss)) >= base
        assert compute_icc(NodeProfile("p", cmm, kci, min(kri + 0.05, 1), cvss)) <= base
        assert compute_icc(NodeProfile("p", cmm, kci, kri, min(cvss + 0.5, 10))) <= base


def test_normalize_prior_reference_values():
    w = normalize_prior([0.393, 0.154, 0.042])
    assert np.allclose(w, [0.667, 0.261, 0.071], atol=2e-3)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_prior_trivial_cases():
    assert normalize_prior([0.5]).tolist() == [1.0]
    assert np.allclose(normalize_prior([0.2, 0.2, 0.2]), [1 / 3] * 3)


def test_normalize_prior_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0.01, 1.0, size=4)
        c = rng.uniform(0.1, 100.0)
        assert np.allclose(normalize_prior(c * v), normalize_prior(v), atol=1e-12)


def test_normalize_prior_preserves_rank_order():
    v = [0.393, 0.154, 0.042]
    w = normalize_prior(v)
    assert np.argsort(w).tolist() == np.argsort(v).tolist()


def test_all_zero_prior_error():
    with pytest.raises(DegeneratePriorError):
        normalize_prior([0.0, 0.0])


def test_prior_from_profiles():
    profiles = [NodeProfile("f", 4, 0.82, 0.12, 3.2), NodeProfile("g", 2, 0.55, 0.40, 6.8)]
    prior = coherence_prior(profiles)
    assert prior[0] > prior[1]
    assert prior.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(prior, normalize_prior([compute_icc(p) for p in profiles]))
