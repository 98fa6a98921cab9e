import numpy as np
import pytest

from fednb.errors import DegeneratePriorError
from fednb.governance import NodeProfile, coherence_prior, compute_icc

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


# coherence_prior normalizes the nodes' coherence indices to sum to one
REFERENCE = [NodeProfile(f"n{i}", *row[:4]) for i, row in enumerate(TABLE)]


def _profile_with_icc(icc: float) -> NodeProfile:
    """A profile whose coherence index is icc: every factor 1 but kci."""
    return NodeProfile("p", 5, icc, 0.0, 0.0)


def test_normalize_prior_reference_values():
    w = coherence_prior(REFERENCE)
    assert np.allclose(w, [0.667, 0.261, 0.071], atol=2e-3)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_prior_trivial_cases():
    assert coherence_prior([_profile_with_icc(0.5)]).tolist() == [1.0]
    assert coherence_prior(REFERENCE[:1]).tolist() == [1.0]
    assert np.allclose(coherence_prior([_profile_with_icc(0.2)] * 3), [1 / 3] * 3)
    assert np.allclose(coherence_prior([REFERENCE[1]] * 4), [1 / 4] * 4)


def test_normalize_prior_scale_invariance():
    # the index is linear in kci, so scaling every kci by c scales the vector by c
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0.01, 1.0, size=4)
        c = rng.uniform(0.01, 1.0)
        scaled = coherence_prior([_profile_with_icc(c * x) for x in v])
        assert np.allclose(scaled, coherence_prior([_profile_with_icc(x) for x in v]), atol=1e-12)


def test_normalize_prior_preserves_rank_order():
    w = coherence_prior(REFERENCE)
    v = [compute_icc(p) for p in REFERENCE]
    assert np.argsort(w).tolist() == np.argsort(v).tolist()
    shuffled = [REFERENCE[i] for i in (2, 0, 1)]
    assert np.argsort(coherence_prior(shuffled)).tolist() == [0, 2, 1]


def test_all_zero_prior_error():
    # kci = 0 zeroes a node's index
    with pytest.raises(DegeneratePriorError):
        coherence_prior([NodeProfile("a", 4, 0.0, 0.12, 3.2), _profile_with_icc(0.0)])
    assert coherence_prior([NodeProfile("a", 4, 0.0, 0.12, 3.2), _profile_with_icc(0.3)]).tolist() == [0.0, 1.0]


def test_prior_from_profiles():
    profiles = [NodeProfile("f", 4, 0.82, 0.12, 3.2), NodeProfile("g", 2, 0.55, 0.40, 6.8)]
    prior = coherence_prior(profiles)
    assert prior[0] > prior[1]
    assert prior.sum() == pytest.approx(1.0, abs=1e-12)
    v = np.array([compute_icc(p) for p in profiles])
    assert np.array_equal(prior, v / v.sum())
