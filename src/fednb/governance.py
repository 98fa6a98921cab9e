"""CRISC governance variables and the Institutional Coherence Index.

Each node carries four audit indicators: control maturity (cmm, 1..5),
proportion of implemented controls (kci, 0..1), risk-alert activation
frequency (kri, 0..1, lower is better) and mean vulnerability score
(cvss, 0..10, lower is better). Their product, each factor normalized to
[0, 1] with the "lower is better" factors inverted, is the node's
coherence index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePriorError

# (name, cmm, kci, kri, cvss, coherence index) of three reference profiles;
# verification check 1 recomputes each index
REFERENCE_PROFILES = (
    ("Financial", 4, 0.82, 0.12, 3.2, 0.393),
    ("Health", 3, 0.70, 0.25, 5.1, 0.154),
    ("Government", 2, 0.55, 0.40, 6.8, 0.042),
)

@dataclass(frozen=True)
class NodeProfile:
    name: str
    cmm: int
    kci: float
    kri: float
    cvss: float

    def __post_init__(self):
        if not 1 <= self.cmm <= 5:
            raise ValueError(f"{self.name}: cmm {self.cmm} outside [1, 5]")
        if not 0.0 <= self.kci <= 1.0:
            raise ValueError(f"{self.name}: kci {self.kci} outside [0, 1]")
        if not 0.0 <= self.kri <= 1.0:
            raise ValueError(f"{self.name}: kri {self.kri} outside [0, 1]")
        if not 0.0 <= self.cvss <= 10.0:
            raise ValueError(f"{self.name}: cvss {self.cvss} outside [0, 10]")


def compute_icc(profile: NodeProfile) -> float:
    """Coherence index: (cmm/5) * kci * (1 - kri) * (1 - cvss/10), in [0, 1]."""
    return (profile.cmm / 5.0) * profile.kci * (1.0 - profile.kri) * (1.0 - profile.cvss / 10.0)


def coherence_prior(profiles) -> np.ndarray:
    """The optimizer's prior: the nodes' coherence indices, in profile order,
    normalized to sum to one. Each index is in [0, 1], so only an all-zero
    vector has no normalization."""
    v = np.asarray([compute_icc(p) for p in profiles], dtype=np.float64)
    total = v.sum()
    if total <= 0.0:
        raise DegeneratePriorError("all-zero coherence vector")
    return v / total
