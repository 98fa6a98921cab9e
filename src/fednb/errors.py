"""Exception hierarchy for the fednb package."""


class FedNBError(Exception):
    """Base class for all fednb errors."""


class SchemaError(FedNBError):
    """Schema definition or header mismatch problems."""


class ParseError(FedNBError):
    """Unparseable cell value in an input file."""


class LabelError(FedNBError):
    """Label value outside the known label universe."""


class SynthSpecError(FedNBError):
    """Invalid synthetic data specification."""


class StratificationError(FedNBError):
    """A class is too small to stratify."""


class PartitionError(FedNBError):
    """Degenerate Dirichlet partition (empty node after retries)."""


class FitError(FedNBError):
    """Model fitting on invalid input."""


class ShapeError(FedNBError):
    """Dimension mismatch between a model and a sample, or row indices that are not integers."""


class EnsembleError(FedNBError):
    """Inconsistent ensemble (weights vs. models, invalid weights)."""


class MetricError(FedNBError):
    """Metric requested on empty or invalid data."""


class NormalizationError(FedNBError):
    """Class scores to normalize with no finite entry in a row."""


class DegeneratePriorError(FedNBError):
    """All-zero coherence vector cannot be normalized."""


class OptimizerError(FedNBError):
    """The objective took a non-finite value (NaN or +-inf) at some point."""


class ConfigError(FedNBError):
    """Invalid experiment/CLI configuration."""


class CellError(FedNBError):
    """A grid cell failed; names the cell by (alpha, rep)."""

    def __init__(self, alpha: float, rep: int, cause: Exception):
        super().__init__(f"cell (alpha={alpha}, rep={rep}) failed: {cause}")
        self.alpha, self.rep, self.cause = alpha, rep, cause

    def __reduce__(self):  # pickle rebuilds from the three arguments, not from self.args
        return CellError, (self.alpha, self.rep, self.cause)
