"""Exception types shared across the package."""


class SynthbenchError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SynthbenchError):
    """Invalid schema definition or schema/data mismatch."""


class DataError(SynthbenchError):
    """Malformed input data or an operation applied to unsuitable data."""


class FitError(SynthbenchError):
    """A model could not be fitted under its preconditions."""


class SpecError(SynthbenchError):
    """Invalid synthesizer specification."""


class SynthesisError(SynthbenchError):
    """Failure while generating a synthetic dataset; the message names the
    variable and the dataset index where generation failed."""


class EstimandError(SynthbenchError):
    """Invalid estimate set or combination request."""


class MetricError(SynthbenchError):
    """A utility metric was invoked outside its domain."""


class AnalysisError(SynthbenchError):
    """Invalid analysis request (classification, predicate, Pearson r)."""


class ConfigError(SynthbenchError):
    """Invalid experiment configuration."""
