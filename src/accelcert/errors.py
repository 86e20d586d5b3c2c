"""Exception types shared across the library."""


class AccelCertError(Exception):
    """Base class for all accelcert errors."""


class InvalidProblemError(AccelCertError, ValueError):
    """Problem construction or resolution failed validation."""


class StepSizeError(AccelCertError, ValueError):
    """Step size outside the admissible open interval (0, 1/L)."""


class ParameterError(AccelCertError, ValueError):
    """Algorithm or analysis parameter out of range."""
