"""Exception hierarchy shared by all c2f modules."""


class C2fError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(C2fError):
    """A caller broke a documented precondition (shape, range, mode)."""


class NumericError(C2fError):
    """A forward or backward pass produced a non-finite value."""


class CorruptStreamError(C2fError):
    """A container is malformed, or its streams do not decode under the
    supplied model's tables."""


class ModelIdMismatchError(CorruptStreamError):
    """A bitstream was produced by different weights than those supplied."""


class FormatError(C2fError):
    """A weights, checkpoint or image file is malformed."""


class ConfigError(C2fError):
    """Invalid training or reporting configuration."""


class EvaluationError(C2fError):
    """A metric or BD-rate computation cannot proceed on the given inputs."""
