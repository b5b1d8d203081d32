"""Exception hierarchy shared by all protocol layers."""


class MpgramError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MpgramError):
    """Invalid value for the arithmetic domain (zero inverse, bad parameter)."""


class DomainMismatchError(DomainError):
    """Operands belong to different scalar domains."""


class EncodingOverflowError(DomainError):
    """Real value outside the fixed-point codec's representable range."""


class DimensionError(MpgramError):
    """Matrix shapes do not conform (reported as features x samples)."""


class ProtocolError(MpgramError):
    """A party received a message that violates the protocol schedule."""


class ProtocolIncompleteError(ProtocolError):
    """A run ended with required blocks missing; names the offending pair."""


class FramingError(MpgramError):
    """Malformed wire frame (truncation, bad length)."""


class ProtocolVersionError(FramingError):
    """Frame carries an unknown message tag."""


class TransportError(MpgramError):
    """Channel setup or I/O failure, annotated with the address."""


class ConfigError(MpgramError):
    """Invalid run configuration."""


class DataError(MpgramError):
    """Input data violates a precondition (e.g. asymmetric gram matrix)."""
