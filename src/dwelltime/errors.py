"""Exception taxonomy shared by all engines."""


class DwellTimeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(DwellTimeError):
    """A constructor or operation precondition was violated."""


class DomainError(DwellTimeError):
    """A coordinate argument lies outside its valid range."""


class UnsupportedVariantError(DwellTimeError):
    """The requested operation does not apply to this pulse/profile variant."""


class UndefinedConditionalError(DwellTimeError):
    """A post-selected quantity is undefined (conditioning event has zero probability)."""


class NumericError(DwellTimeError):
    """Quadrature or integration failed to reach the requested tolerance."""


class ConfigError(DwellTimeError):
    """A config file could not be parsed or contains unknown/invalid entries."""
