"""Exception taxonomy shared by all engines."""


class DwellTimeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(DwellTimeError):
    """A precondition was violated: a parameter or coordinate outside its valid
    range, an operation that does not apply to this pulse or profile variant, or
    a post-selected quantity whose conditioning event has zero probability."""


class NumericError(DwellTimeError):
    """Quadrature or integration failed to reach the requested tolerance."""


class ConfigError(DwellTimeError):
    """A config file could not be parsed or contains unknown/invalid entries."""
