"""Exception hierarchy shared across the package."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinslerError):
    """An input lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation hit a singular locus of a coefficient function.

    The message names the locus (e.g. ``s = 0``, ``Delta = 0``) so grid
    scans can report where a formula blew up instead of returning inf.
    """


class QuadratureError(FinslerError):
    """A volume factor did not converge; message names form, b, n and the last estimates."""


class ConfigError(FinslerError):
    """A space description file or CLI argument could not be parsed."""


class ValidatedModeError(FinslerError):
    """A computation was refused because validated mode found a failing check."""
