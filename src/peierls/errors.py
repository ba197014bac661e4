"""Exception types shared across the package.

The command line maps these onto exit codes: InputError -> 2,
CapacityError -> 3, VerificationError -> 1, and any other exception -> 4.
"""


class InputError(ValueError):
    """Malformed input, inconsistent dimensions, or a violated precondition."""


class CertificationError(InputError):
    """An operation required a model whose ground states are certified."""


class CapacityError(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class VerificationError(RuntimeError):
    """A bound the library promises to check was violated.

    ``witness`` carries the offending object, ``details`` any partial
    results computed before the failure (the CLI still reports them).
    """

    def __init__(self, message, witness=None, details=None):
        super().__init__(message)
        self.witness = witness
        self.details = details
