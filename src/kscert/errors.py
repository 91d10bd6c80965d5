"""The error types, one per exit code of the command line: KSCertError is
an input error (exit 3) and the base of the others, NotKSProofError says
the input is not a KS proof (exit 2), and SearchBudgetExceeded that a
search ran out of nodes (exit 4).  An input error in a proof file names
its line."""


class KSCertError(Exception):
    """Base class for every error raised by this package."""


class SearchBudgetExceeded(KSCertError):
    """A search reached its node cap before it could answer."""


class NotKSProofError(KSCertError):
    """Raised by pipeline stages that require a verified proof as input."""
