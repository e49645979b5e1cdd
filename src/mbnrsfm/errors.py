"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ParseError(Exception):
    """A data file violates the MBNR1 text format.

    Carries the offending path and 1-based line number so callers can point
    at the exact spot.
    """

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.reason = message


class ManifestError(Exception):
    """A run manifest is missing, inconsistent, or references absent inputs."""
