"""Exception hierarchy shared across the bench.

CLI exit-code contract: ConfigError and its subclasses map to exit
status 1 (configuration / validation problems); every other BenchError,
and plain OSError, maps to exit status 2 (runtime data or metric
problems).
"""


class BenchError(Exception):
    """Base class for every failure raised by the bench."""

    exit_code = 2


class ConfigError(BenchError):
    """Bad configuration value or invalid parameter combination."""

    exit_code = 1


#: A ValidationError's message shows this many problems, then how many more.
SHOWN_PROBLEMS = 10


class ValidationError(ConfigError):
    """Domain object rejected at construction; carries the violation list,
    of which the message shows the first SHOWN_PROBLEMS."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        hidden = len(self.violations) - SHOWN_PROBLEMS
        shown = self.violations[:SHOWN_PROBLEMS] + [f"and {hidden} more"] * (hidden > 0)
        super().__init__("; ".join(shown))


class EnrollmentError(BenchError):
    """Enrollment material is unusable (too few samples)."""


class StreamError(BenchError):
    """A session query stream cannot be built as configured."""


class MetricError(BenchError):
    """A performance measure cannot be computed from the given scores."""


class FormatError(BenchError):
    """A delimited-text file does not match the expected layout."""
