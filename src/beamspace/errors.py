"""Exception types, and the input limits that raise them, shared across the simulator."""

# Default cap on a receive channel's 2-norm condition number (SingularChannelError above).
DEFAULT_CONDITION_CAP = 1e8
# Largest Monte-Carlo sweep a config or run_monte_carlo accepts; it bounds run
# time (7.6 s, 12.4 s CPU, for the whole command on two threads of a 2-vCPU host).
MAX_SCENARIOS = 10**7


class BeamspaceError(Exception):
    """Base class for all simulator errors."""


class InvalidArgumentError(BeamspaceError, ValueError):
    """A parameter violates an operation precondition."""


class GridMismatchError(BeamspaceError):
    """Two fields that must live on one grid do not."""


class AngleOutOfRangeError(BeamspaceError):
    """A requested solid angle lies outside the grid coverage."""


class UndefinedRatioError(BeamspaceError):
    """Symbol ratio x2/x1 requested with x1 = 0."""


class RatioSetMismatchError(BeamspaceError):
    """State keys or a requested ratio do not match the ratio alphabet."""


class DegenerateBasisError(BeamspaceError):
    """A basis pattern radiates zero total power."""


class DegenerateAngleError(BeamspaceError):
    """The EVM denominator vanishes at the requested angle."""


class SingularChannelError(BeamspaceError):
    """Channel matrix is singular or exceeds the condition-number cap."""


class PatternFormatError(BeamspaceError):
    """A pattern file is malformed or its angular grid is irregular."""


class ConfigError(BeamspaceError):
    """A run configuration is invalid or references missing files."""
