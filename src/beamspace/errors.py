"""Exception types, and the input limits and checks that raise them, shared by the simulator."""

import contextlib
import math
import operator

# Default cap on a receive channel's 2-norm condition number (DegenerateError above).
DEFAULT_CONDITION_CAP = 1e8
# Largest Monte-Carlo sweep a config or run_monte_carlo accepts; it bounds run
# time (5.8 s, 5.9 s CPU, for the whole command on a 2-vCPU host).
MAX_SCENARIOS = 10**7
# Most state-pattern samples (order x n_theta x n_phi) a config accepts; it bounds memory
# (every pattern command peaked at 642-1,065 MiB RSS at it on a 2-vCPU host).
MAX_STATE_SAMPLES = 10**7


class BeamspaceError(Exception):
    """Base class for all simulator errors."""


class InvalidArgumentError(BeamspaceError, ValueError):
    """Invalid input: an argument, a config key or a file that violates a precondition."""


class DegenerateError(BeamspaceError):
    """Valid input whose computation is degenerate: a zero-power basis, an EVM map with
    no usable angle, or a channel singular or conditioned above its cap."""


def require_integer(value, name: str) -> int:
    """``value`` as an int; never a bool, a float or a string."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool):
            return operator.index(value)
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def require_whole(value, name: str) -> int:
    """``value`` as an int when it equals one (``5``, ``5.0``); never a string."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # None, "a", NaN, inf
        if int(value) == value:
            return int(value)
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def require_float(value, name: str, finite: bool = True) -> float:
    """``value`` as ``float()`` reads it, never from a string; finite unless ``finite`` is False."""
    with contextlib.suppress(TypeError, ValueError):
        if not isinstance(value, (str, bytes)) and (not finite or math.isfinite(float(value))):
            return float(value)
    raise InvalidArgumentError(f"{name} must be a {'finite ' * finite}number, got {value!r}")


def require_state_samples(order: int, n_theta: int, n_phi: int, grid: str) -> None:
    """Refuse over MAX_STATE_SAMPLES samples in ``order`` patterns on the grid ``grid`` names."""
    if order * n_theta * n_phi > MAX_STATE_SAMPLES:
        raise InvalidArgumentError(f"constellation.order x {grid} must be <= "
                                   f"{MAX_STATE_SAMPLES}; got {order} x {n_theta} x {n_phi}")


def require_condition_cap(value) -> float:
    """``value`` as a cap on a channel's condition number: a number above 1, ``inf`` included."""
    cap = require_float(value, "condition_cap", finite=False)
    if not cap > 1.0:  # NaN fails
        raise InvalidArgumentError(f"condition_cap must exceed 1, got {cap!r}")
    return cap
