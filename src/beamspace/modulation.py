"""PSK constellations and the derived symbol-ratio alphabet.

Two streams of PSK symbols are multiplexed by reconfiguring the antenna
according to the ratio x2/x1 of the simultaneous baseband symbols.  For
M-PSK that ratio alphabet is exactly the M-th roots of unity, so every
antenna state is indexed by an integer k with ratio exp(2j*pi*k/M).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, require_float, require_whole

__all__ = ["RatioSet", "PskConstellation", "ratio_label"]

# Quarter-turn phasors kept exact so the +-1 / +-j states close under the
# basis algebra without rounding dust.
_EXACT_UNITS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _unit_phasor(k: int, order: int, offset: float = 0.0) -> complex:
    if offset == 0.0 and (4 * k) % order == 0:
        return _EXACT_UNITS[((4 * k) // order) % 4]
    ang = 2.0 * np.pi * k / order + offset
    return complex(np.cos(ang), np.sin(ang))


def ratio_label(k: int, order: int) -> str:
    """Human-readable name of ratio index ``k`` ("+1", "+j", ... for QPSK)."""
    if order == 4:
        return ("+1", "+j", "-1", "-j")[k % 4]
    if order == 2:
        return ("+1", "-1")[k % 2]
    return f"ratio_{k % order}"


@dataclass(frozen=True)
class RatioSet:
    """The M distinct symbol ratios x2/x1 of an M-PSK constellation."""

    order: int
    values: tuple[complex, ...] = field(init=False)

    def __post_init__(self) -> None:
        order = require_whole(self.order, "ratio-set order")
        if order < 2:
            raise InvalidArgumentError(f"ratio-set order must be >= 2, got {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", tuple(_unit_phasor(k, order) for k in range(order)))

    def label(self, k: int) -> str:
        return ratio_label(k, self.order)

    @property
    def plus_one_index(self) -> int:
        return 0

    @property
    def minus_one_index(self) -> int:
        """Index of ratio -1; only even orders contain it."""
        if self.order % 2:
            raise InvalidArgumentError(
                f"ratio -1 requires an even order, got {self.order}"
            )
        return self.order // 2


@dataclass(frozen=True)
class PskConstellation:
    """Unit-magnitude M-PSK alphabet exp(j*(2*pi*k/M + offset))."""

    order: int
    phase_offset: float = 0.0

    def __post_init__(self) -> None:
        order = require_whole(self.order, "constellation order")
        if order < 2:
            raise InvalidArgumentError(f"constellation order must be >= 2, got {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "phase_offset", require_float(self.phase_offset, "phase offset"))

    @classmethod
    def qpsk(cls) -> "PskConstellation":
        return cls(order=4)

    @property
    def points(self) -> np.ndarray:
        return np.array(
            [_unit_phasor(k, self.order, self.phase_offset) for k in range(self.order)]
        )

    @property
    def ratio_set(self) -> RatioSet:
        return RatioSet(order=self.order)

    def nearest(self, symbols) -> np.ndarray:
        """Quantize complex samples to the nearest constellation points."""
        symbols = np.asarray(symbols, dtype=complex)
        d = np.abs(symbols[..., None] - self.points)
        return self.points[np.argmin(d, axis=-1)]
