"""Class-label schemes: the risk zone or grid cell that each label stands for.

Two labelings are supported. ``Simple4Scheme`` grades collision risk by
radial distance into four classes; ``Grid10Scheme`` assigns one label per
cell of a 3x3 ground grid in front of the radar. Label 0 always means
"no person". All interval boundaries are half-open [lower, upper), which
fixes the tie at an exact boundary deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

SIMPLE4 = "simple4"
GRID10 = "grid10"


@dataclass(frozen=True)
class Simple4Scheme:
    """Radial risk zones with boundaries r_high < r_med < r_low (meters).

    A present target maps to 1 (high risk) below r_high, 2 below r_med,
    3 below r_low; at or beyond r_low it is treated as absent (label 0).
    """

    r_high: float = 1.0
    r_med: float = 2.0
    r_low: float = 3.0

    def __post_init__(self):
        if not (0.0 < self.r_high < self.r_med < self.r_low):
            raise ValueError("risk boundaries must be positive and strictly increasing")

    @property
    def kind(self) -> str:
        return SIMPLE4

    @property
    def n_classes(self) -> int:
        return 4

    @property
    def max_range(self) -> float:
        """Farthest range at which a target is placed (label 3)."""
        return self.r_low


@dataclass(frozen=True)
class Grid10Scheme:
    """3x3 grid of rectangular cells on the ground in front of the radar.

    The radar sits at the origin looking along +x (downrange). Rows advance
    downrange starting ``origin_range`` meters out; the three columns tile
    the crossrange interval centered on boresight, column 0 being the left
    (negative azimuth) side. Cells are half-open in both axes and tile the
    rectangle without overlap.
    """

    origin_range: float = 0.5
    cell_depth: float = 1.0
    cell_width: float = 1.0

    ROWS = 3
    COLS = 3

    def __post_init__(self):
        if self.origin_range <= 0 or self.cell_depth <= 0 or self.cell_width <= 0:
            raise ValueError("grid origin and cell dimensions must be positive")

    @property
    def kind(self) -> str:
        return GRID10

    @property
    def n_classes(self) -> int:
        return 10

    @property
    def max_range(self) -> float:
        """Farthest range at which a target is placed: the far corners."""
        far_x = self.origin_range + self.ROWS * self.cell_depth
        return math.hypot(far_x, 0.5 * self.COLS * self.cell_width)

    def cell_bounds(self, row: int, col: int) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi) of a cell, half-open on the hi side."""
        x_lo = self.origin_range + row * self.cell_depth
        y_lo = -0.5 * self.COLS * self.cell_width + col * self.cell_width
        return x_lo, x_lo + self.cell_depth, y_lo, y_lo + self.cell_width


LabelScheme = Union[Simple4Scheme, Grid10Scheme]

N_CLASSES = {SIMPLE4: 4, GRID10: 10}
