"""Class-label constructions mapping a target position (or absence) to a label.

Two labelings are supported. ``Simple4Scheme`` grades collision risk by
radial distance into four classes; ``Grid10Scheme`` assigns one label per
cell of a 3x3 ground grid in front of the radar. Label 0 always means
"no person". All interval boundaries are half-open [lower, upper), which
fixes the tie at an exact boundary deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from .synth import TargetState

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


def simple_label(target: Optional["TargetState"], scheme: Simple4Scheme) -> int:
    """Risk-zone label in {0, 1, 2, 3} for an optional target."""
    if target is None:
        return 0
    r = target.range_m
    if r < scheme.r_high:
        return 1
    if r < scheme.r_med:
        return 2
    if r < scheme.r_low:
        return 3
    return 0


def grid_label(target: Optional["TargetState"], scheme: Grid10Scheme) -> int:
    """Grid-cell label in {0..9}; targets outside the 3x3 extent map to 0.

    The cell is found from the target's Cartesian position; numbering is
    row-major starting at the nearest-left cell (label 1).
    """
    if target is None:
        return 0
    x = target.range_m * math.cos(target.azimuth)
    y = target.range_m * math.sin(target.azimuth)
    x_lo = scheme.origin_range
    y_lo = -0.5 * scheme.COLS * scheme.cell_width
    if not (x_lo <= x < x_lo + scheme.ROWS * scheme.cell_depth):
        return 0
    if not (y_lo <= y < y_lo + scheme.COLS * scheme.cell_width):
        return 0
    row = min(int((x - x_lo) / scheme.cell_depth), scheme.ROWS - 1)
    col = min(int((y - y_lo) / scheme.cell_width), scheme.COLS - 1)
    return 1 + row * scheme.COLS + col


def label_of(target: Optional["TargetState"], scheme: LabelScheme) -> int:
    """Label under either scheme."""
    if isinstance(scheme, Simple4Scheme):
        return simple_label(target, scheme)
    if isinstance(scheme, Grid10Scheme):
        return grid_label(target, scheme)
    raise TypeError(f"unknown labeling scheme: {scheme!r}")
