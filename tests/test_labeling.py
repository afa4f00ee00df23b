"""The label schemes, and forward labeling: the label of a target
position, which the tests use as the oracle of the generator's placement.

The generator draws a position inside the zone or cell of a label; the
functions here map a position back to its label, so a placement must
round-trip. Azimuth is carried in ``TargetState`` purely for labeling,
reproducing the inherent left/right ambiguity of a single monostatic
radar: the synthesized scan depends on the target's range only.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from radarml.labeling import N_CLASSES, SCHEMES, Grid10Scheme, Simple4Scheme


@dataclass(frozen=True)
class TargetState:
    range_m: float
    azimuth: float  # radians in [-pi/2, pi/2]; never observable in the scan
    reflectivity: float = 4.0
    jitter_sigma: float = 0.0  # meters of per-scan radial micro-motion


def simple_label(target: Optional[TargetState], scheme: Simple4Scheme) -> int:
    """Risk-zone label in {0, 1, 2, 3} for an optional target."""
    if target is None:
        return 0
    r = target.range_m
    if r < scheme.R_HIGH:
        return 1
    if r < scheme.R_MED:
        return 2
    if r < scheme.R_LOW:
        return 3
    return 0


def grid_label(target: Optional[TargetState], scheme: Grid10Scheme) -> int:
    """Grid-cell label in {0..9}; targets outside the 3x3 extent map to 0.

    The cell is found from the target's Cartesian position; numbering is
    row-major starting at the nearest-left cell (label 1).
    """
    if target is None:
        return 0
    x = target.range_m * math.cos(target.azimuth)
    y = target.range_m * math.sin(target.azimuth)
    x_lo = scheme.ORIGIN_RANGE
    y_lo = -0.5 * scheme.COLS * scheme.CELL_WIDTH
    if not (x_lo <= x < x_lo + scheme.ROWS * scheme.CELL_DEPTH):
        return 0
    if not (y_lo <= y < y_lo + scheme.COLS * scheme.CELL_WIDTH):
        return 0
    row = min(int((x - x_lo) / scheme.CELL_DEPTH), scheme.ROWS - 1)
    col = min(int((y - y_lo) / scheme.CELL_WIDTH), scheme.COLS - 1)
    return 1 + row * scheme.COLS + col


def label_of(target: Optional[TargetState], scheme) -> int:
    """Label under either scheme."""
    return {"simple4": simple_label, "grid10": grid_label}[scheme.kind](target, scheme)


def at(range_m, azimuth=0.0):
    return TargetState(range_m=range_m, azimuth=azimuth)


class TestSimple4:
    scheme = Simple4Scheme()

    @pytest.mark.parametrize(
        "range_m,expected",
        [
            (0.4, 1),
            (0.999, 1),
            (1.0, 2),  # boundaries are half-open: the tie goes outward
            (1.5, 2),
            (2.0, 3),
            (2.999, 3),
            (3.0, 0),
            (4.2, 0),
        ],
    )
    def test_zone_table(self, range_m, expected):
        assert simple_label(at(range_m), self.scheme) == expected

    def test_no_target_is_class_zero(self):
        assert simple_label(None, self.scheme) == 0

    def test_azimuth_ignored(self):
        for az in (-1.2, 0.0, 1.2):
            assert simple_label(at(1.5, az), self.scheme) == 2

    def test_zones_tile_from_min_range(self):
        bounds = self.scheme.placement_bounds(0.3)
        assert np.isnan(bounds[0]).all()
        assert bounds[1:, 0].tolist() == [[0.3, 1.0], [1.0, 2.0], [2.0, 3.0]]
        assert (bounds[1:, 1] == [-math.pi / 2, math.pi / 2]).all()
        assert self.scheme.max_range == 3.0


class TestGrid10:
    scheme = Grid10Scheme()

    def test_cell_centers_row_major(self):
        for row in range(3):
            for col in range(3):
                x = 1.0 + row
                y = col - 1.0
                t = at(math.hypot(x, y), math.atan2(y, x))
                assert grid_label(t, self.scheme) == 1 + row * 3 + col

    def test_no_target_is_class_zero(self):
        assert grid_label(None, self.scheme) == 0

    def test_half_open_boundaries(self):
        # on-the-line positions belong to the cell whose low edge they touch
        assert grid_label(at(0.5, 0.0), self.scheme) == 2  # x = 0.5, center column
        hi = math.hypot(3.5, 0.0)
        assert grid_label(at(hi, 0.0), self.scheme) == 0  # x = 3.5 falls outside
        left = at(math.hypot(1.0, -1.5), math.atan2(-1.5, 1.0))
        assert grid_label(left, self.scheme) == 1  # y = -1.5 is column 0's low edge
        right = at(math.hypot(1.0, 1.5), math.atan2(1.5, 1.0))
        assert grid_label(right, self.scheme) == 0  # y = 1.5 is past the last column

    def test_outside_extent_is_zero(self):
        assert grid_label(at(0.3, 0.0), self.scheme) == 0  # short of the first row
        assert grid_label(at(4.0, 0.0), self.scheme) == 0  # beyond the last row
        assert grid_label(at(2.0, 1.4), self.scheme) == 0  # wide of the grid

    def test_cell_bounds_tile_without_overlap(self):
        bounds = self.scheme.placement_bounds(0.3)
        assert np.isnan(bounds[0]).all()
        cells = bounds[1:].reshape(3, 3, 2, 2)  # row, col, (x, y), (lo, hi)
        for row in range(3):
            for col in range(3):
                (x_lo, x_hi), (y_lo, y_hi) = cells[row, col]
                assert x_hi - x_lo == pytest.approx(1.0)
                assert y_hi - y_lo == pytest.approx(1.0)
                if col < 2:
                    assert y_hi == pytest.approx(cells[row, col + 1, 1, 0])
                if row < 2:
                    assert x_hi == pytest.approx(cells[row + 1, col, 0, 0])
        assert (cells[0, :, 0, 0] == 0.5).all() and (cells[:, 0, 1, 0] == -1.5).all()
        assert self.scheme.max_range == pytest.approx(math.hypot(3.5, 1.5))


def test_label_of_dispatch():
    assert label_of(at(0.5), Simple4Scheme()) == 1
    assert label_of(at(1.0, 0.0), Grid10Scheme()) == 2


def test_registry_in_seed_key_order():
    # cli._entry_keys seeds each scheme by its position here
    assert list(SCHEMES) == ["simple4", "grid10"]
    assert [s.kind for s in SCHEMES.values()] == list(SCHEMES)
    assert N_CLASSES == {"simple4": 4, "grid10": 10}
