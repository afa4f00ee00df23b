"""Class-label schemes: the risk zone or grid cell that each label stands for.

Two labelings are supported. ``Simple4Scheme`` grades collision risk by
radial distance into four classes; ``Grid10Scheme`` assigns one label per
cell of a 3x3 ground grid in front of the radar. Label 0 always means
"no person". All interval boundaries are half-open [lower, upper), which
fixes the tie at an exact boundary deterministically.

The geometry of both is the paper's and fixed: it is declared once here,
as class constants, and no config field changes it. Each scheme declares
its kind, its class count, the farthest range of a placed target, the
box in which the generator places a target of each label and how box
coordinates become (range, azimuth). ``SCHEMES`` lists them by kind in
the order of their seed keys, which must not change.
"""

from __future__ import annotations

import math

import numpy as np


def _label_boxes(owned) -> np.ndarray:
    """(n_classes, 2, 2) array of the (lo, hi) of each label's two placement
    coordinates; row 0, no target, is NaN and ``owned`` fills the rest."""
    bounds = np.full((len(owned) + 1, 2, 2), np.nan)
    bounds[1:] = np.reshape(owned, (-1, 2, 2))
    return bounds


class Simple4Scheme:
    """Radial risk zones with boundaries R_HIGH < R_MED < R_LOW (meters).

    A present target maps to 1 (high risk) below R_HIGH, 2 below R_MED,
    3 below R_LOW; at or beyond R_LOW it is treated as absent (label 0).
    A target is placed by range and azimuth.
    """

    kind = "simple4"
    n_classes = 4
    R_HIGH = 1.0
    R_MED = 2.0
    R_LOW = 3.0
    max_range = R_LOW  # farthest range at which a target is placed (label 3)

    def placement_bounds(self, min_range: float) -> np.ndarray:
        """Per label, the range interval of its zone (the first starting at
        ``min_range``) and the azimuth interval of the half plane ahead."""
        edges = (min_range, self.R_HIGH, self.R_MED, self.R_LOW)
        return _label_boxes([((edges[k], edges[k + 1]), (-np.pi / 2, np.pi / 2)) for k in range(3)])

    @staticmethod
    def polar(range_m, azimuth):
        return range_m, azimuth


class Grid10Scheme:
    """3x3 grid of rectangular cells on the ground in front of the radar.

    The radar sits at the origin looking along +x (downrange). Rows advance
    downrange starting ``ORIGIN_RANGE`` meters out; the three columns tile
    the crossrange interval centered on boresight, column 0 being the left
    (negative azimuth) side. Labels 1-9 number the cells row-major from
    the nearest-left one. Cells are half-open in both axes and tile the
    rectangle without overlap. A target is placed by x and y.
    """

    kind = "grid10"
    ROWS = 3
    COLS = 3
    n_classes = 1 + ROWS * COLS
    ORIGIN_RANGE = 0.5
    CELL_DEPTH = 1.0
    CELL_WIDTH = 1.0
    # farthest range at which a target is placed: the far corners
    max_range = math.hypot(ORIGIN_RANGE + ROWS * CELL_DEPTH, 0.5 * COLS * CELL_WIDTH)

    def placement_bounds(self, min_range: float) -> np.ndarray:
        """Per label, the x and y intervals of its cell. The cells are
        fixed, so ``min_range`` is not read."""
        owned = []
        for row, col in (divmod(k, self.COLS) for k in range(self.n_classes - 1)):
            x_lo = self.ORIGIN_RANGE + row * self.CELL_DEPTH
            y_lo = -0.5 * self.COLS * self.CELL_WIDTH + col * self.CELL_WIDTH
            owned.append(((x_lo, x_lo + self.CELL_DEPTH), (y_lo, y_lo + self.CELL_WIDTH)))
        return _label_boxes(owned)

    @staticmethod
    def polar(x, y):
        return np.hypot(x, y), np.arctan2(y, x)


SCHEMES = {scheme.kind: scheme for scheme in (Simple4Scheme(), Grid10Scheme())}

N_CLASSES = {kind: scheme.n_classes for kind, scheme in SCHEMES.items()}
