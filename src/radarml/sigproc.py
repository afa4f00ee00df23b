"""Scan transforms: baseband envelope, slow-time motion filter, standardization.

The baseband representation is the magnitude of the analytic signal,
computed with the frequency-domain Hilbert construction. The motion
filter is a second-order difference across three consecutive slow-time
scans, taken independently per fast-time bin, which cancels anything
static. Standardization centers each vector and scales it to unit
population standard deviation; ``standardize_rows`` is the one place
that decides which rows are too flat to standardize.

The matrix kernels walk their input in blocks of rows, so each block's
temporaries (the complex spectrum included) stay in a core's cache
instead of streaming whole-matrix copies through memory. Every row is
computed on its own, so the result does not depend on the block size.
"""

from __future__ import annotations

import numpy as np

from .dataset import DATA_TYPES, LabeledDataset

# Relative floor under which a scan's spread counts as zero; catches exact
# constants whose mean is not representable exactly.
_DEGENERATE_RTOL = 1e-12

# Elements per row block of a matrix kernel: 256 KB of float64, 512 KB of
# complex spectrum.
_BLOCK_ELEMENTS = 1 << 15


class DegenerateScanError(ValueError):
    """Scan with zero standard deviation; cannot be standardized."""


def _as_samples(x, min_len: int = 1, max_ndim: int = 1) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if not 1 <= v.ndim <= max_ndim:
        raise ValueError("expected a 1-D sample vector" if max_ndim == 1 else "expected a vector or a matrix")
    if v.shape[-1] < min_len:
        raise ValueError(f"sample vector must have at least {min_len} elements")
    return v


def _as_finite(x, min_len: int = 1, max_ndim: int = 1) -> np.ndarray:
    v = _as_samples(x, min_len, max_ndim)
    if not np.all(np.isfinite(v)):
        raise ValueError("sample vector contains non-finite values")
    return v


def sample_limit(n_bins: int) -> float:
    """Largest sample magnitude L for which every value derived and
    standardized from scans of ``n_bins`` samples is finite.

    With m <= n_bins + 1 points, the envelope's FFT sums stay within
    2 m^2 L, so envelopes (2 m L) and motion differences (4 L) are finite,
    and so are a standardized row's sum and centred values. At 480 bins L
    is about 1.9e302.
    """
    return float(np.finfo(np.float64).max) / (4.0 * (n_bins + 1) ** 2)


def _row_blocks(X: np.ndarray):
    """Slices of consecutive rows of a matrix, about ``_BLOCK_ELEMENTS`` each."""
    rows = max(1, _BLOCK_ELEMENTS // max(1, X.shape[1]))
    for start in range(0, X.shape[0], rows):
        yield slice(start, start + rows)


def analytic_envelope(scan) -> np.ndarray:
    """|analytic signal| via FFT: zero negative frequencies, double positive
    ones, keep DC and Nyquist, inverse transform, magnitude.

    Works along the last axis, so a matrix gives one envelope per row,
    transformed a block of rows at a time; each row equals the call on
    that row alone. Odd lengths are zero-padded to the next even length
    for the transform and the output is truncated back, so its shape
    always equals the input shape. Rows shorter than 8 samples are
    rejected.
    """
    return _envelope(_as_finite(scan, min_len=8, max_ndim=2))


def _envelope(x: np.ndarray) -> np.ndarray:
    """``analytic_envelope`` of samples whose shape is checked, without
    the finiteness scan."""
    n = x.shape[-1]
    m = n + n % 2
    weights = np.zeros(m)
    weights[0] = 1.0
    weights[m // 2] = 1.0
    weights[1 : m // 2] = 2.0
    rows = x.reshape(-1, n)
    out = np.empty(rows.shape)
    for block in _row_blocks(rows):
        spectrum = np.fft.fft(rows[block], n=m, axis=-1)
        spectrum *= weights
        analytic = np.fft.ifft(spectrum, axis=-1, out=spectrum)
        np.abs(analytic[:, :n], out=out[block])
    return out.reshape(x.shape)


def motion_filter(scan_t, scan_t1, scan_t2) -> np.ndarray:
    """Second-order slow-time difference per fast-time bin.

    ``scan_t1`` and ``scan_t2`` are the scans one and two slow-time steps
    before ``scan_t``; the output is scan_t - 2*scan_t1 + scan_t2. The
    arguments may be vectors or matrices of one shape (one scan per row).
    """
    a, b, c = (_as_finite(s, max_ndim=2) for s in (scan_t, scan_t1, scan_t2))
    if not (a.shape == b.shape == c.shape):
        raise ValueError("motion filter needs three scans of equal length")
    shape = a.shape
    return _motion(*(s.reshape(-1, shape[-1]) for s in (a, b, c))).reshape(shape)


def _motion(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``motion_filter`` of three matrices of one shape, without the
    finiteness scan."""
    out = np.empty(a.shape)
    for block in _row_blocks(out):
        out[block] = a[block] - 2.0 * b[block] + c[block]
    return out


def standardize(x) -> np.ndarray:
    """(x - mean) / population std, element-wise.

    Raises DegenerateScanError for constant vectors; dataset pipelines
    drop such examples and count them rather than aborting.
    """
    Z, kept = standardize_rows(_as_finite(x, min_len=2)[None, :])
    if not kept[0]:
        raise DegenerateScanError("constant scan has zero standard deviation")
    return Z[0]


def standardize_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row standardization of a scan matrix.

    Returns (Z, kept_mask). A row is degenerate, excluded from Z and
    marked False in the mask, when its population spread is at most
    ``_DEGENERATE_RTOL`` times max(1, its largest magnitude).
    """
    X = np.asarray(X, dtype=np.float64)
    Z = np.empty(X.shape)
    kept = np.empty(X.shape[0], dtype=bool)
    for block in _row_blocks(X):
        Xb = X[block]
        Zb = np.subtract(Xb, Xb.mean(axis=1, keepdims=True), out=Z[block])
        sigma = np.sqrt(np.mean(Zb**2, axis=1))
        largest = np.maximum(np.max(Xb, axis=1, initial=0.0), -np.min(Xb, axis=1, initial=0.0))
        kept[block] = ok = sigma > _DEGENERATE_RTOL * np.maximum(1.0, largest)
        # a dropped row is divided by 1 and then left out
        Zb /= np.where(ok, sigma, 1.0)[:, None]
    if not kept.all():
        Z = Z[kept]
    return Z, kept


def standardize_dataset(ds: LabeledDataset) -> LabeledDataset:
    """Standardize every example of a dataset; degenerate rows are
    dropped and counted in ``n_dropped``. As in ``derive_dataset``, the
    result is not scanned for finiteness."""
    Z, kept = standardize_rows(ds.scans)
    # rows derived from samples within sample_limit are finite, and so are
    # their sums and (x - mean) / sigma, with sigma > 0 on every kept row
    return LabeledDataset._of_finite_samples(
        scans=Z,
        labels=ds.labels[kept],
        scheme=ds.scheme,
        data_type=ds.data_type,
        scenario_id=ds.scenario_id,
        history=None,
        n_dropped=ds.n_dropped + int(np.sum(~kept)),
    )


def derive_dataset(raw: LabeledDataset, data_type: str) -> LabeledDataset:
    """Project a generator dataset onto one representation.

    raw keeps the slow-time-t scan; baseband takes its envelope;
    motion_filtered runs the second-order difference over the stored
    triple. Every example is kept: ``standardize_dataset`` drops the
    ones whose derived vector is constant.

    The derived values are not scanned for finiteness: those of a dataset
    (finite by its construction) whose samples lie within
    ``sample_limit(n_bins)``, as generated ones are checked to, are finite.
    """
    if data_type not in DATA_TYPES:
        raise ValueError(f"unknown data_type {data_type!r}")
    if data_type == "raw":
        features = raw.scans
    elif data_type == "baseband":
        features = _envelope(_as_samples(raw.scans, min_len=8, max_ndim=2))
    else:
        if raw.history is None:
            raise ValueError("motion_filtered derivation needs the slow-time triples")
        features = _motion(raw.scans, raw.history[:, 1], raw.history[:, 0])
    # a dataset's scans and history are finite (its constructor or the
    # generator checked them), and within sample_limit so are the envelope
    # and the motion difference
    return LabeledDataset._of_finite_samples(
        scans=features,
        labels=raw.labels,
        scheme=raw.scheme,
        data_type=data_type,
        scenario_id=raw.scenario_id,
        history=None,
        n_dropped=raw.n_dropped,
    )
