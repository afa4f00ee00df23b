"""Labeled scan datasets and their on-disk container.

A dataset is a matrix of fast-time scans plus a label vector. Datasets
produced by the generator additionally carry the two preceding slow-time
scans per example (``history``) so the motion filter can be derived
without regenerating anything.

Binary file layout (all integers little-endian):

    magic        4 bytes   b"RDS1"
    version      uint32    currently 1
    n_examples   uint64
    n_bins       uint64
    scheme       uint16 length + UTF-8 bytes
    data_type    uint16 length + UTF-8 bytes
    scenario_id  uint16 length + UTF-8 bytes
    scans        float64 x (n_examples * n_bins), row-major
    labels       int64 x n_examples

A load (``load_dataset`` on a file, ``dataset_from_bytes`` on a buffer)
checks the payload size the header implies against the bytes left after
the header before it allocates anything: too few is "truncated", too
many "trailing bytes", and a header whose payload could not be held in
memory even with no rows is rejected too. It then reads the scans and
labels once, straight into the arrays it returns, so no other copy of
the payload is held beside them.

A human-readable YAML sidecar written next to each file records the
generating configuration.
"""

from __future__ import annotations

import io
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .labeling import N_CLASSES

MAGIC = b"RDS1"
FORMAT_VERSION = 1

DATA_TYPES = ("raw", "baseband", "motion_filtered")

# Scan elements gathered per block when a file is written: 256 KB of float64.
_WRITE_BLOCK_ELEMENTS = 1 << 15


class DatasetFormatError(ValueError):
    """Raised when a dataset file does not match the documented layout."""


@dataclass
class LabeledDataset:
    scans: np.ndarray  # (n_examples, n_bins) float64, the slow-time-t scan
    labels: np.ndarray  # (n_examples,) int64
    scheme: str  # labeling scheme kind, a key of labeling.SCHEMES
    data_type: str  # "raw" | "baseband" | "motion_filtered"
    scenario_id: str
    history: Optional[np.ndarray] = None  # (n_examples, 2, n_bins): scans at t-2, t-1
    n_dropped: int = 0  # examples removed as degenerate during derivation

    def __post_init__(self):
        self._check_fields()
        for samples in (self.scans, self.history):
            if samples is not None and not np.all(np.isfinite(samples)):
                raise ValueError("scan samples must all be finite")

    def _check_fields(self):
        """Every check of the constructor but the finiteness scan."""
        self.scans = np.asarray(self.scans, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scans.ndim != 2:
            raise ValueError("scans must be a 2-D matrix")
        if self.labels.shape != (self.scans.shape[0],):
            raise ValueError("labels length must match the number of scans")
        if self.data_type not in DATA_TYPES:
            raise ValueError(f"unknown data_type {self.data_type!r}")
        n_classes = N_CLASSES.get(self.scheme)
        if n_classes is None:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= n_classes):
            raise ValueError(f"labels outside 0..{n_classes - 1} for scheme {self.scheme}")
        if self.history is not None:
            self.history = np.asarray(self.history, dtype=np.float64)
            if self.history.shape != (self.n_examples, 2, self.n_bins):
                raise ValueError("history must have shape (n_examples, 2, n_bins)")

    @classmethod
    def _of_finite_samples(cls, **values) -> LabeledDataset:
        """A dataset whose samples the caller knows to be finite: the
        constructor's checks without its scan of every sample. Generation
        checks each raw block once (``sigproc.sample_limit``); what is
        derived, standardized and assembled from it is finite by
        construction, and each caller says why. Omitted fields take their
        defaults."""
        ds = cls.__new__(cls)
        ds.__dict__.update({f.name: f.default for f in fields(cls) if f.default is not MISSING}, **values)
        ds._check_fields()
        return ds

    @property
    def n_examples(self) -> int:
        return self.scans.shape[0]

    @property
    def n_bins(self) -> int:
        return self.scans.shape[1]


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string field too long for dataset header")
    return struct.pack("<H", len(raw)) + raw


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DatasetFormatError("truncated dataset file")
    return buf


def _unpack_str(fh) -> str:
    (length,) = struct.unpack("<H", _read_exact(fh, 2))
    try:
        return _read_exact(fh, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"header string is not UTF-8: {exc}") from None


def write_dataset(ds: LabeledDataset, fh, rows=None) -> None:
    """Write the documented binary layout to a binary file (history is
    not stored). ``rows`` writes only those examples, in that order.
    Scans go to ``fh`` a block of rows at a time, so no copy of the file
    or of the subset is built in memory."""
    rows = np.arange(ds.n_examples) if rows is None else np.asarray(rows)
    fh.write(MAGIC)
    fh.write(struct.pack("<I", FORMAT_VERSION))
    fh.write(struct.pack("<QQ", rows.size, ds.n_bins))
    fh.write(_pack_str(ds.scheme))
    fh.write(_pack_str(ds.data_type))
    fh.write(_pack_str(ds.scenario_id))
    step = max(1, _WRITE_BLOCK_ELEMENTS // max(1, ds.n_bins))
    for start in range(0, rows.size, step):
        fh.write(np.ascontiguousarray(ds.scans[rows[start : start + step]], dtype="<f8"))
    fh.write(np.ascontiguousarray(ds.labels[rows], dtype="<i8"))


def _read_dataset(fh, size: int) -> LabeledDataset:
    """The dataset in the ``size`` bytes of binary file ``fh``, read from
    its start. The payload size the header implies is checked against the
    file before anything is allocated; the scans and labels are then read
    once, straight into the arrays the dataset holds."""
    if _read_exact(fh, 4) != MAGIC:
        raise DatasetFormatError("bad magic; not a dataset file")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset format version {version}")
    n_examples, n_bins = struct.unpack("<QQ", _read_exact(fh, 16))
    # numpy sizes an array by each extent, so a row of n_bins must be
    # addressable even when there are no rows
    if 8 * max(n_examples, 1) * (n_bins + 1) > sys.maxsize:
        raise DatasetFormatError(f"header claims {n_examples} x {n_bins} samples, more than memory can hold")
    scheme, data_type, scenario_id = _unpack_str(fh), _unpack_str(fh), _unpack_str(fh)
    left, payload = size - fh.tell(), 8 * n_examples * (n_bins + 1)
    if left < payload:
        raise DatasetFormatError("truncated dataset file")
    if left > payload:
        raise DatasetFormatError("trailing bytes after dataset payload")
    scans = np.empty((n_examples, n_bins), dtype="<f8")
    labels = np.empty(n_examples, dtype="<i8")
    for array in (scans, labels):
        if fh.readinto(array) != array.nbytes:  # a file that shrank since it was sized
            raise DatasetFormatError("truncated dataset file")
    try:
        return LabeledDataset(scans, labels, scheme, data_type, scenario_id)
    except ValueError as exc:
        raise DatasetFormatError(f"invalid dataset payload: {exc}") from None


def dataset_from_bytes(buf: bytes) -> LabeledDataset:
    return _read_dataset(io.BytesIO(buf), len(buf))


@contextmanager
def _atomic_file(path: str):
    """Binary file that appears at ``path`` only once fully written
    (write-then-rename), so readers never observe a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def write_atomic(path: str, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def save_dataset(ds: LabeledDataset, path: str, rows=None) -> None:
    with _atomic_file(path) as fh:
        write_dataset(ds, fh, rows)


def load_dataset(path: str) -> LabeledDataset:
    """Read a dataset file; DatasetFormatError (naming the file) when its
    bytes do not follow the documented layout."""
    with open(path, "rb") as fh:
        try:
            return _read_dataset(fh, os.fstat(fh.fileno()).st_size)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
