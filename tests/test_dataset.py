import io
import os
import struct

import numpy as np
import pytest

from radarml import dataset
from radarml.dataset import (
    MAGIC,
    DatasetFormatError,
    LabeledDataset,
    dataset_from_bytes,
    load_dataset,
    save_dataset,
    write_atomic,
    write_dataset,
)


def dataset_to_bytes(ds):
    out = io.BytesIO()
    write_dataset(ds, out)
    return out.getvalue()


def documented_layout(ds):
    """The file bytes the module docstring specifies, built by hand."""
    strings = b"".join(
        struct.pack("<H", len(s.encode("utf-8"))) + s.encode("utf-8")
        for s in (ds.scheme, ds.data_type, ds.scenario_id)
    )
    return (
        b"RDS1"
        + struct.pack("<IQQ", 1, ds.n_examples, ds.n_bins)
        + strings
        + np.asarray(ds.scans, dtype="<f8").tobytes()
        + np.asarray(ds.labels, dtype="<i8").tobytes()
    )


def small_dataset(n=6, n_bins=16, scheme="simple4"):
    rng = np.random.default_rng(0)
    return LabeledDataset(
        scans=rng.normal(size=(n, n_bins)),
        labels=np.arange(n) % 4 if scheme == "simple4" else np.arange(n) % 10,
        scheme=scheme,
        data_type="baseband",
        scenario_id="unit",
        history=rng.normal(size=(n, 2, n_bins)),
    )


class TestContainer:
    def test_field_coercion_and_props(self):
        ds = small_dataset()
        assert ds.scans.dtype == np.float64
        assert ds.labels.dtype == np.int64
        assert ds.n_examples == 6
        assert ds.n_bins == 16
        assert ds.dataset_id == "unit-simple4-baseband"

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 4)), np.zeros(2, dtype=int), "simple4", "raw", "x")
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(4), np.zeros(4, dtype=int), "simple4", "raw", "x")
        with pytest.raises(ValueError):
            LabeledDataset(
                np.zeros((3, 4)),
                np.zeros(3, dtype=int),
                "simple4",
                "raw",
                "x",
                history=np.zeros((3, 2, 5)),
            )

    def test_non_finite_and_bad_type_rejected(self):
        bad = np.zeros((2, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            LabeledDataset(bad, np.zeros(2, dtype=int), "simple4", "raw", "x")
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 4)), np.zeros(2, dtype=int), "simple4", "fft", "x")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_history_rejected(self, value):
        # derivation trusts a dataset's scans and history to be finite
        history = np.zeros((2, 2, 4))
        history[1, 0, 3] = value
        with pytest.raises(ValueError, match="scan samples must all be finite"):
            LabeledDataset(np.zeros((2, 4)), np.zeros(2, dtype=int), "simple4", "raw", "x", history=history)

    def test_unscanned_path_keeps_every_other_check(self):
        # the private path that callers with finite samples use
        ds = LabeledDataset._of_finite_samples(
            scans=[[1, 2], [3, 4]], labels=[0.0, 1.0], scheme="simple4", data_type="raw", scenario_id="x"
        )
        assert ds.scans.dtype == np.float64 and ds.labels.dtype == np.int64
        assert ds.history is None and ds.n_dropped == 0
        with pytest.raises(ValueError, match="labels length"):
            LabeledDataset._of_finite_samples(
                scans=np.zeros((2, 4)), labels=np.zeros(3), scheme="simple4", data_type="raw", scenario_id="x"
            )
        with pytest.raises(ValueError, match="history must have shape"):
            LabeledDataset._of_finite_samples(
                scans=np.zeros((2, 4)),
                labels=np.zeros(2),
                scheme="simple4",
                data_type="raw",
                scenario_id="x",
                history=np.zeros((2, 2, 5)),
            )


class TestValidateLabels:
    def test_valid_dataset_passes(self):
        small_dataset(n=8).validate_labels()

    def test_unknown_scheme_rejected(self):
        ds = small_dataset()
        ds.scheme = "zones"
        with pytest.raises(ValueError):
            ds.validate_labels()

    def test_label_out_of_range_rejected(self):
        ds = small_dataset()
        ds.labels[0] = 4
        with pytest.raises(ValueError):
            ds.validate_labels()

    def test_singleton_class_rejected(self):
        ds = small_dataset(n=5)  # class 0 has 2 examples, class 1..3 have 1
        with pytest.raises(ValueError):
            ds.validate_labels()


class TestSerialization:
    def test_round_trip_preserves_everything_but_history(self):
        ds = small_dataset()
        back = dataset_from_bytes(dataset_to_bytes(ds))
        np.testing.assert_array_equal(back.scans, ds.scans)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.scheme == ds.scheme
        assert back.data_type == ds.data_type
        assert back.scenario_id == ds.scenario_id
        assert back.history is None

    def test_byte_identical_serialization(self):
        ds = small_dataset()
        assert dataset_to_bytes(ds) == dataset_to_bytes(ds)

    def test_bad_magic_rejected(self):
        buf = bytearray(dataset_to_bytes(small_dataset()))
        buf[:4] = b"JUNK"
        with pytest.raises(DatasetFormatError):
            dataset_from_bytes(bytes(buf))

    def test_bad_version_rejected(self):
        buf = bytearray(dataset_to_bytes(small_dataset()))
        buf[4] = 99
        with pytest.raises(DatasetFormatError):
            dataset_from_bytes(bytes(buf))

    def test_truncation_rejected(self):
        buf = dataset_to_bytes(small_dataset())
        with pytest.raises(DatasetFormatError):
            dataset_from_bytes(buf[: len(buf) // 2])

    def test_trailing_bytes_rejected(self):
        buf = dataset_to_bytes(small_dataset())
        with pytest.raises(DatasetFormatError):
            dataset_from_bytes(buf + b"\x00")

    def test_magic_constant(self):
        assert dataset_to_bytes(small_dataset())[:4] == MAGIC

    def test_bytes_follow_the_documented_layout(self):
        ds = small_dataset()
        assert dataset_to_bytes(ds) == documented_layout(ds)

    def test_invalid_payload_is_a_format_error(self):
        # a NaN sample and an unknown data type both parse but are not a dataset
        buf = bytearray(dataset_to_bytes(small_dataset()))
        first_sample = buf.index(b"unit") + 4  # the scenario id ends the header
        buf[first_sample : first_sample + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(DatasetFormatError, match="finite"):
            dataset_from_bytes(bytes(buf))
        buf = dataset_to_bytes(small_dataset()).replace(b"baseband", b"basebanX")
        with pytest.raises(DatasetFormatError, match="data_type"):
            dataset_from_bytes(buf)


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        ds = small_dataset()
        path = str(tmp_path / "d.rds")
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.scans, ds.scans)
        assert back.labels.tolist() == ds.labels.tolist()

    def test_saved_file_follows_the_documented_layout(self, tmp_path):
        # a strided scan matrix, as a row subset of a larger buffer
        base = small_dataset(n=12)
        ds = LabeledDataset(base.scans[::2], base.labels[::2], "simple4", "raw", "unit")
        path = str(tmp_path / "d.rds")
        save_dataset(ds, path)
        with open(path, "rb") as fh:
            assert fh.read() == documented_layout(ds)
        assert os.listdir(tmp_path) == ["d.rds"]

    @pytest.mark.parametrize("block_elements", [1, 48, 1 << 15])
    def test_saving_rows_writes_that_subset(self, tmp_path, monkeypatch, block_elements):
        # blocks of one row, of three rows (16 bins), and of all of them
        monkeypatch.setattr(dataset, "_WRITE_BLOCK_ELEMENTS", block_elements)
        ds = small_dataset(n=12)
        rows = np.array([9, 0, 4, 4, 11, 2, 7])
        path = str(tmp_path / "d.rds")
        save_dataset(ds, path, rows)
        part = LabeledDataset(ds.scans[rows], ds.labels[rows], ds.scheme, ds.data_type, ds.scenario_id)
        with open(path, "rb") as fh:
            assert fh.read() == documented_layout(part)

    def test_load_names_the_corrupt_file(self, tmp_path):
        path = str(tmp_path / "d.rds")
        save_dataset(small_dataset(), path)
        with open(path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(DatasetFormatError, match="d.rds: truncated"):
            load_dataset(path)

    def test_write_atomic_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        write_atomic(path, b"payload")
        with open(path, "rb") as fh:
            assert fh.read() == b"payload"
        assert os.listdir(tmp_path) == ["blob.bin"]
