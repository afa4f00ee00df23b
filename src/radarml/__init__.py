"""Synthetic UWB radar obstacle detection: data synthesis, signal
processing, from-scratch estimators, and reproducible experiments."""

from .dataset import DATA_TYPES, DatasetFormatError, LabeledDataset, load_dataset, save_dataset
from .labeling import GRID10, N_CLASSES, SIMPLE4, Grid10Scheme, Simple4Scheme
from .sigproc import (
    DegenerateScanError,
    analytic_envelope,
    derive_dataset,
    motion_filter,
    standardize,
    standardize_dataset,
)
from .synth import SPEED_OF_LIGHT, Scenario, generate_dataset, pulse_samples

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DATA_TYPES",
    "DatasetFormatError",
    "LabeledDataset",
    "load_dataset",
    "save_dataset",
    "GRID10",
    "SIMPLE4",
    "N_CLASSES",
    "Grid10Scheme",
    "Simple4Scheme",
    "DegenerateScanError",
    "analytic_envelope",
    "motion_filter",
    "standardize",
    "standardize_dataset",
    "derive_dataset",
    "SPEED_OF_LIGHT",
    "Scenario",
    "pulse_samples",
    "generate_dataset",
]
