"""Synthetic UWB radar obstacle detection: data synthesis, signal
processing, from-scratch estimators, and reproducible experiments."""

import os

# One BLAS thread per process unless the user set a count: radarml runs
# its own worker processes, and a BLAS thread pool in each of them only
# spins against the others. It must be set before numpy loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .dataset import DATA_TYPES, DatasetFormatError, LabeledDataset, load_dataset, save_dataset
from .labeling import N_CLASSES, SCHEMES, Grid10Scheme, Simple4Scheme
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
    "SCHEMES",
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
