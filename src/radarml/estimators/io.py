"""Save and load fitted estimators as .npz containers.

The container holds a JSON metadata blob (kind, constructor params,
format version) plus every attribute ``fit`` sets: ``classes_``,
``n_features_`` and the names the class declares in ``fitted``, so a
load/save round trip reproduces predictions bit for bit. Arrays and
scalars are stored verbatim under their attribute name. Tree nodes (one
tree, a list of trees, or a list of stages of trees) are stored as one
concatenated array per node field plus a ``sizes`` array of node counts
whose shape is the nesting.
"""

from __future__ import annotations

import inspect
import io
import json
import zipfile

import numpy as np

from ..dataset import write_atomic
from .grids import ESTIMATOR_CLASSES
from .tree import TreeNodes

FORMAT_NAME = "radarml-model"
FORMAT_VERSION = 2

_COMMON_STATE = ("classes_", "n_features_")
_NODE_FIELDS = ("feature", "threshold", "left", "right", "value")


class ModelFormatError(ValueError):
    """Raised when a model file does not match the expected container."""


def _pack(name, value, arrays):
    if not isinstance(value, (TreeNodes, list)):
        arrays[name] = value
        return
    nested = np.array(value, dtype=object)  # a TreeNodes is not a sequence
    trees = nested.ravel()
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    arrays[name + ".sizes"] = sizes.reshape(nested.shape)
    for field in _NODE_FIELDS:
        arrays[f"{name}.{field}"] = np.concatenate([getattr(t, field) for t in trees])


def _unpack(name, arrays):
    if name in arrays:
        value = arrays[name]
        return value.item() if value.ndim == 0 else value
    sizes = arrays[name + ".sizes"]
    bounds = np.cumsum(sizes.ravel())[:-1]
    split = {f: np.split(arrays[f"{name}.{f}"], bounds) for f in _NODE_FIELDS}
    trees = np.empty(sizes.size, dtype=object)
    trees[:] = [TreeNodes(**{f: split[f][i] for f in _NODE_FIELDS}) for i in range(sizes.size)]
    return trees.reshape(sizes.shape).tolist()


def save_model(model, path) -> None:
    if not hasattr(model, "classes_"):
        raise ValueError("cannot save an unfitted estimator")
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.kind,
        "params": {p: getattr(model, p) for p in inspect.signature(type(model)).parameters},
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    }
    for name in (*_COMMON_STATE, *model.fitted):
        _pack(name, getattr(model, name), arrays)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_atomic(path, buf.getvalue())


def load_model(path):
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    # a non-archive fails as a pickle (ValueError), an empty file as EOFError,
    # a plain .npy array as TypeError (an array is no context manager)
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: not a model archive: {exc}") from exc
    if "meta" not in arrays:
        raise ModelFormatError(f"{path}: missing metadata entry")
    try:
        meta = json.loads(bytes(arrays.pop("meta")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: bad metadata: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    if meta.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {meta.get('version')!r}")
    kind = meta.get("kind")
    if not isinstance(kind, str) or kind not in ESTIMATOR_CLASSES:
        raise ModelFormatError(f"{path}: unknown estimator kind {kind!r}")
    params = meta.get("params")
    if not isinstance(params, dict):
        raise ModelFormatError(f"{path}: metadata has no params mapping")
    try:
        model = ESTIMATOR_CLASSES[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad params: {exc}") from exc
    try:
        for name in (*_COMMON_STATE, *model.fitted):
            setattr(model, name, _unpack(name, arrays))
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing array {exc}") from exc
    return model
