"""Span tracing of the radarml layers, installed from outside the package.

``Tracer.install`` swaps the module globals that callers look up by name
(and the ``fit``/``predict`` methods of every estimator class) for
wrappers that record one span per call: name, start, end, parent span and
a count. Nothing under ``src/`` is edited; ``uninstall`` puts every
original back. Spans stay in memory until ``write_jsonl``.

``layer_metrics`` folds the spans into the per-layer metrics named in
``PER_LAYER``. A span's self time is its duration minus the durations of
its direct children, which is what ``tree.grow_*_s`` report, because
tree growth contains the split searches.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from time import perf_counter

ENSEMBLE_KINDS = ("random_forest", "extra_trees", "gradient_boosting")
LINEAR_FITS = ("lbfgs", "sag", "newton-cg", "perceptron", "linear_svc")
DATA_TYPES = ("raw", "baseband", "motion_filtered")
SEARCH_KINDS = (
    "logistic_regression",
    "perceptron",
    "knn",
    "linear_svc",
    "decision_tree",
    "random_forest",
    "extra_trees",
    "gradient_boosting",
)

# (metric name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        (f"tree.{what}_{suffix}", unit)
        for what in ("split_regression", "split_exhaustive", "split_random", "apply")
        for suffix, unit in (("s", "s"), ("calls", "count"))
    ]
    + [("tree.grow_regression_s", "s"), ("tree.grow_classification_s", "s")]
    + [(f"ensemble.fit_s.{k}", "s") for k in ENSEMBLE_KINDS]
    + [(f"ensemble.predict_s.{k}", "s") for k in ENSEMBLE_KINDS]
    + [("ensemble.trees_grown", "count")]
    + [(f"linear.fit_s.{f}", "s") for f in LINEAR_FITS]
    + [("neighbors.predict_s", "s"), ("neighbors.distance_evals", "count")]
    + [("modelsel.split_s", "s")]
    + [(f"modelsel.grid_search_s.{k}", "s") for k in SEARCH_KINDS]
    + [(f"modelsel.cv_s.{k}.{q}", "s") for k in SEARCH_KINDS for q in ("p50", "p90")]
    + [(f"modelsel.refit_s.{k}", "s") for k in SEARCH_KINDS]
    + [("modelsel.evals", "count")]
    + [("synth.generate_dataset_s", "s"), ("synth.scans", "count")]
    + [(f"sigproc.derive_s.{dt}", "s") for dt in DATA_TYPES]
    + [("sigproc.standardize_s", "s"), ("sigproc.rows_dropped", "count")]
    + [
        ("dataset.save_s", "s"),
        ("dataset.bytes_written", "bytes"),
        ("dataset.load_s", "s"),
        ("dataset.bytes_read", "bytes"),
    ]
    + [("cli.generate_s", "s"), ("cli.files_written", "count")]
    + [("process.cpu_s", "s"), ("trace.overhead_s", "s")]
)

_NAME, _START, _END, _PARENT, _COUNT, _KIND = range(6)


def _fixed(name):
    return lambda args, result: (name, 0, None)


def _file_bytes(name, path_arg):
    def label(args, result):
        path = args[path_arg]
        return name, os.path.getsize(path) if os.path.exists(path) else 0, None

    return label


def _dropped(args, result):
    # rows a sigproc step dropped: its output's n_dropped minus its input's
    return 0 if result is None else result.n_dropped - args[0].n_dropped


def _estimator_label(verb):
    def label(args, result):
        model = args[0]
        kind = model.kind
        if kind in ENSEMBLE_KINDS:
            return f"ensemble.{verb}.{kind}", 0, kind
        if kind == "logistic_regression":
            return f"linear.{verb}.{model.solver if verb == 'fit' else kind}", 0, kind
        if kind in ("perceptron", "linear_svc"):
            return f"linear.{verb}.{kind}", 0, kind
        if kind == "knn":
            rows = 0
            if verb == "predict" and hasattr(model, "_X"):
                rows = len(args[1]) * model._X.shape[0]
            return f"neighbors.{verb}", rows, kind
        return f"tree.{verb}.{kind}", 0, kind

    return label


class Tracer:
    """Records spans for the calls made while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, count, kind]
        self._stack = []
        self._undo = []

    def _open(self):
        sid = len(self.spans)
        record = [None, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, None]
        self.spans.append(record)
        self._stack.append(sid)
        return record

    def _close(self, record):
        record[_END] = perf_counter()
        self._stack.pop()

    def root(self, name, fn, *args):
        """Call ``fn(*args)`` inside a top-level span of the benchmark's own."""
        record = self._open()
        record[_NAME] = name
        try:
            return fn(*args)
        finally:
            self._close(record)

    def _wrap(self, fn, label):
        def wrapper(*args, **kwargs):
            record = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(record)
                record[_NAME], record[_COUNT], record[_KIND] = label(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, label):
        owned = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, label))
        self._undo.append((owner, attr, original if owned else None))

    def install(self):
        """Wrap the public calls of every traced layer."""
        from radarml import cli, dataset, estimators, modelsel
        from radarml.estimators import ensemble, tree

        grow_and_apply = {
            "grow_classification": _fixed("tree.grow_classification"),
            "grow_regression": _fixed("tree.grow_regression"),
            "tree_apply": _fixed("tree.apply"),
        }
        for module, table in (
            (
                tree,
                {
                    "best_split_regression": _fixed("tree.split_regression"),
                    "best_split_exhaustive": _fixed("tree.split_exhaustive"),
                    "best_split_random": _fixed("tree.split_random"),
                    **grow_and_apply,
                },
            ),
            (ensemble, grow_and_apply),
            (
                modelsel,
                {
                    "stratified_kfold": _fixed("modelsel.split"),
                    "grid_search": lambda a, r: (f"modelsel.grid_search.{a[0]}", 0, a[0]),
                    "cross_val_scores": lambda a, r: (f"modelsel.cv.{a[0]}", len(a[4]), a[0]),
                    "evaluate_kinds": _fixed("modelsel.evaluate_kinds"),
                },
            ),
            (
                cli,
                {
                    "cmd_generate": _fixed("cli.generate"),
                    "write_atomic": _fixed("cli.write_atomic"),
                    "generate_dataset": lambda a, r: (
                        "synth.generate_dataset",
                        0 if r is None else 3 * r.n_examples,
                        None,
                    ),
                    "derive_dataset": lambda a, r: (f"sigproc.derive_s.{a[1]}", _dropped(a, r), None),
                    "standardize_dataset": lambda a, r: ("sigproc.standardize_s", _dropped(a, r), None),
                    "save_dataset": _file_bytes("dataset.save", 1),
                    "load_dataset": _file_bytes("dataset.load", 0),
                    "stratified_split": _fixed("modelsel.split"),
                },
            ),
            (dataset, {"load_dataset": _file_bytes("dataset.load", 0)}),
        ):
            for attr, label in table.items():
                self._patch(module, attr, label)
        for cls in estimators.ESTIMATOR_CLASSES.values():
            self._patch(cls, "fit", _estimator_label("fit"))
            self._patch(cls, "predict", _estimator_label("predict"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, count, kind) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "count": count, "kind": kind}
                    )
                    + "\n"
                )


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own


def _has_ancestor(spans, sid, prefix):
    parent = spans[sid][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME].startswith(prefix):
            return True
        parent = spans[parent][_PARENT]
    return False


def layer_metrics(spans):
    """Fold spans into the ``PER_LAYER`` metrics (without the process ones)."""
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}
    own = self_times(spans)
    durations = {}
    for sid, (name, start, end, parent, count, kind) in enumerate(spans):
        duration = end - start
        durations.setdefault(name, []).append(duration)
        family = name.split(".")[0]
        if name.startswith("tree.split_") or name == "tree.apply":
            out[f"{name}_s"] += duration
            out[f"{name}_calls"] += 1
        elif name.startswith("tree.grow_"):
            out[f"{name}_s"] += own[sid]
            if _has_ancestor(spans, sid, "ensemble.fit."):
                out["ensemble.trees_grown"] += 1
        elif name.startswith(("ensemble.fit.", "ensemble.predict.")):
            verb, kind = name.split(".")[1:]
            out[f"ensemble.{verb}_s.{kind}"] += duration
        elif name.startswith("linear.fit."):
            out[f"linear.fit_s.{name.split('.', 2)[2]}"] += duration
        elif name == "neighbors.predict":
            out["neighbors.predict_s"] += duration
            out["neighbors.distance_evals"] += count
        elif name == "modelsel.split":
            out["modelsel.split_s"] += duration
        elif name.startswith("modelsel.grid_search."):
            out[f"modelsel.grid_search_s.{kind}"] += duration
        elif name.startswith("modelsel.cv."):
            out["modelsel.evals"] += count
        elif name == "synth.generate_dataset":
            out["synth.generate_dataset_s"] += duration
            out["synth.scans"] += count
        elif name.startswith("sigproc."):
            out[name] += duration
            out["sigproc.rows_dropped"] += count
        elif name in ("dataset.save", "dataset.load"):
            out[f"{name}_s"] += duration
            out["dataset.bytes_written" if name == "dataset.save" else "dataset.bytes_read"] += count
            if name == "dataset.save":
                out["cli.files_written"] += 1
        elif name == "cli.write_atomic":
            out["cli.files_written"] += 1
        elif name == "cli.generate":
            out["cli.generate_s"] += duration
        if family in ("ensemble", "linear", "neighbors", "tree") and kind is not None:
            if parent >= 0 and spans[parent][_NAME] == "modelsel.evaluate_kinds":
                out[f"modelsel.refit_s.{kind}"] += duration
    for kind in SEARCH_KINDS:
        values = durations.get(f"modelsel.cv.{kind}", [])
        if values:
            out[f"modelsel.cv_s.{kind}.p50"] = statistics.median(values)
            out[f"modelsel.cv_s.{kind}.p90"] = _quantile(values, 0.9)
    return out


def _quantile(values, q):
    """Nearest-rank quantile, so a single candidate gives its own value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _last_root(spans, root_name):
    root = max(sid for sid, s in enumerate(spans) if s[_NAME] == root_name)
    return root, spans[root][_END] - spans[root][_START]


def layer_shares(spans, root_name):
    """Self time per layer inside the named root span, as a share of it."""
    own = self_times(spans)
    root, total = _last_root(spans, root_name)
    inside = {root}
    shares = {}
    for sid in range(root + 1, len(spans)):
        if spans[sid][_PARENT] in inside:
            inside.add(sid)
            layer = spans[sid][_NAME].split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own[sid] / total
    shares["(benchmark)"] = own[root] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def kind_shares(spans, root_name):
    """Search time per estimator kind inside the named root span."""
    root, total = _last_root(spans, root_name)
    shares = {}
    for sid in range(root + 1, len(spans)):
        name, start, end, parent, _, kind = spans[sid]
        refit = kind is not None and parent >= 0 and spans[parent][_NAME] == "modelsel.evaluate_kinds"
        if name.startswith("modelsel.grid_search.") or refit:
            shares[kind] = shares.get(kind, 0.0) + (end - start) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
