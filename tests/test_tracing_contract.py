"""The benchmark tracer's hold on the package: every name it wraps exists,
its wrappers see the calls, and uninstalling puts every original back.

``benchmarks/tracing.py`` swaps module globals and estimator methods by
name, so a rename under ``src/`` would otherwise surface only as a broken
``benchmarks/run.py --trace 1`` run.
"""

import importlib.util
import multiprocessing
import os

import numpy as np
import pytest

from radarml import cli, modelsel
from radarml.config import parse_config
from radarml.estimators import GradientBoosting

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("radarml_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_name(owner):
    return getattr(owner, "__module__", None) if isinstance(owner, type) else owner.__name__


def test_every_wrapped_name_exists_and_is_put_back(tracing):
    # install looks each name up with getattr, so a missing one raises
    tracer = tracing.Tracer()
    wrapped = {}
    try:
        tracer.install()
        assert tracer._undo
        for owner, attr, original in tracer._undo:
            assert _owner_name(owner).startswith("radarml."), (owner, attr)
            inner = getattr(owner, attr).__wrapped__
            assert original is None or inner is original
            wrapped[(owner, attr, original is None)] = inner
    finally:
        tracer.uninstall()
    assert tracer._undo == []
    for (owner, attr, inherited), inner in wrapped.items():
        assert getattr(owner, attr) is inner
        # a method wrapped on a class that inherits it is removed again
        assert (attr in vars(owner)) != inherited


def test_wrappers_see_the_tree_kernels(tracing):
    # gradient boosting reaches growth and split search through the
    # module globals the tracer swaps, so both show up as spans
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 5))
    y = np.repeat(np.arange(3), 8)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        GradientBoosting(n_estimators=2, max_depth=2).fit(X, y)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["ensemble.trees_grown"] == 2 * 3
    assert metrics["tree.split_regression_calls"] >= 2 * 3
    assert metrics["ensemble.fit_s.gradient_boosting"] > 0.0


def test_worker_pool_runs_under_the_tracer(tracing):
    # the pool pickles its task function by name, which the tracer leaves
    # unwrapped; the workers' own spans stay in the workers, while at
    # jobs=1 every search and refit is traced here
    y = np.repeat(np.arange(3), 10)
    X = np.random.default_rng(1).normal(size=(y.size, 4)) + y[:, None]
    grids = {
        "knn": [{"n_neighbors": k} for k in (1, 3, 30)],
        "decision_tree": [{"criterion": "gini", "max_features": "auto"}],
    }
    outcomes = []
    for jobs in (1, 2):
        tracer = tracing.Tracer()
        try:
            tracer.install()
            result = modelsel.evaluate_kinds(
                X, y, X, y, kinds=tuple(grids), candidates_by_kind=grids, seed=2, jobs=jobs
            )
        finally:
            tracer.uninstall()
        assert multiprocessing.active_children() == []
        if jobs == 1:
            metrics = tracing.layer_metrics(tracer.spans)
            assert metrics["modelsel.grid_search_s.decision_tree"] > 0.0
            assert metrics["modelsel.refit_s.decision_tree"] > 0.0
            assert metrics["modelsel.grid_search_s.knn"] > 0.0
            # one shared fit per kind (k-NN scores every k from one), 5 folds
            assert metrics["modelsel.evals"] == 2 * 5
        reports = {
            kind: (r.best_params, r.fold_scores, r.test_accuracy, r.confusion.tolist())
            for kind, r in result.reports.items()
        }
        outcomes.append((result.errors, reports))
    assert outcomes[0] == outcomes[1]
    assert "exceeds" in outcomes[0][0]["knn"] and "decision_tree" in outcomes[0][1]


def test_traced_generate_counts_every_scan_and_file(tracing, tmp_path, monkeypatch):
    # blocks of 7 examples: each block is its own generate_dataset call,
    # and the spans still add up to three scans per example
    monkeypatch.setattr(cli, "_GROUP_BLOCK", 7)
    config = parse_config(
        {
            "n_per_class": 50,
            "scenarios": {"outdoor": {"environment": "outdoor", "noise_sigma": 0.001}},
        }
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.cmd_generate(config, str(tmp_path), None, 1) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["synth.scans"] == 3 * (4 + 10) * 50
    rds = sorted(n for n in os.listdir(tmp_path / "datasets") if n.endswith(".rds"))
    saves = [span for span in tracer.spans if span[0] == "dataset.save"]
    assert len(rds) == len(saves) == 2 * 6
    assert metrics["cli.files_written"] == 2 * len(rds)
    assert metrics["dataset.bytes_written"] == sum(os.path.getsize(tmp_path / "datasets" / n) for n in rds)
    assert metrics["sigproc.derive_s.motion_filtered"] > 0.0
    assert metrics["cli.generate_s"] > 0.0
