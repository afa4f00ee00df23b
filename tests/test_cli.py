import hashlib
import json
import multiprocessing
import os
import re

import pytest
import yaml

from radarml import cli
from radarml.cli import (
    EXIT_CONFIG,
    EXIT_ESTIMATOR,
    EXIT_MISSING,
    EXIT_OK,
    _parse_estimators,
    aggregate_rows,
    main,
)
from radarml.config import ConfigError

TINY = {
    "seed": 0,
    "n_per_class": 50,
    "scenarios": {
        "outdoor": {
            "environment": "outdoor",
            "clutter_amplitude": 0.05,
            "clutter_path_count": 4,
            "noise_sigma": 0.001,
        }
    },
    "schemes": ["simple4"],
    "data_types": ["motion_filtered"],
    "estimators": ["linear_svc", "decision_tree"],
}


# The train sidecar TINY writes; its bytes must not change.
PINNED_TRAIN_SIDECAR = """\
class_counts:
  0: 5
  1: 5
  2: 5
  3: 5
counterpart: outdoor-simple4-motion_filtered-test.rds
data_type: motion_filtered
dataset_id: outdoor-simple4-motion_filtered
experiment_seed: 0
format: RDS1
n_bins: 480
n_dropped: 0
n_examples: 20
role: train
scenario:
  amplitude_exponent: 2.0
  bin_duration_ps: 61.0
  clutter_amplitude: 0.05
  clutter_path_count: 4
  direct_path_amplitude: 1.0
  environment: outdoor
  n_bins: 480
  noise_sigma: 0.001
  pulse_center_freq_hz: 1600000000.0
  pulse_sigma_ps: 600.0
  scenario_id: outdoor
  seed: 3681913448081106325
scheme: simple4
target:
  jitter_sigma: 0.06
  min_range: 0.3
  reflectivity: 4.0
version: 1
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return str(path)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def generate(cfg_path, out):
    return main(["generate", "--config", cfg_path, "--out", out])


class TestGenerate:
    def test_writes_pairs_and_sidecars(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        assert generate(cfg_path, out) == EXIT_OK
        base = os.path.join(out, "datasets")
        names = sorted(os.listdir(base))
        assert names == [
            "outdoor-simple4-motion_filtered-test.rds",
            "outdoor-simple4-motion_filtered-test.rds.meta.yaml",
            "outdoor-simple4-motion_filtered-train.rds",
            "outdoor-simple4-motion_filtered-train.rds.meta.yaml",
        ]
        with open(os.path.join(base, names[3]), "r", encoding="utf-8") as fh:
            meta = yaml.safe_load(fh)
        assert meta["role"] == "train"
        assert meta["counterpart"] == names[0]
        assert meta["scheme"] == "simple4"
        assert meta["data_type"] == "motion_filtered"
        assert sum(meta["class_counts"].values()) == meta["n_examples"]
        assert meta["scenario"]["environment"] == "outdoor"

    def test_split_sizes_follow_train_fraction(self, cfg_path, tmp_path):
        from radarml.dataset import load_dataset

        out = str(tmp_path / "out")
        generate(cfg_path, out)
        base = os.path.join(out, "datasets")
        train = load_dataset(os.path.join(base, "outdoor-simple4-motion_filtered-train.rds"))
        test = load_dataset(os.path.join(base, "outdoor-simple4-motion_filtered-test.rds"))
        # 10% of 50 per class, 4 classes
        assert train.n_examples == 20
        assert test.n_examples == 180
        assert train.n_bins == 480

    def test_regeneration_byte_identical(self, cfg_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        generate(cfg_path, out_a)
        generate(cfg_path, out_b)
        for name in ("train", "test"):
            fa = os.path.join(out_a, "datasets", f"outdoor-simple4-motion_filtered-{name}.rds")
            fb = os.path.join(out_b, "datasets", f"outdoor-simple4-motion_filtered-{name}.rds")
            assert digest(fa) == digest(fb)

    def test_seed_override_changes_data(self, cfg_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        generate(cfg_path, out_a)
        assert main(["generate", "--config", cfg_path, "--out", out_b, "--seed", "1"]) == EXIT_OK
        fa = os.path.join(out_a, "datasets", "outdoor-simple4-motion_filtered-train.rds")
        fb = os.path.join(out_b, "datasets", "outdoor-simple4-motion_filtered-train.rds")
        assert digest(fa) != digest(fb)

    def test_data_type_filter(self, tmp_path):
        cfg = dict(TINY, data_types=["raw", "motion_filtered"])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = str(tmp_path / "out")
        assert main(
            ["generate", "--config", str(path), "--out", out, "--data-type", "raw"]
        ) == EXIT_OK
        names = os.listdir(os.path.join(out, "datasets"))
        assert all("-raw-" in n for n in names)
        assert len(names) == 4

    def test_sidecar_bytes_pinned(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        path = os.path.join(out, "datasets", "outdoor-simple4-motion_filtered-train.rds.meta.yaml")
        with open(path, "rb") as fh:
            assert fh.read() == PINNED_TRAIN_SIDECAR.encode("utf-8")

    def test_sidecars_count_dropped_rows(self, cfg_path, tmp_path, monkeypatch):
        derive = cli.derive_dataset

        def with_a_constant_row(raw, data_type):
            derived = derive(raw, data_type)
            derived.scans[0] = 1.0  # standardize_dataset drops it
            return derived

        monkeypatch.setattr(cli, "derive_dataset", with_a_constant_row)
        out = str(tmp_path / "out")
        assert generate(cfg_path, out) == EXIT_OK
        kept = 0
        for role in ("train", "test"):
            path = os.path.join(out, "datasets", f"outdoor-simple4-motion_filtered-{role}.rds.meta.yaml")
            with open(path, "r", encoding="utf-8") as fh:
                meta = yaml.safe_load(fh)
            assert meta["n_dropped"] == 1
            kept += meta["n_examples"]
        assert kept == 4 * TINY["n_per_class"] - 1

    def test_parallel_groups_write_the_same_bytes(self, tmp_path):
        cfg = dict(TINY, schemes=["simple4", "grid10"], data_types=["raw", "baseband"])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        outs = [str(tmp_path / name) for name in ("serial", "parallel")]
        for out, jobs in zip(outs, ("1", "2")):
            assert main(["generate", "--config", str(path), "--out", out, "--jobs", jobs]) == EXIT_OK
        assert multiprocessing.active_children() == []
        names = sorted(os.listdir(os.path.join(outs[0], "datasets")))
        assert len(names) == 16
        assert names == sorted(os.listdir(os.path.join(outs[1], "datasets")))
        for name in names:
            assert digest(os.path.join(outs[0], "datasets", name)) == digest(
                os.path.join(outs[1], "datasets", name)
            )

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"n_per_clas": 10}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config"),
            ("seed: [unclosed", "cannot parse config"),
            ("- seed\n- 1\n", "config: top level must be a mapping"),
        ],
    )
    def test_unreadable_config_exit_code(self, text, message, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        if text is not None:
            path.write_text(text)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestRun:
    def test_missing_datasets_exit_code(self, cfg_path, tmp_path):
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_MISSING

    def test_reports_and_aggregate(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        assert main(["run", "--config", cfg_path, "--out", out]) == EXIT_OK
        report_path = os.path.join(out, "reports", "outdoor-simple4-motion_filtered.json")
        with open(report_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["errors"] == {}
        assert set(payload["estimators"]) == {"linear_svc", "decision_tree"}
        for report in payload["estimators"].values():
            assert 0.0 <= report["test_accuracy"] <= 100.0
            assert len(report["fold_scores"]) == 5
            assert report["n_train"] == 20
            assert report["n_test"] == 180
            assert report["seconds"] > 0
        with open(os.path.join(out, "reports", "aggregate.csv"), "r", encoding="utf-8") as fh:
            header, row = fh.read().splitlines()
        assert header == "dataset_id,linear_svc,decision_tree"
        cells = row.split(",")
        assert cells[0] == "outdoor-simple4-motion_filtered"
        # cells parse back to the report values exactly
        assert float(cells[1]) == payload["estimators"]["linear_svc"]["test_accuracy"]
        assert float(cells[2]) == payload["estimators"]["decision_tree"]["test_accuracy"]

    def test_same_bytes_at_any_jobs(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        reports = os.path.join(out, "reports")
        written = []
        for jobs in ("1", "2", "4"):
            # knn fails (k reaches 30, a fold trains on 16) beside two kinds that succeed
            args = ["run", "--config", cfg_path, "--out", out, "--jobs", jobs]
            assert main(args + ["--estimators", "knn,linear_svc,decision_tree"]) == EXIT_ESTIMATOR
            assert multiprocessing.active_children() == []
            report_path = os.path.join(reports, "outdoor-simple4-motion_filtered.json")
            with open(report_path, "r", encoding="utf-8") as fh:
                report = re.sub(r'"seconds": [^,\n]+', '"seconds": 0', fh.read())
            with open(os.path.join(reports, "aggregate.csv"), "r", encoding="utf-8") as fh:
                written.append((report, fh.read()))
        assert written[0] == written[1] == written[2]
        payload = json.loads(written[0][0])
        assert set(payload["estimators"]) == {"linear_svc", "decision_tree"}
        assert "exceeds 16 training examples" in payload["errors"]["knn"]

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_zero_jobs_exit_code(self, cfg_path, tmp_path, command):
        args = [command, "--config", cfg_path, "--out", str(tmp_path / "o"), "--jobs", "0"]
        assert main(args) == EXIT_CONFIG

    def test_estimator_failure_exit_code(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        # the knn grid reaches k=30 but each CV fold trains on only 16
        # examples, so the kind fails and is recorded as an error
        assert main(
            ["run", "--config", cfg_path, "--out", out, "--estimators", "knn"]
        ) == EXIT_ESTIMATOR
        with open(
            os.path.join(out, "reports", "outdoor-simple4-motion_filtered.json"),
            "r",
            encoding="utf-8",
        ) as fh:
            payload = json.load(fh)
        assert "knn" in payload["errors"]
        assert payload["estimators"] == {}
        with open(os.path.join(out, "reports", "aggregate.csv"), "r", encoding="utf-8") as fh:
            header, row = fh.read().splitlines()
        assert header == "dataset_id,knn"
        assert row == "outdoor-simple4-motion_filtered,"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda buf: buf[: len(buf) // 2],  # truncated
            lambda buf: b"JUNK" + buf[4:],  # bad magic
            lambda buf: buf + b"\x00",  # trailing bytes
        ],
        ids=["truncated", "bad_magic", "trailing"],
    )
    def test_corrupt_dataset_exit_code(self, cfg_path, tmp_path, capsys, damage):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        path = os.path.join(out, "datasets", "outdoor-simple4-motion_filtered-train.rds")
        with open(path, "rb") as fh:
            buf = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(buf))
        capsys.readouterr()
        assert main(["run", "--config", cfg_path, "--out", out]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("corrupt input: ") and path in err

    def test_unknown_estimator_exit_code(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        assert main(
            ["run", "--config", cfg_path, "--out", out, "--estimators", "svm_rbf"]
        ) == EXIT_CONFIG


class TestReport:
    def test_ranks_and_rewrites_aggregate(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        generate(cfg_path, out)
        main(["run", "--config", cfg_path, "--out", out])
        before = digest(os.path.join(out, "reports", "aggregate.csv"))
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "outdoor-simple4-motion_filtered:" in text
        assert "  1. " in text and "  2. " in text
        # same payloads and column order -> rewritten table is identical
        assert digest(os.path.join(out, "reports", "aggregate.csv")) == before

    def test_report_without_runs_exit_code(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nope")]) == EXIT_MISSING

    @pytest.mark.parametrize(
        "text",
        [
            '{"dataset_id": "d", "estimators": {"knn": {"test_acc',  # truncated
            '{"dataset_id": "d", "errors": {}}',  # no estimators
            '{"dataset_id": "d", "estimators": {"knn": {"validation_accuracy": 1.0}}}',
            '{"dataset_id": "d", "estimators": {"svm": {}}}',
            "[1, 2]",
        ],
        ids=["truncated", "no_estimators", "no_test_accuracy", "unknown_kind", "not_a_mapping"],
    )
    def test_corrupt_report_exit_code(self, tmp_path, capsys, text):
        reports = tmp_path / "out" / "reports"
        reports.mkdir(parents=True)
        (reports / "d.json").write_text(text)
        assert main(["report", "--out", str(tmp_path / "out")]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("corrupt input: ") and "d.json" in err


class TestDeterminism:
    def test_identical_command_sequences_identical_aggregate(self, cfg_path, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            generate(cfg_path, out)
            main(["run", "--config", cfg_path, "--out", out])
            main(["report", "--out", out])
            digests.append(digest(os.path.join(out, "reports", "aggregate.csv")))
        assert digests[0] == digests[1]


class TestHelpers:
    def test_parse_estimators_normalization(self):
        assert _parse_estimators("kNN") == ("knn",)
        assert _parse_estimators("Decision-Tree, knn") == ("decision_tree", "knn")
        assert _parse_estimators("knn,knn") == ("knn",)
        assert _parse_estimators(None) is None

    def test_parse_estimators_errors(self):
        with pytest.raises(ConfigError):
            _parse_estimators("svm_rbf")
        with pytest.raises(ConfigError):
            _parse_estimators(" , ")

    def test_aggregate_rows_layout(self):
        payloads = [
            {
                "dataset_id": "b-ds",
                "estimators": {"knn": {"test_accuracy": 50.0}},
                "errors": {"linear_svc": "boom"},
            },
            {
                "dataset_id": "a-ds",
                "estimators": {
                    "knn": {"test_accuracy": 97.30000000000001},
                    "linear_svc": {"test_accuracy": 60.0},
                },
                "errors": {},
            },
        ]
        text = aggregate_rows(payloads, ["knn", "linear_svc"])
        lines = text.splitlines()
        assert lines[0] == "dataset_id,knn,linear_svc"
        assert lines[1] == "a-ds,97.30000000000001,60.0"
        assert lines[2] == "b-ds,50.0,"
        assert text.endswith("\n")
