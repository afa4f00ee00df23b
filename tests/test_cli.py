import hashlib
import io
import json
import multiprocessing
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
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
from radarml.config import DEFAULT_CONFIG, ConfigError, build_plan, parse_config
from radarml.dataset import dataset_from_bytes, save_dataset, write_dataset
from radarml.labeling import SCHEMES
from radarml.modelsel import stratified_split
from radarml.seeding import derive_seed
from radarml.sigproc import derive_dataset, standardize_dataset
from radarml.synth import generate_dataset

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


def tree_digests(out):
    """File name -> digest of every file ``generate`` wrote under ``out``."""
    base = os.path.join(out, "datasets")
    return {name: digest(os.path.join(base, name)) for name in sorted(os.listdir(base))}


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

    def test_parallel_groups_write_the_same_bytes(self, tmp_path, capsys):
        cfg = dict(TINY, schemes=["simple4", "grid10"], data_types=["raw", "baseband"])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        # the default --jobs is the CPUs this process may use
        runs = [["--jobs", "1"], [], ["--jobs", "2"], ["--jobs", "4"]]
        outs = [str(tmp_path / str(i)) for i in range(len(runs))]
        printed = []
        for out, extra in zip(outs, runs):
            assert main(["generate", "--config", str(path), "--out", out, *extra]) == EXIT_OK
            assert multiprocessing.active_children() == []
            printed.append(capsys.readouterr().out.replace(out, "<out>"))
        serial = tree_digests(outs[0])
        assert len(serial) == 16
        for out in outs[1:]:
            assert tree_digests(out) == serial
        # the wrote lines keep plan order, although grid10 groups go in first
        assert printed[0].splitlines()[0] == "wrote <out>/datasets/outdoor-simple4-raw-train.rds"
        assert printed[1:] == printed[:1] * 3

    def test_pool_takes_the_largest_groups_first(self, tmp_path, monkeypatch):
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args[1])  # the group's (scenario, scheme) keys
                return super().submit(fn, *args)

        monkeypatch.setattr(cli, "fork_pool", lambda workers: Recording(workers))
        cfg = dict(TINY, schemes=["simple4", "grid10"], data_types=["raw"])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o"), "--jobs", "2"]) == EXIT_OK
        assert submitted == [(0, 1), (0, 0)]  # grid10 (10 classes) before simple4 (4)

    def test_serial_where_the_platform_cannot_fork(self, tmp_path, monkeypatch):
        cfg = dict(TINY, schemes=["simple4", "grid10"], data_types=["baseband"])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        serial = str(tmp_path / "serial")
        assert main(["generate", "--config", str(path), "--out", serial, "--jobs", "1"]) == EXIT_OK
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(cli, "fork_pool", None)  # a pool would call it
        fallback = str(tmp_path / "fallback")
        assert main(["generate", "--config", str(path), "--out", fallback, "--jobs", "2"]) == EXIT_OK
        assert tree_digests(fallback) == tree_digests(serial)

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"n_per_clas": 10}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"target": {"min_range": 1.5}}, "target: min_range must lie above 0 and below"),
            ({"target": {"reflectivity": -4.0}}, "target: reflectivity must be positive"),
            ({"target": {"jitter_sigma": -0.06}}, "target: jitter_sigma must be nonnegative"),
            (
                {"scenarios": {"outdoor": dict(TINY["scenarios"]["outdoor"], n_bins=64)}},
                "scenarios.outdoor: the 0.585 m scan window does not reach the farthest simple4 target",
            ),
        ],
        ids=["min_range_beyond_zone_1", "negative_reflectivity", "negative_jitter", "window_short_of_zone_3"],
    )
    def test_bad_target_or_window_exit_code(self, change, message, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**TINY, **change}))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out), "--jobs", "2"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "noise, jitter, dropped",
        [(0.0, 0.0, 200), (0.0, 0.06, 50)],
        ids=["flat_triples", "flat_empty_scenes"],
    )
    def test_flat_motion_filter_exit_code(self, noise, jitter, dropped, tmp_path, capsys):
        # without noise a static scene's triple differences to zero, and
        # without jitter a target's does too: standardization drops them
        cfg = dict(
            TINY,
            data_types=["raw", "baseband", "motion_filtered"],
            scenarios={"outdoor": dict(TINY["scenarios"]["outdoor"], noise_sigma=noise)},
            target={"jitter_sigma": jitter},
        )
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out), "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"configuration error: outdoor-simple4-motion_filtered: standardization dropped {dropped} "
            "of 200 examples as constant, leaving a class with fewer than 2"
        ]
        assert not out.exists()  # not even the group's raw and baseband files

    @pytest.mark.parametrize(
        "order, schemes",
        [
            (["outdoor", "indoor"], ["simple4", "grid10"]),  # fails third and fourth of four
            (["outdoor", "indoor"], ["simple4"]),  # fails last
            (["indoor", "outdoor"], ["simple4", "grid10"]),  # fails first and second
        ],
        ids=["middle", "last", "first"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_group_leaves_no_file_of_the_run(self, order, schemes, jobs, tmp_path, capsys):
        # the default scenarios, but without noise or jitter the indoor
        # triples are flat, so their motion-filtered sets lose every row;
        # the outdoor groups succeed
        scenarios = dict(DEFAULT_CONFIG["scenarios"])
        scenarios["indoor"] = dict(scenarios["indoor"], noise_sigma=0.0)
        cfg = {
            "n_per_class": 60,
            "target": {"jitter_sigma": 0.0},
            "scenarios": {name: scenarios[name] for name in order},
            "schemes": schemes,
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))  # scenarios in plan order
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert multiprocessing.active_children() == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "configuration error: indoor-simple4-motion_filtered: standardization dropped 240 of 240 "
            "examples as constant, leaving a class with fewer than 2"
        ]
        assert [files for _, _, files in os.walk(out) if files] == []

    @pytest.mark.parametrize(
        "exponent, reason",
        [(-400.0, ""), (600.0, ": range**600 leaves the float range")],
        ids=["far_echoes_beyond_the_limit", "near_echo_power_underflows"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_samples_beyond_the_limit_exit_code(self, exponent, reason, jobs, tmp_path, capsys):
        # both groups fail; the first in plan order is reported
        cfg = {
            "n_per_class": 60,
            "scenarios": {"outdoor": {"environment": "outdoor", "amplitude_exponent": exponent}},
            "schemes": ["simple4", "grid10"],
            "data_types": ["raw"],
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: outdoor-simple4-raw: scan samples must all be finite and within "
            f"±3.18e+149{reason}"
        ]
        assert [files for _, _, files in os.walk(out) if files] == []

    @pytest.mark.parametrize("field", ["noise_sigma", "amplitude_exponent"])
    def test_non_finite_scenario_value_exit_code(self, field, tmp_path, capsys):
        scenario = dict(TINY["scenarios"]["outdoor"], **{field: float("nan")})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(dict(TINY, scenarios={"outdoor": scenario})))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"scenarios.outdoor.{field}: expected a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()

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


def rewritten(buf, rows=None, **fields):
    """The bytes of the dataset file ``buf`` with ``fields`` replaced and
    only ``rows`` kept."""
    ds = dataset_from_bytes(buf)
    for name, value in fields.items():
        setattr(ds, name, value)
    out = io.BytesIO()
    write_dataset(ds, out, rows)
    return out.getvalue()


def foreign_header(buf):
    """Another plan entry's header, with a label that only it allows."""
    labels = dataset_from_bytes(buf).labels.copy()
    labels[0] = 9
    return rewritten(buf, scheme="grid10", data_type="baseband", scenario_id="indoor", labels=labels)


def thin_class(buf):
    """Two rows of class 1 left: too few for TINY's five folds."""
    labels = dataset_from_bytes(buf).labels
    ones = np.flatnonzero(labels == 1)
    return rewritten(buf, rows=np.setdiff1d(np.arange(labels.size), ones[2:]))


class TestStreamedGroups:
    """A group is generated in blocks of ``cli._GROUP_BLOCK`` examples;
    its files equal those of whole-array calls at any block size."""

    CONFIG = dict(TINY, schemes=["simple4", "grid10"], data_types=["raw", "baseband", "motion_filtered"])

    def whole_array_files(self, out, generate_dataset=generate_dataset):
        """The files of ``CONFIG``, each group synthesized, derived and
        standardized as whole arrays: the reference the streamed path
        must equal byte for byte."""
        config = parse_config(self.CONFIG)
        for entry in build_plan(config).entries:
            si, schi, dti = cli._entry_keys(config, entry)
            raw = generate_dataset(
                entry.scenario,
                SCHEMES[entry.scheme],
                config.n_per_class,
                derive_seed(config.seed, cli._GEN_KEY, si, schi),
                reflectivity=config.target.reflectivity,
                jitter_sigma=config.target.jitter_sigma,
                min_range=config.target.min_range,
            )
            ds = standardize_dataset(derive_dataset(raw, entry.data_type))
            split_seed = derive_seed(config.seed, cli._SPLIT_KEY, si, schi, dti)
            parts = stratified_split(ds.labels, config.train_fraction, split_seed)
            paths = cli._dataset_paths(out, entry.dataset_id)
            os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
            for rows, path, role, other in zip(parts, paths, ("train", "test"), paths[::-1]):
                save_dataset(ds, path, rows)
                meta = cli._sidecar(ds, rows, entry, config, role, os.path.basename(other))
                with open(path + ".meta.yaml", "wb") as fh:
                    fh.write(meta)
        return tree_digests(out)

    def streamed_files(self, out, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(self.CONFIG))
        assert main(["generate", "--config", str(path), "--out", out, "--jobs", "1"]) == EXIT_OK
        return tree_digests(out)

    # simple4 groups hold 200 examples and grid10 groups 500
    @pytest.mark.parametrize("block", [1, 7, 199, 499, 501])
    def test_bytes_equal_the_whole_array_path(self, block, tmp_path, monkeypatch):
        want = self.whole_array_files(str(tmp_path / "whole"))
        monkeypatch.setattr(cli, "_GROUP_BLOCK", block)
        assert self.streamed_files(str(tmp_path / "streamed"), tmp_path) == want
        assert len(want) == 24

    def test_degenerate_row_mid_block_is_dropped_and_counted(self, tmp_path, monkeypatch):
        flat = 10  # the middle of the block of examples 7-13

        def with_a_flat_example(*args, rows=None, **kwargs):
            raw = generate_dataset(*args, rows=rows, **kwargs)
            i = flat - (0 if rows is None else rows.start)
            if 0 <= i < raw.n_examples:
                # every derived vector of a constant triple is constant
                raw.scans[i] = 1.0
                raw.history[i] = 1.0
            return raw

        want = self.whole_array_files(str(tmp_path / "whole"), with_a_flat_example)
        monkeypatch.setattr(cli, "_GROUP_BLOCK", 7)
        monkeypatch.setattr(cli, "generate_dataset", with_a_flat_example)
        out = str(tmp_path / "streamed")
        assert self.streamed_files(out, tmp_path) == want
        for name in want:
            if name.endswith(".meta.yaml"):
                with open(os.path.join(out, "datasets", name), "r", encoding="utf-8") as fh:
                    assert yaml.safe_load(fh)["n_dropped"] == 1, name


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
            lambda buf: buf[:-8] + (4).to_bytes(8, "little"),  # a label outside simple4
            foreign_header,
            thin_class,
        ],
        ids=["truncated", "bad_magic", "trailing", "label_outside_scheme", "foreign_header", "thin_class"],
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

    def test_a_failed_entry_keeps_the_reports_written_before_it(self, tmp_path, capsys):
        # two entries; the second's train file is corrupt, so the run stops there
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({**TINY, "data_types": ["baseband", "motion_filtered"]}))
        out = str(tmp_path / "out")
        generate(str(cfg), out)
        second = os.path.join(out, "datasets", "outdoor-simple4-motion_filtered-train.rds")
        with open(second, "r+b") as fh:
            fh.truncate(100)
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_MISSING
        reports = os.path.join(out, "reports")
        assert sorted(os.listdir(reports)) == ["outdoor-simple4-baseband.json"]
        with open(os.path.join(reports, "outdoor-simple4-baseband.json"), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["errors"] == {}
        assert set(payload["estimators"]) == {"linear_svc", "decision_tree"}
        assert second in capsys.readouterr().err

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
