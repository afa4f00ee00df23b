"""Command line front end: generate datasets, run experiments, report.

Subcommands:
  generate  synthesize the planned datasets and write train/test pairs
  run       tune and evaluate estimators on previously generated pairs
  report    rank estimators per dataset and rewrite the aggregate table

Exit codes: 0 success, 2 configuration error (including a config whose
scan samples leave the sample limit, or whose scans are so flat that
standardization leaves a class fewer than two rows), 3 missing or corrupt
input, 4 estimator failure. Code 3 covers a dataset file or report that
is absent, or whose path holds a directory or a file this process may not
read; for ``run``, a ``.rds`` file that is truncated, does not
follow the documented layout, holds a label outside its scheme, or whose
header names another scheme, data type, scenario or bin count than its
plan entry, a train file with fewer examples of some class than there
are folds, and a test file with no examples; and for ``report``, a
report JSON that does not parse or lacks a field the ranking reads. Each
prints one line to stderr naming the file. All outputs are written
atomically and reruns with the same seed reproduce dataset files and the
aggregate table byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np
import yaml

from .config import (
    ConfigError,
    ExperimentConfig,
    build_plan,
    parse_config,
    read_config,
)
from .dataset import (
    DATA_TYPES,
    DatasetFormatError,
    LabeledDataset,
    load_dataset,
    save_dataset,
    write_atomic,
)
from .estimators import KINDS
from .labeling import N_CLASSES, SCHEMES
from .modelsel import default_jobs, evaluate_kinds, fork_pool, stratified_kfold, stratified_split, use_pool
from .seeding import derive_seed
from .sigproc import derive_dataset, standardize_dataset
from .synth import generate_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_ESTIMATOR = 4

_GEN_KEY = 301
_SPLIT_KEY = 302
_RUN_KEY = 303

# Suffix of the YAML sidecar written next to each dataset file.
_SIDECAR = ".meta.yaml"

# Examples per block when a group is generated: a block's raw triples are
# 2.9 MB at 480 bins and its derived and standardized rows 1 MB each.
_GROUP_BLOCK = 256


class MissingInputError(FileNotFoundError):
    pass


class CorruptInputError(ValueError):
    """An input file exists but does not hold what its name promises."""


def _dataset_paths(out_dir, dataset_id):
    base = os.path.join(out_dir, "datasets")
    return (
        os.path.join(base, f"{dataset_id}-train.rds"),
        os.path.join(base, f"{dataset_id}-test.rds"),
    )


def _entry_keys(config: ExperimentConfig, entry):
    """Stable integer keys for seed derivation, independent of filters."""
    si = [s.scenario_id for s in config.scenarios].index(entry.scenario.scenario_id)
    schi = list(SCHEMES).index(entry.scheme)
    dti = DATA_TYPES.index(entry.data_type)
    return si, schi, dti


def _sidecar(ds: LabeledDataset, rows, entry, config: ExperimentConfig, role, counterpart):
    """YAML record of the part of ``ds`` that ``rows`` picks."""
    counts = np.bincount(ds.labels[rows], minlength=N_CLASSES[ds.scheme])
    meta = {
        "format": "RDS1",
        "version": 1,
        "dataset_id": entry.dataset_id,
        "role": role,
        "counterpart": counterpart,
        "scheme": ds.scheme,
        "data_type": ds.data_type,
        "n_examples": len(rows),
        "n_bins": int(ds.n_bins),
        # examples dropped before the split, so both parts record them
        "n_dropped": int(ds.n_dropped),
        "class_counts": {int(c): int(n) for c, n in enumerate(counts)},
        "scenario": dataclasses.asdict(entry.scenario),
        "target": dataclasses.asdict(config.target),
        "experiment_seed": config.seed,
    }
    return yaml.safe_dump(meta, sort_keys=True).encode("utf-8")


def _generate_group(config: ExperimentConfig, keys, members, out_dir):
    """Synthesize the raw set of one (scenario, scheme) and write the
    split of each of its plan entries.

    ``keys`` are the group's (scenario, scheme) seed keys and ``members``
    its (plan entry, data type key) pairs, in plan order. The group is
    walked in blocks of ``_GROUP_BLOCK`` consecutive examples: each block
    is synthesized, then derived and standardized for every data type,
    and its kept rows go into one output per data type. Every example and
    row is computed on its own, so the files do not depend on the block
    size, and neither the group's raw triples nor a whole derived matrix
    is ever built. Raises ``ConfigError``, before the group writes any
    file, when the config's scans leave the sample limit
    (``generate_dataset``'s ``ValueError``) or a data type keeps fewer
    than two rows of some class.
    """
    written = []
    si, schi = keys
    first = members[0][0]
    scheme = SCHEMES[first.scheme]
    n, n_bins = scheme.n_classes * config.n_per_class, first.scenario.n_bins
    data_types = [entry.data_type for entry, _ in members]
    scans = {dt: np.empty((n, n_bins)) for dt in data_types}
    kept = {dt: np.empty(n, dtype=np.int64) for dt in data_types}  # labels of the kept rows
    filled = dict.fromkeys(data_types, 0)
    seed = derive_seed(config.seed, _GEN_KEY, si, schi)
    for start in range(0, n, _GROUP_BLOCK):
        try:
            raw = generate_dataset(
                first.scenario,
                scheme,
                config.n_per_class,
                seed,
                config.target,
                rows=slice(start, start + _GROUP_BLOCK),
            )
        except ValueError as exc:  # every argument comes from the config
            names = ", ".join(entry.dataset_id for entry, _ in members)
            raise ConfigError(f"{names}: {exc}") from None
        for dt in data_types:
            block = standardize_dataset(derive_dataset(raw, dt))
            rows = slice(filled[dt], filled[dt] + block.n_examples)
            scans[dt][rows] = block.scans
            kept[dt][rows] = block.labels
            filled[dt] = rows.stop
    for entry, _ in members:
        dt = entry.data_type
        # the split needs two rows of every class, one on each side
        if np.bincount(kept[dt][: filled[dt]], minlength=scheme.n_classes).min() < 2:
            raise ConfigError(
                f"{entry.dataset_id}: standardization dropped {n - filled[dt]} of {n} examples "
                "as constant, leaving a class with fewer than 2"
            )
    for entry, dti in members:
        dt = entry.data_type
        # rows of standardized blocks, each finite by construction
        derived = LabeledDataset._of_finite_samples(
            scans=scans[dt][: filled[dt]],
            labels=kept[dt][: filled[dt]],
            scheme=entry.scheme,
            data_type=dt,
            scenario_id=entry.scenario.scenario_id,
            n_dropped=n - filled[dt],
        )
        split_seed = derive_seed(config.seed, _SPLIT_KEY, si, schi, dti)
        tr_idx, te_idx = stratified_split(derived.labels, config.train_fraction, split_seed)
        train_path, test_path = _dataset_paths(out_dir, entry.dataset_id)
        os.makedirs(os.path.dirname(train_path), exist_ok=True)
        for rows, path, role, other in (
            (tr_idx, train_path, "train", os.path.basename(test_path)),
            (te_idx, test_path, "test", os.path.basename(train_path)),
        ):
            save_dataset(derived, path, rows)
            write_atomic(path + _SIDECAR, _sidecar(derived, rows, entry, config, role, other))
            written.append(path)
    return written


def cmd_generate(config: ExperimentConfig, out_dir, data_types, jobs) -> int:
    members = {}  # (scenario, scheme) keys -> [(entry, data type key)], plan order
    for entry in build_plan(config, out_dir, data_types).entries:
        si, schi, dti = _entry_keys(config, entry)
        members.setdefault((si, schi), []).append((entry, dti))
    groups = [(config, keys, group, out_dir) for keys, group in members.items()]
    written, failures = [], []  # the finished groups' paths, the failed groups' errors
    if use_pool(jobs) and len(groups) > 1:
        # one group per task, those of the most classes (so examples) first,
        # so that the small ones fill in at the end
        classes = [N_CLASSES[group[0][0].scheme] for group in members.values()]
        with fork_pool(min(jobs, len(groups))) as pool:
            futures = {
                g: pool.submit(_generate_group, *groups[g])
                for g in sorted(range(len(groups)), key=lambda g: -classes[g])
            }
        # leaving the pool waited for every group
        for g in range(len(groups)):
            failure = futures[g].exception()
            if failure is None:
                written += futures[g].result()
            else:
                failures.append(failure)
    else:
        for group in groups:
            try:
                written += _generate_group(*group)
            except Exception as exc:
                failures.append(exc)
                break
    if failures:
        # a failed generate leaves no file of this run behind; the first
        # failure in plan order is reported
        for path in written:
            for name in (path, path + _SIDECAR):
                os.remove(name)
        raise failures[0]
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _load_entry_file(path, entry):
    """The dataset at ``path``; CorruptInputError when its header names
    another scheme, data type, scenario or bin count than ``entry``, or
    when ``path`` is not a readable file."""
    try:
        ds = load_dataset(path)
    except OSError as exc:  # a directory, or a file this process may not read
        raise CorruptInputError(f"{path}: {exc.strerror}") from None
    planned = {
        "scheme": entry.scheme,
        "data_type": entry.data_type,
        "scenario_id": entry.scenario.scenario_id,
        "n_bins": entry.scenario.n_bins,
    }
    wrong = [
        f"{name} {getattr(ds, name)!r}, not the plan entry's {want!r}"
        for name, want in planned.items()
        if getattr(ds, name) != want
    ]
    if wrong:
        raise CorruptInputError(f"{path}: header has {'; '.join(wrong)}")
    return ds


def _run_entry(config: ExperimentConfig, entry, estimators, out_dir, jobs):
    train_path, test_path = _dataset_paths(out_dir, entry.dataset_id)
    train = _load_entry_file(train_path, entry)
    test = _load_entry_file(test_path, entry)
    if test.labels.size == 0:  # every refit would fail on it, far from the cause
        raise CorruptInputError(f"{test_path}: holds no examples")
    try:  # the folds that evaluate_kinds deals, for their checks only
        stratified_kfold(train.labels, config.n_folds)
    except ValueError as exc:
        raise CorruptInputError(f"{train_path}: {exc}") from None
    si, schi, dti = _entry_keys(config, entry)
    result = evaluate_kinds(
        train.scans,
        train.labels,
        test.scans,
        test.labels,
        dataset_id=entry.dataset_id,
        kinds=estimators,
        seed=derive_seed(config.seed, _RUN_KEY, si, schi, dti),
        n_folds=config.n_folds,
        jobs=jobs,
    )
    return entry.dataset_id, result


def _report_payload(dataset_id, result):
    return {
        "dataset_id": dataset_id,
        "estimators": {k: r.to_dict() for k, r in sorted(result.reports.items())},
        "errors": dict(sorted(result.errors.items())),
    }


def aggregate_rows(payloads, estimators):
    """CSV lines: dataset rows x estimator columns of test accuracy.

    Accuracies are rendered with repr so parsing a cell returns the
    report value exactly; failed entries are left empty.
    """
    lines = ["dataset_id," + ",".join(estimators)]
    for payload in sorted(payloads, key=lambda p: p["dataset_id"]):
        cells = [payload["dataset_id"]]
        for kind in estimators:
            report = payload["estimators"].get(kind)
            cells.append("" if report is None else repr(report["test_accuracy"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_run(config: ExperimentConfig, out_dir, data_types, estimators, jobs) -> int:
    plan = build_plan(config, out_dir, data_types)
    for entry in plan.entries:
        for path in _dataset_paths(out_dir, entry.dataset_id):
            if not os.path.exists(path):
                raise MissingInputError(f"dataset file not found: {path}")
    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    payloads = []
    failed = False
    # each entry's report is written as soon as it is done, so a run that
    # stops midway keeps the reports of the entries before
    for entry in plan.entries:
        dataset_id, result = _run_entry(config, entry, estimators, out_dir, jobs)
        payload = _report_payload(dataset_id, result)
        payloads.append(payload)
        path = os.path.join(reports_dir, f"{dataset_id}.json")
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
        print(f"wrote {path}")
        for kind, report in payload["estimators"].items():
            print(
                f"  {dataset_id} {kind}: validation={report['validation_accuracy']:.2f}% "
                f"test={report['test_accuracy']:.2f}%"
            )
        for kind, message in payload["errors"].items():
            failed = True
            print(f"  {dataset_id} {kind}: FAILED ({message})", file=sys.stderr)
    aggregate_path = os.path.join(reports_dir, "aggregate.csv")
    write_atomic(aggregate_path, aggregate_rows(payloads, estimators).encode("utf-8"))
    print(f"wrote {aggregate_path}")
    return EXIT_ESTIMATOR if failed else EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_report(path):
    """One report payload as ``run`` writes it; CorruptInputError when the
    file does not parse or lacks a field that ``report`` reads, or when
    ``path`` is not a readable file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:  # a directory, or a file this process may not read
        raise CorruptInputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CorruptInputError(f"{path}: not valid JSON ({exc})") from None
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("dataset_id"), str)
        and isinstance(payload.get("estimators"), dict)
        and isinstance(payload.get("errors", {}), dict)
        and all(
            kind in KINDS
            and isinstance(report, dict)
            and _is_number(report.get("test_accuracy"))
            and _is_number(report.get("validation_accuracy"))
            and "best_params" in report
            for kind, report in payload["estimators"].items()
        )
    ):
        raise CorruptInputError(f"{path}: not a radarml report")
    return payload


def cmd_report(out_dir) -> int:
    reports_dir = os.path.join(out_dir, "reports")
    try:
        names = sorted(
            n for n in os.listdir(reports_dir) if n.endswith(".json")
        )
    except FileNotFoundError:
        raise MissingInputError(f"no reports directory at {reports_dir}") from None
    except OSError as exc:  # a file, or a directory this process may not list
        raise CorruptInputError(f"{reports_dir}: {exc.strerror}") from None
    if not names:
        raise MissingInputError(f"no report files in {reports_dir}")
    payloads = []
    estimators_seen = []
    for name in names:
        payload = _load_report(os.path.join(reports_dir, name))
        payloads.append(payload)
        for kind in payload["estimators"]:
            if kind not in estimators_seen:
                estimators_seen.append(kind)
    estimators = [k for k in KINDS if k in estimators_seen]
    for payload in sorted(payloads, key=lambda p: p["dataset_id"]):
        print(f"{payload['dataset_id']}:")
        ranked = sorted(
            payload["estimators"].items(),
            key=lambda item: (-item[1]["test_accuracy"], KINDS.index(item[0])),
        )
        for rank, (kind, report) in enumerate(ranked, start=1):
            print(
                f"  {rank}. {kind:20s} test={report['test_accuracy']:6.2f}% "
                f"validation={report['validation_accuracy']:6.2f}% "
                f"params={json.dumps(report['best_params'], sort_keys=True)}"
            )
        for kind, message in payload.get("errors", {}).items():
            print(f"  -  {kind:20s} FAILED ({message})")
    aggregate_path = os.path.join(reports_dir, "aggregate.csv")
    write_atomic(aggregate_path, aggregate_rows(payloads, estimators).encode("utf-8"))
    print(f"wrote {aggregate_path}")
    return EXIT_OK


def _parse_estimators(value):
    if value is None:
        return None
    requested = []
    for token in value.split(","):
        name = token.strip().lower().replace("-", "_")
        if not name:
            continue
        if name not in KINDS:
            raise ConfigError(f"--estimators: unknown estimator {token.strip()!r}; expected one of {KINDS}")
        if name not in requested:
            requested.append(name)
    if not requested:
        raise ConfigError("--estimators: empty list")
    return tuple(requested)


def _load(args) -> ExperimentConfig:
    raw = read_config(args.config) if args.config else {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        raw = {**raw, "seed": args.seed}
    return parse_config(raw)


def _data_type_filter(value):
    return None if value in (None, "all") else (value,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarml",
        description="Synthetic radar obstacle-detection experiments: "
        "dataset generation, estimator tuning, and reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment config (defaults used when omitted)")
        p.add_argument("--out", default="radarml_out", help="output directory (default: %(default)s)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--data-type",
            choices=list(DATA_TYPES) + ["all"],
            default="all",
            help="restrict the plan to one data type",
        )

    gen = sub.add_parser("generate", help="synthesize train/test dataset pairs")
    common(gen)
    gen.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        help="worker processes, each generating one (scenario, scheme) group "
        "at a time (default: the CPUs this process may use, %(default)s)",
    )

    run = sub.add_parser("run", help="tune and evaluate estimators on generated datasets")
    common(run)
    run.add_argument(
        "--estimators",
        default=None,
        help="comma-separated estimator kinds (default: all from config)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        help="worker processes for the CV and refit tasks of each dataset "
        "(default: the CPUs this process may use, %(default)s)",
    )

    rep = sub.add_parser("report", help="rank estimators from an existing run directory")
    rep.add_argument("--out", default="radarml_out", help="run directory holding reports/")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            config = _load(args)
            if args.jobs < 1:
                raise ConfigError("--jobs: must be at least 1")
            return cmd_generate(config, args.out, _data_type_filter(args.data_type), args.jobs)
        if args.command == "run":
            config = _load(args)
            if args.jobs < 1:
                raise ConfigError("--jobs: must be at least 1")
            estimators = _parse_estimators(args.estimators) or config.estimators
            return cmd_run(config, args.out, _data_type_filter(args.data_type), estimators, args.jobs)
        if args.command == "report":
            return cmd_report(args.out)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DatasetFormatError, CorruptInputError) as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
