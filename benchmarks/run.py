"""Benchmark of the radarml pipeline, end to end and layer by layer.

    python3 benchmarks/run.py --workload tree_search_simple4 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller runs passes of the workload back to back (a closed loop) for
about ``--seconds`` seconds and checks the outputs of every pass. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of one traced
set-up and one traced pass, plus the tracing overhead against an untraced
pass. Scratch files, results and spans go to ``.bench_work/``.

``--self-test`` checks that an estimator failure is counted, not fatal.
``--write-reference`` pins the output digests of one pass for ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread for the measured process: with two, OpenBLAS burns
# CPU spinning without finishing the passes sooner. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_REPEATS = 5


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def time_import():
    """Seconds for a fresh interpreter to import the CLI, as each command does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import radarml.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Items attempted and failed over the passes of one run."""

    def __init__(self, reference):
        self.reference = reference  # item -> digest pinned for this seed, or None
        self.first = None  # digests of the first pass
        self.passes = 0
        self.attempted = 0
        self.failures = []  # (pass index, item, reason)

    def add(self, items, digests, problems):
        for item in items:
            if item in problems:
                reason = problems[item]
            elif self.reference is not None and digests.get(item) != self.reference.get(item):
                reason = "digest differs from the pinned reference"
            elif self.first is not None and digests.get(item) != self.first.get(item):
                reason = "digest differs from the first pass"
            else:
                continue
            self.failures.append((self.passes, item, reason))
        self.passes += 1
        self.attempted += len(items)
        if self.first is None:
            self.first = digests

    @property
    def failed(self):
        return len(self.failures)


def timed_pass(workload, state, call=None):
    """Wall and CPU seconds of one pass, and its outputs."""
    call = call or workload.run_pass
    cpu = time.process_time()
    start = time.perf_counter()
    outputs = call(state)
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu, outputs


def checked_pass(workload, state, tally, call=None):
    wall, cpu, outputs = timed_pass(workload, state, call)
    digests, problems = workload.check(state, outputs)
    workload.end_pass(state)
    tally.add(workload.items(state), digests, problems)
    return wall, cpu


def measure(workload, seed, seconds, run_dir, tally):
    """Set up ``SETUP_REPEATS`` times, then run passes for about ``seconds``."""
    input_dir = os.path.join(run_dir, "input")
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(input_dir, ignore_errors=True)
        os.makedirs(input_dir)
        start = time.perf_counter()
        time_import()
        state = workload.setup(seed, input_dir)
        setups.append(time.perf_counter() - start)
    walls, cpus = [], []
    loop_start = time.perf_counter()
    # start another pass only while it should end within the budget
    while not walls or time.perf_counter() - loop_start + max(walls) <= seconds:
        wall, cpu = checked_pass(workload, state, tally)
        walls.append(wall)
        cpus.append(cpu)
    work = workload.work_per_pass(state)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(work / w for w in walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"passes {len(walls)}: wall_s {[round(w, 3) for w in walls]}, cpu_s {[round(c, 3) for c in cpus]}",
        f"setup_s samples {[round(s, 3) for s in setups]}",
        f"{workload.work_unit}_per_s {metrics['work_per_s'][0]:.4f} 1/s ({work} {workload.work_unit} per pass)",
        f"process.cpu_s {statistics.median(cpus):.4f} s (median per pass)",
    ]
    return metrics, notes


def trace(workload, seed, run_dir, tally, spans_path):
    """One traced set-up, one untraced pass, one traced pass."""
    from tracing import PER_LAYER, Tracer, kind_shares, layer_metrics, layer_shares

    input_dir = os.path.join(run_dir, "input")
    os.makedirs(input_dir)
    tracer = Tracer()
    tracer.install()
    try:
        state = tracer.root("bench.setup", workload.setup, seed, input_dir)
    finally:
        tracer.uninstall()
    plain_wall, plain_cpu = checked_pass(workload, state, tally)
    tracer.install()
    try:
        traced_wall, _ = checked_pass(
            workload, state, tally, lambda s: tracer.root("bench.pass", workload.run_pass, s)
        )
    finally:
        tracer.uninstall()
    tracer.write_jsonl(spans_path)
    values = layer_metrics(tracer.spans)
    values["process.cpu_s"] = plain_cpu
    values["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    layers = layer_shares(tracer.spans, "bench.pass")
    kinds = kind_shares(tracer.spans, "bench.pass")
    notes = [
        f"untraced pass {plain_wall:.4f} s, traced pass {traced_wall:.4f} s, {len(tracer.spans)} spans -> {spans_path}",
        "self-time share of the traced pass by layer: "
        + ", ".join(f"{k} {v:.1%}" for k, v in layers.items()),
    ]
    if kinds:
        notes.append("share of the traced pass by estimator kind: " + ", ".join(f"{k} {v:.1%}" for k, v in kinds.items()))
    return metrics, notes


def run(workload, seed, seconds, trace_on, reference):
    tag = f"{workload.name}-seed{seed}-trace{int(trace_on)}"
    run_dir = os.path.join(WORK, f"{tag}.tmp")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally(reference)
    try:
        if trace_on:
            metrics, notes = trace(workload, seed, run_dir, tally, os.path.join(WORK, f"{tag}.spans.jsonl"))
        else:
            metrics, notes = measure(workload, seed, seconds, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    notes += [f"failure pass {i} {item}: {reason}" for i, item, reason in tally.failures]
    notes.append(f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, notes, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check failure accounting on a tiny input")
    parser.add_argument("--write-reference", action="store_true", help="pin this seed's output digests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "radarml", "__init__.py")):
        print(f"benchmark: no radarml package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, SRC)
    from workloads import SELF_TEST, WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    if args.self_test:
        return self_test(SELF_TEST, args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pinned = load_reference()
    if args.write_reference:
        return write_reference(workload, args.seed, pinned)
    reference = pinned.get(workload.name, {}).get(str(args.seed))
    result, notes, _ = run(workload, args.seed, args.seconds, args.trace == 1, reference)
    print(f"# {workload.name} seed {args.seed} trace {args.trace}; pinned digests: {'yes' if reference else 'no'}")
    for note in notes:
        print("# " + note)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    with open(os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "notes": notes, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def self_test(workload, seed) -> int:
    """The knn candidates past 16 neighbours must fail and be counted."""
    result, notes, tally = run(workload, seed, 0.0, False, None)
    for note in notes:
        print("# " + note)
    print(json.dumps(result))
    ok = [item for _, item, _ in tally.failures] == ["knn"] and "exceeds 16 training examples" in tally.failures[0][2]
    print("self-test " + ("passed: the knn failure was counted" if ok else "FAILED"))
    return 0 if ok else 1


def write_reference(workload, seed, pinned) -> int:
    """Run one pass and pin its digests; refuses a pass with a failure."""
    result, notes, tally = run(workload, seed, 0.0, False, None)
    if tally.failed:
        for note in notes:
            print("# " + note, file=sys.stderr)
        return 1
    pinned.setdefault(workload.name, {})[str(seed)] = tally.first
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(tally.first)} digests for {workload.name} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
