#!/usr/bin/env python3
"""Benchmark of the ``renewal-immigration`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  The seed generates the workload's config.  Every CLI run is a
fresh child process, one at a time, so each pays interpreter start, imports
and cold caches as a user does.

``--trace 0`` repeats the command for ``--seconds`` seconds (at least
MIN_REPS times) and reports medians of the end-to-end metrics.  ``--trace 1``
runs the command once plain and once with every layer boundary hooked, and
reports the per-layer metrics.  Either way the outputs are checked, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run is failed when it prints a traceback, exits with 1 (or anything but
0, 2 or 3), fails an output check, or reruns the same config to different
bytes.  Raw per-run numbers and the environment go to
``.bench_work/results/``.  See README.md in this directory.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
OK_EXITS = (0, 2, 3)  # pass, statistical rejection, hypothesis warning
GOLDEN_SEED = 0  # byte-identity reference: the tiny config of this seed

END_TO_END_UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_cli(workload, cfg, run_dir, tag, trace=False):
    """Run one CLI command in a fresh child; time it and check its outputs."""
    cfg_path = run_dir / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = run_dir / f"{tag}.out"
    stamp = run_dir / f"{tag}.stamp"
    trace_file = run_dir / f"{tag}.trace.json"
    argv = [
        sys.executable, str(HERE / "child.py"), str(stamp), str(trace_file) if trace else "-",
        workloads.command(workload), str(cfg_path), "--out-dir", str(out_dir),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(run_dir / f"{tag}.log", "w+") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        log_text = log.read()
    run = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "setup_s": float(stamp.read_text()) - start if stamp.exists() else wall,
        "exit": proc.returncode,
        "digest": None,
        "output_bytes": 0,
        "problems": [],
    }
    if proc.returncode not in OK_EXITS:
        run["problems"].append(f"exit code {proc.returncode}")
    if "Traceback (most recent call last)" in log_text:
        run["problems"].append("traceback")
    if out_dir.is_dir():
        run["digest"] = workloads.output_digest(out_dir)
        run["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        if not run["problems"]:
            run["problems"] += workloads.check_outputs(workload, cfg, out_dir)
        shutil.rmtree(out_dir)
    elif not run["problems"]:
        run["problems"].append("no output directory")
    if trace:
        run["trace"] = json.loads(trace_file.read_text()) if trace_file.exists() else None
    return run


def mark_reruns(runs):
    """Reruns of one config must reproduce the first run's bytes."""
    for run in runs[1:]:
        if run["digest"] != runs[0]["digest"]:
            run["problems"].append("rerun bytes differ from the first run")


def timed_runs(workload, cfg, run_dir, seconds):
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPS or time.monotonic() - start < seconds:
        runs.append(run_cli(workload, cfg, run_dir, f"rep{len(runs)}"))
    mark_reruns(runs)
    median = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    wall = median("wall_s")
    metrics = {
        "wall_s": wall,
        "samples_per_s": workloads.samples(workload, cfg) / wall,
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": median("setup_s"),
    }
    return runs, {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}


def golden_digests():
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


def traced_runs(workload, cfg, run_dir):
    plain = run_cli(workload, cfg, run_dir, "plain")
    traced = run_cli(workload, cfg, run_dir, "traced", trace=True)
    mark_reruns([plain, traced])
    golden = run_cli(workload, workloads.make_config(workload, GOLDEN_SEED, "tiny"), run_dir, "golden")
    runs = [plain, traced, golden]
    report = traced.pop("trace") or {"metrics": {}}
    values = {name: report["metrics"].get(name) for name in tracer.UNITS}
    units = dict(tracer.UNITS)
    reference = golden_digests().get(workload)
    values["cli.output_bytes"] = plain["output_bytes"]
    units["cli.output_bytes"] = "bytes"
    values["cli.outputs_identical"] = None if reference is None else int(golden["digest"] == reference)
    units["cli.outputs_identical"] = "bool"
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    units["trace.overhead_frac"] = "ratio"
    (WORK / "results" / f"{workload}-spans.json").write_text(json.dumps(report.get("spans", [])))
    return runs, {name: {"value": values[name], "unit": units[name]} for name in values}


def blas_threads():
    """OpenBLAS thread count of the numpy loaded here, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    return None


def environment():
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():  # a plain source copy has no SHA of its own
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "renewal_immigration").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renewal_immigration" / "cli.py").is_file():
        print(f"error: no renewal_immigration sources under {SRC}", file=sys.stderr)
        return 2

    cfg = workloads.make_config(args.workload, args.seed)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            runs, metrics = traced_runs(args.workload, cfg, run_dir)
        else:
            runs, metrics = timed_runs(args.workload, cfg, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for run in runs if run["problems"])
    for i, run in enumerate(runs):
        for problem in run["problems"]:
            print(f"run {i} failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']!s:>24} {metric['unit']}")
    print(f"{'failed_frac':34s} {failed / len(runs):>24} ratio")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "config": cfg,
              "environment": env, "runs": runs, "result": result}
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
