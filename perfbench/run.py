#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload interactive_tcp --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root. --workload all runs every workload of
BENCHMARK.json in turn. The last line of standard output is the result JSON
of the (last) workload; everything else, build output included, goes to
standard error or to the human-readable lines before it. See
perfbench/README.md.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics whose layer is on no path a workload's traced run
# crosses; they read 0 there. Any other missing metric fails the run.
OFF_PATH = {
    "interactive_tcp": ["serve.engine.batch*", "serve.worker_pool.*",
                        "serve.admission.*", "serve.explorer.*",
                        "serve.feedback.*", "serve.retrainer.*"],
    "closed_loop": ["net.*", "bench.generator_lag_*"],
}
# One run must end within 180 s; the binary's own watchdog fires at 160 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: {' '.join(command)}: {error}")
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"] + generator,
                          BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "perfbench", "perfbench_tests"], BUILD_TIMEOUT_S):
        return False
    # The benchmark's own statistics and trace code must pass its tests.
    return run_logged([os.path.join(build_dir, "perfbench_tests"),
                       "--gtest_brief=1"], 120)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def normalize(result, spec, workload, trace):
    """Checks the metric set against BENCHMARK.json. A per-layer metric
    listed in OFF_PATH for the workload is reported as 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, unit in units.items():
        if name not in metrics:
            off_path = trace and any(fnmatch.fnmatchcase(name, pattern)
                                     for pattern in OFF_PATH[workload])
            if not off_path:
                raise ValueError(f"metric {name} not measured")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']} is not "
                             f"{unit}")
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def run_workload(binary, out_dir, args, workload, source, spec):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--source-id", source]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"perfbench: {workload} failed with exit code {done.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = normalize(json.loads(lines[-1]), spec, workload,
                           args.trace == 1)
    except (ValueError, KeyError) as error:
        log(f"perfbench: bad result from {workload}: {error}")
        return None
    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    record_path = os.path.join(
        records, f"{workload}-seed{args.seed}-trace{args.trace}.txt")
    with open(record_path, "w") as handle:
        handle.write(done.stdout)
    return result


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("perfbench: build or self-tests failed")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    source = source_id()
    results = []
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_workload(os.path.join(build_dir, "perfbench"), out_dir,
                              args, workload, source, spec)
        if result is None:
            return 1
        results.append(result)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
