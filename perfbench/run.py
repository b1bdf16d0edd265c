#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload dfz-soak --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest [--full]

Run from the root of a checkout.  The first call configures and builds the
library and the benchmark from source into .bench_build/perfbench
(Release); later calls only re-check the build.  Build output goes to
standard error.  The benchmark's own human-readable lines go to standard
output, followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}, holding every end-to-end metric of BENCHMARK.json with
--trace 0 and every per-layer metric with --trace 1 (a per-layer metric
the workload does not exercise reads 0).  A traced run also writes its
spans to .bench_out/trace-<workload>-seed<n>.jsonl.

Exits non-zero, without a result line, when the build fails (for example
when the library sources are absent), when the benchmark refuses the
build, or when its output does not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("dfz-soak", "dfz-cold", "lisp-planes")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD, *generator,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        step = ["cmake", "--build", BUILD, "-j", jobs,
                "--target", "perfbench", "perfbench_selftest"]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def complete(result, spec, trace, workload):
    """Checks the result's metrics against BENCHMARK.json and fills in the
    per-layer metrics this workload does not exercise; returns an error
    string or None."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            return f"metric {name} is not declared in BENCHMARK.json"
        if metric["unit"] != units[name]:
            return f"metric {name} has unit {metric['unit']}, BENCHMARK.json says {units[name]}"
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        return "end-to-end metrics missing: " + ", ".join(missing)
    if missing:
        print(f"not exercised by {workload} (reported as 0): " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return None


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    error = complete(result, spec, args.trace == 1, args.workload)
    if error is not None:
        log(error)
        return 1
    print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a workload")
    parser.add_argument("--full", action="store_true",
                        help="with --selftest: also re-derive the full-size pinned values")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 1
    if args.selftest:
        selftest = [os.path.join(BUILD, "perfbench_selftest")]
        return subprocess.run(selftest + (["--full"] if args.full else [])).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
