#!/usr/bin/env python3
"""Builds and runs the Marsit wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload ring-large --seed 1 --seconds 40 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build.  The benchmark's
log lines go to standard output, and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A failed build or run prints
no result and exits non-zero.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring-small", "ring-large", "torus-flush", "sim-fold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    return {"commit": commit, "cpu": cpu, "nproc": os.cpu_count()}


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-digest-mismatch", action="store_true",
                        help="self-test hook: the correctness gate must fail")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.SubprocessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]
    if args.inject_digest_mismatch:
        command.append("--inject-digest-mismatch")

    # Own session, so a hung run is killed together with its forked ranks.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    result = valid_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    # Every result records the command, commit, CPU model and nproc.
    context = dict(machine(), command=" ".join(
        ["python3", "perfbench/run.py"] + sys.argv[1:]))
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as out:
        json.dump(dict(context, result=result), out, indent=1)
    for line in lines[:-1]:
        print(line)
    print("context: " + json.dumps(context))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
