#!/usr/bin/env python3
"""Build and run the semperm benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-reference

Run from the repository root. The first call configures and builds the
Release benchmark binary under $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("osu_temporal", "app_fds", "traffic_overload", "table1_mt")
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 5
BUILD_TIMEOUT_S = 880
# setup_s is the median of this many set-ups, each in its own process and
# timed from that process's start: the measured run's own and the rest
# from --setup-only runs.
SETUP_SAMPLES = 5


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 4)
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)), 4)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"], BUILD_TIMEOUT_S)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite perfbench/reference.tsv from the library")
    args = ap.parse_args()

    if args.selftest:
        out = build()
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest"),
                                 os.path.join(out, "selftest.tmp")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    reference = os.path.join(HERE, "reference.tsv")
    if args.write_reference:
        out = build()
        sys.exit(subprocess.run([os.path.join(out, "perfbench"),
                                 "--write-reference", reference],
                                cwd=ROOT).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reference", reference]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out, "spans-%s.bin" % args.workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 5)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode, proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no JSON result", 1)
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        samples = [setup["value"]] + [setup_sample(out, args, reference)
                                      for _ in range(SETUP_SAMPLES - 1)]
        lines[-1:] = ["setup_s: median of set-ups in %d processes: %s" %
                      (len(samples), " ".join(repr(v) for v in samples))]
        setup["value"] = statistics.median(samples)
        lines.append(json.dumps(result))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


def setup_sample(out, args, reference):
    """Calibrated set-up time of one fresh --setup-only process."""
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--reference", reference,
           "--setup-only", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("set-up run exceeded %d s" % SETUP_TIMEOUT_S, 5)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("set-up run exited with %d" % proc.returncode,
             proc.returncode or 1)
    return json.loads(lines[-1])["setup_s"]


if __name__ == "__main__":
    main()
