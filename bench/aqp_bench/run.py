#!/usr/bin/env python3
"""Builds aqp_bench from the checkout's sources and runs one workload.

    python3 bench/aqp_bench/run.py --workload <dashboard|adhoc|rare_segment>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/aqp_bench
(incremental: only the first run of a checkout compiles). The program's own
report lines are passed through; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
A failed build or a failed correctness check exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "aqp_bench")
BINARY = os.path.join(BUILD_DIR, "aqp_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to the benchmark; run it from the "
                 "root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "--build", BUILD_DIR, "--target", "aqp_bench",
             "-j", jobs]]
    # Once configured, the build re-runs cmake itself when a CMakeLists.txt
    # changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    json_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--json=" + json_path]
    if args.trace:
        cmd += ["--trace",
                "--trace-out=" + os.path.join(out_dir, stem + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: aqp_bench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    # The program's last line repeats the JSON file; show the report only.
    for line in lines[:-1]:
        print(line)
    if not os.path.exists(json_path):
        sys.exit("run.py: aqp_bench exited %d without a result"
                 % proc.returncode)
    with open(json_path) as f:
        report = json.load(f)
    result = {
        "correct": bool(report["correct"]) and proc.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": report["per_layer" if args.trace else "metrics"],
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
