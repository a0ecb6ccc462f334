#!/usr/bin/env python3
"""aqp_bench_smoke: every workload at toy size, traced, in about a second.

    python3 bench/aqp_bench/smoke_test.py <path to the aqp_bench binary>

For each workload in BENCHMARK.json this runs `aqp_bench --smoke --trace`
and asserts that the run passed its correctness checks on at least one
replayed answer, that every end-to-end and per-layer metric of
BENCHMARK.json printed as `name value unit` with its unit, and that the
workload did the work it exists for: dashboard hits the result cache and
fuses scans, adhoc runs the single-scan bootstrap, rare_segment answers
from strata.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

# Per workload: (info counter, what it shows) that must be positive.
WORK = {
    "dashboard": [("cache_hits", "result-cache hits"),
                  ("fused_scans", "fused shared scans")],
    "adhoc": [("single_scan_answers", "single-scan bootstrap answers")],
    "rare_segment": [("stratum_answers", "answers resolved to a stratum")],
}


def check_workload(binary, workload, bench, out_dir):
    errors = []
    json_path = os.path.join(out_dir, "smoke-%s.json" % workload)
    proc = subprocess.run(
        [binary, "--workload=" + workload, "--seed=1", "--smoke", "--trace",
         "--json=" + json_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    if proc.returncode != 0:
        return ["exit status %d: %s" % (proc.returncode, proc.stderr.strip())]
    with open(json_path) as f:
        report = json.load(f)
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for section, metrics in (("metrics", bench["end_to_end"]),
                             ("per_layer", bench["per_layer"])):
        for m in metrics:
            got = report[section].get(m["name"])
            if got is None:
                errors.append("%s missing from %s" % (m["name"], section))
            elif got["unit"] != m["unit"]:
                errors.append("%s unit %s, expected %s"
                              % (m["name"], got["unit"], m["unit"]))
            if printed.get(m["name"]) != m["unit"]:
                errors.append("%s not printed with unit %s"
                              % (m["name"], m["unit"]))
    if not report["correct"]:
        errors.append("correctness checks failed")
    if report["info"]["replayed_answers"]["value"] < 1:
        errors.append("no answer was replayed by the correctness check")
    for counter, what in WORK.get(workload, []):
        if report["info"][counter]["value"] <= 0:
            errors.append("no %s (%s = 0)" % (what, counter))
    return errors


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    failed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        errors = check_workload(binary, workload, bench,
                                os.path.dirname(binary))
        print("%-14s %s" % (workload, "ok" if not errors else "FAILED"))
        for e in errors:
            print("    " + e)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
