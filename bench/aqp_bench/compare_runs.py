#!/usr/bin/env python3
"""Compares two sets of aqp_bench result files against BENCHMARK.json.

    python3 bench/aqp_bench/compare_runs.py BASE [NEW] [--per-layer]

BASE and NEW are directories of result JSONs (the files aqp_bench writes
with --json, e.g. .bench_build/results/) or single files; a directory is
read for every *.json in it that is not a trace. For each workload x metric
the script prints each side's median and quartiles (Python's
statistics.quantiles, n=4) and the spread (quartile distance / median).
With two sets it flags every end-to-end metric whose NEW median differs
from the BASE median by more than the metric's bound in BENCHMARK.json,
saying whether it got worse or better; with one set it flags every metric
but setup_s whose spread exceeds its bound. Runs whose load generator fell
behind (valid: false) are listed and skipped. Exit status: 1 if anything
was flagged, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            report = json.load(f)
        if not report.get("valid", True):
            print("skipped (load generator fell behind): " + name)
            continue
        runs.setdefault(report["workload"], []).append(report)
    return runs


def values(reports, section, metric):
    return [r[section][metric]["value"] for r in reports
            if metric in r.get(section, {})]


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def worse_by(base, new, better):
    """Relative change of `new` against `base` in the worse direction."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--per-layer", action="store_true",
                        help="also print the per-layer metrics (no bounds)")
    args = parser.parse_args()

    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    base = load_set(args.base)
    new = load_set(args.new) if args.new else None
    sections = [("metrics", bench["end_to_end"])]
    if args.per_layer:
        sections.append(("per_layer", bench["per_layer"]))

    flagged = []
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base:
            continue
        b_runs = base[workload]
        n_runs = new.get(workload, []) if new else []
        print("\n== %s (base %d runs%s)" % (
            workload, len(b_runs),
            ", new %d runs" % len(n_runs) if new else ""))
        for section, metrics in sections:
            for m in metrics:
                bv = values(b_runs, section, m["name"])
                if not bv:
                    continue
                bmed, bq1, bq3, bspread = summary(bv)
                line = "  %-44s base %.4g [%.4g, %.4g] spread %.3f" % (
                    m["name"], bmed, bq1, bq3, bspread)
                bound = m.get("bound")
                if new is not None:
                    nv = values(n_runs, section, m["name"])
                    if nv:
                        nmed, nq1, nq3, nspread = summary(nv)
                        worse = worse_by(bmed, nmed, m["better"])
                        line += " | new %.4g [%.4g, %.4g] spread %.3f" \
                                " | worse by %+.3f" % (nmed, nq1, nq3,
                                                       nspread, worse)
                        if bound is not None and abs(worse) > bound:
                            line += "  <-- %s by more than bound %.3f" % (
                                "worse" if worse > 0 else "better", bound)
                            flagged.append((workload, m["name"]))
                elif bound is not None and m["name"] != "setup_s" \
                        and bspread > bound:
                    line += "  <-- spread exceeds bound %.3f" % bound
                    flagged.append((workload, m["name"]))
                print(line)
    if flagged:
        print("\nflagged: " + ", ".join("%s/%s" % f for f in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
