#!/usr/bin/env python3
"""Checks that two result documents of `run.sh` (same commit, same seed) agree.

Every end-to-end metric must agree within its own bound from BENCHMARK.json;
every virtual-clock value, exact count and `sim_fingerprint` must be
identical. Exits non-zero otherwise.
"""
import json
import sys


def main(manifest_path, first_path, second_path):
    with open(manifest_path) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    problems = []
    names = [w["workload"] for w in first["workloads"]]
    if names != [w["workload"] for w in second["workloads"]] or len(names) != 4:
        problems.append(f"workload sets differ or are incomplete: {names}")
    for a, b in zip(first["workloads"], second["workloads"]):
        w = a["workload"]
        for key in ("seed", "sim_fingerprint", "exact", "failed", "violations"):
            if a[key] != b[key]:
                problems.append(f"{w}: {key} differs: {a[key]} vs {b[key]}")
        if a["failed"] or a["violations"]:
            problems.append(f"{w}: run was not correct")
        for name, bound in bounds.items():
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            apart = abs(x - y) / x
            verdict = "ok" if apart <= bound else "APART"
            print(f"{w:14s} {name:20s} {x:14.4f} {y:14.4f} {apart:7.4f} <= {bound} {verdict}")
            if apart > bound:
                problems.append(f"{w}: {name} {x} vs {y} is {apart:.4f} apart, bound {bound}")
    for p in problems:
        print("FAILED", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: compare.py BENCHMARK.json first.json second.json")
    sys.exit(main(*sys.argv[1:]))
