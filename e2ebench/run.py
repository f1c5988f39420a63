#!/usr/bin/env python3
"""End-to-end benchmark of the FractalCloud serving stack.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds e2ebench (and through it the repository's library) under
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench, runs one
workload, echoes every line the benchmark prints, gates the exact work
counters against e2ebench/counters.json, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
are BENCHMARK.json's end_to_end list with --trace 0 and its per_layer
list with --trace 1.

Exit status is 0 only when the build, the run, the output check and the
counter gate all pass. --record-counters rewrites this workload's entries
in counters.json instead of gating them (for a change that alters the
counted work on purpose; it must say so).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTERS = os.path.join(HERE, "counters.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_metric_lines(lines):
    """`metric <name> <value> <unit> n=<samples>` -> {name: (value, unit, n)}."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "metric" or not parts[4].startswith("n="):
            continue
        try:
            out[parts[1]] = (float(parts[2]), parts[3], int(parts[4][2:]))
        except ValueError:
            continue
    return out


def parse_counter_lines(lines):
    """`counter <workload> <seed> <name> <value>` -> {(workload, seed): {name: value}}."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "counter":
            continue
        try:
            out.setdefault((parts[1], parts[2]), {})[parts[3]] = int(parts[4])
        except ValueError:
            continue
    return out


def parse_key_values(lines, tag):
    """The `key=value` pairs of the last line starting with `tag`."""
    found = None
    for line in lines:
        parts = line.split()
        if parts and parts[0] == tag:
            found = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
    return found


def counter_drift(expected, got):
    """Describe every counter whose value changed, as a count change."""
    drift = []
    for name in sorted(set(expected) | set(got)):
        want, have = expected.get(name), got.get(name)
        if want != have:
            delta = "" if want is None or have is None else " (%+d)" % (have - want)
            drift.append("%s %s -> %s%s" % (name, want, have, delta))
    return drift


def gate_counters(gate, workload, counted, simd):
    """Drift lines of every recorded (workload, seed) the run counted."""
    if gate.get("simd") != simd:
        print("counter gate skipped: counters.json was recorded at simd=%s, "
              "this host runs simd=%s" % (gate.get("simd"), simd))
        return []
    drift = []
    for seed, expected in gate.get("counters", {}).get(workload, {}).items():
        got = counted.get((workload, seed))
        if got is None:
            continue
        for line in counter_drift(expected, got):
            drift.append("counter drift on %s seed %s: %s" % (workload, seed, line))
    return drift


def result_object(metrics, wanted, attempted, failed, correct):
    """The result JSON object; raises KeyError naming a missing metric."""
    out = {}
    for name in wanted:
        if name not in metrics:
            raise KeyError(name)
        value, unit, _ = metrics[name]
        out[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def build():
    """Configure once and build e2e_bench; returns its path or None."""
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "--parallel", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("e2ebench: %s" % err, file=sys.stderr)
            return None, build_dir
        if done.returncode != 0:
            return None, build_dir
    return os.path.join(build_dir, "e2e_bench"), build_dir


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-counters", action="store_true")
    args = parser.parse_args(argv)

    binary, build_dir = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    with open(COUNTERS) as f:
        gate = json.load(f)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--counter-seed", str(gate["dev_seed"]),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    result = parse_key_values(lines, "result")
    host = parse_key_values(lines, "host") or {}
    if result is None:
        print("e2ebench: the benchmark exited %d without a result"
              % proc.returncode, file=sys.stderr)
        return 1

    counted = parse_counter_lines(lines)
    if args.record_counters:
        gate["simd"] = host.get("simd")
        recorded = gate.setdefault("counters", {}).setdefault(args.workload, {})
        for (workload, seed), values in counted.items():
            if workload == args.workload and int(seed) in (
                    gate["dev_seed"], gate["held_out_seed"]):
                recorded[seed] = values
        with open(COUNTERS, "w") as f:
            json.dump(gate, f, indent=2, sort_keys=True)
            f.write("\n")
        drift = []
    else:
        drift = gate_counters(gate, args.workload, counted, host.get("simd"))
    for line in drift:
        print(line)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    correct = (proc.returncode == 0 and int(result["mismatches"]) == 0
               and not drift)
    try:
        obj = result_object(parse_metric_lines(lines), wanted,
                            int(result["attempted"]), int(result["failed"]),
                            correct)
    except KeyError as err:
        print("e2ebench: metric %s was not printed" % err, file=sys.stderr)
        return 1
    print(json.dumps(obj))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
