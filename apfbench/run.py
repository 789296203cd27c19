#!/usr/bin/env python3
"""Build and run the apfbench benchmark from the root of a source checkout.

    python3 apfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source with CMake (Release) into
$CARGO_TARGET_DIR or .bench_build, then runs the benchmark binary with the
given arguments. Build output goes to stderr. The binary reports every
metric it measured by name; this script prints, as the last line of stdout,
the result object with the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1) and their units. A
per-layer metric the workload did not measure is a layer its path bypasses
and reads 0. With --trace 1 the Chrome trace is written under the build
directory. Exits non-zero, without a result, when the build or the run
fails, an end-to-end metric was not measured, or the binary reports a
metric BENCHMARK.json does not list.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "apfbench"))


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "apfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("apfbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "apfbench")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def metrics_for(spec, measured, trace):
    """The result's metrics: BENCHMARK.json's list for the mode, in order."""
    unknown = set(measured) - {m["name"] for m in
                               spec["end_to_end"] + spec["per_layer"]}
    if unknown:
        sys.exit("apfbench: metrics not in BENCHMARK.json: %s" % sorted(unknown))
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in measured and not trace:
            sys.exit("apfbench: %s was not measured" % m["name"])
        out[m["name"]] = {"value": measured.get(m["name"], 0.0),
                          "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = load_spec()
    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{\"correct\""):
        sys.exit("apfbench: run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["metrics"] = metrics_for(spec, result.pop("measured"), args.trace)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0:
        sys.exit("apfbench: output checks failed (exit code %d)" % proc.returncode)


if __name__ == "__main__":
    main()
