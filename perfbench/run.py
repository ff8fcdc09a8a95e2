#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the src/ libraries it
links) into $CARGO_TARGET_DIR/cmake, default .bench_build/cmake, as a
RelWithDebInfo build; later calls rebuild only what changed. Build output
goes to stderr. The benchmark's stdout is passed through, with its last
line, the result JSON, completed from BENCHMARK.json: a metric listed there
that the workload does not measure (a layer it never enters) reads 0 and is
named under "not_measured" on the record line. Exits non-zero, printing no
result, when the checkout lacks the sources, the build or run fails, or the
program reports a metric BENCHMARK.json does not list.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("capture", "dashboard", "live")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and few ops (the self-test size)")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "full checkout", file=sys.stderr)
            return 2

    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(base, "cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 1
    build = ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(base, "perfbench")]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.splitlines()
    try:
        lines = complete(lines, args.trace == "1")
    except ValueError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


def complete(lines, trace):
    """Puts the result's metrics in BENCHMARK.json's order and adds the
    listed ones the workload did not measure, as 0, naming them on the
    record line."""
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        if units.get(name) != metric["unit"]:
            raise ValueError(f"metric {name} ({metric['unit']}) is not listed "
                             "in BENCHMARK.json with that unit")
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {
        m["name"]: result["metrics"].get(m["name"],
                                         {"value": 0, "unit": m["unit"]})
        for m in listed}
    out = []
    for line in lines[:-1]:
        if line.startswith('{"record"'):
            record = json.loads(line)
            record["record"]["not_measured"] = missing
            line = json.dumps(record)
        out.append(line)
    return out + [json.dumps(result)]


if __name__ == "__main__":
    sys.exit(main())
