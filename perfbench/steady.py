#!/usr/bin/env python3
"""Runs one workload N times with different seeds and reports how steady
each end-to-end metric is against its bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload live --runs 10

Run i uses seed FIRST_SEED + i and BENCHMARK.json's run_seconds. For each
end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread and the
max/min spread as shares of the median, and the metric's bound. A spread
under a third of the bound is marked "ok"; setup_s is exempt from the
spread rule and only its median is compared between sets of runs. It also
prints, per run, the ratio of second-half to first-half median op latency
of the timed section (1.0 means the section is stationary).

For a workload with counts that must repeat exactly (REPEATED_COUNTS), it
then makes two traced runs with FIRST_SEED and checks that those counts
agree.
"""
import argparse
import json
import statistics
import subprocess
import sys

FIRST_SEED = 1
REPEATED_COUNTS = {
    "capture": ("telescope.backscatter_share", "telescope.flows_filtered",
                "telescope.events", "amppot.events"),
}


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line)["record"] for line in lines
                   if line.startswith('{"record"')), {})
    return record, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {}
    halves = []
    failed = attempted = 0
    all_correct = True
    for i in range(args.runs):
        seed = FIRST_SEED + i
        record, result = run_once(args.workload, seed, seconds, 0)
        all_correct &= result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        halves.append(float(record["second_half_p50_ms"]) /
                      float(record["first_half_p50_ms"]))
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, "
          f"correct={all_correct}, failed {failed}/{attempted}")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'max/min':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        spread = max(vals) / min(vals) - 1 if min(vals) > 0 else float("nan")
        bound = bounds[name]
        verdict = ""
        if name != "setup_s":
            verdict = "ok" if iqr < bound / 3 else "TOO WIDE"
        print(f"{name:<34}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{iqr:>9.3f}{spread:>9.3f}{bound:>7} {verdict}")
    print("second/first half p50 per run: " +
          " ".join(f"{r:.3f}" for r in halves) +
          f"  (median {statistics.median(halves):.3f})")

    counts = REPEATED_COUNTS.get(args.workload)
    if counts:
        first = run_once(args.workload, FIRST_SEED, seconds, 1)[1]["metrics"]
        second = run_once(args.workload, FIRST_SEED, seconds, 1)[1]["metrics"]
        for name in counts:
            a, b = first[name]["value"], second[name]["value"]
            print(f"repeat {name}: {a} {b} "
                  f"{'ok' if a == b else 'DIFFERS'}")


if __name__ == "__main__":
    main()
