#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs N] [--sets K]

Runs every workload of BENCHMARK.json N times per set through
perfbench/run.py (untraced, run_seconds of BENCHMARK.json), seed i+1 on the
i-th run, alternating the workload order from one run to the next so slow
drift in the host's load falls on every workload alike. For each set,
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)), the interquartile spread as a share of the
median, and that spread as a share of the metric's bound. A spread at or
over a third of the bound fails: a later comparison could not tell a
regression of that size from noise. A spread over the whole bound is
printed as unresolved. With K >= 2 sets (the same seeds again) it also
fails when a set's median differs from the first set's by more than the
bound in either direction, and checks that modeled_emulation_s,
history_hash and the failed share repeat exactly. Results are appended to
.bench_out/steadiness.jsonl. The exit status is 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    details_path = os.path.join(
        ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace0.json")
    with open(details_path) as f:
        details = json.load(f)
    return result, details, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")

    ok = True
    # sets[k][workload] = list of (seed, result, details)
    sets = []
    for k in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = i + 1
            order = workloads if (i + k) % 2 == 0 else list(reversed(workloads))
            for workload in order:
                result, details, wall = run_once(workload, seed, seconds)
                runs[workload].append((seed, result, details))
                with open(log_path, "a") as log:
                    log.write(json.dumps({"set": k, "workload": workload,
                                          "seed": seed, "wall_s": wall,
                                          "result": result,
                                          "history_hash": details["history_hash"]})
                              + "\n")
                print(f"set {k} run {i} {workload} seed {seed}: "
                      + ", ".join(f"{n}={v['value']:.4g}"
                                  for n, v in result["metrics"].items())
                      + f" (wall {wall:.1f} s)", flush=True)
                if not result["correct"]:
                    print("  INCORRECT", flush=True)
                    ok = False
        sets.append(runs)

    for k, runs in enumerate(sets):
        print(f"\nset {k}: median [q1, q3] iqr/median (share of bound)")
        for workload in workloads:
            attempted = sum(r["attempted"] for _, r, _ in runs[workload])
            failed = sum(r["failed"] for _, r, _ in runs[workload])
            print(f"  {workload}: failed {failed}/{attempted}")
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for _, r, _ in runs[workload]]
                median, q1, q3, spread = summarize(values)
                flag = ""
                if spread > bound:
                    flag = "  <-- UNRESOLVED: spread over the bound"
                elif spread >= bound / 3:
                    flag = "  <-- spread >= bound/3"
                ok = ok and not flag
                print(f"    {metric:22s} {median:12.6g} [{q1:.6g}, {q3:.6g}] "
                      f"{spread:7.2%} ({spread / bound:5.2f} of bound {bound}){flag}")

    for k in range(1, len(sets)):
        print(f"\nset {k} against set 0")
        for workload in workloads:
            first, other = sets[0][workload], sets[k][workload]
            for metric, bound in bounds.items():
                m0 = statistics.median(r["metrics"][metric]["value"] for _, r, _ in first)
                mk = statistics.median(r["metrics"][metric]["value"] for _, r, _ in other)
                change = (mk - m0) / m0
                flag = ("  <-- moved by more than the bound"
                        if abs(change) > bound else "")
                ok = ok and not flag
                print(f"  {workload:26s} {metric:22s} {change:+7.2%}{flag}")
            for (seed, r0, d0), (_, rk, dk) in zip(first, other):
                same = (r0["metrics"]["modeled_emulation_s"]["value"]
                        == rk["metrics"]["modeled_emulation_s"]["value"]
                        and d0["history_hash"] == dk["history_hash"])
                if not same:
                    ok = False
                    print(f"  {workload} seed {seed}: modeled time or "
                          f"history_hash did not repeat")
            share0 = sum(r["failed"] for _, r, _ in first) / sum(
                r["attempted"] for _, r, _ in first)
            sharek = sum(r["failed"] for _, r, _ in other) / sum(
                r["attempted"] for _, r, _ in other)
            if share0 != sharek:
                ok = False
                print(f"  {workload}: failed share {share0} vs {sharek}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
