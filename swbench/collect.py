#!/usr/bin/env python3
"""Run swbench several times per workload and summarise the runs.

One binary: report, per workload and metric, the median and quartiles
over runs (each run on its own seed) and the IQR as a share of the
median, flagging end-to-end metrics whose spread exceeds a third of
their bound.

Two binaries (parent first, change second): runs alternate between them,
swapping which goes first on every seed, and each metric gets the
change's win count and whether the medians differ by more than the
parent's IQR -- the rule README.md gives for claiming a gain. Each
end-to-end metric also gets a verdict: within bound, regression, or
unresolved when the parent's own IQR is wider than the bound.

    cargo build --release --manifest-path swbench/Cargo.toml
    python3 swbench/collect.py --binary target/release/swbench
    python3 swbench/collect.py --binary parent/swbench --binary change/swbench

Run it from the repository root. --out writes the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Seeds 1..RUNS for every workload: ten pairs is what the win rule needs.
RUNS = 10


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / abs(med) if med else 0.0, "runs": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", action="append", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if len(args.binary) > 2:
        sys.exit("at most two binaries: parent, then change")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    section = bench["per_layer" if args.trace else "end_to_end"]
    defs = {m["name"]: m for m in section}

    report = {}
    for workload in workloads:
        runs = [[] for _ in args.binary]
        for i in range(RUNS):
            seed = 1 + i
            order = list(range(len(args.binary)))
            if i % 2:
                order.reverse()
            for b in order:
                runs[b].append(run_once(args.binary[b], workload, seed,
                                        bench["run_seconds"], args.trace))
        report[workload] = {}
        for name, d in defs.items():
            sides = [summary([r[name] for r in side]) for side in runs]
            entry = {"unit": d["unit"], "sides": sides}
            line = f"{workload:12} {name:32} " + "  ".join(
                f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] iqr {s['iqr_frac'] * 100:.1f}%"
                for s in sides)
            if "bound" in d and sides[0]["iqr_frac"] > d["bound"] / 3:
                line += "  spread > bound/3"
            if len(sides) == 2:
                parent, change = sides
                higher = d["better"] == "higher"

                def better(c, p):
                    return c > p if higher else c < p

                wins = sum(better(c, p) for p, c in zip(parent["runs"], change["runs"]))
                apart = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
                entry.update(wins=wins, apart=apart)
                line += f"  change wins {wins}/{RUNS}{', medians apart' if apart else ''}"
                if "bound" in d:
                    worse = (parent["median"] - change["median"]) / abs(parent["median"])
                    if not higher:
                        worse = -worse
                    # A parent spread wider than the bound cannot show that
                    # nothing changed, unless every change run is better.
                    if parent["iqr_frac"] > d["bound"] and not all(
                            better(c, p) for c in change["runs"] for p in parent["runs"]):
                        verdict = "unresolved"
                    elif worse > d["bound"]:
                        verdict = "regression"
                    else:
                        verdict = "within bound"
                    entry["verdict"] = verdict
                    line += f"; {verdict}"
            report[workload][name] = entry
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
