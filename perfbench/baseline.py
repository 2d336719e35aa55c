"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads transport,...]
                                  [--trace-seed 303] [--out perfbench/out/baseline.json]

Runs run.py once per (seed, workload), seed by seed so that slow drift of
the host spreads over all workloads, one process at a time.  For every
metric it reports the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, and flags a gated metric whose spread
exceeds a third of its bound in BENCHMARK.json.  With --trace-seed it
also makes two traced runs per workload with that seed and checks that
their integer counters agree exactly.  Prints Markdown tables and writes
all values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == workload and parts[4].startswith("n="):
            printed[parts[1]] = (float(parts[2]), parts[3], int(parts[4][2:]))
    return result, printed


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=str(HERE / "out" / "baseline.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            start = time.monotonic()
            result, printed = run(w, seed, args.seconds, 0)
            wall = time.monotonic() - start
            runs[w].append({"seed": seed, "result": result, "printed": printed, "wall_s": wall})
            print(f"# {w} seed {seed}: wall={wall:.1f}s " + " ".join(f"{k}={v[0]:.6g}" for k, v in printed.items()),
                  file=sys.stderr, flush=True)

    report = {"seconds": args.seconds, "seeds": args.seeds, "end_to_end": {}, "traced": {}}
    print(f"## End to end: {args.seconds} s runs, seeds {args.seeds}\n")
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound | samples per run |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        report["end_to_end"][w] = {}
        names = sorted({k for r in runs[w] for k in r["printed"]})
        for name in names:
            rows = [r["printed"][name] for r in runs[w] if name in r["printed"]]
            stats = summary([v for v, _, _ in rows])
            stats["samples"] = [n for _, _, n in rows]
            report["end_to_end"][w][name] = stats
            bound = bounds.get(name)
            flag = " (over a third of the bound)" if bound and name != "setup_s" and stats["spread"] > bound / 3 else ""
            print(f"| {w} | {name} | {rows[0][1]} | {stats['median']:.6g} | {stats['q1']:.6g} | "
                  f"{stats['q3']:.6g} | {stats['spread']:.3f}{flag} | {bound if bound else '-'} | "
                  f"{min(stats['samples'])}-{max(stats['samples'])} |")
        walls = [r["wall_s"] for r in runs[w]]
        print(f"| {w} | wall time of one run | s | {statistics.median(walls):.1f} | | | | | max {max(walls):.1f} |")
        fails = [r["result"]["failed"] for r in runs[w]]
        print(f"| {w} | failed / attempted | count | {sum(fails)} / "
              f"{sum(r['result']['attempted'] for r in runs[w])} | | | | | |")

    if args.trace_seed is not None:
        print(f"\n## Traced runs, seed {args.trace_seed} (two runs per workload)\n")
        print("| metric | unit | " + " | ".join(workloads) + " |")
        print("|---|---|" + "---|" * len(workloads))
        traced = {}
        for w in workloads:
            first, _ = run(w, args.trace_seed, args.seconds, 1)
            second, _ = run(w, args.trace_seed, args.seconds, 1)
            counts = [k for k, m in first["metrics"].items() if m["unit"] == "count"]
            repeat = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts)
            traced[w] = {"metrics": first["metrics"], "second": second["metrics"], "counters_repeat": repeat}
        report["traced"] = traced
        for name, unit in ((k, m["unit"]) for k, m in traced[workloads[0]]["metrics"].items()):
            cells = [f"{traced[w]['metrics'][name]['value']:.4g}" for w in workloads]
            print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
        print("| counters repeat exactly | | " + " | ".join(str(traced[w]["counters_repeat"]) for w in workloads) + " |")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
