"""Run one workload of the swflow benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: transport, wallcross, swcheck_c3, signs_c2 (see NOTES.md).
Run from the root of a checkout; the program is imported from ./src.

The workload runs in a fresh process (worker.py) as a closed loop with a
single caller.  Before it, set-up alone is timed in further fresh
processes, one after another: at least SETUP_PROBES[0], and more while
less than SETUP_PROBE_S seconds have passed, up to SETUP_PROBES[1].
setup_s is the median of those and the workload process's own set-up.  Every metric is printed on its own
line with its unit and sample count; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones gated in BENCHMARK.json,
with --trace 1 the per-layer ones of the traced run.
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
WORKLOADS = ("transport", "wallcross", "swcheck_c3", "signs_c2")
SETUP_PROBES = (3, 15)
SETUP_PROBE_S = 3.0
TIME_LIMIT_S = 170.0
P90_MIN_SAMPLES = 100

# End-to-end metrics in the result line (BENCHMARK.json lists the same).
GATED = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline):
    """Run worker.py to completion and return its last output line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(res, setups):
    """All end-to-end metrics: name -> (value, unit, sample count)."""
    attempted, failed = res["attempted"], res["failed"]
    out = {
        "items_per_s": ((attempted - failed) / res["elapsed_s"], "1/s", attempted),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "fail_frac": (failed / attempted if attempted else 1.0, "frac", attempted),
    }
    for key in ("call_ms", "count_ms"):
        samples = res[key]
        if samples:
            out[f"{key}_p50"] = (statistics.median(samples), "ms", len(samples))
        if len(samples) >= P90_MIN_SAMPLES:
            out[f"{key}_p90"] = (percentile(samples, 90), "ms", len(samples))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not (ROOT / "src" / "swflow" / "__init__.py").is_file():
        print(f"error: no swflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload]
    run_args = common + ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        probing = time.monotonic()
        while not args.trace and len(setups) < SETUP_PROBES[1] and (
            len(setups) < SETUP_PROBES[0] or time.monotonic() - probing < SETUP_PROBE_S
        ):
            setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
        res = run_worker(run_args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    name = args.workload
    print(f"# swflow benchmark: workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# host " + json.dumps(res["host"], sort_keys=True))
    if args.trace:
        layers = res["layers"]
        for key, (value, unit) in layers.items():
            print(f"{name} {key} {value:.6g} {unit} n={layers['trace.items'][0]}")
        print(f"# {res['spans']} spans; untraced pass {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = end_to_end(res, setups)
        for key, (value, unit, n) in metrics.items():
            print(f"{name} {key} {value:.6g} {unit} n={n}")
        result_metrics = {k: {"value": metrics[k][0], "unit": unit} for k, unit in GATED.items()}
    print("# detail " + json.dumps({k: v for k, v in res.items() if k not in ("call_ms", "count_ms")}))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and res["attempted"] > 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
