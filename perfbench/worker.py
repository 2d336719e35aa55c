"""One workload in one fresh process; run.py starts it and reads its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

Set-up is timed from the top of this file: importing numpy and swflow,
the first numpy/BLAS call, and, for workloads on the torus, swlocal's
per-cutoff tables and first-order blocks (built by the first
``extended_hessian`` call).  Without --trace the workload then runs as a
closed loop for S seconds.  With --trace it runs a fixed number of steps
twice, untraced and then traced, so that the counters repeat for a seed
and the tracing overhead can be read off.  The last line of standard
output is one JSON object with the raw results.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def set_up(name):
    """Import the program from the checkout and warm it; return (set-up
    seconds since process start, seconds of the first extended_hessian)."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    import swflow

    if Path(swflow.__file__).resolve().parent != SRC / "swflow":
        raise ImportError(f"swflow imported from {swflow.__file__}, not from {SRC}")
    import workloads  # imports swflow.cli and the modules the workloads call

    np.linalg.eigvalsh(np.eye(8))
    first_s = 0.0
    cutoff = workloads.WORKLOADS[name].cutoff
    if cutoff:
        from swflow import swlocal as sl
        from swflow import torus_model as tm

        trunc = tm.TorusTruncation(cutoff)
        start = time.perf_counter()
        sl.extended_hessian(sl.Configuration(trunc, np.zeros((trunc.mode_count, 2)), np.zeros(3)))
        first_s = time.perf_counter() - start
    return time.perf_counter() - _START, first_s


def host_record():
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_timed(workload, seconds):
    from workloads import PassStats, closed_loop

    stats = PassStats()
    elapsed = closed_loop(workload, stats, seconds=seconds)
    return {
        "elapsed_s": elapsed,
        "attempted": stats.items,
        "failed": stats.failed,
        "call_ms": stats.call_ms,
        "count_ms": stats.count_ms,
    }


def run_traced(workload, steps, first_s, seed):
    from tracer import LAYER_UNITS, Tracer
    from workloads import PassStats, closed_loop

    warm = PassStats()
    closed_loop(workload, warm, count=1)
    plain = PassStats()
    plain_s = closed_loop(workload, plain, count=steps)
    tracer = Tracer()
    traced = PassStats()
    tracer.install()
    try:
        traced_s = closed_loop(workload, traced, count=steps, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, table = tracer.layer_metrics()
    metrics.update(
        {
            "swlocal.extended_hessian.first_s": first_s,
            "cli.records": traced.records,
            "cli.payload_bytes": traced.payload_bytes,
            "trace.items": traced.items,
            "trace.overhead_frac": traced_s / plain_s - 1.0,
        }
    )
    tracer.write_spans(OUT / f"spans-{workload.name}-{seed}.csv.gz")
    return {
        "attempted": warm.items + plain.items + traced.items,
        "failed": warm.failed + plain.failed + traced.failed,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "layers": {key: [metrics[key], unit] for key, unit in LAYER_UNITS.items()},
        "table": table,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    setup_s, first_s = set_up(args.workload)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import workloads

        OUT.mkdir(exist_ok=True)
        steps = workloads.WORKLOADS[args.workload].trace_steps if args.trace else None
        workload = workloads.make(args.workload, args.seed, str(OUT))
        try:
            if args.trace:
                result.update(run_traced(workload, steps, first_s, args.seed))
            else:
                result.update(run_timed(workload, args.seconds))
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["host"] = host_record()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
