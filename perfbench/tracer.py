"""Span tracer that wraps swflow's public functions from outside the package.

The tracer replaces module attributes (for example ``specflow.spectral_flow``
or ``numpy.linalg.eigvalsh``) with timing wrappers while it is installed and
puts the originals back when it is removed.  swflow looks these names up at
call time, so calls between its modules are traced too.  Calls a module
makes to its own private helpers are not.

It is safe under the CLI's thread pool: every thread keeps its own span
stack, span ids come from one shared ``itertools.count`` (whose ``next`` is
atomic under the interpreter lock), and span records and counters are
updated under one lock.
Spans stay in memory; ``layer_metrics`` aggregates them when the run ends
and ``write_spans`` writes them out.
"""

import functools
import gzip
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

LINALG = ("eigvalsh", "eigh", "norm", "svd", "det", "qr")
SMALL_N = 256
VALUE_LEVEL = (
    "swlocal.sw_map",
    "swlocal.chern_simons_dirac",
    "swlocal.gauge_deriv",
    "swlocal.gauge_deriv_adjoint",
    "swlocal.dastq_residual",
)

# Per-layer metrics reported by a traced run, with their units.  The list
# is the same for every workload; a layer a workload does not enter reads 0.
LAYER_UNITS = {
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.s_small": "s",
    "linalg.eigvalsh.s_large": "s",
    "linalg.eigh.calls": "count",
    "linalg.norm.calls": "count",
    "linalg.norm.s": "s",
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "linalg.det.calls": "count",
    "linalg.flops_computed": "flop",
    "specflow.spectral_flow.calls": "count",
    "specflow.spectral_flow.self_s": "s",
    "specflow.evaluate.calls": "count",
    "specflow.evaluate.s": "s",
    "specflow.crossings": "count",
    "specflow.refinement_depth_max": "count",
    "specflow.eigvalsh_per_crossing": "ratio",
    "orient.transport_report.calls": "count",
    "orient.det_route_s": "s",
    "orient.svd_per_path": "ratio",
    "orient.stabilizer_dim_mean": "ratio",
    "torus_model.magnetic_family_path.calls": "count",
    "torus_model.magnetic_family_path.s": "s",
    "swlocal.extended_hessian.calls": "count",
    "swlocal.extended_hessian.s": "s",
    "swlocal.extended_hessian.first_s": "s",
    "swlocal.sw_hessian.s": "s",
    "swlocal.value_level.s": "s",
    "swlocal.configuration_sign.calls": "count",
    "swlocal.configuration_sign.self_s": "s",
    "swlocal.signed_count.self_s": "s",
    "swlocal.eigvalsh_per_sign": "ratio",
    "cli.main.s": "s",
    "cli.concurrency": "ratio",
    "cli.records": "count",
    "cli.payload_bytes": "B",
    "trace.items": "count",
    "trace.overhead_frac": "ratio",
}


def _linalg_cost(name, args, kwargs):
    """Matrix size and textbook LAPACK flop count of one numpy.linalg call.

    The counts are computed from the argument shapes (real double
    precision, leading terms only), not measured.
    """
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return (a.shape[-1] if a is not None and a.ndim else 0), 0.0
    batch = float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0
    m, n = a.shape[-2], a.shape[-1]
    lo, hi = min(m, n), max(m, n)
    if name == "eigvalsh":
        flops = 4.0 / 3.0 * n**3
    elif name == "eigh":
        flops = 9.0 * n**3
    elif name == "det":
        flops = 2.0 / 3.0 * n**3
    elif name == "qr":
        flops = 2.0 * hi * lo**2 - 2.0 / 3.0 * lo**3
    elif name == "svd":
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if not vectors:
            flops = 4.0 * hi * lo**2 - 4.0 / 3.0 * lo**3
        elif full:
            flops = 4.0 * hi**2 * lo + 8.0 * hi * lo**2 + 9.0 * lo**3
        else:
            flops = 14.0 * hi * lo**2 + 8.0 * lo**3
    elif name == "norm":
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        if order in (2, -2):
            flops = 4.0 * hi * lo**2 - 4.0 / 3.0 * lo**3
        else:
            flops = 2.0 * m * n
    else:
        flops = 0.0
    return n, batch * flops


class Tracer:
    """Records one span per traced call: (id, parent, name, thread, item,
    start, end, size).  ``item`` is the benchmark's id for the unit of work
    in progress, so spans of one item share it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []
        self.spans = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.flops = 0.0
        self.item = None
        self.main_thread = threading.get_ident()
        self.created = time.perf_counter()

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, value):
        with self._lock:
            self.counters[name] += value

    def maximum(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, name, fn, on_result=None, cost=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            size, flops = cost(args, kwargs) if cost is not None else (0, 0.0)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = (span_id, parent, name, threading.get_ident(), tracer.item, start, end, size)
                with tracer._lock:
                    tracer.spans.append(record)
                    tracer.flops += flops
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap numpy.linalg and the public functions of the measured modules.

        ``detsign`` and ``clifford3`` are left alone: no workload reaches
        them (clifford3 only supplies constants to swlocal).
        """
        from swflow import cli, orient, specflow, swlocal, torus_model

        for name in LINALG:
            fn = getattr(np.linalg, name)
            cost = functools.partial(_linalg_cost, name)
            self._patch(np.linalg, name, self.wrap("linalg." + name, fn, cost=cost))
        hooks = {
            "specflow.spectral_flow": self._on_flow,
            "orient.transport_report": self._on_transport,
        }
        for layer, module in (
            ("specflow", specflow),
            ("orient", orient),
            ("torus_model", torus_model),
            ("swlocal", swlocal),
        ):
            for attr in module.__all__:
                fn = module.__dict__[attr]
                if inspect.isfunction(fn):
                    name = f"{layer}.{attr}"
                    self._patch(module, attr, self.wrap(name, fn, on_result=hooks.get(name)))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        self._patch(
            specflow.HermitianPath,
            "evaluate",
            self.wrap("specflow.evaluate", specflow.HermitianPath.evaluate),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _on_flow(self, report):
        self.add("specflow.crossings", len(report.crossings))
        self.maximum("specflow.refinement_depth_max", report.refinement_depth)

    def _on_transport(self, report):
        self.add("orient.stabilizer_dim_sum", report.stabilizer_dim)

    # ------------------------------------------------------- aggregation

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans and counters."""
        spans = {s[0]: s for s in self.spans}
        child_s = defaultdict(float)
        child_flow_s = defaultdict(float)
        for sid, parent, name, _thread, _item, start, end, _size in self.spans:
            if parent:
                child_s[parent] += end - start
                if name == "specflow.spectral_flow":
                    child_flow_s[parent] += end - start

        def ancestors(span):
            parent = span[1]
            while parent:
                span = spans[parent]
                yield span[2]
                parent = span[1]

        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        out = defaultdict(float)
        main_s = sum(e - s for _, _, n, _, _, s, e, _ in self.spans if n == "cli.main")
        main_ids = {s[0] for s in self.spans if s[2] == "cli.main"}
        for span in self.spans:
            sid, parent, name, thread, _item, start, end, size = span
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child_s[sid]
            if name == "linalg.eigvalsh":
                out["linalg.eigvalsh.s_small" if size <= SMALL_N else "linalg.eigvalsh.s_large"] += dur
            up = set(ancestors(span)) if parent else set()
            if name == "linalg.eigvalsh":
                if "specflow.spectral_flow" in up:
                    out["eigvalsh_in_flow"] += 1
                if "swlocal.configuration_sign" in up:
                    out["eigvalsh_in_sign"] += 1
            if name == "linalg.svd" and "orient.transport_report" in up and "specflow.spectral_flow" not in up:
                out["svd_in_det_route"] += 1
            if name == "orient.transport_report":
                out["orient.det_route_s"] += dur - child_flow_s[sid]
            if name in VALUE_LEVEL and not up.intersection(VALUE_LEVEL):
                out["swlocal.value_level.s"] += dur
            if name != "cli.main" and (parent in main_ids or (not parent and thread != self.main_thread)):
                out["under_main_s"] += dur

        table = {
            name: {"calls": calls[name], "s": total[name], "self_s": self_s[name]}
            for name in sorted(calls)
        }

        def ratio(num, den):
            return num / den if den else 0.0

        paths = calls["orient.transport_report"]
        signs = calls["swlocal.configuration_sign"]
        crossings = self.counters["specflow.crossings"]
        metrics = {
            "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
            "linalg.eigvalsh.s_small": out["linalg.eigvalsh.s_small"],
            "linalg.eigvalsh.s_large": out["linalg.eigvalsh.s_large"],
            "linalg.eigh.calls": calls["linalg.eigh"],
            "linalg.norm.calls": calls["linalg.norm"],
            "linalg.norm.s": total["linalg.norm"],
            "linalg.svd.calls": calls["linalg.svd"],
            "linalg.svd.s": total["linalg.svd"],
            "linalg.det.calls": calls["linalg.det"],
            "linalg.flops_computed": self.flops,
            "specflow.spectral_flow.calls": calls["specflow.spectral_flow"],
            "specflow.spectral_flow.self_s": self_s["specflow.spectral_flow"],
            "specflow.evaluate.calls": calls["specflow.evaluate"],
            "specflow.evaluate.s": total["specflow.evaluate"],
            "specflow.crossings": int(crossings),
            "specflow.refinement_depth_max": int(self.maxima["specflow.refinement_depth_max"]),
            "specflow.eigvalsh_per_crossing": ratio(out["eigvalsh_in_flow"], crossings),
            "orient.transport_report.calls": paths,
            "orient.det_route_s": out["orient.det_route_s"],
            "orient.svd_per_path": ratio(out["svd_in_det_route"], paths),
            "orient.stabilizer_dim_mean": ratio(self.counters["orient.stabilizer_dim_sum"], paths),
            "torus_model.magnetic_family_path.calls": calls["torus_model.magnetic_family_path"],
            "torus_model.magnetic_family_path.s": total["torus_model.magnetic_family_path"],
            "swlocal.extended_hessian.calls": calls["swlocal.extended_hessian"],
            "swlocal.extended_hessian.s": total["swlocal.extended_hessian"],
            "swlocal.sw_hessian.s": total["swlocal.sw_hessian"],
            "swlocal.value_level.s": out["swlocal.value_level.s"],
            "swlocal.configuration_sign.calls": signs,
            "swlocal.configuration_sign.self_s": self_s["swlocal.configuration_sign"],
            "swlocal.signed_count.self_s": self_s["swlocal.signed_count"],
            "swlocal.eigvalsh_per_sign": ratio(out["eigvalsh_in_sign"], signs),
            "cli.main.s": main_s,
            "cli.concurrency": ratio(out["under_main_s"], main_s),
        }
        return metrics, table

    def write_spans(self, path):
        """Write the spans as gzipped CSV in the order they ended; times are
        microseconds since the tracer was created, threads are numbered
        in order of first appearance."""
        threads = {}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,item,start_us,end_us,size\n")
            for sid, parent, name, thread, item, start, end, size in self.spans:
                tid = threads.setdefault(thread, len(threads))
                t0 = round(1e6 * (start - self.created))
                t1 = round(1e6 * (end - self.created))
                fh.write(f"{sid},{parent},{name},{tid},{item},{t0},{t1},{size}\n")
