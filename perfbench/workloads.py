"""The four workloads of the swflow benchmark.

Each workload builds its inputs and reference values from the seed when it
is constructed, before any timing starts.  ``run_step(i, stats)`` then does
the i-th unit of work the benchmark calls, checks every output against the
references and records the outcome in ``stats``.  Steps are run one after
another by a single caller (see ``closed_loop``).  NOTES.md says why each
workload was chosen.
"""

import json
import os
import sys
import time
import traceback

import numpy as np

from swflow import cli, orient
from swflow import specflow as sf
from swflow import swlocal as sl
from swflow import torus_model as tm

ENDPOINT_COUNT = sf.SpectralFlowConfig(endpoint_count_only=True)


class PassStats:
    """Outcomes of one pass: items attempted and failed, call latencies."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.call_ms = []
        self.count_ms = []
        self.records = 0
        self.payload_bytes = 0
        self.errors = 0

    def outcome(self, ok, n=1):
        self.items += n
        if not ok:
            self.failed += n

    def error(self, n=1):
        """An exception counts as n failed items; the first few are shown."""
        self.outcome(False, n)
        self.errors += 1
        if self.errors <= 3:
            traceback.print_exc(file=sys.stderr)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, 1e3 * (time.perf_counter() - start)


def closed_loop(workload, stats, seconds=None, count=None, tracer=None):
    """Run steps 0, 1, ... of a workload back to back; return the wall time.

    Stops after ``count`` steps, or, once ``seconds`` have passed, at the
    end of a whole pass of ``workload.pass_steps`` steps (at least one pass
    always runs), so that every timed pass does the same work.
    """
    per_pass = getattr(workload, "pass_steps", 1)
    start = time.perf_counter()
    i = 0
    while count is None or i < count:
        if count is None and i % per_pass == 0 and i and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.item = i
        workload.run_step(i, stats)
        i += 1
    return time.perf_counter() - start


def draw_recipe(rng, n):
    """One path of the acceptance battery's 1000-path test, as matrices.

    Returns (affine, a, b, c) with a, b, c random symmetric n x n: the path
    is a + t b on [-1, 1] when affine, else a + t b + sin(1.7 t) c sampled
    at 25 points; both with probability 1/2, redrawn until both endpoints
    are invertible.  Draws from rng exactly as that test does.
    """
    while True:
        a, b, c = (m + m.T for m in (rng.standard_normal((n, n)) for _ in range(3)))
        affine = rng.random() < 0.5
        path = make_path(affine, a, b, c)
        e0 = np.abs(np.linalg.eigvalsh(path.values[0])).min()
        e1 = np.abs(np.linalg.eigvalsh(path.values[-1])).min()
        if min(e0, e1) > 1e-3:
            return affine, a, b, c


def make_path(affine, a, b, c):
    if affine:
        return sf.HermitianPath.affine(a, b, -1.0, 1.0)
    return sf.HermitianPath.from_callable(
        lambda t: a + t * b + np.sin(1.7 * t) * c, -1.0, 1.0, num_samples=25
    )


class Transport:
    """One item is one path through ``orient.transport_report``.

    The paths are the first ``corpus_size`` paths of the 1000-path test's own
    stream (seed 303), so n = 4..10 cycles and each size appears ten
    times.  The seed draws a random orthogonal Q for every path, which
    becomes Q^T A(t) Q, and the order in which the paths are run; steps
    cycle through that list.  Conjugation keeps the spectra along each
    path, so every seed does nearly the same work on different matrices.
    Fresh random paths for each seed made throughput vary between seeds
    by more than the benchmark's bound (see NOTES.md).  A timed run stops
    only after a whole pass over the list: one path costs up to 1.9 s, so
    a run cut inside a pass times a mix of paths that depends on the seed.
    """

    name = "transport"
    cutoff = None
    corpus_seed = 303
    corpus_size = 70
    trace_steps = corpus_size

    def __init__(self, seed, size=None):
        size = size or self.corpus_size
        corpus_rng = np.random.default_rng(self.corpus_seed)
        corpus = [draw_recipe(corpus_rng, 4 + i % 7) for i in range(size)]
        rng = np.random.default_rng(seed)
        self.paths = []
        for j in rng.permutation(size):
            affine, *mats = corpus[j]
            q, _ = np.linalg.qr(rng.standard_normal((mats[0].shape[0],) * 2))
            rotated = [q.T @ m @ q for m in mats]
            self.paths.append(make_path(affine, *(0.5 * (m + m.T) for m in rotated)))
        self.ref_sf = [sf.spectral_flow(p, ENDPOINT_COUNT).sf for p in self.paths]
        self.pass_steps = len(self.paths)

    def run_step(self, i, stats):
        i %= len(self.paths)
        try:
            rep, ms = _timed(orient.transport_report, self.paths[i])
        except Exception:
            stats.error()
            return
        stats.call_ms.append(ms)
        stats.outcome(rep.eps_det == rep.eps_sf and rep.sf == self.ref_sf[i])


class CliWorkload:
    """One step is one in-process ``swflow.cli.main`` call; one item is one
    output record.  The payload of the first call is the byte reference."""

    cutoff = None
    trace_steps = 1

    def __init__(self, workdir, argv, expected_ids):
        self.out = os.path.join(workdir, f"{self.name}-{os.getpid()}.json")
        self.argv = list(argv) + ["--out", self.out]
        self.expected_ids = list(expected_ids)
        self.first = None

    def record_ok(self, record):
        return record["pass"] is True

    def run_step(self, i, stats):
        n = len(self.expected_ids)
        try:
            code, ms = _timed(cli.main, self.argv)
            with open(self.out, "rb") as fh:
                payload = fh.read()
            records = json.loads(payload)["results"]
        except Exception:
            stats.error(n)
            return
        stats.call_ms.append(ms)
        stats.records += len(records)
        stats.payload_bytes += len(payload)
        if self.first is None:
            self.first = payload
        whole = (
            code == 0
            and payload == self.first
            and [rec["id"] for rec in records] == self.expected_ids
        )
        for rec in records[:n]:
            stats.outcome(whole and self.record_ok(rec))
        stats.outcome(False, n - min(n, len(records)))

    def close(self):
        if os.path.exists(self.out):
            os.remove(self.out)


class Wallcross(CliWorkload):
    name = "wallcross"
    flux = (-3, -2, -1, 0, 1, 2, 3)

    def __init__(self, seed, workdir, flux=None):
        if flux is not None:
            self.flux = tuple(flux)
        text = ",".join(str(d) for d in self.flux)
        super().__init__(workdir, ["wallcross", f"--flux={text}"], [f"wallcross-{d}" for d in self.flux])
        self.expected = {f"wallcross-{d}": -d for d in self.flux}

    def record_ok(self, record):
        want = self.expected[record["id"]]
        values = record["values"]
        flows = [values[f"sf_depth_{depth}"] for depth in (2, 4, 8)]
        return record["pass"] is True and values["expected"] == want and flows == [want] * 3


class Swcheck(CliWorkload):
    name = "swcheck_c3"
    cutoff = 3
    trials = 2

    def __init__(self, seed, workdir, cutoff=None, trials=None):
        self.cutoff = cutoff or self.cutoff
        self.trials = trials or self.trials
        t = self.trials
        ids = (
            [f"gradient-{i}" for i in range(t)]
            + [f"hessian-{i}" for i in range(min(t, 3))]
            + [f"adjoint-{i}" for i in range(t)]
            + [f"coclosure-{i}" for i in range(t)]
            + ["kernel", "crossing"]
        )
        argv = ["swcheck", "--cutoff", str(self.cutoff), "--seed", str(seed), "--trials", str(t)]
        super().__init__(workdir, argv, ids)

    def record_ok(self, record):
        if record["id"] == "kernel" and record["values"] != {"generic": 4, "zero": 8}:
            return False
        return record["pass"] is True


class Signs:
    """One step is a pass over the configurations: a sign for each, taken
    from a random reducible base, then their signed count.  Items are the
    signs and the count."""

    name = "signs_c2"
    cutoff = 2
    trace_steps = 1
    configs_per_pass = 4

    def __init__(self, seed, cutoff=None, count=None):
        self.cutoff = cutoff or self.cutoff
        count = count or self.configs_per_pass
        trunc = tm.TorusTruncation(self.cutoff)
        m = trunc.mode_count
        rng = np.random.default_rng(seed)
        self.configs = [sl.random_configuration(trunc, rng) for _ in range(count)]
        self.bases = [
            sl.Configuration(
                trunc,
                np.zeros((m, 2)),
                rng.uniform(-1.0, 1.0, size=3),
                sl.random_configuration(trunc, rng).a_field,
            )
            for _ in range(count)
        ]
        self.ref_signs = [sl.configuration_sign(c) for c in self.configs]

    def run_step(self, i, stats):
        for c, base, want in zip(self.configs, self.bases, self.ref_signs):
            try:
                eps, ms = _timed(sl.configuration_sign, c, base=base)
            except Exception:
                stats.error()
                continue
            stats.call_ms.append(ms)
            stats.outcome(eps == want)
        try:
            total, ms = _timed(sl.signed_count, self.configs)
        except Exception:
            stats.error()
            return
        stats.count_ms.append(ms)
        stats.outcome(total == sum(self.ref_signs))


WORKLOADS = {w.name: w for w in (Transport, Wallcross, Swcheck, Signs)}


def make(name, seed, workdir):
    if name in ("transport", "signs_c2"):
        return WORKLOADS[name](seed)
    return WORKLOADS[name](seed, workdir)
