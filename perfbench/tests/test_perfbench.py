"""Self-tests of the benchmark.  Run with: python3 -m pytest -q perfbench/tests"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from swflow import specflow  # noqa: E402


def tiny(name, tmp_path, seed=7):
    """Each workload at a size that runs in a few seconds."""
    if name == "transport":
        return wl.Transport(seed, size=3)
    if name == "wallcross":
        return wl.Wallcross(seed, str(tmp_path), flux=(1,))
    if name == "swcheck_c3":
        return wl.Swcheck(seed, str(tmp_path), cutoff=2, trials=1)
    return wl.Signs(seed, cutoff=1, count=1)


def one_pass(workload, steps=1, tracer=None):
    stats = wl.PassStats()
    wl.closed_loop(workload, stats, count=steps, tracer=tracer)
    return stats


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_each_workload_completes_at_a_tiny_size(name, tmp_path):
    stats = one_pass(tiny(name, tmp_path))
    assert stats.items >= 1
    assert stats.failed == 0
    assert stats.call_ms


def test_a_timed_transport_run_ends_after_a_whole_pass(tmp_path):
    stats = wl.PassStats()
    wl.closed_loop(tiny("transport", tmp_path), stats, seconds=0)
    assert (stats.items, stats.failed) == (3, 0)


def test_wrong_reference_values_are_counted_as_failures(tmp_path):
    transport = tiny("transport", tmp_path)
    transport.ref_sf[1] += 1
    stats = one_pass(transport, steps=3)
    assert (stats.items, stats.failed) == (3, 1)

    signs = tiny("signs_c2", tmp_path)
    signs.ref_signs[0] = -signs.ref_signs[0]
    stats = one_pass(signs)
    assert (stats.items, stats.failed) == (2, 2)

    wallcross = tiny("wallcross", tmp_path)
    wallcross.expected["wallcross-1"] = 1
    stats = one_pass(wallcross)
    assert (stats.items, stats.failed) == (1, 1)


def test_a_payload_that_differs_from_the_first_fails(tmp_path):
    swcheck = tiny("swcheck_c3", tmp_path)
    swcheck.first = b"{}"
    stats = one_pass(swcheck)
    assert stats.items == len(swcheck.expected_ids)
    assert stats.failed == stats.items


def traced_counts(workload, steps=1):
    tracer = tr.Tracer()
    tracer.install()
    try:
        one_pass(workload, steps=steps, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.layer_metrics()
    return {k: v for k, v in metrics.items() if tr.LAYER_UNITS[k] == "count"}, tracer


@pytest.mark.parametrize("name", ["transport", "wallcross", "signs_c2"])
def test_traced_runs_with_one_seed_repeat_their_counters(name, tmp_path):
    first, tracer = traced_counts(tiny(name, tmp_path))
    second, _ = traced_counts(tiny(name, tmp_path))
    assert first == second
    assert any(first.values())
    assert {s[4] for s in tracer.spans} == {0}


def test_tracer_restores_what_it_wraps():
    originals = (np.linalg.eigvalsh, specflow.spectral_flow, specflow.HermitianPath.evaluate)
    tracer = tr.Tracer()
    tracer.install()
    assert np.linalg.eigvalsh is not originals[0]
    tracer.uninstall()
    assert (np.linalg.eigvalsh, specflow.spectral_flow, specflow.HermitianPath.evaluate) == originals


def test_tracer_keeps_spans_and_counters_under_many_threads():
    tracer = tr.Tracer()
    inner = tracer.wrap("inner", lambda: tracer.add("hits", 1))
    outer = tracer.wrap("outer", lambda: inner())
    threads, calls = 8, 2000

    def work():
        for _ in range(calls):
            outer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)

    assert tracer.counters["hits"] == threads * calls
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans) == 2 * threads * calls
    for sid, parent, name, thread, *_ in tracer.spans:
        if name == "inner":
            assert spans[parent][2] == "outer" and spans[parent][3] == thread
        else:
            assert parent == 0
    metrics, table = tracer.layer_metrics()
    assert table["outer"]["self_s"] <= table["outer"]["s"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.LAYER_UNITS


def test_one_short_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "transport", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.GATED)
    assert "transport fail_frac 0 frac" in proc.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
