"""Tests for the experiment runner.

Determinism is the load-bearing contract: identical seeds must produce
byte-identical JSON payloads, and exit codes must encode the outcome
(0 all pass, 1 assertion failures, 2 configuration or margin errors).
"""

import collections
import csv
import hashlib
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from swflow import cli
from swflow import specflow as sfmod
from swflow import torus_model as tm


def run_cli(args):
    return cli.main(args)


def read_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw.decode())


def test_otsf_deterministic_and_passing(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["otsf", "--seed", "1", "--trials", "10", "--dim", "4"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    raw1, payload = read_json(out1)
    raw2, _ = read_json(out2)
    assert raw1 == raw2
    assert payload["summary"]["pass"] == 10
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["seconds"] == 0.0
    assert payload["version"]
    assert payload["config"]["command"] == "otsf"
    assert len(payload["results"]) == 10
    for rec in payload["results"]:
        assert set(rec) == {"id", "citation", "pass", "values"}
        assert rec["pass"] is True
        assert rec["values"]["eps_det"] == rec["values"]["eps_sf"]


def test_otsf_different_seeds_differ(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["otsf", "--seed", "1", "--trials", "4", "--out", str(out1)]) == 0
    assert run_cli(["otsf", "--seed", "2", "--trials", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_trials_zero_is_config_error(tmp_path, capsys):
    code = run_cli(["otsf", "--trials", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_wallcross_matches_flux(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli(["wallcross", "--seed", "3", "--flux=-3,-2,-1,0,1,2,3", "--out", str(out)])
    assert code == 0
    _, payload = read_json(out)
    assert len(payload["results"]) == 7
    for rec in payload["results"]:
        d = rec["values"]["flux"]
        assert rec["pass"] is True
        assert rec["values"]["expected"] == -d
        sfs = {rec["values"][k] for k in rec["values"] if k.startswith("sf_depth_")}
        assert sfs == {-d}
        assert {k for k in rec["values"] if k.startswith("sf_depth_")} == {
            "sf_depth_2",
            "sf_depth_4",
            "sf_depth_8",
        }


def test_torus_suite_passes(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(["torus", "--seed", "7", "--cutoff", "2", "--trials", "3", "--out", str(out)])
    assert code == 0
    _, payload = read_json(out)
    ids = [rec["id"] for rec in payload["results"]]
    assert any(i.startswith("spectrum") for i in ids)
    assert any(i.startswith("gauge-period") for i in ids)
    assert any(i.startswith("weitzenbock") for i in ids)
    assert all(rec["pass"] for rec in payload["results"])


def test_torus_gauge_period_is_flowed_crossing_by_crossing(tmp_path):
    # the gauge-period record reports the crossing-resolved flow of its
    # path, with its number of crossings, and passes only at sf == 0
    out = tmp_path / "g.json"
    assert run_cli(["torus", "--seed", "3", "--cutoff", "2", "--trials", "2", "--out", str(out)]) == 0
    _, payload = read_json(out)
    (rec,) = [rec for rec in payload["results"] if rec["id"] == "gauge-period"]
    alpha = cli._substream(3, 2).uniform(-1.0, 1.0, size=3)
    path = tm.dirac_family_path(tm.TorusTruncation(2), alpha, alpha + np.array([2.0, 0.0, 0.0]))
    rep = sfmod.spectral_flow(path)
    assert rep.method == "crossing"
    assert rec["values"] == {"crossings": len(rep.crossings), "sf": rep.sf}
    assert rec["pass"] and rep.sf == 0


def test_swcheck_passes(tmp_path, monkeypatch):
    # the Hessian and kernel records read the operators' blocks
    def forbidden(c):
        raise AssertionError("a dense Hessian was assembled")

    monkeypatch.setattr(cli.sl, "sw_hessian", forbidden)
    monkeypatch.setattr(cli.sl, "extended_hessian", forbidden)
    out = tmp_path / "s.json"
    code = run_cli(["swcheck", "--seed", "7", "--cutoff", "2", "--trials", "3", "--out", str(out)])
    assert code == 0
    _, payload = read_json(out)
    ids = [rec["id"] for rec in payload["results"]]
    for stem in ["gradient", "hessian", "adjoint", "coclosure", "kernel", "crossing"]:
        assert any(i.startswith(stem) for i in ids), stem
    assert all(rec["pass"] for rec in payload["results"])


def test_swcheck_kernel_record_fails_on_a_coupled_hessian(tmp_path, monkeypatch):
    # the kernel record takes its spectrum by blocks only after checking
    # that the coupling blocks the reducible Hessian is assembled from are
    # zero; a fault in the function block reaches the assembled Hessian
    blocks = cli.sl._coupling_blocks

    def coupled(trunc, psi, out=None):
        got = blocks(trunc, psi, out)
        if got[1] is not None:
            got[1][0, -1] = 1e-300
        return got

    monkeypatch.setattr(cli.sl, "_coupling_blocks", coupled)
    tr = tm.TorusTruncation(2)
    h = cli.sl.extended_hessian(cli.sl.Configuration(tr, np.zeros((tr.mode_count, 2)), np.zeros(3)))
    assert h[0, -1] != 0.0
    out = tmp_path / "k.json"
    code = run_cli(["swcheck", "--seed", "7", "--cutoff", "2", "--trials", "1", "--out", str(out)])
    assert code == 1
    _, payload = read_json(out)
    failed = [rec["id"] for rec in payload["results"] if not rec["pass"]]
    assert failed == ["kernel"]


def test_swcheck_at_cutoff_3_stays_below_one_dense_hessian(tmp_path):
    # one dense sw_hessian at cutoff 3 is 2401^2 doubles, 44 MiB; the
    # Hessian records read its blocks and the kernel record the zero
    # coupling blocks, so the traced peak of a warm call stays below it
    args = ["swcheck", "--seed", "7", "--cutoff", "3", "--trials", "2", "--out", str(tmp_path / "s.json")]
    assert run_cli(args) == 0
    tracemalloc.start()
    try:
        assert run_cli(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2401**2 * 8


def test_swcheck_records_count_their_block_checks(tmp_path, monkeypatch):
    # counters of a warm call, the same on every host: a Hessian record
    # takes the pair defects of D_A and of the coupling pair (-*d's is
    # cached per cutoff), and the kernel record forms the coupling blocks
    # of the one zero spinor once.  Each call is charged to the record
    # whose frame in cli is nearest on the stack
    args = ["swcheck", "--seed", "7", "--cutoff", "2", "--trials", "2", "--out", str(tmp_path / "s.json")]
    assert run_cli(args) == 0
    counts = collections.Counter()

    def spy(module, name):
        call = getattr(module, name)

        def counted(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_filename != cli.__file__:
                frame = frame.f_back
            counts[name, frame.f_code.co_name, frame.f_locals.get("i")] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(sfmod, "_pair_defect")
    spy(cli.sl, "_coupling_blocks")
    assert run_cli(args) == 0
    for i in range(2):
        assert counts["_pair_defect", "hessian", i] == 2
        assert counts["_coupling_blocks", "hessian", i] == 1
    assert counts["_coupling_blocks", "kernel", None] == 1


def test_swcheck_small_cutoff_is_margin_error(tmp_path, capsys):
    code = run_cli(["swcheck", "--cutoff", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "margin" in capsys.readouterr().err.lower()


def test_csv_round_trip_matches_json(tmp_path):
    out_j = tmp_path / "r.json"
    out_c = tmp_path / "r.csv"
    base = ["torus", "--seed", "5", "--cutoff", "2", "--trials", "2"]
    assert run_cli(base + ["--out", str(out_j)]) == 0
    assert run_cli(base + ["--format", "csv", "--out", str(out_c)]) == 0
    _, payload = read_json(out_j)
    with open(out_c, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["id"] for r in rows] == [rec["id"] for rec in payload["results"]]
    assert [r["pass"] == "true" for r in rows] == [rec["pass"] for rec in payload["results"]]
    for row, rec in zip(rows, payload["results"]):
        assert json.loads(row["values"]) == rec["values"]


def test_config_file_with_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# experiment defaults\nseed = 5\ntrials = 3\ndim = 4\n")
    out = tmp_path / "o.json"
    code = run_cli(["otsf", "--config", str(cfgfile), "--trials", "4", "--out", str(out)])
    assert code == 0
    _, payload = read_json(out)
    assert payload["config"]["seed"] == 5
    assert payload["config"]["trials"] == 4
    assert payload["config"]["dim"] == 4


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sede = 5\n")
    code = run_cli(["otsf", "--config", str(cfgfile)])
    assert code == 2
    assert "sede" in capsys.readouterr().err


def test_tolerance_override_can_force_failure(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tol_spectrum = -1.0\n")
    out = tmp_path / "o.json"
    code = run_cli(
        ["torus", "--seed", "7", "--trials", "2", "--config", str(cfgfile), "--out", str(out)]
    )
    assert code == 1
    _, payload = read_json(out)
    assert payload["summary"]["fail"] >= 2
    failed = [rec for rec in payload["results"] if not rec["pass"]]
    assert failed and all(rec["citation"] for rec in failed)


def test_stdout_default_and_stderr_timing(capsys):
    code = run_cli(["otsf", "--seed", "2", "--trials", "2", "--dim", "4"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["summary"]["pass"] == 2
    assert "s" in captured.err and captured.err.strip()
    code2 = run_cli(["otsf", "--seed", "2", "--trials", "2", "--dim", "4"])
    captured2 = capsys.readouterr()
    assert captured2.out == captured.out


def test_substreams_are_independent_of_trial_count(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["otsf", "--seed", "11", "--trials", "2", "--out", str(out1)]) == 0
    assert run_cli(["otsf", "--seed", "11", "--trials", "4", "--out", str(out2)]) == 0
    _, p1 = read_json(out1)
    _, p2 = read_json(out2)
    assert p1["results"] == p2["results"][:2]


def test_commands_start_no_threads(tmp_path, monkeypatch):
    # Parallelism may come back only behind an explicit --jobs flag.
    def refuse(self):
        raise AssertionError("the CLI started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = str(tmp_path / "o.json")
    assert run_cli(["otsf", "--seed", "1", "--trials", "3", "--out", out]) == 0
    assert run_cli(["swcheck", "--cutoff", "2", "--trials", "2", "--out", out]) == 0


def test_consecutive_calls_share_no_argument_values(tmp_path, monkeypatch):
    # the parser is built once; each call must still see only its own flags
    seen = []
    build = cli.build_config

    def spy(args):
        seen.append(dict(vars(args)))
        return build(args)

    monkeypatch.setattr(cli, "build_config", spy)
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.csv")
    assert run_cli(["otsf", "--seed", "5", "--trials", "2", "--dim", "3", "--out", first]) == 0
    assert run_cli(["wallcross", "--flux", "1,-2", "--format", "csv", "--out", second]) == 0
    assert cli._parser() is cli._parser()
    common = {"config": None, "cutoff": None}
    assert seen == [
        {**common, "command": "otsf", "seed": 5, "trials": 2, "dim": 3, "flux": None, "out": first, "format": None},
        {**common, "command": "wallcross", "seed": None, "trials": None, "dim": None, "flux": "1,-2", "out": second, "format": "csv"},
    ]
    _, payload = read_json(first)
    assert [rec["values"]["dim"] for rec in payload["results"]] == [3, 3]
    assert (tmp_path / "b.csv").read_text().count("wallcross") == 2


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["otsf", "--seed", "1", "--trials", "10", "--dim", "6"],
            "77cd1013d58ff14402729b7f07d0991c52f8891a677ea6b098f683243b9affdc",
        ),
        (["wallcross"], "32b26a6c1895c7a7c2cd17726b177b94a582b85f2189d534c22f3ac81592a053"),
    ],
)
def test_integer_payloads_are_pinned(tmp_path, args, digest):
    # These payloads carry only integers, flags and ids, so their bytes
    # must not depend on the host.  The torus and swcheck payloads carry
    # residuals and eigenvalues whose last digits depend on the BLAS
    # build, so they are not pinned.
    out = tmp_path / "p.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
