#!/usr/bin/env python3
"""Mutation check: every listed one-line source edit must make a test fail.

Each mutant names a file under ``src``, an exact source string that must
occur there exactly once, its replacement, and the test files (or pytest
node ids) to run.  For each mutant the script copies ``src``, ``tests``
and ``pyproject.toml`` into a temporary directory, applies the edit
there, and runs ``python -m pytest -x -q`` on the mutant's tests.  The
mutant is killed when that run fails.  First the tests of all the
mutants run once on an unedited copy, and they must pass there, so a
failure that does not come from an edit (a renamed test, a broken
environment) is not taken for a kill.  The working tree is never edited.

The script exits with status 1 when a mutant survives, and also when a
mutant's source string no longer occurs exactly once, so a mutant goes
stale loudly when the code it edits moves.  A mutant that no test can
kill is an equivalent edit: say why where it is removed from the list.

    python3 tools/mutants.py

Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant(
        "slope-bound-drops-curvature",
        "src/swflow/specflow.py",
        "self._slopes = np.abs(eigs).max(axis=1, initial=0.0) + 0.5 * self.curvature * lens",
        "self._slopes = np.abs(eigs).max(axis=1, initial=0.0)",
        ("tests/test_specflow.py::test_slope_bounds_cover_the_chords",
         "tests/test_specflow.py::test_a_dip_inside_one_segment_is_found_through_the_curvature"),
    ),
    Mutant(
        "partial-callable-accepted",
        "src/swflow/specflow.py",
        "if len(given) > 1 or not (curvature is None or curvature >= 0.0):",
        "if not (curvature is None or curvature >= 0.0):",
        ("tests/test_specflow.py::test_a_path_holds_a_callable_only_with_its_derivative_and_bound",),
    ),
    Mutant(
        "record-signature-flipped",
        "src/swflow/specflow.py",
        "crossing_signature=int(net),",
        "crossing_signature=-int(net),",
        ("tests/test_specflow.py",),
    ),
    Mutant(
        "record-time-shifted",
        "src/swflow/specflow.py",
        "t=float(tstar),",
        "t=float(tstar) + 1e-9,",
        ("tests/test_specflow.py::test_tower_records_equal_frozen_corpus",
         "tests/test_specflow.py::test_records_are_the_pencil_crossings"),
    ),
    Mutant(
        "direct-sum-domain-absolute",
        "src/swflow/specflow.py",
        "if max(abs(p1.a - p2.a), abs(p1.b - p2.b)) > 1e-12 * (p1.b - p1.a):",
        "if max(abs(p1.a - p2.a), abs(p1.b - p2.b)) > 1e-12:",
        ("tests/test_specflow.py::test_domain_and_join_checks_do_not_depend_on_scale",),
    ),
    Mutant(
        "join-floored-at-one",
        "src/swflow/specflow.py",
        "return _max_abs(end - start) <= 1e-12 * max(_max_abs(end), p1.top)",
        "return _max_abs(end - start) <= 1e-12 * max(1.0, _max_abs(end), p1.top)",
        ("tests/test_specflow.py::test_domain_and_join_checks_do_not_depend_on_scale",),
    ),
    Mutant(
        "frame-overlap-signs-dropped",
        "src/swflow/orient.py",
        "sign = np.prod(np.sign(np.linalg.det(overlap)))",
        "sign = 1.0",
        ("tests/test_orient.py",),
    ),
    Mutant(
        "block-symmetry-check-dropped",
        "src/swflow/specflow.py",
        "if not defect <= 1e-12 * max(1.0, top):",
        "if False:",
        ("tests/test_specflow.py::test_from_blocks_rejects_a_bad_partition_and_bad_blocks",),
    ),
    Mutant(
        "pair-at-partner-negated",
        "src/swflow/swlocal.py",
        "second[a].reshape(w) * xb + first[a].reshape(w) * xa,",
        "-second[a].reshape(w) * xb + first[a].reshape(w) * xa,",
        ("tests/test_swlocal.py::test_operators_match_dense_reference[1]",),
    ),
    Mutant(
        "allowance-zero",
        "src/swflow/specflow.py",
        "allowance = 64.0 * path.n * np.finfo(float).eps * _norm_bound(path)",
        "allowance = 0.0",
        ("tests/test_specflow.py::test_a_crossing_on_a_sample_takes_its_window_on_both_sides[True-True]",),
    ),
    Mutant(
        "half-reach-restored",
        "src/swflow/specflow.py",
        "+ allowance < reach)",
        "+ allowance < 0.5 * reach)",
        ("tests/test_specflow.py::test_the_certificate_takes_the_whole_reach",),
    ),
    Mutant(
        "scan-margin-doubled",
        "src/swflow/orient.py",
        "< 0.5 * (ml + mr))",
        "< (ml + mr))",
        ("tests/test_orient.py::test_full_space_stabilizer_matches",
         "tests/test_orient.py::test_kernels_stay_acute_inside_every_certified_interval"),
    ),
    Mutant(
        "orient-scale-floored-at-one",
        "src/swflow/orient.py",
        "scale = path.top\n",
        "scale = max(1.0, path.top)\n",
        ("tests/test_orient.py::test_the_determinant_route_does_not_depend_on_the_path_scale",),
    ),
    Mutant(
        "transport-seed-dropped",
        "src/swflow/orient.py",
        "_transport_det(path, _crossing_kernels(path, rep))",
        "_transport_det(path, None)",
        ("tests/test_orient.py::test_seeded_route_scans_once_on_every_path_with_a_crossing",),
    ),
    Mutant(
        "crossing-kernel-scatter-dropped",
        "src/swflow/orient.py",
        "frame[rows] = w",
        "frame[: w.shape[0]] = w",
        ("tests/test_orient.py::test_a_seed_that_cannot_help_grows_to_the_flow_sign",),
    ),
    Mutant(
        "reducible-count-off-by-one",
        "src/swflow/swlocal.py",
        "count=int(np.count_nonzero(form.lam <= kernel_top)),",
        "count=int(np.count_nonzero(form.lam <= kernel_top)) + 1,",
        ("tests/test_swlocal.py::test_signs_match_dense_route_at_cutoff_one",),
    ),
    Mutant(
        "form-gap-unbounded",
        "src/swflow/swlocal.py",
        "certified=(kernel_top, float(form.lam[form.pos].min(initial=np.inf))),",
        "certified=(kernel_top, np.inf),",
        ("tests/test_swlocal.py::test_a_reducible_count_is_certified_up_to_the_form_gap[1]",),
    ),
    Mutant(
        "modes-alone-under-a-one-form",
        "src/swflow/swlocal.py",
        "elif support.size:",
        "elif False:",
        ("tests/test_swlocal.py::test_reducible_spectrum_is_the_realified_spectrum[2]",),
    ),
    Mutant(
        "flat-block-rows-swapped",
        "src/swflow/swlocal.py",
        "= flat[idx]",
        "= flat[idx][..., ::-1, :]",
        ("tests/test_swlocal.py::test_operators_match_dense_reference[1]",),
    ),
    Mutant(
        "hessian-product-drops-coupling",
        "src/swflow/swlocal.py",
        "product[: 4 * m] += block_a @ v_a",
        "product[: 4 * m] += 0.0",
        ("tests/test_swlocal.py::test_hessian_by_blocks_is_the_assembled_hessian[2]",),
    ),
    Mutant(
        "kernel-split-unchecked",
        "src/swflow/cli.py",
        "split = not any(",
        "split = True or not any(",
        ("tests/test_cli.py::test_swcheck_kernel_record_fails_on_a_coupled_hessian",),
    ),
    Mutant(
        "spectral-flow-scale-floored-at-one",
        "src/swflow/specflow.py",
        "scale = path.top\n",
        "scale = max(1.0, path.top)\n",
        ("tests/test_orient.py::test_the_flow_route_does_not_depend_on_the_path_scale",),
    ),
    Mutant(
        "window-bound-underflows",
        "src/swflow/specflow.py",
        "c / beta * (g / (8.0 * beta))",
        "c * g / (8.0 * beta * beta)",
        ("tests/test_orient.py::test_the_flow_route_does_not_depend_on_the_path_scale[1e-300]",),
    ),
    Mutant(
        "pair-defect-drops-a-tile-row",
        "src/swflow/specflow.py",
        "i : i + _PAIR_TILE",
        "i : i + _PAIR_TILE - 1",
        ("tests/test_specflow.py::test_sym_defect_is_the_dense_defect_bit_for_bit[600]",),
    ),
    Mutant(
        "convolve-difference-as-sum",
        "src/swflow/swlocal.py",
        "tab.neg[q] if minus else q",
        "q",
        ("tests/test_swlocal.py::test_quadratic_covector_field_matches_grid",
         "tests/test_swlocal.py::test_pair_to_scalar_matches_grid"),
    ),
    Mutant(
        "convolve-keeps-clipped-products",
        "src/swflow/swlocal.py",
        "ok = at >= 0",
        "ok = at >= -1",
        ("tests/test_swlocal.py::test_value_level_dirac_clips_as_the_assembled_matrix",),
    ),
    Mutant(
        "gauge-action-sign-flipped",
        "src/swflow/swlocal.py",
        "(-1j * u)",
        "(1j * u)",
        ("tests/test_swlocal.py::test_gauge_action_on_the_spinor_matches_grid",),
    ),
    Mutant(
        "convolve-sums-out-of-order",
        "src/swflow/swlocal.py",
        "np.add.at(out, at[ok], stack[ok])",
        "np.add.at(out, at[ok][::-1], stack[ok][::-1])",
        ("tests/test_swlocal.py::test_products_equal_the_loops_over_modes_bit_for_bit",),
    ),
    Mutant(
        "pair-defect-skips-diagonal-tile",
        "src/swflow/specflow.py",
        "c = np.s_[i:] if half",
        "c = np.s_[i + _PAIR_TILE :] if half",
        ("tests/test_specflow.py::test_self_pair_defect_from_half_the_tiles_is_the_all_tiles_defect",),
    ),
    Mutant(
        "form-defect-dropped",
        "src/swflow/swlocal.py",
        "fo.minus_star_d_defect]))",
        "0.0]))",
        ("tests/test_swlocal.py::test_hessian_defect_reads_the_cached_form_defect",),
    ),
    Mutant(
        "dirac-pauli-term-dropped",
        "src/swflow/swlocal.py",
        "for j in range(3):\n            toeplitz +=",
        "for j in range(2):\n            toeplitz +=",
        ("tests/test_swlocal.py::test_value_level_dirac_clips_as_the_assembled_matrix",),
    ),
]


def check_sources(mutants):
    """The mutants whose source string does not occur exactly once, each
    with its count."""
    stale = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            stale.append((m, count))
    return stale


def run(tests, mutant=None):
    """(passed, seconds, pytest output) of ``tests`` on a copy of the tree,
    with the edit of ``mutant`` applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        if mutant is not None:
            target = tmp / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        return proc.returncode == 0, time.perf_counter() - start, proc.stdout + proc.stderr


def main():
    stale = check_sources(MUTANTS)
    for m, count in stale:
        print(f"STALE {m.name}: its source string occurs {count} times in {m.file}")
    if stale:
        return 1
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    passed, seconds, out = run(tests)
    print(f"{'passed' if passed else 'FAILED'} unedited control ({seconds:.1f} s)")
    if not passed:
        print(out)
        return 1
    survivors = []
    for m in MUTANTS:
        survived, seconds, out = run(m.tests, m)
        print(f"{'SURVIVED' if survived else 'killed'} {m.name} ({seconds:.1f} s)")
        if survived:
            survivors.append(m)
            print(out)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
