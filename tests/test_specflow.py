"""Tests for spectral flow of symmetric-matrix paths.

Oracle: the net count of sorted-eigenvalue branches crossing the shifted
counting line on a dense grid.  Zero endpoint eigenvalues sit below the
line, so a branch departing upward from zero counts +1 and a branch
arriving at zero from above counts -1; branches that stay on one side
contribute nothing.
"""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from swflow import cli, orient
from swflow import specflow as sf
from swflow import torus_model as tm


def branch_crossing_oracle(values, delta):
    """Net signed crossings of the level `delta` by sorted eigenvalue
    branches sampled on a dense grid (counts transitions per interval)."""
    eigs = np.array([np.linalg.eigvalsh(v) for v in values])
    below = eigs < delta
    # +1 when a branch leaves the lower half-plane, -1 when it enters
    trans = below[:-1].astype(int) - below[1:].astype(int)
    return int(trans.sum())


def affine(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return sf.HermitianPath.affine(scale * (a + a.T), b + b.T, -1.0, 1.0)


# ----------------------------------------------------- frozen examples


def test_single_upward_crossing():
    path = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), -1.0, 1.0)
    rep = sf.spectral_flow(path)
    assert rep.sf == 1
    assert len(rep.crossings) == 1
    rec = rep.crossings[0]
    assert rec.kernel_dim == 1
    assert rec.crossing_signature == 1
    assert rec.crossing_det_sign == 1
    # the shifted eigenvalue t crosses the line at t = delta
    assert abs(rec.t - rep.delta_used) < 1e-8


def test_opposite_crossings_cancel():
    path = sf.HermitianPath.affine(np.zeros((2, 2)), np.diag([1.0, -1.0]), -1.0, 1.0)
    rep = sf.spectral_flow(path)
    assert rep.sf == 0
    sigs = [r.crossing_signature for r in sorted(rep.crossings, key=lambda r: r.t)]
    assert sigs == [-1, 1]


def test_constant_families_have_zero_flow():
    # a constant nonzero family, with or without a zero eigenvalue; the
    # zero family raises (test_zero_path_raises)
    for mat in [np.diag([0.0, -2.0, 3.0]), np.diag([1.0, -2.0, 3.0])]:
        path = sf.HermitianPath.affine(mat, np.zeros((3, 3)), 0.0, 1.0)
        rep = sf.spectral_flow(path)
        assert rep.sf == 0
        assert rep.crossings == []


@pytest.mark.parametrize("endpoint_count_only", [False, True])
def test_zero_path_raises(endpoint_count_only):
    # a path whose every sample is exactly zero has no scale to shift by:
    # the flow route raises a typed error, as the determinant route does,
    # and never returns 0
    cfg = sf.SpectralFlowConfig(endpoint_count_only=endpoint_count_only)
    paths = [
        sf.HermitianPath.affine(np.zeros((3, 3)), np.zeros((3, 3))),
        sf.HermitianPath(np.linspace(-1.0, 1.0, 5), np.zeros((5, 4, 4))),
        sf.HermitianPath.from_blocks(np.linspace(0.0, 1.0, 3), [np.arange(2)[:, None]], [np.zeros((3, 2, 1, 1))]),
    ]
    for path in paths:
        with pytest.raises(sf.SpectralFlowError, match="zero"):
            sf.spectral_flow(path, cfg)
        with pytest.raises(ValueError):
            orient.orientation_transport_det(path)
    # one nonzero entry in one sample gives a scale
    vals = np.zeros((5, 4, 4))
    vals[2, 1, 1] = 1e-300
    assert sf.spectral_flow(sf.HermitianPath(np.linspace(-1.0, 1.0, 5), vals), cfg).sf == 0


def test_zero_endpoint_convention_quartet():
    # eigenvalues starting or ending exactly at zero pin the convention:
    # zero counts as below the line
    one = np.eye(1)

    def run(a0, b0):
        path = sf.HermitianPath.affine(a0 * one, b0 * one, 0.0, 1.0)
        return sf.spectral_flow(path).sf

    assert run(0.0, 1.0) == 1  # departs zero upward
    assert run(0.0, -1.0) == 0  # departs zero downward
    assert run(1.0, -1.0) == -1  # arrives at zero from above
    assert run(-1.0, 1.0) == 0  # arrives at zero from below


def test_identity_risers_count_dimension():
    for n in range(1, 5):
        path = sf.HermitianPath.affine(np.zeros((n, n)), np.eye(n), 0.0, 1.0)
        assert sf.spectral_flow(path).sf == n


def test_degenerate_double_crossing():
    path = sf.HermitianPath.affine(np.zeros((2, 2)), np.eye(2), -1.0, 1.0)
    rep = sf.spectral_flow(path)
    assert rep.sf == 2


# ----------------------------------------------------- oracle agreement


def test_engine_matches_branch_oracle_on_random_paths():
    rng = np.random.default_rng(40)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))

        def f(t, a=a, b=b, c=c):
            m = a + t * b + np.sin(2.0 * t) * c
            return m + m.T

        path = sf.HermitianPath.from_callable(f, -1.0, 1.0, num_samples=21)
        rep = sf.spectral_flow(path)
        dense = np.linspace(-1.0, 1.0, 801)
        want = branch_crossing_oracle([f(t) for t in dense], rep.delta_used)
        assert rep.sf == want
        assert rep.sf == sum(r.crossing_signature for r in rep.crossings)


def test_every_crossing_is_located_on_random_affine_paths():
    # A net count hides a skipped pair of opposite crossings, so compare
    # the gross number of branch transitions: the refinement certificate
    # may drop an interval only when no branch meets the line inside it.
    rng = np.random.default_rng(41)
    dense = np.linspace(-1.0, 1.0, 2001)
    for _ in range(40):
        path = affine(rng, int(rng.integers(2, 7)))
        rep = sf.spectral_flow(path)
        below = np.array([np.linalg.eigvalsh(path.evaluate(t)) for t in dense]) < rep.delta_used
        gross = int(np.abs(np.diff(below.astype(int), axis=0)).sum())
        assert sum(r.kernel_dim for r in rep.crossings) == gross
        assert all(r.kernel_dim == 1 for r in rep.crossings)


def watch_records(monkeypatch):
    """Collect (t, window half-width, signature) of every crossing record."""
    made = []
    make = sf._make_record

    def watched(path, tstar, *args):
        rec, h = make(path, tstar, *args)
        made.append((tstar, h, rec.crossing_signature))
        return rec, h

    monkeypatch.setattr(sf, "_make_record", watched)
    return made


def count_matrices(monkeypatch):
    """Count the matrices np.linalg.eigvalsh diagonalizes, stacks by size."""
    count = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return count


def test_located_crossings_take_few_matrices(monkeypatch):
    # the paths of test_every_crossing_is_located_on_random_affine_paths:
    # secant localization and crossing windows diagonalize 72 matrices
    # per located crossing there (bisection to every crossing: 239)
    rng = np.random.default_rng(41)
    paths = [affine(rng, int(rng.integers(2, 7))) for _ in range(40)]
    count = count_matrices(monkeypatch)
    made = watch_records(monkeypatch)
    crossings = sum(len(sf.spectral_flow(path).crossings) for path in paths)
    assert crossings == 44
    assert count[0] <= 100 * crossings
    # every crossing of these paths gets its window
    assert all(h > 0.0 for _, h, _ in made)


def test_crossing_windows_hold_only_their_crossing(monkeypatch):
    # inside [t* - h, t* + h] the count below the line changes only
    # within bisection_tol / 2 of t*, by the crossing's signature
    rng = np.random.default_rng(41)
    tol = sf.SpectralFlowConfig().bisection_tol
    made = watch_records(monkeypatch)
    for _ in range(20):
        path = affine(rng, int(rng.integers(2, 7)))
        made.clear()
        delta = sf.spectral_flow(path).delta_used
        for t, h, sig in made:
            for side in (-1.0, 1.0):
                grid = t + side * np.linspace(tol, h, 41)
                grid = grid[(grid >= path.a) & (grid <= path.b)]
                counts = {int(np.sum(np.linalg.eigvalsh(path.evaluate(s)) < delta)) for s in grid}
                assert len(counts) <= 1
            lo, hi = max(path.a, t - h), min(path.b, t + h)
            below = [int(np.sum(np.linalg.eigvalsh(path.evaluate(s)) < delta)) for s in (lo, hi)]
            assert below[0] - below[1] == sig


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-6])
def test_triple_crossing_of_any_scale(monkeypatch, c):
    # three branches c t cross together; the crossing form c I_3 has
    # det c^3, which a test of det against c would call singular at c = 1e-6
    path = sf.HermitianPath.affine(np.diag([0.0, 0.0, 0.0, c]), c * np.diag([1.0, 1.0, 1.0, 0.0]), -1.0, 1.0)
    made = watch_records(monkeypatch)
    rep = sf.spectral_flow(path)
    assert rep.sf == 3
    assert len(rep.crossings) == 1
    rec = rep.crossings[0]
    assert (rec.kernel_dim, rec.crossing_signature, rec.crossing_det_sign) == (3, 3, 1)
    assert abs(rec.t - rep.delta_used / c) <= sf.SpectralFlowConfig().bisection_tol
    # the window: gap g = c - delta, slope norm and crossing form c, so
    # h = min(g / 4c, c g / 8c^2) = g / 8c
    [(_, h, _)] = made
    assert h == pytest.approx((c - rep.delta_used) / (8.0 * c), rel=1e-9)


def test_window_half_width():
    # m = 1e-13, g = 2, c = 0.5, beta = 2: h = min(g / 4 beta, c g / 8 beta^2)
    eigs = np.array([-2.0, 1e-13, 3.0])
    ker = np.abs(eigs) < 1e-8
    assert sf._window(eigs, ker, np.array([0.5]), 2.0, 1e-10) == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert sf._window(eigs, ker, np.array([8.0]), 2.0, 1e-10) == pytest.approx(0.25, rel=1e-12)
    # the cluster's zeros may lie 2 m / c from t*: no window beyond tol / 2
    assert sf._window(eigs, ker, np.array([1e-3]), 2.0, 1e-10) == 0.0
    assert sf._window(eigs, ker, np.array([0.5]), 0.0, 1e-10) == np.inf


def test_sym_norm2_matches_svd_norm():
    rng = np.random.default_rng(42)
    for n in (1, 2, 5, 10, 40):
        d = rng.standard_normal((n, n))
        d = d + d.T
        assert sf._sym_norm2(d) == pytest.approx(np.linalg.norm(d, 2), rel=1e-12)


def test_exact_chord_matches_the_diagonalized_chord():
    rng = np.random.default_rng(43)
    n = 5
    a, b, c, d = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(4))
    a, b, c, d = a + a.conj().T, b + b.conj().T, c + c.conj().T, d + d.conj().T
    grid = np.linspace(-1.0, 1.0, 9)
    paths = [
        sf.HermitianPath.affine(a.real, b.real, -1.0, 1.0),
        sf.HermitianPath.affine(a, b, -1.0, 1.0),
        sf.HermitianPath(grid, np.array([a.real + np.sin(2.0 * t) * c.real for t in grid])),
        sf.HermitianPath(grid, np.array([a + t * b + np.cos(3.0 * t) * d for t in grid])),
    ]
    assert paths[1].realified and paths[3].realified
    for path in paths:
        ts = path.t_samples
        for i in rng.integers(0, ts.size - 1, 10):
            l, r = np.sort(rng.uniform(ts[i], ts[i + 1], 2))
            want = sf._sym_norm2(path.evaluate(l) - path.evaluate(r))
            assert path.chord_norms(l, r) == pytest.approx(want, rel=1e-12)
    curved = sf.HermitianPath.from_callable(lambda t: a.real + np.sin(t) * b.real, -1.0, 1.0)
    assert curved.chord_norms(-1.0, 1.0) is None


def test_affine_refinement_takes_no_two_norm(monkeypatch):
    rng = np.random.default_rng(44)
    paths = [affine(rng, 6) for _ in range(5)]

    def refuse(diff):
        raise AssertionError("a 2-norm was taken on an affine path")

    monkeypatch.setattr(sf, "_sym_norm2", refuse)
    for path in paths:
        rep = sf.spectral_flow(path)
        assert rep.sf == sum(r.crossing_signature for r in rep.crossings)
        assert orient.transport_report(path).sf == rep.sf


def test_joins_of_affine_paths_keep_exact_chords(monkeypatch):
    # direct sums and concatenations of affine and sampled paths are
    # affine between samples: they inherit curvature 0, so they are
    # refined with exact slope norms, not as interpolants, and the flow
    # is additive
    rng = np.random.default_rng(45)
    parts = []
    for n in (2, 3, 4):
        grid = np.linspace(-1.0, 1.0, 4)
        vals = rng.standard_normal((grid.size, n, n))
        vals = vals + vals.transpose(0, 2, 1)
        parts.append((affine(rng, n), sf.HermitianPath(grid, vals)))

    flow = sf._flow_with_delta

    def exact(path, *args):
        assert path.curvature == 0.0 and path.slope_norms() is not None
        return flow(path, *args)

    for p1, p2 in parts:
        flows = [sf.spectral_flow(p).sf for p in (p1, p2)]
        cont = sf.HermitianPath.affine(p1.values[-1], p1.values[-1] - p1.values[0], 0.0, 2.0)
        cont_sf = sf.spectral_flow(cont).sf
        with monkeypatch.context() as m:
            m.setattr(sf, "_flow_with_delta", exact)
            assert sf.sf_direct_sum(p1, p2) == sum(flows)
            assert sf.sf_direct_sum(p1, p1) == 2 * flows[0]
            assert sf.sf_concat(p1, cont) == flows[0] + cont_sf
            assert sf.sf_concat(p2, sf.HermitianPath(p2.t_samples + 2.0, p2.values[::-1])) == 0


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def conjugated(path, rng):
    """Q^T A(t) Q for a random orthogonal Q mixing every index, as a
    callable without a curvature bound sampled where ``path`` is."""
    q = random_orthogonal(rng, path.n)

    def value(t):
        m = q.T @ path.evaluate(t) @ q
        return 0.5 * (m + m.T)

    return sf.HermitianPath(path.t_samples, np.array([value(t) for t in path.t_samples]), func=value)


def test_refinement_takes_one_stacked_solve_per_level_and_chunk(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)

    # affine paths: exact chords, so one stacked solve of the two
    # endpoints, one of the slope and one of the new midpoints per level,
    # each a stack of the one 6 x 6 block
    rng = np.random.default_rng(48)
    for _ in range(10):
        path = affine(rng, 6)
        shapes.clear()
        rep = sf.spectral_flow(path)
        solves = [s for s in shapes if s[-1] == path.n]
        assert solves[:2] == [(2, 1, 6, 6), (1, 1, 6, 6)]
        assert all(len(s) == 4 and s[1] == 1 for s in solves)
        assert len(solves) <= 2 + rep.refinement_depth

    # the n = 255 magnetic tower conjugated by a random orthogonal Q is
    # one dense block and declares no curvature bound, so it is refined
    # as its interpolant: one stacked solve per chunk of its samples, of
    # its segment slopes, and of each level's new probes.  A depth-first
    # refinement takes 180 separate solves of this path.  A delta_cap of
    # 0.4 puts delta = 0.2 and the triple crossing between samples: Q
    # splits the triple eigenvalue by rounding, and on a sample that halves
    # delta.
    path = conjugated(tm.magnetic_family_path(3, 8), np.random.default_rng(49))
    n = path.n
    per = sf._per_chunk(n)
    chunks = lambda count: -(-count // per)
    probes = []  # (matrices, solves) of each chunked probe
    chunked = sf._chunked_spectra

    def probe(path_, count, groups):
        calls = len(shapes)
        eigs = chunked(path_, count, groups)
        probes.append((count, len(shapes) - calls))
        return eigs

    monkeypatch.setattr(sf, "_chunked_spectra", probe)
    shapes.clear()
    rep = sf.spectral_flow(path, sf.SpectralFlowConfig(delta_cap=0.4))
    assert (rep.sf, rep.delta_used) == (-3, 0.2)
    assert rep.method == "interpolant"
    # the crossing records take small eigvalsh of their crossing forms;
    # every solve of the path's size is a stack of its one block
    big = [s for s in shapes if s[-1] == n]
    assert big[0] == (2, 1, n, n)
    assert all(len(s) == 4 and s[0] <= per and s[1] == 1 for s in big[1:])
    # the 15 inner samples, the 16 segment slopes, then one probe per level
    assert [count for count, _ in probes[:2]] == [15, 16]
    assert len(probes) == rep.refinement_depth + 2
    assert all(solves == chunks(count) for count, solves in probes)
    # no other solve of the path's size
    assert 1 + sum(s for _, s in probes) == len(big)
    assert 2 + sum(s[0] for s in big[1:]) <= 180


def test_tower_interpolant_keeps_the_true_crossings():
    # the tower's zero branches -sign(d)(k + r) are linear, so its sample
    # interpolant crosses delta where the tower does: once, at r = delta
    # (d < 0) or r = 1 - delta (d > 0), with a |d|-dimensional kernel
    cfg = sf.SpectralFlowConfig()
    for flux in (-2, 3):
        rep = sf.spectral_flow(tm.magnetic_family_path(flux, 8), cfg)
        assert rep.method == "interpolant"
        assert rep.sf == -flux
        [rec] = rep.crossings
        want = rep.delta_used if flux < 0 else 1.0 - rep.delta_used
        assert abs(rec.t - want) <= cfg.bisection_tol
        assert (rec.kernel_dim, rec.crossing_signature) == (abs(flux), -flux)


def watch_sample_windows(monkeypatch):
    """Collect the result of every ``_sample_window`` call."""
    made = []
    window = sf._sample_window

    def watched(*args):
        made.append(window(*args))
        return made[-1]

    monkeypatch.setattr(sf, "_sample_window", watched)
    return made


def sample_crossing_path(rising, q):
    """Interpolated between five samples on [0, 1], conjugated by q: a
    branch t (1 - t) rises (falls) through delta = 1/4 at the sample
    1/4 (3/4), beside a branch 2 + t and a constant -3."""
    ts = np.linspace(0.0, 1.0, 5)
    branch = ts if rising else 1.0 - ts
    diag = np.stack([np.diag([x, 2.0 + t, -3.0]) for x, t in zip(branch, ts)])
    return sf.HermitianPath(ts, q @ diag @ q.T)


@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("rotated", [False, True])
def test_a_crossing_on_a_sample_takes_its_window_on_both_sides(monkeypatch, rising, rotated):
    # the one-sided window ends on the sample, where the branch sits on
    # the line, so the neighbour beyond it bisects down to bisection_tol;
    # the window at the sample ends that ladder and keeps the record
    q = np.linalg.qr(np.random.default_rng(50).standard_normal((3, 3)))[0] if rotated else np.eye(3)
    path = sample_crossing_path(rising, q)
    cfg = sf.SpectralFlowConfig()
    made = watch_sample_windows(monkeypatch)
    rep = sf.spectral_flow(path, cfg)
    assert (rep.sf, rep.delta_used) == ((1 if rising else -1), 0.25)
    [rec] = rep.crossings
    assert abs(rec.t - (0.25 if rising else 0.75)) <= cfg.bisection_tol
    assert rep.refinement_depth <= 3
    [(lo, hi)] = made
    assert lo < rec.t < hi
    monkeypatch.setattr(sf, "_sample_window", lambda *args: None)
    one_sided = sf.spectral_flow(path, cfg)
    assert one_sided.crossings == rep.crossings
    assert one_sided.refinement_depth > 20


def test_magnetic_towers_take_few_levels():
    # every zero branch of a nonzero-flux tower meets delta = 1/4 on a
    # sample (r = 1/4 or 3/4 of the 17-point grid)
    for flux in (-3, -2, -1, 1, 2, 3):
        for depth in (2, 4, 8):
            rep = sf.spectral_flow(tm.magnetic_family_path(flux, depth))
            assert rep.sf == -flux
            assert rep.refinement_depth <= 3


def test_a_corner_at_a_sample_takes_one_sided_windows(monkeypatch):
    # a branch rises to delta = 0.2 at the sample 1/2 and falls back: its
    # one-sided crossing forms +1.2 and -1.2 differ in inertia, so the
    # count change across a window at the sample would be
    # #pos(C_L) - #neg(C_R) = 0, not a record's signature.  Each record
    # takes its one-sided window, and the flow is 0.
    ts = np.array([0.0, 0.5, 1.0])
    path = sf.HermitianPath(ts, np.stack([np.diag([x, 2.0, -3.0]) for x in (-0.4, 0.2, -0.4)]))
    cfg = sf.SpectralFlowConfig()
    windows = watch_sample_windows(monkeypatch)
    made = watch_records(monkeypatch)
    rep = sf.spectral_flow(path, cfg)
    assert (rep.sf, rep.delta_used) == (0, 0.2)
    assert [r.crossing_signature for r in rep.crossings] == [1, -1]
    assert all(abs(r.t - 0.5) <= cfg.bisection_tol and r.kernel_dim == 1 for r in rep.crossings)
    assert windows == [None, None]
    assert all(h > 0.0 for _, h, _ in made)


def test_stacked_evaluation_is_the_pointwise_evaluation():
    # evaluate is, bit for bit, the scalar evaluation at each time: const
    # + t linear on affine paths (a complex Hermitian one in its realified
    # form), the scalar lerp on interpolated paths and the callable on a
    # curved one; and the whole matrices of the stacked block values
    # (_dense) are the same, by scatter on a path of many blocks and as a
    # view on a path of one, also when written into a strided stack like
    # orient's [T K].  A callable without a curvature bound evaluates as
    # itself, and its block values are its sample interpolant's
    rng = np.random.default_rng(51)
    n = 5
    a, b, c = (m + m.T for m in rng.standard_normal((3, n, n)))
    za, zb = (m + m.conj().T for m in rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    grid = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, 7)), [1.0]])

    def curve(t):
        return a + t * b + np.sin(1.7 * t) * c

    def lerp(path, t):
        # the scalar interpolation, one time at a time
        ts, t = path.t_samples, min(max(t, path.a), path.b)
        i = path.segment(t)
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * path.values[i] + w * path.values[i + 1]

    ra, rb = sf.realify_matrix(za), sf.realify_matrix(zb)
    cases = [
        (sf.HermitianPath.affine(a, b, -1.0, 1.0), lambda p, t: a + t * b),
        (sf.HermitianPath.affine(za, zb, -1.0, 1.0), lambda p, t: ra + t * rb),
        (sf.HermitianPath(grid, np.array([a + np.sin(t) * b for t in grid])), lerp),
        (sf.HermitianPath(grid, np.array([za + t * t * zb for t in grid])), lerp),
        # n = 120, 24 blocks of 5: scattered into zeros
        (sf.HermitianPath(grid, np.array([np.kron(np.eye(24), a + t * b) for t in grid])), lerp),
        (
            sf.HermitianPath.from_callable(
                curve,
                -1.0,
                1.0,
                num_samples=7,
                derivative=lambda t: b + 1.7 * np.cos(1.7 * t) * c,
                curvature=1.7**2 * sf._sym_norm2(c),
            ),
            lambda p, t: curve(t),
        ),
    ]
    assert cases[1][0].realified and cases[1][0]._affine is not None
    assert [idx.shape for idx in cases[4][0].blocks] == [(24, 5)]
    times = np.concatenate([grid, rng.uniform(-1.0, 1.0, 40), [-1.25, 1.5]])
    for path, at in cases:
        want = np.array([at(path, t) for t in times.tolist()])
        assert np.array_equal(want, [path.evaluate(t) for t in times.tolist()])
        groups = path.block_values(times)
        whole = sf._dense(path, groups)
        assert np.array_equal(whole, want)
        assert np.shares_memory(whole, groups[0]) == (len(path.blocks[0][0]) == path.n)
        out = np.empty((times.size, path.n, path.n + 2))
        out[:, :, : path.n] = sf._dense(path, path.block_values(times))
        assert np.array_equal(out[:, :, : path.n], want)
    bare = sf.HermitianPath.from_callable(curve, -1.0, 1.0, num_samples=7)
    assert np.array_equal([bare.evaluate(t) for t in times.tolist()], [curve(t) for t in times.tolist()])
    assert np.array_equal(sf._dense(bare, bare.block_values(times)), [lerp(bare, t) for t in times.tolist()])


def test_affine_paths_take_one_route_whatever_their_dtype():
    # diag(-3, -1, 2, 5) + t diag(4, 3, -1, 1) on [0, 2] given as int64,
    # float32, float64 + int64 and (with a Hermitian coupling) complex64:
    # each path stores (const, linear), takes its partition from their
    # support, and reports as its float64 (complex128) twin, bit for bit
    const, lin = np.diag([-3, -1, 2, 5]), np.diag([4, 3, -1, 1])
    herm = np.zeros((4, 4), dtype=complex)
    herm[0, 1], herm[1, 0] = 0.5j, -0.5j
    real_blocks = [[[0], [1], [2], [3]]]
    cases = [
        (const, lin, real_blocks),
        (const.astype(np.float32), lin.astype(np.float32), real_blocks),
        (const.astype(float), lin, real_blocks),
        ((const + herm).astype(np.complex64), lin.astype(np.complex64), [[[2], [3], [6], [7]], [[0, 5], [1, 4]]]),
    ]
    cfg = sf.SpectralFlowConfig()
    for c, l, blocks in cases:
        dtype = complex if np.iscomplexobj(c) else float
        path = sf.HermitianPath.affine(c, l, 0.0, 2.0)
        twin = sf.HermitianPath.affine(c.astype(dtype), l.astype(dtype), 0.0, 2.0)
        assert path._affine is not None and path._func is None
        assert [idx.tolist() for idx in path.blocks] == [idx.tolist() for idx in twin.blocks] == blocks
        rep, want = sf.spectral_flow(path, cfg), sf.spectral_flow(twin, cfg)
        assert (rep.method, frozen_entry(rep)) == (want.method, frozen_entry(want))
    # the real twin crosses delta = 1/4 at 5/12, 13/16 and 7/4
    rep = sf.spectral_flow(sf.HermitianPath.affine(const.astype(float), lin.astype(float), 0.0, 2.0), cfg)
    assert rep.delta_used == 0.25
    assert np.allclose([r.t for r in rep.crossings], [5 / 12, 13 / 16, 7 / 4], rtol=0.0, atol=cfg.bisection_tol)


def test_slope_bounds_cover_the_chords():
    # beta_seg = ||A'(m)||_2 + gamma len / 2 bounds ||A(l) - A(r)||_2 /
    # (r - l) on every interval inside a segment of a curved path
    rng = np.random.default_rng(45)
    a, b = (m + m.T for m in rng.standard_normal((2, 6, 6)))
    path = sf.HermitianPath.from_callable(
        lambda t: a + np.sin(3.0 * t) * b,
        0.0,
        1.0,
        derivative=lambda t: 3.0 * np.cos(3.0 * t) * b,
        curvature=9.0 * sf._sym_norm2(b),
    )
    ts = path.t_samples
    seg = rng.integers(0, ts.size - 1, 60)
    left, right = np.sort(rng.uniform(ts[seg], ts[seg + 1], (2, seg.size)), axis=0)
    chords = np.array([sf._sym_norm2(path.evaluate(l) - path.evaluate(r)) for l, r in zip(left, right)])
    assert np.all(chords <= path.chord_norms(left, right) * (1.0 + 1e-12))
    bare = sf.HermitianPath.from_callable(lambda t: a + np.sin(3.0 * t) * b, 0.0, 1.0)
    assert bare.curvature is None and bare.chord_norms(left, right) is None
    with pytest.raises(ValueError):
        sf.HermitianPath.from_callable(lambda t: a + np.sin(3.0 * t) * b, 0.0, 1.0, curvature=1.0)


def test_a_dip_inside_one_segment_is_found_through_the_curvature(monkeypatch):
    # an eigenvalue dips through delta = 1/4 and returns inside the
    # sample segment [0, 1/2], where A'(1/4) = 0: the segment's slope
    # bound is gamma len / 2 alone, and without it the segment would be
    # certified with both crossings inside.  A curved path takes no
    # crossing window.
    q, _ = np.linalg.qr(np.random.default_rng(49).standard_normal((3, 3)))
    gamma = 16.0

    def at(t, d=0):
        lam = [-0.1 + 0.5 * gamma * (t - 0.25) ** 2, gamma * (t - 0.25)][d]
        return q @ np.diag([lam, 1.0 - d, 2.0 - 2.0 * d]) @ q.T

    path = sf.HermitianPath.from_callable(
        at, -1.0, 1.0, num_samples=5, derivative=lambda t: at(t, 1), curvature=gamma
    )
    cfg = sf.SpectralFlowConfig()
    made = watch_records(monkeypatch)
    rep = sf.spectral_flow(path, cfg)
    assert (rep.method, rep.sf, rep.delta_used) == ("crossing", 0, 0.25)
    assert all(h == 0.0 for _, h, _ in made)
    half = np.sqrt(2.0 * (0.25 + 0.1) / gamma)
    assert [r.crossing_signature for r in rep.crossings] == [-1, 1]
    for rec, want in zip(rep.crossings, (0.25 - half, 0.25 + half)):
        assert abs(rec.t - want) <= cfg.bisection_tol
        assert rec.kernel_dim == 1


def test_callable_without_curvature_is_refined_as_its_interpolant():
    rng = np.random.default_rng(50)
    cfg = sf.SpectralFlowConfig()
    count = sf.SpectralFlowConfig(endpoint_count_only=True)
    for _ in range(10):
        a, b, c = (m + m.T for m in rng.standard_normal((3, 5, 5)))
        path = sf.HermitianPath.from_callable(lambda t: a + t * b + np.sin(2.0 * t) * c, -1.0, 1.0, 9)
        rep = sf.spectral_flow(path, cfg)
        assert rep.method == "interpolant"
        assert rep.sf == sf.spectral_flow(path, count).sf
        interpolant = sf.HermitianPath(path.t_samples, path.values)
        floor = cfg.kernel_threshold_rel * max(1.0, np.abs(path.values).max())
        for rec in rep.crossings:
            eigs = np.linalg.eigvalsh(interpolant.evaluate(rec.t))
            assert np.abs(eigs - rep.delta_used).min() < floor


def pencil_crossings(path, delta):
    """Sorted [t, multiplicity] of the crossings of delta on a path affine
    between its samples.  On the segment [a, a'] with slope B, A(t) - delta
    = (A(a) - delta)(I + (t - a) M) with M = (A(a) - delta)^-1 B, so the
    crossings there are t = a - 1/mu for the real eigenvalues mu of M."""
    ts = path.t_samples
    times = []
    for i in range(ts.size - 1):
        shifted = path.values[i] - delta * np.eye(path.n)
        slope = (path.values[i + 1] - path.values[i]) / (ts[i + 1] - ts[i])
        mu = np.linalg.eigvals(np.linalg.solve(shifted, slope))
        mu = mu[(np.abs(mu.imag) <= 1e-9 * np.abs(mu)) & (mu != 0.0)].real
        t = ts[i] - 1.0 / mu
        times += t[(t > ts[i]) & (t < ts[i + 1])].tolist()
    clusters = []
    for t in sorted(times):
        if clusters and t - clusters[-1][0] < 1e-9:
            clusters[-1][1] += 1
        else:
            clusters.append([t, 1])
    return clusters


def test_records_are_the_pencil_crossings():
    # every record's t lies within bisection_tol (plus a rounding
    # allowance) of a crossing of the pencil, with the crossing's
    # multiplicity as its kernel dimension, and no crossing is missed
    rng = np.random.default_rng(41)
    cfg = sf.SpectralFlowConfig()
    paths = [affine(rng, int(rng.integers(2, 7))) for _ in range(40)]
    for _ in range(20):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 10))
        vals = rng.standard_normal((k, n, n))
        grid = np.sort(rng.uniform(-1.0, 1.0, k))
        paths.append(sf.HermitianPath(grid, vals + vals.transpose(0, 2, 1)))
    paths.append(sf.HermitianPath.affine(np.diag([0.0, 0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 1.0, 0.0]), -1.0, 1.0))
    for path in paths:
        rep = sf.spectral_flow(path, cfg)
        want = pencil_crossings(path, rep.delta_used)
        assert len(rep.crossings) == len(want)
        for rec, (t, k) in zip(rep.crossings, want):
            assert abs(rec.t - t) <= cfg.bisection_tol + 1e-12
            assert rec.kernel_dim == k


def test_magnetic_tower_flow_holds_few_matrices():
    # the n = 255 tower is stored as its 17 diagonals (1 x 1 blocks), so
    # building it and taking its flow together allocate less than one
    # dense n x n sample (520,200 B)
    tm.magnetic_family_path(3, 8)
    tracemalloc.start()
    try:
        path = tm.magnetic_family_path(3, 8)
        sf.spectral_flow(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.n == 255
    assert peak < 8 * path.n * path.n


def test_flow_independent_of_delta_cap_and_grid():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        base = sf.HermitianPath.affine(a + a.T, b + b.T, -1.0, 1.0)
        rep = sf.spectral_flow(base)
        for cap in [0.3, 0.05, 0.007]:
            cfg = sf.SpectralFlowConfig(delta_cap=cap)
            assert sf.spectral_flow(base, cfg).sf == rep.sf
        dense = sf.HermitianPath.from_callable(
            lambda t: base.evaluate(t), -1.0, 1.0, num_samples=67
        )
        assert sf.spectral_flow(dense).sf == rep.sf


def test_endpoint_count_mode_matches_engine():
    rng = np.random.default_rng(42)
    cfg = sf.SpectralFlowConfig(endpoint_count_only=True)
    for _ in range(20):
        path = affine(rng, int(rng.integers(2, 8)))
        fast = sf.spectral_flow(path, cfg)
        full = sf.spectral_flow(path)
        assert fast.sf == full.sf
        assert fast.crossings == []
        assert fast.method == "endpoint-count"
        assert full.method == "crossing"


# ------------------------------------------------- block-diagonal paths


def test_tower_records_equal_frozen_corpus():
    # tests/data/tower_records.json holds, for the 21 towers
    # magnetic_family_path(d, depth), d in -3..3 and depth in {2, 4, 8},
    # the records of the dense route that took them before the block
    # route existed: t and delta_used as float.hex, kernel dimension,
    # signature and determinant sign, sf and refinement depth
    with open(Path(__file__).with_name("data") / "tower_records.json") as fh:
        frozen = json.load(fh)["towers"]
    assert len(frozen) == 21 and sum(len(tower["crossings"]) for tower in frozen) == 18
    for tower in frozen:
        rep = sf.spectral_flow(tm.magnetic_family_path(tower["flux"], tower["depth"]))
        got = {
            "flux": tower["flux"],
            "depth": tower["depth"],
            "sf": rep.sf,
            "delta_used": float(rep.delta_used).hex(),
            "refinement_depth": rep.refinement_depth,
            "crossings": [
                [float(r.t).hex(), r.kernel_dim, r.crossing_signature, r.crossing_det_sign] for r in rep.crossings
            ],
        }
        assert got == tower


def frozen_entry(rep):
    """A report as tests/data holds it: floats as float.hex."""
    return {
        "sf": rep.sf,
        "delta_used": float(rep.delta_used).hex(),
        "refinement_depth": rep.refinement_depth,
        "crossings": [
            [float(r.t).hex(), r.kernel_dim, r.crossing_signature, r.crossing_det_sign] for r in rep.crossings
        ],
    }


def test_corpus_records_equal_frozen_corpus():
    # tests/data/corpus_records.json holds, for the first 20 paths of each
    # of seeds 303 and 505 from cli._random_symmetric_path (n = 4 + i % 7),
    # the report of each path, and for each curved one also the report of
    # its sample interpolant, taken when a one-block path still had a
    # dense route of its own: every record must stay bit for bit
    with open(Path(__file__).with_name("data") / "corpus_records.json") as fh:
        frozen = json.load(fh)["paths"]
    assert len(frozen) == 58 and sum(len(entry["crossings"]) for entry in frozen) == 91
    got = []
    for seed in (303, 505):
        rng = np.random.default_rng(seed)
        for i in range(20):
            path = cli._random_symmetric_path(rng, 4 + i % 7)
            kind = "affine" if path._affine is not None else "curved"
            got.append({"seed": seed, "index": i, "kind": kind, **frozen_entry(sf.spectral_flow(path))})
            if kind == "curved":
                interpolant = sf.HermitianPath(path.t_samples, path.values)
                got.append({"seed": seed, "index": i, "kind": "interpolant", **frozen_entry(sf.spectral_flow(interpolant))})
    assert got == frozen


def block_path(rng, kind):
    """(path, planted blocks): a path on [-1, 1] that is block diagonal on
    a random permutation of its index set, with 3 to 6 blocks of sizes 1
    to 4, affine or interpolated between 7 random samples.  The last
    block repeats the first conjugated by a random orthogonal matrix, so
    the two blocks cross the line together."""
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 6))).tolist()
    sizes.append(sizes[0])
    perm = rng.permutation(sum(sizes))
    planted = np.split(perm, np.cumsum(sizes)[:-1])
    times = 2 if kind == "affine" else 7
    mats = np.zeros((times, perm.size, perm.size))
    for idx in planted[:-1]:
        block = rng.standard_normal((times, idx.size, idx.size))
        mats[:, idx[:, None], idx] = block + block.transpose(0, 2, 1)
    q = random_orthogonal(rng, sizes[0])
    first, last = planted[0], planted[-1]
    mats[:, last[:, None], last] = q.T @ mats[:, first[:, None], first] @ q
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    if kind == "affine":
        return sf.HermitianPath.affine(mats[0], mats[1], -1.0, 1.0), planted
    grid = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, times - 2)), [1.0]])
    return sf.HermitianPath(grid, mats), planted


@pytest.mark.parametrize("kind", ["affine", "interpolated"])
def test_block_route_agrees_with_the_dense_route(kind):
    # the partition is the planted one, and the block route gives the
    # dense route's sf, kernel dimensions and signatures, with t within
    # bisection_tol; the dense twin Q^T A Q mixes all blocks, and the
    # repeated block makes simultaneous crossings
    rng = np.random.default_rng(60)
    cfg = sf.SpectralFlowConfig()
    shared = 0
    for _ in range(25):
        path, planted = block_path(rng, kind)
        found = sorted(tuple(block) for idx in path.blocks for block in idx.tolist())
        assert found == sorted(tuple(np.sort(idx).tolist()) for idx in planted)
        dense = conjugated(path, rng)
        assert len(dense.blocks) == 1 and dense.blocks[0].shape == (1, path.n)
        got, want = sf.spectral_flow(path, cfg), sf.spectral_flow(dense, cfg)
        assert got.sf == want.sf
        assert len(got.crossings) == len(want.crossings)
        for rec, ref in zip(got.crossings, want.crossings):
            assert abs(rec.t - ref.t) <= cfg.bisection_tol
            assert (rec.kernel_dim, rec.crossing_signature) == (ref.kernel_dim, ref.crossing_signature)
        shared += sum(rec.kernel_dim > 1 for rec in got.crossings)
    assert shared > 0


def test_the_identity_partition_gathers_a_view():
    # a one-block partition gathers its one block as a view of the stack,
    # and a path of one block keeps no copy of its samples: its store and
    # its values are views of the stack it was given
    rng = np.random.default_rng(62)
    stack = rng.standard_normal((9, 6, 6))
    stack = stack + stack.transpose(0, 2, 1)
    idx = sf._partition(None, 6)[0]
    for part in (stack, stack[3], stack[1:-1]):
        block = sf._gather(part, idx)
        assert block.shape == part.shape[:-2] + (1, 6, 6)
        assert np.shares_memory(block, part) and np.array_equal(block[..., 0, :, :], part)
    path = sf.HermitianPath(np.linspace(0.0, 1.0, 9), stack)
    assert [b.shape for b in path.blocks] == [(1, 6)]
    assert np.shares_memory(path.values, stack) and np.array_equal(path.values, stack)
    assert all(np.shares_memory(b, path.values) for b in path.sample_blocks(slice(1, -1)))
    assert all(np.shares_memory(b, path.values) for b in path._stored_blocks())


def test_partition_of_each_kind_of_path():
    # affine: const and linear; interpolated and a callable without a
    # curvature bound: the samples; a callable with one: one block
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 2] = a[2, 0] = 0.5
    b = np.diag([1.0, -1.0, 0.0])
    blocks = lambda path: [idx.tolist() for idx in path.blocks]
    assert blocks(sf.HermitianPath.affine(a, b)) == [[[1]], [[0, 2]]]
    assert blocks(sf.HermitianPath.affine(np.zeros((3, 3)), b)) == [[[0], [1], [2]]]
    assert blocks(sf.HermitianPath(np.array([0.0, 1.0]), np.array([a, b]))) == [[[1]], [[0, 2]]]
    bare = sf.HermitianPath.from_callable(lambda t: a + t * b, 0.0, 1.0)
    assert blocks(bare) == [[[1]], [[0, 2]]]
    curved = sf.HermitianPath.from_callable(lambda t: a + t * b, 0.0, 1.0, derivative=lambda t: b, curvature=0.0)
    assert blocks(curved) == [[[0, 1, 2]]]
    # a chain through off-diagonal entries in a random order is one
    # block, beside the indices it does not visit
    order = np.random.default_rng(61).permutation(40)
    chain = np.zeros((40, 40))
    chain[order[:-5], order[1:-4]] = chain[order[1:-4], order[:-5]] = 1.0
    assert blocks(sf.HermitianPath.affine(chain, np.zeros((40, 40)))) == [
        [[i] for i in sorted(order[-4:].tolist())],
        [sorted(order[:-4].tolist())],
    ]


def test_from_blocks_is_the_dense_path_by_its_blocks():
    # the gathered blocks of a random block-diagonal interpolated path
    # give that path again: its dense samples exactly, and its report bit
    # for bit
    rng = np.random.default_rng(63)
    cfg = sf.SpectralFlowConfig()
    for _ in range(12):
        path, _ = block_path(rng, "interpolated")
        dense = path.values
        stacks = [sf._gather(dense, idx) for idx in path.blocks]
        again = sf.HermitianPath.from_blocks(path.t_samples, path.blocks, stacks)
        assert np.array_equal(again.values, dense)
        assert again.top == path.top and again.n == path.n
        got, want = sf.spectral_flow(again, cfg), sf.spectral_flow(path, cfg)
        assert (got.method, frozen_entry(got)) == (want.method, frozen_entry(want))


def test_from_blocks_rejects_a_bad_partition_and_bad_blocks():
    grid = np.linspace(0.0, 1.0, 3)
    blocks = [np.array([[1]]), np.array([[0, 2]])]

    def stacks(scale=1.0):
        pair = scale * np.array([[2.0, 1.0], [1.0, -1.0]])
        return [scale * np.ones((3, 1, 1, 1)), np.broadcast_to(pair, (3, 1, 2, 2)).copy()]

    path = sf.HermitianPath.from_blocks(grid, blocks, stacks())
    assert np.array_equal(path.values[0], [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
    not_partitions = [
        [np.array([[1]]), np.array([[2, 3]])],  # 0 missing
        [np.array([[0]]), np.array([[0, 2]])],  # 0 twice
        [np.array([[1]]), np.array([[2, 0]])],  # a block's indices unsorted
        [np.array([[0, 2]]), np.array([[1]])],  # block sizes unsorted
    ]
    for bad in not_partitions:
        with pytest.raises(ValueError, match="partition"):
            sf.HermitianPath.from_blocks(grid, bad, stacks())
    for bad in (np.nan, np.inf, -np.inf):
        for j, at in ((0, (2, 0, 0, 0)), (1, (1, 0, 0, 1))):
            given = stacks()
            given[j][at] = bad
            with pytest.raises(ValueError, match="not finite"):
                sf.HermitianPath.from_blocks(grid, blocks, given)
    complex_blocks = stacks()
    complex_blocks[1] = complex_blocks[1] + 0j
    with pytest.raises(ValueError, match="real"):
        sf.HermitianPath.from_blocks(grid, blocks, complex_blocks)
    # an asymmetric block is rejected exactly where the dense check
    # rejects the whole matrix: 1e-12 against the largest entry over all
    # blocks, here the 1 x 1 block's 4e6 (the 2 x 2 block's is 2e6)
    for rel in (0.5, 0.99, 1.01, 2.0):
        given = stacks(1e6)
        given[1][2, 0, 0, 1] += rel * 1e-12 * 4e6
        given[0][:] = 4e6
        dense = sf._dense(sf.HermitianPath.from_blocks(grid, blocks, stacks()), given)
        if rel < 1.0:
            sf.HermitianPath.from_blocks(grid, blocks, given)
            sf.HermitianPath(grid, dense)
            continue
        with pytest.raises(ValueError, match="symmetric"):
            sf.HermitianPath.from_blocks(grid, blocks, given)
        with pytest.raises(ValueError, match="symmetric"):
            sf.HermitianPath(grid, dense)


# the call shapes of the block route on the 5 x 5 one-block paths of
# ``dense_shape_paths``: each stack holds one block, the whole matrix
ONE_BLOCK_CALLS = {
    "affine": [
        ("eigvalsh", (2, 1, 5, 5)), ("eigvalsh", (1, 1, 5, 5)), ("eigvalsh", (2, 1, 5, 5)),
        ("eigvalsh", (2, 1, 5, 5)), ("eigvalsh", (5, 1, 5, 5)), ("eigvalsh", (6, 1, 5, 5)),
        ("eigvalsh", (7, 1, 5, 5)), ("eigvalsh", (6, 1, 5, 5)), ("eigh", (1, 5, 5)), ("eigvalsh", (1, 1)),
        ("eigvalsh", (2, 1, 5, 5)), ("eigvalsh", (1, 1, 5, 5)),
    ],
    "interpolated": [
        ("eigvalsh", (2, 1, 5, 5)), ("eigvalsh", (8, 1, 5, 5)), ("eigvalsh", (7, 1, 5, 5)),
        ("eigvalsh", (10, 1, 5, 5)), ("eigvalsh", (8, 1, 5, 5)), ("eigvalsh", (10, 1, 5, 5)),
        ("eigvalsh", (9, 1, 5, 5)), ("eigh", (1, 5, 5)), ("eigvalsh", (1, 1)), ("eigvalsh", (8, 1, 5, 5)),
        ("eigvalsh", (7, 1, 5, 5)), ("eigh", (1, 5, 5)), ("eigvalsh", (1, 1)), ("eigvalsh", (2, 1, 5, 5)),
    ],
}
# matrices solved on the same paths by the dense route that one-block
# paths took before the block route served them: the same number
DENSE_MATRICES = {"affine": 36, "interpolated": 75}


def dense_shape_paths():
    rng = np.random.default_rng(7)
    a, b, c = (m + m.T for m in (rng.standard_normal((5, 5)) for _ in range(3)))
    grid = np.linspace(-1.0, 1.0, 9)
    return {
        "affine": lambda: sf.HermitianPath.affine(a, b, -1.0, 1.0),
        "interpolated": lambda: sf.HermitianPath(grid, np.array([a + t * b + np.sin(1.7 * t) * c for t in grid])),
    }


def watch_solves(monkeypatch):
    """Record (name, shape) of every np.linalg eigvalsh and eigh call."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)

        def watched(a, *args, _solve=solve, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)
    return calls


@pytest.mark.parametrize("case", ["tower", "four", "dense"])
def test_block_paths_solve_only_their_blocks(monkeypatch, case):
    # a tower (1 x 1 blocks) makes no n x n solve at all; a Dirac family
    # (4 x 4 blocks) solves only (., 4, 4) stacks beside its crossing
    # forms; a dense path solves stacks of its one block, as many
    # matrices as the dense route did
    if case == "dense":
        for kind, make in dense_shape_paths().items():
            calls = watch_solves(monkeypatch)
            sf.spectral_flow(make())
            assert calls == ONE_BLOCK_CALLS[kind]
            assert sum(int(np.prod(shape[:-2])) for _, shape in calls) == DENSE_MATRICES[kind]
        return
    if case == "tower":
        path = tm.magnetic_family_path(3, 8)
    else:
        tr = tm.TorusTruncation(1)
        path = tm.dirac_family_path(tr, np.array([-0.3, 0.1, 0.05]), np.array([0.5, 0.05, 0.0]))
    calls = watch_solves(monkeypatch)
    rep = sf.spectral_flow(path)
    assert rep.crossings
    forms = {(rec.kernel_dim, rec.kernel_dim) for rec in rep.crossings}
    stacks = {shape[-2:] for _, shape in calls if len(shape) > 2}
    assert all(shape in forms for _, shape in calls if len(shape) == 2)
    assert stacks == (set() if case == "tower" else {(4, 4)})
    assert not any(shape[-1] == path.n for _, shape in calls)


def test_secant_skips_a_collapsed_closing_pair():
    # diag(-1, -0.5, 2) + (2t/L) I on [0, L] has SF 2.  At L = 1e6,
    # bisection_tol / 4 is below the float spacing of t, so a closing
    # pair collapses onto its end; the secant skips it, and the path
    # ends in the typed error, with no 0/0 warning
    length = 1e6
    path = sf.HermitianPath.affine(np.diag([-1.0, -0.5, 2.0]), 2.0 / length * np.eye(3), 0.0, length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sf.SpectralFlowError):
            sf.spectral_flow(path)


# ------------------------------------------------------------- axioms


def test_direct_sum_example_and_additivity():
    p1 = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), -1.0, 1.0)
    p2 = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]), -1.0, 1.0)
    assert sf.spectral_flow(p1).sf == 1
    assert sf.spectral_flow(p2).sf == -1
    assert sf.sf_direct_sum(p1, p2) == 0

    rng = np.random.default_rng(43)
    for _ in range(10):
        q1 = affine(rng, 3)
        q2 = affine(rng, 4)
        total = sf.sf_direct_sum(q1, q2)
        assert total == sf.spectral_flow(q1).sf + sf.spectral_flow(q2).sf


def test_direct_sum_with_constant_block():
    rng = np.random.default_rng(44)
    p1 = affine(rng, 3)
    c = rng.standard_normal((2, 2))
    p2 = sf.HermitianPath.affine(c + c.T + 3.0 * np.eye(2), np.zeros((2, 2)), -1.0, 1.0)
    assert sf.sf_direct_sum(p1, p2) == sf.spectral_flow(p1).sf


def test_concatenation_additive_and_reversal_cancels():
    rng = np.random.default_rng(45)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        a, b, c = a + a.T, b + b.T, c + c.T
        p1 = sf.HermitianPath.affine(a, b, 0.0, 1.0)
        p2 = sf.HermitianPath.affine(a + b, c, 0.0, 1.0)
        joined = sf.sf_concat(p1, p2)
        assert joined == sf.spectral_flow(p1).sf + sf.spectral_flow(p2).sf
    p = affine(rng, 4)
    back = sf.HermitianPath.from_callable(
        lambda t: p.evaluate(p.t_samples[0] + p.t_samples[-1] - t),
        p.t_samples[0],
        p.t_samples[-1],
    )
    assert sf.sf_concat(p, back) == 0


def test_concat_rejects_endpoint_mismatch():
    p1 = sf.HermitianPath.affine(np.eye(2), np.eye(2), 0.0, 1.0)
    p2 = sf.HermitianPath.affine(np.eye(2), np.eye(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        sf.sf_concat(p1, p2)


def test_homotopy_invariance_random():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = 4
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        a, b, c = a + a.T, b + b.T, c + c.T

        def edge(s):
            def f(t):
                return a + t * b + s * t * (1.0 - t) * c

            return sf.HermitianPath.from_callable(f, 0.0, 1.0)

        assert sf.spectral_flow(edge(0.0)).sf == sf.spectral_flow(edge(1.0)).sf


# ------------------------------------------------- realified complex


def test_realified_path_doubles_flow_and_is_even():
    t_grid = np.linspace(-1.0, 1.0, 21)
    vals = np.array([np.diag([t + 0.0j, 1.0 + 0.0j]) for t in t_grid])
    path = sf.HermitianPath(t_grid, vals)
    assert path.realified
    assert path.values.shape == (21, 4, 4)
    assert sf.spectral_flow(path).sf == 2

    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        b = b + b.conj().T
        grid = np.linspace(-1.0, 1.0, 33)
        vals = np.array([a + t * b for t in grid])
        rep = sf.spectral_flow(sf.HermitianPath(grid, vals))
        assert rep.sf % 2 == 0


def test_rejects_asymmetric_samples():
    grid = np.array([0.0, 1.0])
    vals = np.array([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        sf.HermitianPath(grid, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("complex_input", [False, True])
def test_rejects_non_finite_samples(bad, complex_input):
    # a non-finite entry in any sample is rejected at ingest, before the
    # engine could spend its delta halvings on it
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4))
    vals = np.array([a + a.T + t * np.eye(4) for t in np.linspace(-1.0, 1.0, 5)])
    if complex_input:
        vals = vals + 0j
    vals[3, 1, 2] = vals[3, 2, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        sf.HermitianPath(np.linspace(-1.0, 1.0, 5), vals)


@pytest.mark.parametrize("n", [5, 256, 257, 600, 2401])
def test_sym_defect_is_the_dense_defect_bit_for_bit(n):
    # rounding-sized asymmetry everywhere and the largest defect below the
    # diagonal in the last tile, which is ragged unless n is a multiple
    # of the tile
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    m += m.T
    m += 1e-14 * rng.standard_normal((n, n))
    i = n - 1
    j = int(rng.integers(0, i))
    m[i, j] += 1e-9 * (1.0 + rng.random())
    want = sf._max_abs(m - m.T)
    assert want > 1e-9
    assert sf._sym_defect(m).hex() == want.hex()
    m[j, i] = np.nan
    assert np.isnan(sf._sym_defect(m))


def test_sym_defect_propagates_a_nan_after_a_finite_tile():
    # the first tiles are exactly symmetric; the NaN sits in a later one
    h = np.zeros((600, 600))
    h[300, 500] = np.nan
    assert np.isnan(sf._sym_defect(h))


def test_from_callable_builds_in_one_copy_of_the_samples():
    # a dense symmetric 255 x 255 callable with 17 samples: 8.8 MB of
    # values, stored as one block that is a view of the sampled stack
    rng = np.random.default_rng(53)
    a, b = (m + m.T for m in rng.standard_normal((2, 255, 255)))

    def build():
        return sf.HermitianPath.from_callable(lambda t: a + t * b, 0.0, 1.0, num_samples=17)

    build()
    tracemalloc.start()
    try:
        path = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [idx.shape for idx in path.blocks] == [(1, 255)]
    assert peak < 1.3 * path.values.nbytes


def test_complex_ingest_stays_under_twice_the_realified_samples():
    # 9 complex samples of size 250 (9 MB) realify to 18 MB; the complex
    # stack itself is half of that
    rng = np.random.default_rng(52)
    za, zb = (m + m.conj().T for m in rng.standard_normal((2, 250, 250)) + 1j * rng.standard_normal((2, 250, 250)))

    def build():
        return sf.HermitianPath.from_callable(lambda t: za + t * zb, 0.0, 1.0, num_samples=9)

    build()
    tracemalloc.start()
    try:
        path = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.realified and path.n == 500
    assert peak < 2.0 * path.values.nbytes


def test_complex_samples_with_a_hermitian_defect_are_rejected():
    # a defect of 1e-6 in the real or the imaginary part of one entry is
    # caught by the symmetry check of the realified samples
    herm = np.array([[1.0, 1j], [-1j, 2.0]])
    sf.HermitianPath(np.array([0.0, 1.0]), np.array([herm, 2.0 * herm]))
    for defect in (1e-6, 1e-6j):
        bad = herm.copy()
        bad[0, 1] += defect
        with pytest.raises(ValueError):
            sf.HermitianPath(np.array([0.0, 1.0]), np.array([herm, bad]))


def test_from_callable_keeps_complex_and_rejects_ragged_samples():
    herm = np.array([[0.0, 1j], [-1j, 0.0]])
    path = sf.HermitianPath.from_callable(lambda t: t * np.eye(2) + (t > 0.5) * herm, 0.0, 1.0, 3)
    assert path.realified and path.n == 4
    assert np.array_equal(path.values[-1], sf.realify_matrix(np.eye(2) + herm))
    with pytest.raises(ValueError):
        sf.HermitianPath.from_callable(lambda t: np.eye(2 if t < 0.5 else 3), 0.0, 1.0, 3)


# ---------------------------------------------------- crossing operator


def test_crossing_operator_examples():
    p = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), -1.0, 1.0)
    c = sf.crossing_operator(p, 0.0, tol=1e-8)
    assert c.shape == (1, 1)
    assert c[0, 0] == pytest.approx(1.0, abs=1e-8)

    q = sf.HermitianPath.affine(np.zeros((2, 2)), np.diag([1.0, -1.0]), -1.0, 1.0)
    cq = sf.crossing_operator(q, 0.0, tol=1e-8)
    assert sorted(np.linalg.eigvalsh(cq).round(8)) == [-1.0, 1.0]

    r = sf.HermitianPath.affine(np.eye(2), np.zeros((2, 2)), -1.0, 1.0)
    assert sf.crossing_operator(r, 0.5, tol=1e-8).shape == (0, 0)

    # at a shift the kernel is that of A(t) - delta
    cd = sf.crossing_operator(p, 0.25, tol=1e-8, delta=0.25)
    assert cd.shape == (1, 1)
    assert cd[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert sf.crossing_operator(r, 0.5, tol=1e-8, delta=1.0).shape == (2, 2)


def test_crossing_operator_reads_each_kind_of_path():
    # diag(sin t - sin 0.25, 1) has its kernel e_1 at the sample t = 0.25:
    # a curved callable reads its derivative there, cos 0.25, and a
    # callable without a curvature bound reads its sample interpolant, as
    # spectral_flow does: the slope of the segment [0.25, 0.5]
    f = lambda t: np.diag([np.sin(t) - np.sin(0.25), 1.0])
    df = lambda t: np.diag([np.cos(t), 0.0])
    curved = sf.HermitianPath.from_callable(f, 0.0, 1.0, num_samples=5, derivative=df, curvature=1.0)
    assert sf.crossing_operator(curved, 0.25, tol=1e-8).tolist() == [[np.cos(0.25)]]
    bare = sf.HermitianPath.from_callable(f, 0.0, 1.0, num_samples=5)
    interpolant = sf.HermitianPath(bare.t_samples, bare.values)
    form = sf.crossing_operator(bare, 0.25, tol=1e-8)
    assert np.array_equal(form, sf.crossing_operator(interpolant, 0.25, tol=1e-8))
    assert form[0, 0] == pytest.approx((np.sin(0.5) - np.sin(0.25)) / 0.25, rel=1e-12)


# ------------------------------------------------ degenerate tracking


def test_track_linear_branches():
    path = sf.HermitianPath.affine(np.zeros((2, 2)), np.diag([1.0, 2.0]), -0.5, 0.5)
    out = sf.track_degenerate_eigenvalue(path)
    i = np.argmin(np.abs(out.t_samples))
    assert np.allclose(out.eigenvalues[i], [0.0, 0.0], atol=1e-12)
    for j, slope in enumerate([1.0, 2.0]):
        assert np.allclose(out.eigenvalues[:, j], slope * out.t_samples, atol=1e-10)
    assert np.allclose(out.second_derivatives, [0.0, 0.0], atol=1e-6)


def test_track_rotating_family_follows_branches_through_zero():
    # conjugation by a rotation keeps the eigenvalues at exactly +-t, so
    # the tracked branches must stay linear through the crossing and the
    # curvatures must vanish
    def f(t):
        c, s = np.cos(3.0 * t), np.sin(3.0 * t)
        r = np.array([[c, -s], [s, c]])
        return t * (r.T @ np.diag([1.0, -1.0]) @ r)

    path = sf.HermitianPath.from_callable(f, -0.4, 0.4, num_samples=81)
    out = sf.track_degenerate_eigenvalue(path)
    order = np.argsort(out.eigenvalue_slopes)
    assert np.allclose(out.eigenvalue_slopes[order], [-1.0, 1.0], atol=1e-8)
    for j, slope in zip(order, [-1.0, 1.0]):
        assert np.allclose(out.eigenvalues[:, j], slope * out.t_samples, atol=1e-8)
    assert np.max(np.abs(out.second_derivatives)) < 1e-4


def test_track_second_derivative_analytic_oracle():
    # for A(t) = t B + t^2 C with B = diag(b) simple, perturbation theory
    # gives the exact curvature 2 C_jj of branch j
    rng = np.random.default_rng(48)
    b = np.diag([1.0, -0.5, 2.0])
    c = rng.standard_normal((3, 3))
    c = c + c.T
    path = sf.HermitianPath.from_callable(
        lambda t: t * b + t * t * c, -0.3, 0.3, num_samples=121
    )
    out = sf.track_degenerate_eigenvalue(path)
    want = 2.0 * np.diag(c)[np.argsort(np.diag(b))]
    assert np.allclose(out.second_derivatives, want, atol=1e-4)


def test_track_flat_branch_curvature():
    path = sf.HermitianPath.from_callable(
        lambda t: np.diag([t**2, t]), -0.5, 0.5, num_samples=101
    )
    out = sf.track_degenerate_eigenvalue(path)
    # branch ordering follows the slopes of the derivative at zero
    slopes = out.eigenvalue_slopes
    flat = int(np.argmin(np.abs(slopes)))
    assert abs(out.second_derivatives[flat] - 2.0) < 1e-4
    assert abs(out.second_derivatives[1 - flat]) < 1e-4


def test_track_requires_zero_start_and_simple_derivative():
    bad = sf.HermitianPath.affine(np.eye(2), np.eye(2), -0.5, 0.5)
    with pytest.raises(ValueError):
        sf.track_degenerate_eigenvalue(bad)
    degenerate = sf.HermitianPath.affine(np.zeros((2, 2)), np.eye(2), -0.5, 0.5)
    with pytest.raises(ValueError):
        sf.track_degenerate_eigenvalue(degenerate)
