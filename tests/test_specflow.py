"""Tests for spectral flow of symmetric-matrix paths.

Oracle: the net count of sorted-eigenvalue branches crossing the shifted
counting line on a dense grid.  Zero endpoint eigenvalues sit below the
line, so a branch departing upward from zero counts +1 and a branch
arriving at zero from above counts -1; branches that stay on one side
contribute nothing.
"""

import tracemalloc

import numpy as np
import pytest

from swflow import orient
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
    for mat in [np.zeros((3, 3)), np.diag([1.0, -2.0, 3.0])]:
        path = sf.HermitianPath.affine(mat, np.zeros((3, 3)), 0.0, 1.0)
        rep = sf.spectral_flow(path)
        assert rep.sf == 0
        assert rep.crossings == []


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


def test_refinement_takes_one_stacked_solve_per_level_and_chunk(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)

    # affine paths: exact chords, so the two endpoint solves and one
    # stacked solve of the new midpoints per level
    rng = np.random.default_rng(48)
    for _ in range(10):
        path = affine(rng, 6)
        shapes.clear()
        rep = sf.spectral_flow(path)
        solves = [s for s in shapes if s[-1] == path.n]
        assert solves[:2] == [(6, 6), (6, 6)]
        assert len(solves) <= 2 + rep.refinement_depth

    # the n = 255 magnetic tower declares no curvature bound, so it is
    # refined as its interpolant: one stacked solve per chunk of its
    # samples, of its segment slopes, and of each level's new probes.
    # A depth-first refinement takes 180 separate solves of this path.
    path = tm.magnetic_family_path(3, 8)
    n = path.n
    per = sf._per_chunk(n)
    chunks = lambda count: -(-count // per)
    probes = []  # (matrices, solves) of each stacked probe
    stacked = sf._eigvalsh_stacked

    def probe(n_, count, write):
        calls = len(shapes)
        eigs = stacked(n_, count, write)
        probes.append((count, len(shapes) - calls))
        return eigs

    monkeypatch.setattr(sf, "_eigvalsh_stacked", probe)
    shapes.clear()
    rep = sf.spectral_flow(path)
    assert rep.sf == -3
    assert rep.method == "interpolant"
    # the crossing records take small eigvalsh of their crossing forms
    big = [s for s in shapes if s[-1] == n]
    assert big[:2] == [(n, n), (n, n)]
    assert all(len(s) == 3 and s[0] <= per for s in big[2:])
    # the 15 inner samples, the 16 segment slopes, then one probe per level
    assert [count for count, _ in probes[:2]] == [15, 16]
    assert len(probes) == rep.refinement_depth + 2
    assert all(solves == chunks(count) for count, solves in probes)
    # no other solve of the path's size
    assert 2 + sum(s for _, s in probes) == len(big)
    assert 2 + sum(s[0] for s in big[2:]) <= 180


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


def test_stacked_evaluation_is_the_pointwise_evaluation():
    # evaluate_into writes bit for bit what evaluate returns at each time,
    # and on interpolated paths what the scalar lerp gives: a broadcast on
    # affine paths (a complex Hermitian one in its realified form), a
    # gather and lerp on interpolated paths and a loop on a user callable,
    # also into a strided stack like orient's [T K]
    rng = np.random.default_rng(51)
    n = 5
    a, b, c = (m + m.T for m in rng.standard_normal((3, n, n)))
    za, zb = (m + m.conj().T for m in rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    grid = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, 7)), [1.0]])
    paths = [
        sf.HermitianPath.affine(a, b, -1.0, 1.0),
        sf.HermitianPath.affine(za, zb, -1.0, 1.0),
        sf.HermitianPath(grid, np.array([a + np.sin(t) * b for t in grid])),
        sf.HermitianPath(grid, np.array([za + t * t * zb for t in grid])),
        # n = 120: the right ends are gathered two matrices at a time
        sf.HermitianPath(grid, np.array([np.kron(np.eye(24), a + t * b) for t in grid])),
        sf.HermitianPath.from_callable(lambda t: a + t * b + np.sin(1.7 * t) * c, -1.0, 1.0, num_samples=7),
    ]
    assert paths[1].realified and paths[1]._affine is not None

    def lerp(path, t):
        # the scalar interpolation, one time at a time
        ts, t = path.t_samples, min(max(t, path.a), path.b)
        i = path.segment(t)
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * path.values[i] + w * path.values[i + 1]

    times = np.concatenate([grid, rng.uniform(-1.0, 1.0, 40), [-1.25, 1.5]])
    for path in paths:
        at = path.evaluate if path._func is not None else lambda t: lerp(path, t)
        want = np.array([at(t) for t in times.tolist()])
        assert np.array_equal(want, [path.evaluate(t) for t in times.tolist()])
        out = np.empty((times.size, path.n, path.n + 2))[:, :, : path.n]
        assert path.evaluate_into(times, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(path.evaluate_into(times, np.empty_like(want)), want)


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
        mu = np.linalg.eigvals(np.linalg.solve(shifted, path.segment_slope(i)))
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
    # n = 255 tower with 17 samples: 8.8 MB of values; the refinement
    # holds one level's endpoint matrices and one bounded chunk
    path = tm.magnetic_family_path(3, 8)
    sf.spectral_flow(path)
    tracemalloc.start()
    try:
        sf.spectral_flow(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.values.nbytes


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


def test_from_callable_builds_in_one_copy_of_the_samples():
    # n = 255 magnetic tower with 17 samples: 8.8 MB of values
    tm.magnetic_family_path(3, 8)
    tracemalloc.start()
    try:
        path = tm.magnetic_family_path(3, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * path.values.nbytes


def test_complex_ingest_stays_under_twice_the_realified_samples():
    # 9 complex Dirac samples of size 250 (9 MB) realify to 18 MB; the
    # complex stack itself is half of that
    tr = tm.TorusTruncation(2)
    tm.dirac_family_path(tr, 0, (2, 0, 0))
    tracemalloc.start()
    try:
        path = tm.dirac_family_path(tr, 0, (2, 0, 0))
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
