"""Tests for orientation transport along symmetric-matrix paths.

The two computation routes (kernel-bundle trivialization with a constant
stabilizer, and parity of the spectral flow) are mutual oracles: they
must agree on every path with invertible endpoints.
"""

import numpy as np
import pytest

from swflow import cli, orient
from swflow import specflow as sf


def random_invertible_endpoint_path(rng, n, kind="affine"):
    while True:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        a, b, c = a + a.T, b + b.T, c + c.T
        if kind == "affine":
            path = sf.HermitianPath.affine(a, b, -1.0, 1.0)
        else:
            path = sf.HermitianPath.from_callable(
                lambda t: a + t * b + np.sin(1.7 * t) * c, -1.0, 1.0, num_samples=25
            )
        e0 = np.abs(np.linalg.eigvalsh(path.values[0])).min()
        e1 = np.abs(np.linalg.eigvalsh(path.values[-1])).min()
        if min(e0, e1) > 1e-3:
            return path


def test_constant_invertible_path_is_positive():
    path = sf.HermitianPath.affine(np.diag([2.0, -3.0]), np.zeros((2, 2)), 0.0, 1.0)
    assert orient.orientation_transport_det(path) == 1
    assert orient.orientation_transport_sf(path) == 1


def test_single_crossing_flips_orientation():
    path = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), -1.0, 1.0)
    assert orient.orientation_transport_det(path) == -1
    assert orient.orientation_transport_sf(path) == -1


def test_riser_family_gives_kernel_dimension_parity():
    # start at a matrix with an n-dimensional kernel and rise: parity is
    # (-1)^n; the kernel-bundle route refuses the singular endpoint and
    # the flow route supplies the value
    for n in range(5):
        t0 = np.diag([0.0] * n + [1.0] * 2)
        path = sf.HermitianPath.affine(t0, np.eye(n + 2), 0.0, 0.5)
        assert orient.orientation_transport_sf(path) == (-1) ** n
        if n > 0:
            with pytest.raises(ValueError):
                orient.orientation_transport_det(path)


def test_det_route_matches_sf_route_randomly():
    rng = np.random.default_rng(60)
    for k in range(40):
        n = int(rng.integers(3, 7))
        kind = "affine" if k % 2 == 0 else "smooth"
        path = random_invertible_endpoint_path(rng, n, kind)
        rep = orient.transport_report(path)
        assert rep.eps_det == rep.eps_sf
        assert rep.eps_det == (-1) ** rep.sf


def test_interior_singularity_found_with_coarse_grid():
    # only two samples: the stabilizer collector must detect the interior
    # crossing by refinement, not by luck of the sample grid
    path = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), -1.0, 1.0)
    assert path.t_samples.size == 2
    rep = orient.transport_report(path)
    assert rep.eps_det == -1
    assert rep.stabilizer_dim >= 1


def test_stabilizer_enlargement_invariance():
    # the stabilizer loop grows from random orthonormal extras
    rng = np.random.default_rng(61)
    cfg = sf.SpectralFlowConfig()
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        for extra in (1, 2, 3):
            start, _ = np.linalg.qr(rng.standard_normal((path.n, extra)))
            got, _ = orient._transport_det(path, cfg, start)
            assert got == base


def test_initial_frame_randomization_invariance():
    # a random rotation of the first kernel basis leaves the sign alone
    rng = np.random.default_rng(62)
    cfg = sf.SpectralFlowConfig()
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 5)
        base = orient.orientation_transport_det(path)
        path, _ = sf._bounded(path)
        scale = max(1.0, np.abs(path.values).max())
        K, bases = orient._collect_stabilizer(path, cfg, scale, np.zeros((path.n, 0)))
        v = K.shape[1]
        if v:
            q, _ = np.linalg.qr(rng.standard_normal((v, v)))
            first = next(iter(bases))
            bases[first] = bases[first] @ q
        det_a, det_b = orient._transport_frame(path, K, bases, cfg)
        assert (1 if det_a * det_b > 0 else -1) == base


def test_full_space_stabilizer_matches():
    rng = np.random.default_rng(63)
    cfg = sf.SpectralFlowConfig()
    for _ in range(10):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        full, _ = orient._transport_det(path, cfg, np.eye(path.n))
        assert full == base


def test_full_rank_stabilizer_that_fails_raises():
    # [T I] has smallest singular value 1 where an eigenvalue of T crosses
    # 0, below the trigger 1e-6 * scale = 40: a full-rank stabilizer that
    # does not certify raises the typed error, from the full space and on
    # the default route alike
    path = sf.HermitianPath.affine(1e7 * np.diag([-1.0, -0.5, 2.0]), 2e7 * np.eye(3), 0.0, 1.0)
    with pytest.raises(orient.OrientationTransportError):
        orient._transport_det(path, sf.SpectralFlowConfig(), np.eye(3))
    with pytest.raises(orient.OrientationTransportError):
        orient.orientation_transport_det(path)


def test_default_route_scans_once_per_stabilizer_direction(monkeypatch):
    # on the first 40 paths of the 1000-path acceptance stream each failed
    # scan adds one direction and the last scan certifies
    scans = [0]
    scan = orient._scan_stabilizer

    def counted(*args):
        scans[0] += 1
        return scan(*args)

    monkeypatch.setattr(orient, "_scan_stabilizer", counted)
    rng = np.random.default_rng(303)
    for i in range(40):
        before = scans[0]
        rep = orient.transport_report(cli._random_symmetric_path(rng, 4 + i % 7))
        assert scans[0] - before == rep.stabilizer_dim + 1


def test_realified_paths_transport_positively():
    rng = np.random.default_rng(64)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a, b = a + a.conj().T, b + b.conj().T
        grid = np.linspace(-1.0, 1.0, 33)
        path = sf.HermitianPath(grid, np.array([a + t * b for t in grid]))
        assert orient.orientation_transport_sf(path) == 1


def test_axioms_report():
    rng = np.random.default_rng(65)
    for _ in range(10):
        p1 = random_invertible_endpoint_path(rng, 3)
        p2 = random_invertible_endpoint_path(rng, 4)
        report = orient.ot_axioms(p1, p2)
        assert report["direct_sum"]["ok"]
    # concatenation with matching junction
    a = np.diag([1.0, -1.0])
    b = np.diag([0.5, 0.3])
    p1 = sf.HermitianPath.affine(a, b, 0.0, 1.0)
    p2 = sf.HermitianPath.affine(a + b, np.diag([-0.2, 0.1]), 0.0, 1.0)
    report = orient.ot_axioms(p1, p2)
    assert report["concat"] is not None and report["concat"]["ok"]

    # a path against its reversal: total transport is trivial
    p = random_invertible_endpoint_path(rng, 4)
    back = sf.HermitianPath.from_callable(
        lambda t: p.evaluate(p.t_samples[0] + p.t_samples[-1] - t),
        p.t_samples[0],
        p.t_samples[-1],
    )
    assert orient.orientation_transport_sf(p) * orient.orientation_transport_sf(
        back
    ) == 1


def test_axioms_homotopy_edges():
    rng = np.random.default_rng(66)
    for _ in range(8):
        n = 4
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        a, b, c = a + a.T, b + b.T, c + c.T

        def homotopy(s, t):
            return a + t * b + s * t * (1.0 - t) * c

        p1 = sf.HermitianPath.from_callable(lambda t: homotopy(0.0, t), 0.0, 1.0)
        p2 = sf.HermitianPath.from_callable(lambda t: homotopy(1.0, t), 0.0, 1.0)
        report = orient.ot_axioms(p1, p2, homotopy=homotopy)
        assert report["homotopy"]["ok"]


# ------------------------------------------------------ frozen corpus

# The first 20 paths of the 1000-path acceptance stream for seeds 303 and
# 505 (n = 4 + i % 7), pinned at a commit that refined depth-first and
# certified the stabilizer with the one-sided rule.  Per path: sf,
# delta_used, eps_det, eps_sf, stabilizer_dim and the crossing records
# (t, kernel_dim, crossing_signature, crossing_det_sign).
FROZEN_CORPUS = [
    (0, 0.05271868653679428, 1, 1, 0, []),
    (0, 0.04823859664535434, 1, 1, 0, []),
    (0, 0.23290144519593448, 1, 1, 1, [(-0.10838029716008658, 1, 1, 1), (0.1694831667700781, 1, -1, -1)]),
    (-1, 0.16758038296738575, -1, -1, 1, [(-0.7118735132195677, 1, -1, -1)]),
    (1, 0.11259334877760316, -1, -1, 1, [(-0.7768330722174142, 1, 1, 1)]),
    (2, 0.0701772763415478, 1, 1, 1, [(-0.8692359125998337, 1, 1, 1), (-0.4630125544790644, 1, 1, 1)]),
    (-1, 0.0895730411745353, -1, -1, 1, [(0.13528991208295338, 1, -1, -1), (0.46575687066069804, 1, 1, 1), (0.6919388650276233, 1, -1, -1)]),
    (-1, 0.25, -1, -1, 1, [(0.14044808879649875, 1, -1, -1)]),
    (0, 0.09722744507686082, 1, 1, 0, []),
    (1, 0.25, -1, -1, 1, [(-0.1297904283662017, 1, 1, 1)]),
    (0, 0.25, 1, 1, 1, [(-0.6214429916581139, 1, -1, -1), (-0.050013081364644094, 1, 1, 1)]),
    (-1, 0.25, -1, -1, 1, [(-0.5961184409970883, 1, -1, -1)]),
    (1, 0.16790803451816216, -1, -1, 1, [(-0.521239986323053, 1, 1, 1), (0.1888659679389093, 1, -1, -1), (0.36788735454319976, 1, 1, 1)]),
    (-1, 0.1357046637810639, -1, -1, 1, [(0.4749058191276465, 1, -1, -1)]),
    (-1, 0.01569647326233577, -1, -1, 1, [(-0.359516008378705, 1, -1, -1)]),
    (-1, 0.2039009670152461, -1, -1, 1, [(0.006761785247363144, 1, -1, -1)]),
    (1, 0.08100230453875555, -1, -1, 1, [(0.04751926299650218, 1, 1, 1)]),
    (-1, 0.25, -1, -1, 1, [(-0.3323246514191851, 1, -1, -1), (-0.04836868149383616, 1, -1, -1), (0.15297591829827661, 1, 1, 1)]),
    (0, 0.23414439811725363, 1, 1, 0, [(-0.0023868615098763257, 1, -1, -1), (0.5231688309286255, 1, 1, 1)]),
    (-1, 0.25, -1, -1, 1, [(-0.8950680269917939, 1, -1, -1)]),
    (0, 0.25, 1, 1, 0, [(-0.7054752302744116, 1, -1, -1), (-0.20140595373231923, 1, 1, 1)]),
    (0, 0.25, 1, 1, 1, [(-0.1159410536056385, 1, 1, 1), (0.31884737510699773, 1, -1, -1)]),
    (0, 0.25, 1, 1, 0, []),
    (-1, 0.10772085516588163, -1, -1, 1, [(-0.9038658777329449, 1, -1, -1)]),
    (1, 0.076357684760106, -1, -1, 1, [(-0.36305694971815683, 1, 1, 1)]),
    (0, 0.017232025678437395, 1, 1, 1, [(0.009082203924966347, 1, 1, 1), (0.21740004750123862, 1, -1, -1)]),
    (-1, 0.25, -1, -1, 1, [(-0.35305648305802606, 1, -1, -1)]),
    (0, 0.18998485607906365, 1, 1, 1, []),
    (-2, 0.25, 1, 1, 1, [(-0.45299556144163944, 1, -1, -1), (0.40071532610454597, 1, -1, -1)]),
    (0, 0.25, 1, 1, 1, [(-0.851418951555388, 1, -1, -1), (-0.16997678115149029, 1, 1, 1)]),
    (0, 0.05428671580315258, 1, 1, 1, [(-0.09413805770842984, 1, -1, -1), (0.07303566559373084, 1, 1, 1)]),
    (0, 0.25, 1, 1, 1, [(-0.2937130954815075, 1, 1, 1), (0.5960207428239905, 1, -1, -1)]),
    (0, 0.25, 1, 1, 1, []),
    (1, 0.20355661488846602, -1, -1, 1, [(-0.035659820219734684, 1, 1, 1), (0.45381077178171836, 1, -1, -1), (0.6831094781227876, 1, 1, 1)]),
    (0, 0.25, 1, 1, 1, [(-0.8419955732533708, 1, -1, -1), (-0.3277299093315378, 1, -1, -1), (-0.06116920651402327, 1, 1, 1), (0.28944899914010114, 1, 1, 1)]),
    (0, 0.1034057121034491, 1, 1, 1, [(-0.8572247584428018, 1, 1, 1), (-0.14698440500069415, 1, -1, -1)]),
    (0, 0.22065068600896548, 1, 1, 0, []),
    (0, 0.047575069528158716, 1, 1, 0, []),
    (0, 0.25, 1, 1, 0, [(0.11653993585302173, 1, -1, -1), (0.25242968179130304, 1, 1, 1)]),
    (0, 0.138155045586868, 1, 1, 1, [(-0.580357937637018, 1, -1, -1), (-0.2238706255739089, 1, 1, 1), (0.4759565264976118, 1, -1, -1), (0.9087198615598027, 1, 1, 1)]),
]


def test_frozen_crossing_corpus():
    cfg = sf.SpectralFlowConfig()
    paths = []
    for seed in (303, 505):
        rng = np.random.default_rng(seed)
        paths += [cli._random_symmetric_path(rng, 4 + i % 7) for i in range(20)]
    for path, (flow, delta, eps_det, eps_sf, vdim, records) in zip(paths, FROZEN_CORPUS):
        rep = orient.transport_report(path, cfg)
        assert (rep.sf, rep.eps_det, rep.eps_sf, rep.stabilizer_dim) == (flow, eps_det, eps_sf, vdim)
        got = sf.spectral_flow(path, cfg)
        assert got.sf == flow
        assert got.delta_used == pytest.approx(delta, rel=1e-12)
        assert len(got.crossings) == len(records)
        for rec, (t, k, sig, det) in zip(got.crossings, records):
            assert abs(rec.t - t) <= cfg.bisection_tol
            assert (rec.kernel_dim, rec.crossing_signature, rec.crossing_det_sign) == (k, sig, det)


# ------------------------------------------------ stabilizer certificate


def smallest_singular_value(path, K, t):
    return np.linalg.svd(np.hstack([path.evaluate(t), K]), compute_uv=False).min()


def test_scan_certifies_a_quarter_of_the_end_margins_on_affine_paths():
    # move < (ml + mr) / 2 and Weyl's inequality for singular values give
    # sigma_min >= (ml + mr - move) / 2 > (ml + mr) / 4 inside every
    # certified interval of an affine path
    rng = np.random.default_rng(67)
    cfg = sf.SpectralFlowConfig()
    for _ in range(30):
        path = random_invertible_endpoint_path(rng, int(rng.integers(3, 8)))
        scale = max(1.0, np.abs(path.values).max())
        K, bases = orient._collect_stabilizer(path, cfg, scale, np.zeros((path.n, 0)))
        grid = list(bases)
        margins = [smallest_singular_value(path, K, t) for t in grid]
        for l, r, ml, mr in zip(grid, grid[1:], margins, margins[1:]):
            inner = np.linspace(l, r, 52)[1:-1]
            low = min(smallest_singular_value(path, K, t) for t in inner)
            assert low >= 0.25 * (ml + mr)


def count_decompositions(monkeypatch):
    """Calls of np.linalg.svd and np.linalg.eigvalsh, each a stack or a
    single matrix, by name."""
    calls = {"svd": 0, "eigvalsh": 0}
    for name in calls:

        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_failing_scan_reaches_its_trigger_in_few_svds(monkeypatch):
    # affine paths (n = 6) with one crossing of the line at 0: with no
    # stabilizer the scan must fail.  The level-synchronous scan takes one
    # stacked eigvalsh per level and SVDs only near the trigger: 58
    # decomposition calls over these five paths, where the best-first
    # scan took 121 single SVDs and the depth-first scan 326.
    cfg = sf.SpectralFlowConfig()
    rng = np.random.default_rng(70)
    paths = []
    while len(paths) < 5:
        a, b = (m + m.T for m in rng.standard_normal((2, 6, 6)))
        path = sf.HermitianPath.affine(a, b, -1.0, 1.0)
        if len(sf.spectral_flow(path).crossings) == 1:
            paths.append(path)
    calls = count_decompositions(monkeypatch)
    for path in paths:
        scale = max(1.0, np.abs(path.values).max())
        certified, dirs, _ = orient._scan_stabilizer(path, np.zeros((6, 0)), scale, cfg)
        assert not certified and dirs.shape[1] >= 1
    assert calls["svd"] <= 160
    assert calls["svd"] + calls["eigvalsh"] <= 64


def test_newton_probe_fails_the_scan_at_its_point(monkeypatch):
    # sigma_min = |t - 0.3| on [0, 1], collect 2e-3 and trigger 2e-6 at
    # scale 2: the first probe below collect is 0.30078125, at level 8 of
    # the bisection, and its Newton step lands on 0.3, where the scan
    # fails.  Nine stacked eigvalsh (levels 0 to 8) and two SVDs (the
    # probe and its Newton point); halving down to the trigger would take
    # 19 levels.
    path = sf.HermitianPath.affine(np.diag([-0.3, 2.0]), np.diag([1.0, 0.0]), 0.0, 1.0)
    cfg = sf.SpectralFlowConfig()
    probed = []
    evaluate_into = path.evaluate_into

    def watched(times, out):
        probed.append(np.array(times, dtype=float))
        return evaluate_into(times, out)

    path.evaluate_into = watched
    calls = count_decompositions(monkeypatch)
    certified, dirs, _ = orient._scan_stabilizer(path, np.zeros((2, 0)), 2.0, cfg)
    assert not certified
    assert np.allclose(np.abs(dirs[:, 0]), [1.0, 0.0])
    assert probed[-2].tolist() == [0.30078125]
    assert probed[-1].size == 1 and abs(probed[-1][0] - 0.3) < 1e-12
    assert calls == {"svd": 2, "eigvalsh": 9}


# ------------------------------------------------ frame transport oracle


def polar_transport(path, K, bases, cfg):
    """Reference frame transport: carry the kernel frame itself from probe
    to probe by projection and symmetric re-orthonormalization (the polar
    factor), halving a step whose projection has a singular value below
    1/2.  Returns both endpoint stabilizer-block determinants."""
    n = path.n

    def advance(frame, t_next, t_cur, depth, basis=None):
        if basis is None:
            basis = np.linalg.svd(np.hstack([path.evaluate(t_next), K]))[2][n:].T
        u, s, wt = np.linalg.svd(basis @ (basis.T @ frame), full_matrices=False)
        if s.min() >= 0.5:
            return u @ wt
        assert depth < cfg.refine_max_depth
        mid = 0.5 * (t_cur + t_next)
        return advance(advance(frame, mid, t_cur, depth + 1), t_next, mid, depth + 1, basis)

    grid = list(bases)
    frame = bases[grid[0]]
    det_a = np.linalg.det(frame[n:])
    for cur, nxt in zip(grid, grid[1:]):
        frame = advance(frame, nxt, cur, 0, bases[nxt])
    return det_a, np.linalg.det(frame[n:])


def test_overlap_signs_give_the_polar_transport(monkeypatch):
    # the product of sgn det O_k gives the end determinant of the frame
    # carried by polar steps, on the certified probes and on coarser grids
    # whose steps need sub-steps
    cfg = sf.SpectralFlowConfig()
    rng = np.random.default_rng(71)
    calls = [0]
    svds = orient._block_svds

    def counted(*args):
        calls[0] += 1
        return svds(*args)

    monkeypatch.setattr(orient, "_block_svds", counted)
    checked = substeps = 0
    while checked < 12:
        path = random_invertible_endpoint_path(rng, int(rng.integers(3, 8)), ["affine", "smooth"][checked % 2])
        path, _ = sf._bounded(path)
        scale = max(1.0, np.abs(path.values).max())
        K, bases = orient._collect_stabilizer(path, cfg, scale, np.zeros((path.n, 0)))
        if K.shape[1] == 0:
            continue
        checked += 1
        grid = list(bases)
        for every in (1, 4, 16, len(grid)):
            coarse = {t: bases[t] for t in grid[::every] + grid[-1:]}
            want = polar_transport(path, K, coarse, cfg)
            before = calls[0]
            got = orient._transport_frame(path, K, coarse, cfg)
            substeps += calls[0] - before
            assert np.sign(got[0] * got[1]) == np.sign(want[0] * want[1])
            assert np.allclose(np.abs(got), np.abs(want), rtol=1e-8)
    assert substeps > 0
