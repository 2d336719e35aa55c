"""Tests for orientation transport along symmetric-matrix paths.

The two computation routes (kernel-bundle trivialization with a constant
stabilizer, and parity of the spectral flow) are mutual oracles: they
must agree on every path with invertible endpoints.
"""

import re

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
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        for extra in (1, 2, 3):
            start, _ = np.linalg.qr(rng.standard_normal((path.n, extra)))
            got, _ = orient._transport_det(path, start)
            assert got == base


def test_initial_frame_randomization_invariance():
    # a random rotation of the first kernel basis leaves the sign alone
    rng = np.random.default_rng(62)
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 5)
        base = orient.orientation_transport_det(path)
        K, bases = orient._collect_stabilizer(path, path.top, np.zeros((path.n, 0)))
        v = K.shape[1]
        if v:
            q, _ = np.linalg.qr(rng.standard_normal((v, v)))
            first = next(iter(bases))
            bases[first] = bases[first] @ q
        det_a, det_b = orient._transport_frame(path, K, bases, path.top)
        assert (1 if det_a * det_b > 0 else -1) == base


def test_full_space_stabilizer_matches():
    rng = np.random.default_rng(63)
    for _ in range(10):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        full, _ = orient._transport_det(path, np.eye(path.n))
        assert full == base


@pytest.mark.parametrize("c", [1e7, 1e9])
def test_large_paths_transport_with_the_flow_sign(c):
    # the stabilizer directions are sized by scale = 4c, so [T, scale V]
    # clears the trigger 1e-6 * scale where an eigenvalue of T crosses 0;
    # with unit directions [T I] had margin 1 there, below the trigger,
    # and even the full space failed.  Two eigenvalues cross: sf = 2.
    path = sf.HermitianPath.affine(c * np.diag([-1.0, -0.5, 2.0]), 2.0 * c * np.eye(3), 0.0, 1.0)
    rep = orient.transport_report(path)
    assert (rep.sf, rep.eps_det, rep.eps_sf) == (2, 1, 1)
    full, _ = orient._transport_det(path, np.eye(3))
    assert full == 1


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-4, 1e-2, 1.0, 1e9])
def test_the_determinant_route_does_not_depend_on_the_path_scale(s):
    # scale = path.top with no floor at 1: the endpoint floor, the trigger
    # and the stabilizer K = scale V all shrink with the path.  A floor at
    # 1 would put the endpoints of s = 1e-9 below an absolute floor 1e-8,
    # and at s = 1e-6 and 1e-4 K = V would swamp T, leaving a stabilizer
    # block below 1e-12.  Two eigenvalues cross 0.
    path = sf.HermitianPath.affine(s * np.diag([-1.0, -0.5, 2.0]), 2.0 * s * np.eye(3), 0.0, 1.0)
    assert orient.orientation_transport_det(path) == 1
    assert orient._transport_det(path, np.eye(3)) == (1, 3)
    # a generic 6 x 6 affine path, whose flow is odd at every scale
    a, b = (m + m.T for m in np.random.default_rng(0).standard_normal((2, 6, 6)))
    assert orient.orientation_transport_det(sf.HermitianPath.affine(s * a, s * b, -1.0, 1.0)) == -1


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-9, 1e-6, 1e-4, 1e-2, 1.0, 1e9])
def test_the_flow_route_does_not_depend_on_the_path_scale(s):
    # The kernel floor is KERNEL_REL * path.top, with no floor at 1.  A
    # floor at 1 would put every endpoint eigenvalue of s = 1e-9 below
    # 1e-8, and the shift would fall back to delta_cap / 2, above the
    # whole spectrum: sf 0.  The crossing kernels that seed the
    # determinant route read the same floor; at 1e-8 the kernel at the
    # crossing would be the whole space.  At s = 1e-300 and 1e-200 the
    # crossing window's c g / (8 beta^2) would underflow to 0 / 0.
    path = sf.HermitianPath.affine(s * np.diag([-1.0, -0.5, 2.0]), 2.0 * s * np.eye(3), 0.0, 1.0)
    rep = sf.spectral_flow(path)
    assert rep.sf == 2 and len(rep.crossings) == 2
    assert 0.0 < rep.delta_used < 0.5 * s
    assert orient.transport_report(path) == orient.TransportReport(
        eps_det=1, eps_sf=1, sf=2, stabilizer_dim=2
    )


def test_a_scan_depth_error_names_the_limit_and_the_open_span(monkeypatch):
    # corpus path 303/0 takes more than 2 levels to certify its empty
    # stabilizer: under a limit of 2 the scan stops with the limit, its
    # trigger and the intervals it left open
    path = frozen_paths()[0]
    monkeypatch.setattr(sf, "MAX_DEPTH", 2)
    with pytest.raises(orient.OrientationTransportError, match="depth 2 exceeded") as err:
        orient.orientation_transport_det(path)
    message = str(err.value)
    assert "trigger %.3g" % (1e-6 * path.top) in message
    found = re.search(r"(\d+) intervals open on \[(\S+), (\S+)\]", message)
    assert int(found.group(1)) >= 1 and path.a <= float(found.group(2)) < float(found.group(3)) <= path.b


def test_a_zero_path_has_singular_endpoints():
    # its endpoint floor is 0, and its least |eigenvalue| is not above it
    path = sf.HermitianPath.affine(np.zeros((3, 3)), np.zeros((3, 3)), 0.0, 1.0)
    with pytest.raises(ValueError, match="singular"):
        orient.orientation_transport_det(path)


def test_full_rank_stabilizer_that_fails_raises(monkeypatch):
    # a scan that never certifies: its directions stop adding rank, the
    # loop takes the full space, and a full-rank stabilizer that fails
    # raises the typed error, from the full space and on the default
    # route alike
    def failing(path, K, scale):
        return False, np.eye(path.n)[:, :1], None

    monkeypatch.setattr(orient, "_scan_stabilizer", failing)
    path = sf.HermitianPath.affine(np.diag([-1.0, -0.5, 2.0]), 2.0 * np.eye(3), 0.0, 1.0)
    with pytest.raises(orient.OrientationTransportError):
        orient._transport_det(path, np.eye(3))
    with pytest.raises(orient.OrientationTransportError):
        orient.orientation_transport_det(path)


def count_scans(monkeypatch):
    """A one-element list that counts ``_scan_stabilizer`` calls."""
    scans = [0]
    scan = orient._scan_stabilizer

    def counted(*args):
        scans[0] += 1
        return scan(*args)

    monkeypatch.setattr(orient, "_scan_stabilizer", counted)
    return scans


def test_default_route_scans_once_per_stabilizer_direction(monkeypatch):
    # on the first 40 paths of the 1000-path acceptance stream the
    # unseeded route adds one direction per failed scan, and the last
    # scan certifies
    scans = count_scans(monkeypatch)
    rng = np.random.default_rng(303)
    for i in range(40):
        before = scans[0]
        _, vdim = orient._transport_det(cli._random_symmetric_path(rng, 4 + i % 7))
        assert scans[0] - before == vdim + 1


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


def test_a_path_and_its_reversal_transport_trivially():
    # a random path (rng 65 after twenty paths of sizes 3 and 4) against
    # its reversal: the total transport is trivial
    rng = np.random.default_rng(65)
    for n in (3, 4) * 10:
        random_invertible_endpoint_path(rng, n)
    p = random_invertible_endpoint_path(rng, 4)
    back = sf.HermitianPath.from_callable(
        lambda t: p.evaluate(p.t_samples[0] + p.t_samples[-1] - t),
        p.t_samples[0],
        p.t_samples[-1],
    )
    assert orient.orientation_transport_sf(p) * orient.orientation_transport_sf(
        back
    ) == 1


def test_axioms_direct_sum_of_callables_solves_each_part_alone(monkeypatch):
    # two callables without a curvature bound are their interpolants, so
    # their direct sum is an interpolated path of two blocks, and no
    # matrix larger than one part is diagonalized
    rng = np.random.default_rng(67)
    p1 = random_invertible_endpoint_path(rng, 4, "callable")
    p2 = random_invertible_endpoint_path(rng, 5, "callable")
    sizes = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)

        def watched(a, *args, _solve=solve, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)
    total = sf.sf_direct_sum(p1, p2)
    assert total == sf.spectral_flow(p1).sf + sf.spectral_flow(p2).sf
    assert max(sizes) == 5


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


def frozen_paths():
    paths = []
    for seed in (303, 505):
        rng = np.random.default_rng(seed)
        paths += [cli._random_symmetric_path(rng, 4 + i % 7) for i in range(20)]
    return paths


def test_frozen_crossing_corpus():
    cfg = sf.SpectralFlowConfig()
    for path, (flow, delta, eps_det, eps_sf, vdim, records) in zip(frozen_paths(), FROZEN_CORPUS):
        rep = orient.transport_report(path, cfg)
        assert (rep.sf, rep.eps_det, rep.eps_sf) == (flow, eps_det, eps_sf)
        # the frozen rank is the unseeded route's
        assert orient._transport_det(path) == (eps_det, vdim)
        got = sf.spectral_flow(path, cfg)
        assert got.sf == flow
        assert got.delta_used == pytest.approx(delta, rel=1e-12)
        assert len(got.crossings) == len(records)
        for rec, (t, k, sig, det) in zip(got.crossings, records):
            assert abs(rec.t - t) <= cfg.bisection_tol
            assert (rec.kernel_dim, rec.crossing_signature, rec.crossing_det_sign) == (k, sig, det)


def test_seeded_route_scans_once_on_every_path_with_a_crossing(monkeypatch):
    # transport_report seeds the stabilizer with the kernels at the flow
    # route's crossings, and on the frozen corpus that seed certifies at
    # the first scan; a path with no record is unseeded and keeps the
    # default route's count, one scan per frozen direction plus one
    scans = count_scans(monkeypatch)
    cfg = sf.SpectralFlowConfig()
    for path, (flow, _, eps_det, eps_sf, vdim, records) in zip(frozen_paths(), FROZEN_CORPUS):
        before = scans[0]
        rep = orient.transport_report(path, cfg)
        assert (rep.sf, rep.eps_det, rep.eps_sf) == (flow, eps_det, eps_sf)
        assert scans[0] - before == (1 if records else vdim + 1)
        # every frozen crossing has a one-dimensional kernel, and the
        # kernels span as many directions as there are crossings
        assert rep.stabilizer_dim == (min(len(records), path.n) if records else vdim)


def test_paths_that_cross_delta_but_never_zero_transport_with_the_seed(monkeypatch):
    # frozen entries whose unseeded stabilizer is empty but whose flow
    # route records crossings of the line at delta: the seed holds the
    # kernels there, and the sign stays the unseeded route's
    scans = count_scans(monkeypatch)
    cfg = sf.SpectralFlowConfig()
    paths = frozen_paths()
    picked = [i for i, entry in enumerate(FROZEN_CORPUS) if entry[4] == 0 and entry[5]]
    assert picked == [18, 20, 38]
    for i in picked:
        flow, _, eps_det, eps_sf, _, records = FROZEN_CORPUS[i]
        before = scans[0]
        rep = orient.transport_report(paths[i], cfg)
        assert scans[0] - before == 1
        assert (rep.sf, rep.eps_det, rep.eps_sf, rep.stabilizer_dim) == (flow, eps_det, eps_sf, len(records))
        assert orient._transport_det(paths[i]) == (eps_det, 0)


def test_a_seed_that_cannot_help_grows_to_the_flow_sign(monkeypatch):
    # Q^T diag(t - 0.3, t + 0.2, -t - 0.6, 1, 2) Q on [-1, 1]: three
    # eigenvalues cross 0 and delta = 0.2, with kernels Q^T e_1, Q^T e_2
    # and Q^T e_3 at both lines, and sf = 1.  A seed of Q^T e_4 is
    # orthogonal to every crossing kernel, so [T K] fails at each zero:
    # the loop grows it by one direction per failed scan, and the sign is
    # still the flow route's
    q, _ = np.linalg.qr(np.random.default_rng(65).standard_normal((5, 5)))
    const, linear = np.diag([-0.3, 0.2, -0.6, 1.0, 2.0]), np.diag([1.0, 1.0, -1.0, 0.0, 0.0])
    cfg = sf.SpectralFlowConfig()
    for rot in (np.eye(5), q):
        path = sf.HermitianPath.affine(rot.T @ const @ rot, rot.T @ linear @ rot, -1.0, 1.0)
        with monkeypatch.context() as m:
            scans = count_scans(m)
            rep = orient.transport_report(path, cfg)
            assert (scans[0], rep.stabilizer_dim) == (1, 3)
            assert (rep.sf, rep.eps_det, rep.eps_sf) == (1, -1, -1)
            seeds = []
            m.setattr(orient, "_crossing_kernels", lambda *args: seeds.append(args) or rot.T[:, 3:4])
            rep = orient.transport_report(path, cfg)
            assert len(seeds) == 1 and len(seeds[0][1].crossings) == 3
            assert (scans[0], rep.stabilizer_dim) == (1 + 4, 4)
            assert (rep.sf, rep.eps_det, rep.eps_sf) == (1, -1, -1)


# ------------------------------------------------ stabilizer certificate


def smallest_singular_value(path, K, t):
    return np.linalg.svd(np.hstack([path.evaluate(t), K]), compute_uv=False).min()


def test_scan_certifies_a_quarter_of_the_end_margins_on_affine_paths():
    # move < (ml + mr) / 2 and Weyl's inequality for singular values give
    # sigma_min >= (ml + mr - move) / 2 > (ml + mr) / 4 inside every
    # certified interval of an affine path
    rng = np.random.default_rng(67)
    for _ in range(30):
        path = random_invertible_endpoint_path(rng, int(rng.integers(3, 8)))
        K, bases = orient._collect_stabilizer(path, path.top, np.zeros((path.n, 0)))
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
    rng = np.random.default_rng(70)
    paths = []
    while len(paths) < 5:
        a, b = (m + m.T for m in rng.standard_normal((2, 6, 6)))
        path = sf.HermitianPath.affine(a, b, -1.0, 1.0)
        if len(sf.spectral_flow(path).crossings) == 1:
            paths.append(path)
    calls = count_decompositions(monkeypatch)
    for path in paths:
        certified, dirs, _ = orient._scan_stabilizer(path, np.zeros((6, 0)), path.top)
        assert not certified and dirs.shape[1] >= 1
    assert calls["svd"] <= 160
    assert calls["svd"] + calls["eigvalsh"] <= 64


def test_newton_probe_fails_the_scan_at_its_point(monkeypatch):
    # sigma_min = |t - 0.3| on [0, 1], collect 2e-3 and trigger 2e-6 at
    # scale 2: the first probe below collect is 0.30078125, at level 8 of
    # the bisection, and its Newton step lands on 0.3, where the scan
    # fails.  Nine stacked spectra (levels 0 to 8), which the diagonal
    # path reads off its 1 x 1 blocks with no eigvalsh, and two SVDs (the
    # probe and its Newton point); halving down to the trigger would take
    # 19 levels.
    path = sf.HermitianPath.affine(np.diag([-0.3, 2.0]), np.diag([1.0, 0.0]), 0.0, 1.0)
    assert [idx.shape for idx in path.blocks] == [(2, 1)]
    probed, levels, dense = [], [], []
    block_svds, spectra, whole = orient._block_svds, sf._spectra, sf._dense

    def watched(path_, K, times):
        probed.append(np.array(times, dtype=float))
        return block_svds(path_, K, times)

    def counted(path_, times):
        levels.append(len(times))
        return spectra(path_, times)

    def scattered(path_, groups):
        dense.append(groups[0].shape[0])
        return whole(path_, groups)

    monkeypatch.setattr(orient, "_block_svds", watched)
    monkeypatch.setattr(sf, "_spectra", counted)
    monkeypatch.setattr(sf, "_dense", scattered)
    calls = count_decompositions(monkeypatch)
    certified, dirs, _ = orient._scan_stabilizer(path, np.zeros((2, 0)), 2.0)
    assert not certified
    assert np.allclose(np.abs(dirs[:, 0]), [1.0, 0.0])
    # only the two SVD probes evaluate the whole matrix, one time each
    assert len(probed) == 2 and dense == [1, 1]
    assert probed[-2].tolist() == [0.30078125]
    assert probed[-1].size == 1 and abs(probed[-1][0] - 0.3) < 1e-12
    assert calls == {"svd": 2, "eigvalsh": 0}
    # the two samples, the middle, then the two intervals beside 0.3 that
    # the chord bound cannot certify at each level
    assert levels == [2, 1] + [2] * 7


# ------------------------------------------------ frame transport oracle


def polar_transport(path, K, bases):
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
        assert depth < sf.MAX_DEPTH
        mid = 0.5 * (t_cur + t_next)
        return advance(advance(frame, mid, t_cur, depth + 1), t_next, mid, depth + 1, basis)

    grid = list(bases)
    frame = bases[grid[0]]
    det_a = np.linalg.det(frame[n:])
    for cur, nxt in zip(grid, grid[1:]):
        frame = advance(frame, nxt, cur, 0, bases[nxt])
    return det_a, np.linalg.det(frame[n:])


def test_overlap_signs_give_the_polar_transport():
    # the product of sgn det O_k gives the end determinant of the frame
    # carried by polar steps, on the scan's own probes, with the
    # unseeded stabilizer and with the full space
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 12:
        path = random_invertible_endpoint_path(rng, int(rng.integers(3, 8)), ["affine", "smooth"][checked % 2])
        unseeded = orient._collect_stabilizer(path, path.top, np.zeros((path.n, 0)))
        if unseeded[0].shape[1] == 0:
            continue
        checked += 1
        for K, bases in (unseeded, orient._collect_stabilizer(path, path.top, np.eye(path.n))):
            want = polar_transport(path, K, bases)
            got = orient._transport_frame(path, K, bases, path.top)
            assert np.sign(got[0] * got[1]) == np.sign(want[0] * want[1])
            assert np.allclose(np.abs(got), np.abs(want), rtol=1e-8)


def test_an_overlap_singular_to_rounding_raises():
    # neighbouring kernel bases that are orthogonal give O_k = 0, below
    # the rounding allowance: the sign is undecided, and the transport
    # raises the typed error
    path = sf.HermitianPath.affine(np.diag([-0.3, 2.0]), np.diag([1.0, 0.0]), 0.0, 1.0)
    K = path.top * np.eye(2)[:, :1]
    bases = {0.0: np.eye(3)[:, :1], 1.0: np.eye(3)[:, 1:2]}
    with pytest.raises(orient.OrientationTransportError, match="rounding"):
        orient._transport_frame(path, K, bases, path.top)


def kernel_projector(path, K, t):
    """(projection onto ker [T_t K], sigma_min [T_t K])."""
    _, s, vt = np.linalg.svd(np.hstack([path.evaluate(t), K]))
    basis = vt[path.n :].T
    return basis @ basis.T, s[-1]


def test_kernels_stay_acute_inside_every_certified_interval():
    # at interior times t of each certified interval [l, r] the projector
    # bound sin Theta(N(t), N(l)) <= ||T(t) - T(l)||_2 / max(ml, sigma(t))
    # holds, and the scan's rule keeps it below 1 (module docstring)
    rng = np.random.default_rng(73)
    checked = worst = 0
    while checked < 8:
        path = random_invertible_endpoint_path(rng, int(rng.integers(3, 8)), ["affine", "smooth"][checked % 2])
        K, bases = orient._collect_stabilizer(path, path.top, np.zeros((path.n, 0)))
        if K.shape[1] == 0:
            continue
        checked += 1
        grid = list(bases)
        for l, r in zip(grid, grid[1:]):
            at_l, ml = kernel_projector(path, K, l)
            for t in np.linspace(l, r, 7)[1:-1]:
                at_t, sigma = kernel_projector(path, K, t)
                sin = np.linalg.norm(at_t - at_l, 2)
                bound = np.linalg.norm(path.evaluate(t) - path.evaluate(l), 2) / max(ml, sigma)
                assert sin <= bound + 1e-9
                assert bound < 1
                worst = max(worst, bound)
    # the bound is not empty: some interior kernel turns a fair way
    assert worst > 0.5
