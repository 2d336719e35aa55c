"""Tests for orientation transport along symmetric-matrix paths.

The two computation routes (kernel-bundle trivialization with a constant
stabilizer, and parity of the spectral flow) are mutual oracles: they
must agree on every path with invertible endpoints.
"""

import numpy as np
import pytest

from swflow import orient
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
    rng = np.random.default_rng(61)
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        for extra in (1, 2, 3):
            got = orient.orientation_transport_det(
                path, extra_directions=extra, rng=rng
            )
            assert got == base


def test_initial_frame_randomization_invariance():
    rng = np.random.default_rng(62)
    for _ in range(15):
        path = random_invertible_endpoint_path(rng, 5)
        base = orient.orientation_transport_det(path)
        got = orient.orientation_transport_det(path, rng=rng)
        assert got == base


def test_full_space_stabilizer_matches():
    rng = np.random.default_rng(63)
    for _ in range(10):
        path = random_invertible_endpoint_path(rng, 4)
        base = orient.orientation_transport_det(path)
        full = orient.orientation_transport_det(path, full_stabilizer=True)
        assert full == base


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
