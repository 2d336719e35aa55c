"""Acceptance battery: one test per shipped guarantee.

Each test is a single pass/fail gate; trial counts, tolerances and
wall-clock budgets are pinned in the body.  Run with -v to get one
line per guarantee.
"""

import time

import numpy as np

from swflow import cli
from swflow import clifford3 as cl
from swflow import detsign as ds
from swflow import orient
from swflow import specflow as sf
from swflow import swlocal as sl
from swflow import torus_model as tm


def random_rank_matrix(rng, m, n, rank):
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros((m, n))
    s[np.arange(rank), np.arange(rank)] = 0.5 + rng.random(rank)
    return u @ s @ v.T


def test_01_quadratic_map_identities_hold_in_bulk():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    psi = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    phi = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    psi *= (rng.uniform(0.5, 1.5, n) / np.linalg.norm(psi, axis=1))[:, None]
    phi *= (rng.uniform(0.5, 1.5, n) / np.linalg.norm(phi, axis=1))[:, None]
    a = rng.standard_normal((n, 3))

    # pairing of a covector against the bilinear map equals the real part
    # of the Clifford pairing
    qb = cl.quadratic_bilinear(psi, phi)
    lhs = np.einsum("nj,nj->n", a, qb)
    capsi = np.einsum("nj,jab,nb->na", a, cl.PAULI, psi)
    rhs = 0.5 * np.real(cl.herm(capsi, phi))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12

    # the quadratic covector has half the squared spinor norm
    q = cl.quadratic_covector(psi)
    norms = np.real(cl.herm(psi, psi))
    assert np.max(np.abs(np.linalg.norm(q, axis=1) - 0.5 * norms)) <= 1e-12

    # squared-norm identity for the polarized map
    lhs2 = np.einsum("nj,nj->n", qb, qb)
    rhs2 = 0.25 * (
        norms * np.real(cl.herm(phi, phi)) - np.real(cl.herm(1j * psi, phi)) ** 2
    )
    assert np.max(np.abs(lhs2 - rhs2)) <= 1e-12

    # kernel of the polarized map is exactly the imaginary line through psi
    ts = rng.uniform(-2.0, 2.0, n)
    on_line = cl.quadratic_bilinear(psi, 1j * ts[:, None] * psi)
    assert np.max(np.abs(on_line)) <= 1e-12
    basis = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]], dtype=complex)
    unit = psi / np.linalg.norm(psi, axis=1)[:, None]
    table = cl.quadratic_bilinear(unit[None, :, :], basis[:, None, :])
    mats = np.transpose(table, (1, 2, 0))
    svals = np.linalg.svd(mats, compute_uv=False)
    assert np.min(svals[:, 2]) > 1e-3
    assert np.max(svals[:, :2]) < np.inf

    # endomorphism form of the quadratic map
    for i in range(n):
        diff = cl.quadratic_endomorphism(psi[i]) - cl.clifford_im_matrix(q[i])
        assert np.max(np.abs(diff)) <= 1e-12
    fixed = cl.quadratic_endomorphism(np.array([1.0, 0.0], dtype=complex))
    assert np.array_equal(fixed, np.diag([0.5, -0.5]))

    assert time.perf_counter() - started < 5.0


def test_02_determinant_sign_functoriality_and_choice_independence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    done = 0
    while done < 500:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(0, min(m, n) + 1))
        T = ds.LinearMapData(random_rank_matrix(rng, m, n, rank))
        K1 = rng.standard_normal((m, int(rng.integers(0, 4))))
        K2 = rng.standard_normal((m, int(rng.integers(0, 4))))
        if not ds.is_stabilizer(T, K1):
            continue
        ok, diag = ds.stabilizer_composition_check(T, K1, K2, tol=1e-10, rng=rng)
        assert ok, diag
        assert np.sign(diag["route_split"]) == np.sign(diag["route_joint"])
        done += 1

    done = 0
    while done < 200:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(0, min(m, n) + 1))
        T = ds.LinearMapData(random_rank_matrix(rng, m, n, rank))
        K = np.hstack(
            [T.cokernel_basis, rng.standard_normal((m, int(rng.integers(0, 3))))]
        )
        c1 = ds.stabilized_det_transfer(T, K, 1.0, rng=np.random.default_rng(done)).coeff
        c2 = ds.stabilized_det_transfer(
            T, K, 1.0, rng=np.random.default_rng(10_000 + done)
        ).coeff
        assert abs(c1 - c2) <= 1e-10 * max(1.0, abs(c1))
        done += 1
    assert time.perf_counter() - started < 30.0


def test_03_transport_equals_flow_parity_on_a_thousand_paths():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    agree = 0
    for i in range(1000):
        dim = 4 + (i % 7)
        rep = orient.transport_report(cli._random_symmetric_path(rng, dim))
        agree += rep.eps_det == rep.eps_sf
    assert agree == 1000
    assert time.perf_counter() - started < 120.0


def test_04_rising_kernel_transport_is_kernel_parity():
    for n in range(5):
        t0 = np.diag([0.0] * n + [1.0] * 2)
        path = sf.HermitianPath.affine(t0, np.eye(n + 2), 0.0, 0.5)
        assert orient.orientation_transport_sf(path) == (-1) ** n


def test_05_spectral_flow_axioms():
    rng = np.random.default_rng(505)

    for _ in range(20):
        c = rng.standard_normal((4, 4))
        path = sf.HermitianPath.affine(c + c.T, np.zeros((4, 4)), 0.0, 1.0)
        assert sf.spectral_flow(path).sf == 0
    singular = sf.HermitianPath.affine(np.diag([0.0, 1.0]), np.zeros((2, 2)), 0.0, 1.0)
    assert sf.spectral_flow(singular).sf == 0

    for _ in range(200):
        n = int(rng.integers(2, 5))
        a1, b1 = rng.standard_normal((2, n, n))
        a2, b2 = rng.standard_normal((2, n, n))
        p1 = sf.HermitianPath.affine(a1 + a1.T, b1 + b1.T, 0.0, 1.0)
        p2 = sf.HermitianPath.affine(a2 + a2.T, b2 + b2.T, 0.0, 1.0)
        assert sf.sf_direct_sum(p1, p2) == sf.spectral_flow(p1).sf + sf.spectral_flow(p2).sf
        p3 = sf.HermitianPath.affine(a1 + a1.T + b1 + b1.T, b2 + b2.T, 0.0, 1.0)
        assert sf.sf_concat(p1, p3) == sf.spectral_flow(p1).sf + sf.spectral_flow(p3).sf

    for _ in range(100):
        n = int(rng.integers(3, 5))
        a, b, c = rng.standard_normal((3, n, n))
        a, b, c = a + a.T, b + b.T, c + c.T
        base = sf.HermitianPath.affine(a, b, 0.0, 1.0)
        e0 = np.abs(np.linalg.eigvalsh(base.values[0])).min()
        e1 = np.abs(np.linalg.eigvalsh(base.values[-1])).min()
        if min(e0, e1) < 1e-3:
            continue
        flows = set()
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            def warped(t, s=s):
                return a + t * b + s * np.sin(np.pi * t) * c

            flows.add(
                sf.spectral_flow(
                    sf.HermitianPath.from_callable(warped, 0.0, 1.0, num_samples=25)
                ).sf
            )
        assert len(flows) == 1

    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        path = sf.HermitianPath.affine(a + a.conj().T, b + b.conj().T, 0.0, 1.0)
        assert sf.spectral_flow(path).sf % 2 == 0


def test_06_torus_dirac_spectrum_and_gauge_period():
    rng = np.random.default_rng(606)
    for cutoff in (1, 2, 3):
        trunc = tm.TorusTruncation(cutoff)
        for _ in range(4):
            alpha = rng.uniform(-1.0, 1.0, size=3)
            want = []
            for k in trunc.modes:
                r = float(np.linalg.norm(k + alpha / 2.0))
                want.extend([-r, r])
            got = np.linalg.eigvalsh(tm.fourier_dirac(trunc, tm.FlatConnection(alpha)))
            assert np.max(np.abs(np.sort(np.asarray(want)) - got)) <= 1e-10

    trunc = tm.TorusTruncation(2)
    alpha = rng.uniform(-1.0, 1.0, size=3)
    path = tm.dirac_family_path(trunc, alpha, alpha + np.array([2.0, 0.0, 0.0]))
    cfg = sf.SpectralFlowConfig(endpoint_count_only=True)
    assert sf.spectral_flow(path, cfg).sf == 0


def test_07_wall_crossing_flow_equals_minus_flux():
    started = time.perf_counter()
    for d in range(-3, 4):
        flows = {
            depth: sf.spectral_flow(tm.magnetic_family_path(d, depth)).sf
            for depth in (2, 4, 8)
        }
        assert set(flows.values()) == {-d}, (d, flows)
    assert time.perf_counter() - started < 10.0


def test_08_monopole_identity_battery():
    trunc = tm.TorusTruncation(2)
    rng = np.random.default_rng(808)

    def random_tangent():
        mask = np.max(np.abs(trunc.modes), axis=1) <= 1
        count = int(mask.sum())
        phi = np.zeros((trunc.mode_count, 2), dtype=complex)
        phi[mask] = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
        a = np.zeros((trunc.mode_count, 3))
        a[mask] = rng.standard_normal((count, 3))
        return sl.TangentVector(
            phi / np.linalg.norm(phi), a / np.linalg.norm(a)
        )

    for _ in range(50):
        c = sl.random_configuration(trunc, rng)
        tv = random_tangent()
        pairing = sl.tangent_inner(sl.sw_map(c), tv)
        step = 1e-4
        plus = sl.chern_simons_dirac(
            sl.Configuration(trunc, c.psi + step * tv.phi, c.alpha, c.a_field + step * tv.a)
        )
        minus = sl.chern_simons_dirac(
            sl.Configuration(trunc, c.psi - step * tv.phi, c.alpha, c.a_field - step * tv.a)
        )
        err = abs((plus - minus) / (2 * step) - pairing) / max(1.0, abs(pairing))
        assert err <= 1e-6

    for _ in range(3):
        c = sl.random_configuration(trunc, rng)
        h = sl.sw_hessian(c)
        assert np.max(np.abs(h - h.T)) <= 1e-12
        for _ in range(2):
            tv = random_tangent()
            vec = sl.tangent_to_vector(tv)
            step = 1e-3
            fd = (
                sl.tangent_to_vector(
                    sl.sw_map(
                        sl.Configuration(
                            trunc, c.psi + step * tv.phi, c.alpha, c.a_field + step * tv.a
                        )
                    )
                )
                - sl.tangent_to_vector(
                    sl.sw_map(
                        sl.Configuration(
                            trunc, c.psi - step * tv.phi, c.alpha, c.a_field - step * tv.a
                        )
                    )
                )
            ) / (2 * step)
            assert np.max(np.abs(fd - h @ vec)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    mask = np.max(np.abs(trunc.modes), axis=1) <= 1
    for _ in range(50):
        c = sl.random_configuration(trunc, rng)
        tv = random_tangent()
        f = np.zeros(trunc.mode_count)
        f[mask] = rng.standard_normal(int(mask.sum()))
        lhs = sl.tangent_inner(sl.gauge_deriv(c, f), tv)
        rhs = float(f @ sl.gauge_deriv_adjoint(c, tv))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    for _ in range(50):
        c = sl.random_configuration(trunc, rng)
        assert sl.dastq_residual(c) <= 1e-8

    for _ in range(10):
        conn = tm.FlatConnection(rng.uniform(-1.0, 1.0, size=3))
        mode = rng.integers(-2, 3, size=3)
        coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert tm.weitzenbock_check(trunc, conn, mode, coeff) <= 1e-10

    for alpha, want in ((rng.uniform(0.2, 0.8, size=3), 4), (np.zeros(3), 8)):
        c = sl.Configuration(trunc, np.zeros((trunc.mode_count, 2)), alpha)
        eigs = np.linalg.eigvalsh(sl.extended_hessian(c))
        assert int(np.sum(np.abs(eigs) <= 1e-8 * np.max(np.abs(eigs)))) == want


def test_09_crossing_matrices_spectrum_and_determinant():
    trunc = tm.TorusTruncation(1)
    rng = np.random.default_rng(909)
    for _ in range(20):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 = np.zeros((trunc.mode_count, 2), dtype=complex)
        psi0[trunc.index((0, 0, 0))] = vec / np.linalg.norm(vec)
        b0 = sl.crossing_matrix_b0(trunc, psi0)
        assert np.array_equal(np.linalg.eigvalsh(b0), np.array([-1.0, 0.0, 1.0]))

        w = rng.standard_normal(3)
        kap = sl.crossing_coefficient(trunc, psi0, w)
        if abs(kap) < 1e-6:
            continue
        b1 = sl.crossing_matrix_b1(trunc, psi0, w)
        want = (kap / np.linalg.norm(w)) ** 2
        assert abs(np.linalg.det(b1) - want) <= 1e-12


def test_10_sign_invariances_and_relative_count():
    trunc = tm.TorusTruncation(1)
    rng = np.random.default_rng(1010)
    m = trunc.mode_count
    for _ in range(50):
        c = sl.random_configuration(trunc, rng)
        eps = sl.configuration_sign(c)
        assert eps in (-1, 1)
        base = sl.Configuration(
            trunc,
            np.zeros((m, 2)),
            rng.uniform(-1.0, 1.0, size=3),
            sl.random_configuration(trunc, rng).a_field,
        )
        assert sl.configuration_sign(c, base=base) == eps
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rotated = sl.Configuration(trunc, np.exp(1j * theta) * c.psi, c.alpha, c.a_field)
        assert sl.configuration_sign(rotated) == eps

    for size in (1, 2, 3, 4, 5):
        configs = [sl.random_configuration(trunc, rng) for _ in range(size)]
        total = sl.signed_count(configs)
        assert total == sum(sl.configuration_sign(c) for c in configs)


def test_11_cli_reports_are_deterministic_with_faithful_exit_codes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["otsf", "--seed", "5", "--trials", "6", "--dim", "4"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert cli.main(["wallcross", "--out", str(tmp_path / "w.json")]) == 0

    cfgfile = tmp_path / "force.cfg"
    cfgfile.write_text("tol_spectrum = -1.0\n")
    code = cli.main(
        ["torus", "--trials", "2", "--config", str(cfgfile), "--out", str(tmp_path / "f.json")]
    )
    assert code == 1

    assert cli.main(["otsf", "--trials", "0", "--out", str(tmp_path / "x.json")]) == 2
