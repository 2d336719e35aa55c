"""Tests for Fourier-truncated flat-torus operators.

Oracles: the per-mode closed-form spectrum of the flat Dirac blocks, the
exact mode-relabeling identity for holonomy shifts by one period, exact
algebraic identities of the de Rham operators, analytic crossing counts
of the magnetic tower family, and independent assembly of both sides of
the curvature identity for the squared Dirac operator.
"""

import time

import numpy as np
import pytest

from swflow import clifford3 as cl
from swflow import specflow as sfmod
from swflow import torus_model as tm


# ------------------------------------------------------------ truncation


def test_mode_ordering_lexicographic():
    tr = tm.TorusTruncation(1)
    assert tr.mode_count == 27
    assert tuple(tr.modes[0]) == (-1, -1, -1)
    assert tuple(tr.modes[-1]) == (1, 1, 1)
    assert np.all(tr.modes[tr.index((0, 1, -1))] == (0, 1, -1))
    assert tr.index((2, 0, 0)) is None
    assert sorted(map(tuple, tr.modes)) == [tuple(k) for k in tr.modes]


def test_truncation_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        tm.TorusTruncation(0)


# ------------------------------------------------------------- dirac op


def analytic_dirac_spectrum(tr, alpha):
    out = []
    for k in tr.modes:
        m = np.linalg.norm(k + np.asarray(alpha) / 2.0)
        out.extend([-m, m])
    return np.sort(out)


def test_dirac_spectrum_matches_closed_form():
    rng = np.random.default_rng(70)
    for n in (1, 2):
        tr = tm.TorusTruncation(n)
        alphas = [np.zeros(3), np.array([1.0, 0.0, 0.0])] + [
            rng.uniform(-2, 2, size=3) for _ in range(3)
        ]
        for alpha in alphas:
            op = tm.fourier_dirac(tr, tm.FlatConnection(alpha))
            got = np.sort(np.linalg.eigvalsh(op))
            want = analytic_dirac_spectrum(tr, alpha)
            assert np.max(np.abs(got - want)) < 1e-10


def test_fourier_dirac_is_the_block_diagonal_of_its_mode_blocks():
    # block p of the operator is the mode block sigma . (k_p + alpha/2),
    # and every entry off the 2 x 2 diagonal blocks is zero
    tr = tm.TorusTruncation(2)
    conn = tm.FlatConnection(np.random.default_rng(72).uniform(-1, 1, size=3))
    blocks = tm.fourier_dirac_blocks(tr, conn)
    m = tr.mode_count
    assert blocks.shape == (m, 2, 2)
    op = tm.fourier_dirac(tr, conn).reshape(m, 2, m, 2)
    p = np.arange(m)
    assert np.array_equal(op[p, :, p, :], blocks)
    op[p, :, p, :] = 0.0
    assert not np.any(op)
    k = tr.modes[5] + conn.alpha / 2.0
    assert np.max(np.abs(blocks[5] - np.einsum("j,jab->ab", k, cl.PAULI))) <= 1e-15


def test_dirac_kernel_at_trivial_holonomy():
    tr = tm.TorusTruncation(1)
    op = tm.fourier_dirac(tr, tm.FlatConnection(np.zeros(3)))
    eigs = np.linalg.eigvalsh(op)
    assert int(np.sum(np.abs(eigs) < 1e-12)) == 2


def test_dirac_half_holonomy_mode_zero():
    tr = tm.TorusTruncation(1)
    op = tm.fourier_dirac(tr, tm.FlatConnection([1.0, 0.0, 0.0]))
    i0 = tr.index((0, 0, 0))
    block = op[2 * i0 : 2 * i0 + 2, 2 * i0 : 2 * i0 + 2]
    assert np.allclose(np.linalg.eigvalsh(block), [-0.5, 0.5], atol=1e-14)


def test_connection_difference_is_constant_clifford_block():
    rng = np.random.default_rng(71)
    tr = tm.TorusTruncation(1)
    alpha = rng.uniform(-1, 1, 3)
    beta = rng.uniform(-1, 1, 3)
    d1 = tm.fourier_dirac(tr, tm.FlatConnection(alpha + beta))
    d0 = tm.fourier_dirac(tr, tm.FlatConnection(alpha))
    block = 0.5 * cl.clifford_im_matrix(beta)
    want = np.kron(np.eye(tr.mode_count), block)
    assert np.max(np.abs((d1 - d0) - want)) < 1e-14


def test_gauge_period_relabels_blocks():
    tr = tm.TorusTruncation(2)
    alpha = np.array([0.3, -0.7, 0.1])
    a = tm.fourier_dirac(tr, tm.FlatConnection(alpha))
    b = tm.fourier_dirac(tr, tm.FlatConnection(alpha + np.array([2.0, 0, 0])))
    for i, k in enumerate(tr.modes):
        j = tr.index((k[0] + 1, k[1], k[2]))
        if j is None:
            continue
        blk_shifted = b[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        blk_moved = a[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
        assert np.max(np.abs(blk_shifted - blk_moved)) < 1e-14


# ------------------------------------------------------- de Rham package


def test_de_rham_identities():
    tr = tm.TorusTruncation(2)
    d0 = tm.exterior_d(tr, 0)
    d1 = tm.exterior_d(tr, 1)
    assert np.max(np.abs(d1 @ d0)) == 0.0
    s0 = tm.hodge(tr, 0)
    s1 = tm.hodge(tr, 1)
    s2 = tm.hodge(tr, 2)
    s3 = tm.hodge(tr, 3)
    assert np.max(np.abs(s3 @ s0 - np.eye(s0.shape[1]))) == 0.0
    assert np.max(np.abs(s2 @ s1 - np.eye(s1.shape[1]))) == 0.0


def test_codifferential_is_adjoint_and_star_conjugate():
    tr = tm.TorusTruncation(2)
    d0 = tm.exterior_d(tr, 0)
    d1 = tm.exterior_d(tr, 1)
    c1 = tm.codifferential(tr, 1)
    c2 = tm.codifferential(tr, 2)
    assert np.max(np.abs(c1 - d0.conj().T)) < 1e-12
    assert np.max(np.abs(c2 - d1.conj().T)) < 1e-12
    # on 1-forms the codifferential equals -*d* with the degree-2 wedge
    star_route = -tm.hodge(tr, 3) @ tm.exterior_d(tr, 2) @ tm.hodge(tr, 1)
    assert np.max(np.abs(c1 - star_route)) < 1e-12


def test_harmonic_spaces_are_constants():
    tr = tm.TorusTruncation(1)
    d0 = tm.exterior_d(tr, 0)
    # functions: kernel of d is the constants
    ns = np.linalg.svd(d0, compute_uv=False)
    assert int(np.sum(ns < 1e-12)) == 1
    # 1-forms: kernel of d (+) d* is the 3 constant forms
    d1 = tm.exterior_d(tr, 1)
    c1 = tm.codifferential(tr, 1)
    stack = np.vstack([d1, c1])
    sv = np.linalg.svd(stack, compute_uv=False)
    assert int(np.sum(sv < 1e-12)) == 3
    # d of the constant function vanishes
    f = np.zeros(tr.mode_count, dtype=complex)
    f[tr.index((0, 0, 0))] = 1.0
    assert np.max(np.abs(d0 @ f)) == 0.0


# ------------------------------------------------------- dirac families


def test_half_period_family_flow():
    tr = tm.TorusTruncation(1)
    path = tm.dirac_family_path(tr, np.zeros(3), np.array([1.0, 0, 0]))
    assert path.realified
    rep = sfmod.spectral_flow(path)
    # the four realified zero modes at the start all rise
    assert rep.sf == 4 - 2  # two complex branches +t/2 rise, two -t/2 fall
    # kernel occurs only at the start
    for t in np.linspace(0.05, 1.0, 8):
        eigs = np.linalg.eigvalsh(path.evaluate(t))
        assert np.abs(eigs).min() > 1e-3


def test_gauge_period_flow_vanishes():
    tr = tm.TorusTruncation(1)
    path = tm.dirac_family_path(tr, np.zeros(3), np.array([2.0, 0, 0]))
    assert sfmod.spectral_flow(path).sf == 0
    tr2 = tm.TorusTruncation(2)
    path2 = tm.dirac_family_path(tr2, np.zeros(3), np.array([2.0, 0, 0]))
    cfg = sfmod.SpectralFlowConfig(endpoint_count_only=True)
    assert sfmod.spectral_flow(path2, cfg).sf == 0


def test_constant_family_flow_vanishes():
    tr = tm.TorusTruncation(1)
    alpha = np.array([0.7, 0.2, -0.4])
    path = tm.dirac_family_path(tr, alpha, alpha)
    assert sfmod.spectral_flow(path).sf == 0


def dirac_crossings(trunc, alpha0, alpha1, delta):
    """Closed-form crossing records (t, kernel_dim, signature) of
    dirac_family_path(trunc, alpha0, alpha1) at shift delta, by t.

    The family is affine in t (``HermitianPath.affine``).  Mode k
    has the eigenvalues +-|v(t)|, v(t) = k + alpha0/2 + t beta/2 with
    beta = alpha1 - alpha0, each twice once realified.  The branch
    +|v| meets delta at the real roots in [0, 1] of

        |v(t)|^2 - delta^2 = qa t^2 + qb t + qc,

    where d|v|^2/dt = v . beta = +-sqrt(disc): each simple root gives
    kernel dimension 2 and signature 2 sign(v . beta), a double root
    (disc = 0) touches delta without crossing it, and coincident roots
    of several modes add up."""
    beta = alpha1 - alpha0
    c = trunc.modes + alpha0 / 2.0
    qa, qb, qc = beta @ beta / 4.0, c @ beta, np.sum(c * c, axis=1) - delta**2
    disc = qb**2 - 4.0 * qa * qc
    roots = {}
    for i in np.flatnonzero(disc > 0.0):
        for sign in (-1, 1):
            t = (-qb[i] + sign * np.sqrt(disc[i])) / (2.0 * qa)
            if 0.0 <= t <= 1.0:
                dim, sig = roots.get(t, (0, 0))
                roots[t] = (dim + 2, sig + 2 * sign)
    return sorted((t, dim, sig) for t, (dim, sig) in roots.items())


def closed_form_flow(trunc, alpha0, alpha1, cfg=None):
    """The family's flow report, whose records are its closed form's."""
    rep = sfmod.spectral_flow(tm.dirac_family_path(trunc, alpha0, alpha1), cfg)
    assert_closed_form(rep, trunc, alpha0, alpha1)
    return rep


def assert_closed_form(rep, trunc, alpha0, alpha1):
    want = dirac_crossings(trunc, alpha0, alpha1, rep.delta_used)
    got = [(rec.t, rec.kernel_dim, rec.crossing_signature) for rec in rep.crossings]
    assert len(got) == len(want)
    for (t, dim, sig), (t0, dim0, sig0) in zip(got, want):
        assert abs(t - t0) <= 1e-9
        assert (dim, sig) == (dim0, sig0)
    assert rep.sf == sum(sig for _, _, sig in want)


def near_zero_holonomy_path(rng, trunc):
    """A holonomy path whose alpha/2 passes within 0.1 of a mode -k0 in
    each coordinate at a random time t* in [0.3, 0.7], along a random
    direction."""
    # inside the truncation by a margin of one, so the path stays away from its edge
    k0 = rng.integers(-trunc.cutoff + 1, trunc.cutoff, size=3)
    near = -k0 + rng.uniform(-0.1, 0.1, size=3)
    step = rng.standard_normal(3)
    step *= rng.uniform(0.5, 1.5) / np.linalg.norm(step)
    tstar = rng.uniform(0.3, 0.7)
    return 2.0 * (near - tstar * step), 2.0 * (near + (1.0 - tstar) * step)


@pytest.mark.parametrize("cutoff, count", [(1, 8), (2, 4), (3, 2)])
def test_dirac_family_records_match_the_closed_form(cutoff, count):
    # every simple root gives a record of kernel dimension 2 and
    # signature +-2 within 1e-9 of it
    tr = tm.TorusTruncation(cutoff)
    rng = np.random.default_rng(80 + cutoff)
    records = 0
    for _ in range(count):
        rep = closed_form_flow(tr, *near_zero_holonomy_path(rng, tr))
        assert all(rec.kernel_dim == 2 and abs(rec.crossing_signature) == 2 for rec in rep.crossings)
        records += len(rep.crossings)
    assert records == 2 * count


def test_dirac_gauge_period_records_match_the_closed_form():
    # one gauge period alpha -> alpha + (2, 0, 0) at cutoff 3 (n = 1372),
    # resolved crossing by crossing: its net flow is 0
    tr = tm.TorusTruncation(3)
    alpha = np.array([-0.9, 0.05, 0.02])
    path = tm.dirac_family_path(tr, alpha, alpha + np.array([2.0, 0.0, 0.0]))
    started = time.perf_counter()
    rep = sfmod.spectral_flow(path)
    # 343 blocks of 4 x 4: no solve of the whole n = 1372
    assert time.perf_counter() - started < 0.5
    assert rep.sf == 0 and len(rep.crossings) == 2
    assert_closed_form(rep, tr, alpha, alpha + np.array([2.0, 0.0, 0.0]))


def test_dirac_coincident_roots_add_up():
    # alpha/2 = (x, 0, 0.3) sweeps x from -4 to 4: the modes (k1, 1, k3)
    # and (k1, -1, k3) have the same |v(t)|, so their roots coincide and
    # give kernel dimension 4.  The endpoints lie at least 3 from every
    # mode of the cutoff-1 truncation, so a delta_cap of 4 gives a shift
    # delta = 1.5 that the pairs reach.
    tr = tm.TorusTruncation(1)
    cfg = sfmod.SpectralFlowConfig(delta_cap=4.0)
    rep = closed_form_flow(tr, np.array([-8.0, 0.0, 0.6]), np.array([8.0, 0.0, 0.6]), cfg)
    dims = [rec.kernel_dim for rec in rep.crossings]
    assert (dims.count(4), dims.count(2), len(dims)) == (12, 18, 30)


def test_dirac_double_root_gives_no_record():
    # alpha/2 = (t - 1/2, 1/4, 0): every endpoint eigenvalue has magnitude
    # at least 0.559, so delta = delta_cap / 2 = 1/4, and |v(t)| of the
    # zero mode touches 1/4 at t = 1/2 without crossing it.  No interval
    # that ends near a tangency is certified, so the refinement runs down
    # to bisection_tol there, with about 2^(depth/2) intervals per level:
    # the default 1e-10 gives the same result in about 20 s, 1e-6 in a
    # fraction of a second.
    tr = tm.TorusTruncation(1)
    alpha0, alpha1 = np.array([-1.0, 0.5, 0.0]), np.array([1.0, 0.5, 0.0])
    rep = closed_form_flow(tr, alpha0, alpha1, sfmod.SpectralFlowConfig(bisection_tol=1e-6))
    assert rep.delta_used == 0.25
    assert (rep.sf, rep.crossings) == (0, [])
    beta = alpha1 - alpha0
    c = tr.modes[tr.index((0, 0, 0))] + alpha0 / 2.0
    # the quadratic of the zero mode has a double root at 1/2
    assert ((c @ beta) ** 2 - (beta @ beta) * (c @ c - 0.25**2), -(c @ beta) / (beta @ beta / 2.0)) == (0.0, 0.5)


# ------------------------------------------------------- magnetic towers


def test_magnetic_tower_flow_is_minus_flux():
    for d in (-3, -1, 0, 1, 2, 3):
        for n_max in (2, 4):
            path = tm.magnetic_family_path(d, n_max)
            assert sfmod.spectral_flow(path).sf == -d, (d, n_max)


def test_magnetic_tower_crossings_localize():
    # only the descending zero-tower branches meet the counting line,
    # all copies at the same parameter, with unit slope each
    path = tm.magnetic_family_path(2, 3)
    rep = sfmod.spectral_flow(path)
    assert rep.sf == -2
    assert sum(c.crossing_signature for c in rep.crossings) == -2
    for c in rep.crossings:
        assert abs(c.t - (1.0 - rep.delta_used)) < 1e-6


def test_magnetic_tower_requires_depth():
    with pytest.raises(ValueError):
        tm.magnetic_family_path(1, 1)


# --------------------------------------------------- curvature identity


def test_weitzenbock_zero_perturbation():
    tr = tm.TorusTruncation(1)
    res = tm.weitzenbock_check(tr, tm.FlatConnection([0.3, 0.1, -0.2]), (0, 0, 0), np.zeros(3))
    assert res < 1e-14


def test_weitzenbock_cosine_mode():
    tr = tm.TorusTruncation(2)
    # perturbation i cos(x1) dx^2: mode e1, coefficient on component 2
    res = tm.weitzenbock_check(
        tr, tm.FlatConnection(np.zeros(3)), (1, 0, 0), np.array([0.0, 1.0, 0.0])
    )
    assert res < 1e-10


def test_weitzenbock_random_modes():
    rng = np.random.default_rng(72)
    tr = tm.TorusTruncation(2)
    for _ in range(10):
        k = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = rng.uniform(-1, 1, 3)
        res = tm.weitzenbock_check(tr, tm.FlatConnection(alpha), k, c)
        assert res < 1e-10, (k, c, res)


def test_weitzenbock_margin_error():
    tr = tm.TorusTruncation(1)
    with pytest.raises(tm.MarginError):
        tm.weitzenbock_check(tr, tm.FlatConnection(np.zeros(3)), (2, 0, 0), np.ones(3))
