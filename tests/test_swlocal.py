"""Tests for the local monopole-equation structures on the truncated torus.

Oracles: FFT grid evaluation of pointwise products (independent of the
sparse convolution kernels used by the module), central finite differences
of the action functional and of the monopole map, Parseval identities, and
closed-form crossing data.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from swflow import clifford3 as cl
from swflow import orient
from swflow import specflow as sfmod
from swflow import swlocal as sl
from swflow import torus_model as tm


# ------------------------------------------------------------ grid oracle


def spinor_grid(tr, psi):
    g = 4 * tr.cutoff + 1
    arr = np.zeros((g, g, g, 2), dtype=complex)
    for i, k in enumerate(tr.modes):
        arr[k[0] % g, k[1] % g, k[2] % g] = psi[i]
    return np.fft.ifftn(arr, axes=(0, 1, 2)) * g**3


def grid_coeffs(tr, vals):
    g = 4 * tr.cutoff + 1
    hat = np.fft.fftn(vals, axes=(0, 1, 2)) / g**3
    return np.array([hat[k[0] % g, k[1] % g, k[2] % g] for k in tr.modes])


def real_grid(tr, trig):
    g = 4 * tr.cutoff + 1
    hat = sl.real_to_complex(tr, trig)
    arr = np.zeros((g, g, g) + trig.shape[1:], dtype=complex)
    for i, k in enumerate(tr.modes):
        arr[k[0] % g, k[1] % g, k[2] % g] = hat[i]
    return (np.fft.ifftn(arr, axes=(0, 1, 2)) * g**3).real


# -------------------------------------------------------------- transforms


def test_trig_transform_is_unitary():
    tr = tm.TorusTruncation(2)
    m = tr.mode_count
    u = sl.real_to_complex(tr, np.eye(m))
    assert np.max(np.abs(u.conj().T @ u - np.eye(m))) < 1e-12
    rng = np.random.default_rng(80)
    c = rng.standard_normal(m)
    hat = sl.real_to_complex(tr, c)
    # reality constraint: coefficient at -k is the conjugate at k
    for i, k in enumerate(tr.modes):
        j = tr.index(-k)
        assert abs(hat[j] - np.conj(hat[i])) < 1e-12
    back = sl.complex_to_real(tr, hat)
    assert np.max(np.abs(back - c)) < 1e-12
    # Parseval: trig coefficients share the L2 norm
    grid = real_grid(tr, c)
    assert abs(np.mean(grid**2) - c @ c) < 1e-10


def test_realified_spinor_layout_matches_matrix_convention():
    rng = np.random.default_rng(81)
    tr = tm.TorusTruncation(1)
    m = tr.mode_count
    psi = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    mat = rng.standard_normal((2 * m, 2 * m)) + 1j * rng.standard_normal((2 * m, 2 * m))
    lhs = sfmod.realify_matrix(mat) @ sl.realify_spinor(psi)
    rhs = sl.realify_spinor((mat @ psi.reshape(-1)).reshape(m, 2))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(sl.unrealify_spinor(sl.realify_spinor(psi)) - psi)) == 0.0


def trig_unitary(tr):
    """Loop-built trig-to-Fourier unitary: 1 at the zero mode, cos at
    lexicographically positive modes, sin at their negatives."""
    m = tr.mode_count
    pos = {tuple(k): i for i, k in enumerate(tr.modes)}
    u = np.zeros((m, m), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    for i, k in enumerate(tr.modes):
        t = tuple(int(v) for v in k)
        j = pos[tuple(-v for v in t)]
        if t == (0, 0, 0):
            u[i, i] = 1.0
        elif t > (0, 0, 0):
            u[i, i], u[i, j] = s, -1j * s
        else:
            u[i, j], u[i, i] = s, 1j * s
    return u


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_mode_tables_match_index_lookups(cutoff):
    # oracle: a brute-force search of the mode list for every entry
    tr = tm.TorusTruncation(cutoff)
    m = tr.mode_count

    def search(targets):
        hit = np.all(targets[:, None, :] == tr.modes[None, :, :], axis=-1)
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    neg = search(-tr.modes)
    shift = np.array([search(k + tr.modes) for k in tr.modes])
    diff = np.array([search(k - tr.modes) for k in tr.modes])
    tab = sl._tables(tr)
    assert np.array_equal(tr.neg, neg)
    assert np.array_equal(tab.neg, neg)
    assert np.array_equal(tr.sums, shift)
    assert np.array_equal(tab.shift, shift)
    assert np.array_equal(tab.diff, diff)
    assert [tr.index(k) for k in tr.modes] == list(range(m))
    u = trig_unitary(tr)
    assert np.array_equal(sl.real_to_complex(tr, np.eye(m)), u)
    assert np.array_equal(sl._uh(tab, np.eye(m)), u.conj().T)


def dense_first_order(tr):
    """The parent algorithm of the first-order blocks: per-mode loops and
    dense triple products with a loop-built u and kron(u, I3)."""
    m = tr.mode_count
    u = trig_unitary(tr)
    u3 = np.kron(u, np.eye(3))
    msd = np.zeros((3 * m, 3 * m), dtype=complex)
    d0 = np.zeros((3 * m, m), dtype=complex)
    cod = np.zeros((m, 3 * m), dtype=complex)
    star2 = tm._star_block(2)
    for i, k in enumerate(tr.modes):
        msd[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = -star2 @ tm._wedge_block(k, 1)
        d0[3 * i : 3 * i + 3, i] = 1j * k
        cod[i, 3 * i : 3 * i + 3] = -1j * k
    return (
        (u3.conj().T @ msd @ u3).real,
        (u3.conj().T @ d0 @ u).real,
        (u.conj().T @ cod @ u3).real,
    )


def dense_operators(c):
    """The parent algorithm of the Dirac and coupling blocks: a dict of
    mode positions, a loop-built u, kron(u, I3) and per-entry loops."""
    tr = c.trunc
    m = tr.mode_count
    pos = {tuple(k): i for i, k in enumerate(tr.modes)}
    neg = np.array([pos[tuple(-k)] for k in tr.modes])
    shift = np.array([[pos.get(tuple(kp + kq), -1) for kq in tr.modes] for kp in tr.modes])
    u = trig_unitary(tr)
    u3 = np.kron(u, np.eye(3))
    uh = u.conj().T
    psi = c.psi
    sig_psi = np.einsum("jab,mb->jma", cl.PAULI, psi)

    dirac = np.zeros((2 * m, 2 * m), dtype=complex)
    for i, k in enumerate(tr.modes):
        dirac[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = np.einsum(
            "j,jab->ab", k + c.alpha / 2.0, cl.PAULI
        )
    b_hat = u @ c.a_field
    for q in range(m):
        for p in range(m):
            t = shift[p, q]
            if t < 0:
                continue
            for j in range(3):
                for s in range(2):
                    for s2 in range(2):
                        val = 0.5 * b_hat[q, j] * cl.PAULI[j, s, s2]
                        if val != 0:
                            dirac[2 * t + s, 2 * p + s2] += val

    ca = np.zeros((2 * m, 3 * m), dtype=complex)
    cf = np.zeros((2 * m, m), dtype=complex)
    h = np.zeros((3, m, 4 * m), dtype=complex)
    w = np.zeros((m, 4 * m), dtype=complex)
    cols = np.arange(m)
    for p in range(m):
        ok = shift[p] >= 0
        qs, ts = cols[ok], shift[p][ok]
        for s in range(2):
            for j in range(3):
                ca[2 * ts + s, 3 * qs + j] += 0.5 * sig_psi[j, p, s]
            cf[2 * ts + s, qs] += -1j * psi[p, s]
        tgts_q = shift[p, neg]
        ok_q = tgts_q >= 0
        tgts_w = shift[neg[p]]
        ok_w = tgts_w >= 0
        for s in range(2):
            for part, z in ((0, 1.0), (2 * m, 1j)):
                col = part + 2 * cols + s
                for j in range(3):
                    h[j, tgts_q[ok_q], col[ok_q]] += sig_psi[j, p, s] * np.conj(z)
                w[tgts_w[ok_w], col[ok_w]] += z * np.conj(psi[p, s])
    ca_t = ca @ u3
    cf_t = cf @ u
    g = 0.25 * (h + np.conj(h[:, neg, :]))
    block_q = np.empty((3 * m, 4 * m))
    for j in range(3):
        block_q[j::3] = (uh @ g[j]).real
    block_v = (uh @ (0.5j * (w - np.conj(w[neg])))).real
    coupling = (
        np.vstack([ca_t.real, ca_t.imag]),
        np.vstack([cf_t.real, cf_t.imag]),
        block_q,
        block_v,
    )
    return dirac, coupling


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_operators_match_dense_reference(cutoff):
    tr = tm.TorusTruncation(cutoff)
    m = tr.mode_count
    n_s, n_a = 4 * m, 3 * m

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    msd, d0, cod1 = dense_first_order(tr)
    fo = sl._first_order(tr)
    for got, want in ((fo.minus_star_d, msd), (fo.d0, d0), (fo.cod1, cod1)):
        close(got, want)
    rng = np.random.default_rng(105 + cutoff)
    # spinor and 1-form on half the cutoff, then on every mode
    configs = [sl.random_configuration(tr, rng, radius=radius) for radius in (cutoff // 2, cutoff)]
    # both fields on the zero mode; a spinor on one mode of sup-norm
    # equal to the cutoff; a zero spinor with a nonzero 1-form
    configs.append(sl.random_configuration(tr, np.random.default_rng(205 + cutoff), radius=0))
    corner = np.zeros((m, 2), dtype=complex)
    corner[np.flatnonzero(tr.radii == cutoff)[0]] = [0.6 - 0.3j, -0.2 + 0.7j]
    configs.append(sl.Configuration(tr, corner, configs[1].alpha, configs[1].a_field))
    zero = sl.Configuration(tr, np.zeros((m, 2)), configs[0].alpha, configs[0].a_field)
    configs.append(zero)
    assert np.any(zero.a_field)
    for c in configs:
        dirac, coupling = dense_operators(c)
        close(sl._dirac_matrix(c), dirac)
        for got, want in zip(sl._coupling_blocks(tr, c.psi), coupling):
            close(got, want)
        block_a, block_f, block_q, block_v = coupling
        want = np.block(
            [
                [sfmod.realify_matrix(dirac), block_a, block_f],
                [block_q, msd, 2.0 * d0],
                [block_v, 2.0 * cod1, np.zeros((m, m))],
            ]
        )
        close(sl.extended_hessian(c), want)
        close(sl.sw_hessian(c), want[: n_s + n_a, : n_s + n_a])
    # a zero spinor gives exactly zero coupling blocks, and a zero 1-form
    # the flat Dirac operator
    assert all(not np.any(b) for b in sl._coupling_blocks(tr, zero.psi))
    flat = sl.Configuration(tr, configs[0].psi, configs[0].alpha)
    assert np.array_equal(sl._dirac_matrix(flat), tm.fourier_dirac(tr, tm.FlatConnection(flat.alpha)))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_first_order_equals_the_dense_compression(cutoff):
    # the per-mode route takes the same products and two-term sums as
    # the compression Re(u^H X u) of the dense block-diagonal X
    tr = tm.TorusTruncation(cutoff)
    tab = sl._tables(tr)

    def dense(x):
        return sl._uh(tab, sl._pair(tab, x, tab.diag, tab.off[tab.neg], axis=1)).real

    d0 = tm.exterior_d(tr, 0)
    fo = sl._first_order(tr)
    assert np.array_equal(fo.minus_star_d, dense(tm._block_diag(-tab.star_d)))
    assert np.array_equal(fo.d0, dense(d0))
    assert np.array_equal(fo.cod1, dense(d0.conj().T))


@pytest.mark.parametrize("cutoff", [1, 2])
def test_index_is_none_outside_the_truncation(cutoff):
    # the box reaches modes whose base-(2N+1) digits alias a mode inside,
    # such as (0, 2, -3) at cutoff 1
    tr = tm.TorusTruncation(cutoff)
    box = range(-2 * cutoff - 1, 2 * cutoff + 2)
    for k in itertools.product(box, repeat=3):
        i = tr.index(k)
        if max(abs(v) for v in k) > cutoff:
            assert i is None, k
        else:
            assert tuple(tr.modes[i]) == k


# ---------------------------------------------------------- product kernels


def test_quadratic_covector_field_matches_grid():
    rng = np.random.default_rng(82)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    got = real_grid(tr, sl.complex_to_real(tr, sl._pair_to_form(tr, c.psi, c.psi)))
    psi_x = spinor_grid(tr, c.psi)
    want = cl.quadratic_covector(psi_x)
    assert np.max(np.abs(got - want)) < 1e-10


def test_pair_to_scalar_matches_grid():
    rng = np.random.default_rng(83)
    tr = tm.TorusTruncation(2)
    psi = sl.random_configuration(tr, rng).psi
    phi = sl.random_configuration(tr, rng).psi
    hat = sl._pair_to_scalar(tr, phi, psi)
    got = real_grid(tr, sl.complex_to_real(tr, hat))
    want = -np.imag(np.einsum("...s,...s->...", spinor_grid(tr, phi), np.conj(spinor_grid(tr, psi))))
    assert np.max(np.abs(got - want)) < 1e-10


def test_form_times_spinor_matches_grid():
    rng = np.random.default_rng(84)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    b = c.a_field
    # D_A psi is the flat Dirac psi plus half the Clifford product
    flat = sl.Configuration(tr, c.psi, c.alpha)
    out = 2.0 * (sl._apply_dirac(c, c.psi) - sl._apply_dirac(flat, c.psi))
    got = spinor_grid(tr, out)
    bx = real_grid(tr, b)
    want = np.einsum("...j,jab,...b->...a", bx, cl.PAULI, spinor_grid(tr, c.psi))
    assert np.max(np.abs(got - want)) < 1e-10


def test_gauge_action_on_the_spinor_matches_grid():
    rng = np.random.default_rng(85)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    f = np.where(tr.radii <= 1, rng.standard_normal(tr.mode_count), 0.0)
    got = spinor_grid(tr, sl.gauge_deriv(c, f).phi)
    want = -1j * real_grid(tr, f)[..., None] * spinor_grid(tr, c.psi)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_value_level_dirac_clips_as_the_assembled_matrix(cutoff):
    # on full-support fields the Clifford product leaves the truncation,
    # and the value level drops those modes just as the assembly does
    tr = tm.TorusTruncation(cutoff)
    c = sl.random_configuration(tr, np.random.default_rng(86 + cutoff), radius=cutoff)
    got = sl._apply_dirac(c, c.psi)
    want = (sl._dirac_matrix(c) @ c.psi.reshape(-1)).reshape(-1, 2)
    assert np.max(np.abs(got - want)) < 1e-12


def loop_convolve(tr, x, y, terms, shape, minus=False):
    """The per-mode loops that ``_convolve`` replaced: for each support
    row q of y, one clipped np.add.at over the support rows of x for each
    array in terms(rows, q)."""
    tab = sl._tables(tr)
    rows = sl._sparse_rows(x)
    out = np.zeros(shape, dtype=complex)
    for q in sl._sparse_rows(y):
        at = tab.shift[rows, tab.neg[q] if minus else q]
        ok = at >= 0
        for vals in terms(rows, q):
            np.add.at(out, at[ok], vals[ok])
    return out


@pytest.mark.parametrize("cutoff", [2, 3])
def test_products_equal_the_loops_over_modes_bit_for_bit(cutoff):
    # the sums keep the loops' order, so every product is the same bytes,
    # on fields of half the cutoff and on clipped full-support fields
    tr = tm.TorusTruncation(cutoff)
    m, neg = tr.mode_count, sl._tables(tr).neg
    rng = np.random.default_rng(87 + cutoff)
    for radius in (cutoff // 2, cutoff):
        c = sl.random_configuration(tr, rng, radius=radius)
        c.a_field[:, 1] = 0.0
        phi = sl.random_configuration(tr, rng, radius=radius).psi
        b = sl.real_to_complex(tr, c.a_field)
        sig = np.einsum("jab,mb->jma", cl.PAULI, c.psi)

        def clifford(rows, q):
            return [b[q, j] * sig[j, rows] for j in range(3) if b[q, j] != 0]

        flat = sl._apply_dirac(sl.Configuration(tr, c.psi, c.alpha), c.psi)
        want = flat + 0.5 * loop_convolve(tr, c.psi, b, clifford, (m, 2))
        assert sl._apply_dirac(c, c.psi).tobytes() == want.tobytes()
        h = loop_convolve(
            tr, c.psi, phi, lambda rows, q: [np.einsum("jma,a->mj", sig[:, rows], np.conj(phi[q]))], (m, 3), True
        )
        want = 0.25 * (h + np.conj(h[neg]))
        assert sl._pair_to_form(tr, c.psi, phi).tobytes() == want.tobytes()
        w = loop_convolve(tr, phi, c.psi, lambda rows, q: [phi[rows] @ np.conj(c.psi[q])], m, True)
        want = 0.5j * (w - np.conj(w[neg]))
        assert sl._pair_to_scalar(tr, phi, c.psi).tobytes() == want.tobytes()
        if 2 * radius <= cutoff:
            f = c.a_field[:, 0]
            u = sl.real_to_complex(tr, f)
            want = loop_convolve(tr, c.psi, u, lambda rows, q: [(-1j * u[q]) * c.psi[rows]], (m, 2))
            assert sl.gauge_deriv(c, f).phi.tobytes() == want.tobytes()


# ------------------------------------------------------------------ sw map


def test_sw_map_vanishes_at_flat_reducibles():
    tr = tm.TorusTruncation(2)
    c = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), np.array([0.4, -1.2, 0.7]))
    out = sl.sw_map(c)
    assert np.max(np.abs(out.phi)) == 0.0
    assert np.max(np.abs(out.a)) == 0.0


def test_sw_map_constant_gauge_equivariance():
    rng = np.random.default_rng(85)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    gamma = np.exp(1j * 0.83)
    rotated = sl.Configuration(tr, gamma * c.psi, c.alpha, c.a_field)
    out = sl.sw_map(c)
    out_rot = sl.sw_map(rotated)
    assert np.max(np.abs(out_rot.phi - gamma * out.phi)) < 1e-12
    assert np.max(np.abs(out_rot.a - out.a)) < 1e-12


def test_sw_map_quadratic_scaling():
    rng = np.random.default_rng(86)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    c = sl.Configuration(tr, c.psi, c.alpha)  # drop the 1-form offset: a-part is pure q
    doubled = sl.Configuration(tr, 2.0 * c.psi, c.alpha)
    out, out2 = sl.sw_map(c), sl.sw_map(doubled)
    assert np.max(np.abs(out2.phi - 2.0 * out.phi)) < 1e-12
    assert np.max(np.abs(out2.a - 4.0 * out.a)) < 1e-12


def test_sw_map_margin_error():
    tr = tm.TorusTruncation(1)
    psi = np.zeros((tr.mode_count, 2), complex)
    psi[tr.index((1, 0, 0))] = (1.0, 0.0)
    c = sl.Configuration(tr, psi, np.zeros(3))
    with pytest.raises(tm.MarginError):
        sl.sw_map(c)


def test_perturbed_sw_map():
    rng = np.random.default_rng(87)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    zero = sl.Perturbation(tr)
    base = sl.sw_map(c)
    same = sl.sw_map_perturbed(c, zero)
    assert np.max(np.abs(same.a - base.a)) == 0.0
    # exact potential: the reducible with opposite offset is a perturbed zero
    beta = sl.random_configuration(tr, rng).a_field
    pert = sl.Perturbation(tr, potential=beta)
    red = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), c.alpha, -beta)
    out = sl.sw_map_perturbed(red, pert)
    assert np.max(np.abs(out.a)) < 1e-12
    # nonzero harmonic part obstructs every reducible zero
    harm = sl.Perturbation(tr, harmonic=np.array([0.3, 0.0, 0.0]))
    for _ in range(5):
        red = sl.Configuration(
            tr, np.zeros((tr.mode_count, 2), complex), rng.uniform(-1, 1, 3),
            sl.random_configuration(tr, rng).a_field,
        )
        out = sl.sw_map_perturbed(red, harm)
        assert np.linalg.norm(out.a) >= 0.3 - 1e-12


# --------------------------------------------------------------- functional


def test_csd_zero_for_flat_configurations():
    tr = tm.TorusTruncation(2)
    zero = np.zeros((tr.mode_count, 2), complex)
    assert sl.chern_simons_dirac(sl.Configuration(tr, zero, np.zeros(3))) == 0.0
    assert abs(sl.chern_simons_dirac(sl.Configuration(tr, zero, np.array([0.7, 0.1, -0.3])))) < 1e-14


def test_csd_gradient_is_sw_map():
    rng = np.random.default_rng(88)
    tr = tm.TorusTruncation(2)
    for _ in range(8):
        c = sl.random_configuration(tr, rng)
        d = sl.random_configuration(tr, rng)
        direction = sl.TangentVector(d.psi, d.a_field)
        h = 1e-4

        def shifted(s):
            return sl.Configuration(
                tr, c.psi + s * direction.phi, c.alpha, c.a_field + s * direction.a
            )

        fd = (sl.chern_simons_dirac(shifted(h)) - sl.chern_simons_dirac(shifted(-h))) / (2 * h)
        pairing = sl.tangent_inner(sl.sw_map(c), direction)
        assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


def test_csd_constant_gauge_invariance():
    rng = np.random.default_rng(89)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    rotated = sl.Configuration(tr, np.exp(1j * 1.21) * c.psi, c.alpha, c.a_field)
    assert abs(sl.chern_simons_dirac(rotated) - sl.chern_simons_dirac(c)) < 1e-12


# ----------------------------------------------------------------- hessian


def test_hessian_symmetric_and_matches_fd_jacobian():
    rng = np.random.default_rng(90)
    tr = tm.TorusTruncation(2)
    for _ in range(3):
        c = sl.random_configuration(tr, rng)
        h = sl.sw_hessian(c)
        assert np.max(np.abs(h - h.T)) < 1e-12
        for _ in range(3):
            d = sl.random_configuration(tr, rng)
            tv = sl.TangentVector(d.psi, d.a_field)
            vec = sl.tangent_to_vector(tv)
            step = 1e-3

            def at(s):
                shifted = sl.Configuration(
                    tr, c.psi + s * tv.phi, c.alpha, c.a_field + s * tv.a
                )
                return sl.tangent_to_vector(sl.sw_map(shifted))

            fd = (at(step) - at(-step)) / (2 * step)
            got = h @ vec
            assert np.max(np.abs(fd - got)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_hessian_block_diagonal_at_reducibles():
    tr = tm.TorusTruncation(1)
    alpha = np.array([0.9, 0.37, -0.62])
    c = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), alpha)
    h = sl.sw_hessian(c)
    m = tr.mode_count
    ns = 4 * m
    assert np.max(np.abs(h[:ns, ns:])) == 0.0
    assert np.max(np.abs(h[ns:, :ns])) == 0.0
    dirac = sfmod.realify_matrix(tm.fourier_dirac(tr, tm.FlatConnection(alpha)))
    assert np.max(np.abs(h[:ns, :ns] - dirac)) < 1e-12


@pytest.mark.parametrize("cutoff", [2, 3])
def test_hessian_by_blocks_is_the_assembled_hessian(cutoff):
    # the blocks are the assembled Hessian's own entries: the defect is
    # the dense one bit for bit, and the product differs only in the
    # order of its sums
    rng = np.random.default_rng(95)
    tr = tm.TorusTruncation(cutoff)
    for _ in range(2):
        c = sl.random_configuration(tr, rng)
        vec = rng.standard_normal(7 * tr.mode_count)
        h = sl.sw_hessian(c)
        defect, product = sl._hessian_by_blocks(c, vec)
        want = h @ vec
        assert defect == sfmod._pair_defect(h, h)
        assert np.max(np.abs(product - want)) <= 1e-13 * np.max(np.abs(want))


def test_hessian_defect_reads_a_coupling_block_off_its_mirror(monkeypatch):
    rng = np.random.default_rng(96)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    blocks = sl._coupling_blocks
    eps = 1e-9

    def perturbed(trunc, psi, out=None):
        got = blocks(trunc, psi, out)
        got[2][5, 300] += eps
        return got

    vec = rng.standard_normal(7 * tr.mode_count)
    assert sl._hessian_by_blocks(c, vec)[0] < 1e-15
    monkeypatch.setattr(sl, "_coupling_blocks", perturbed)
    assert sl._hessian_by_blocks(c, vec)[0] == pytest.approx(eps, rel=1e-6, abs=0.0)


def test_hessian_defect_reads_the_cached_form_defect(monkeypatch):
    # -*d's defect is taken once per cutoff and cached with the
    # first-order blocks: an asymmetry put into -*d where they are built
    # reaches the defect
    rng = np.random.default_rng(97)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    vec = rng.standard_normal(7 * tr.mode_count)
    compress = sl._compress
    eps = 1e-9

    def perturbed(tab, blocks):
        got = compress(tab, blocks)
        if blocks.shape[1:] == (3, 3):  # -*d, not d0 or its adjoint
            got[5, 300] += eps
        return got

    monkeypatch.setattr(sl, "_CACHE", {})
    assert sl._hessian_by_blocks(c, vec)[0] < 1e-15
    monkeypatch.setattr(sl, "_CACHE", {})
    monkeypatch.setattr(sl, "_compress", perturbed)
    assert sl._hessian_by_blocks(c, vec)[0] == pytest.approx(eps, rel=1e-6, abs=0.0)
    assert sl._first_order(tr).minus_star_d_defect == pytest.approx(eps, rel=1e-6, abs=0.0)


def test_cached_form_blocks_are_read_only():
    # the per-cutoff blocks and F's basis are shared by every caller, and
    # -*d's defect is cached beside it, so a write into them raises
    tr = tm.TorusTruncation(2)
    fo = sl._first_order(tr)
    basis = sl._form_basis(tr)
    arrays = [fo.minus_star_d, fo.d0, fo.cod1, basis.lam, basis.neg, basis.ker, basis.pos]
    arrays += [a for part in basis.parts for a in part]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


@pytest.mark.parametrize("rel", [0.9, 2.0])
def test_every_symmetry_check_takes_the_one_tolerance(rel, monkeypatch):
    # a path sample, a stack of D_A's blocks and a coupling pair are each
    # checked by specflow._check_pair: a defect of 0.9e-12 top passes, one
    # of 2e-12 top is rejected, and the error names the operator
    def check(what, call):
        if rel < 1.0:
            return call()
        with pytest.raises(ValueError, match=what + ": not symmetric within tolerance"):
            call()

    vals = np.array([np.diag([4.0, -1.0, 2.0]), np.diag([-4.0, 1.0, 2.0])])
    vals[1, 0, 1] += rel * 1e-12 * 4.0
    check("path samples", lambda: sfmod.HermitianPath(np.linspace(0.0, 1.0, 2), vals))

    rng = np.random.default_rng(97)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    _, end = sl._scaling_ends(c)
    _, r_top = sl._dirac_block(c)
    dirac_blocks, coupling_blocks = sl._dirac_blocks, sl._coupling_blocks

    def perturbed_dirac(*args, **kwargs):
        parts, stacks = dirac_blocks(*args, **kwargs)
        stacks[-1][0, 0, 1] += rel * 1e-12 * max(1.0, r_top)
        return parts, stacks

    with monkeypatch.context() as m:
        m.setattr(sl, "_dirac_blocks", perturbed_dirac)
        check("realified Dirac block", lambda: sl._dirac_block(c))

    def perturbed_coupling(trunc, psi, out=None):
        got = coupling_blocks(trunc, psi, out)
        got[2][5, 300] += rel * 1e-12 * max(1.0, end.top)
        return got

    with monkeypatch.context() as m:
        m.setattr(sl, "_coupling_blocks", perturbed_coupling)
        check("extended Hessian", lambda: sl._scaling_ends(c))


# ------------------------------------------------------------- gauge action


def test_gauge_adjointness():
    rng = np.random.default_rng(91)
    tr = tm.TorusTruncation(2)
    for _ in range(8):
        c = sl.random_configuration(tr, rng)
        f = sl.random_configuration(tr, rng).a_field[:, 0]
        d = sl.random_configuration(tr, rng)
        tv = sl.TangentVector(d.psi, d.a_field)
        lhs = sl.tangent_inner(sl.gauge_deriv(c, f), tv)
        rhs = float(f @ sl.gauge_deriv_adjoint(c, tv))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gauge_deriv_at_reducible_is_exterior_derivative():
    tr = tm.TorusTruncation(2)
    rng = np.random.default_rng(92)
    c = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), np.zeros(3))
    f = sl.random_configuration(tr, rng).a_field[:, 1]
    out = sl.gauge_deriv(c, f)
    assert np.max(np.abs(out.phi)) == 0.0
    # oracle: 2 d f through the complex route
    hat = sl.real_to_complex(tr, f)
    df = np.einsum("mj,m->mj", 1j * tr.modes.astype(float), hat)
    want = 2.0 * sl.complex_to_real(tr, df)
    assert np.max(np.abs(out.a - want)) < 1e-12


def test_coclosure_identity_of_quadratic_covector():
    rng = np.random.default_rng(93)
    tr = tm.TorusTruncation(2)
    for _ in range(8):
        c = sl.random_configuration(tr, rng)
        assert sl.dastq_residual(c) <= 1e-8


# --------------------------------------------------------- extended hessian


def test_extended_hessian_symmetric():
    rng = np.random.default_rng(94)
    tr = tm.TorusTruncation(2)
    c = sl.random_configuration(tr, rng)
    t = sl.extended_hessian(c)
    assert t.shape == (8 * tr.mode_count, 8 * tr.mode_count)
    assert np.max(np.abs(t - t.T)) < 1e-12


def test_extended_hessian_reducible_kernel_dims():
    tr = tm.TorusTruncation(2)
    zero = np.zeros((tr.mode_count, 2), complex)
    generic = sl.extended_hessian(sl.Configuration(tr, zero, np.array([0.9, 0.37, -0.62])))
    degenerate = sl.extended_hessian(sl.Configuration(tr, zero, np.zeros(3)))
    for mat, want in ((generic, 4), (degenerate, 8)):
        eigs = np.abs(np.linalg.eigvalsh(mat))
        thresh = 1e-8 * max(1.0, eigs.max())
        assert int(np.sum(eigs < thresh)) == want


def test_extended_hessian_consistent_with_gauge_and_hessian():
    rng = np.random.default_rng(95)
    tr = tm.TorusTruncation(1)
    c = sl.random_configuration(tr, rng)
    t = sl.extended_hessian(c)
    d = sl.random_configuration(tr, rng)
    f = sl.random_configuration(tr, rng).a_field[:, 2]
    tv = sl.TangentVector(d.psi, d.a_field, f)
    out = t @ sl.tangent_to_vector(tv)
    got = sl.vector_to_tangent(tr, out, has_f=True)
    # oracle: Hessian of the functional plus the gauge derivative terms
    hess = sl.sw_hessian(c) @ sl.tangent_to_vector(sl.TangentVector(tv.phi, tv.a))
    hess_tv = sl.vector_to_tangent(tr, hess, has_f=False)
    gauge = sl.gauge_deriv(c, f)
    assert np.max(np.abs(got.phi - (hess_tv.phi + gauge.phi))) < 1e-10
    assert np.max(np.abs(got.a - (hess_tv.a + gauge.a))) < 1e-10
    assert np.max(np.abs(got.f - sl.gauge_deriv_adjoint(c, sl.TangentVector(tv.phi, tv.a)))) < 1e-10


# ------------------------------------------------------------- sign and count


def test_configuration_sign_reducible_is_plus_one():
    tr = tm.TorusTruncation(1)
    c = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), np.array([0.5, 0.1, -0.2]))
    assert sl.configuration_sign(c) == 1


def test_configuration_sign_invariances():
    rng = np.random.default_rng(96)
    tr = tm.TorusTruncation(1)
    base = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), np.zeros(3))
    for _ in range(6):
        c = sl.random_configuration(tr, rng)
        eps = sl.configuration_sign(c)
        assert eps in (-1, 1)
        # base-point route asserts equality internally
        assert sl.configuration_sign(c, base=base) == eps
        gamma = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = sl.Configuration(tr, gamma * c.psi, c.alpha, c.a_field)
        assert sl.configuration_sign(rotated) == eps


def test_configuration_sign_rejects_irreducible_base():
    rng = np.random.default_rng(97)
    tr = tm.TorusTruncation(1)
    c = sl.random_configuration(tr, rng)
    with pytest.raises(ValueError):
        sl.configuration_sign(c, base=c)


def test_signed_count():
    rng = np.random.default_rng(98)
    tr = tm.TorusTruncation(1)
    assert sl.signed_count([]) == 0
    c = sl.random_configuration(tr, rng)
    eps = sl.configuration_sign(c)
    assert sl.signed_count([c]) == eps
    assert sl.signed_count([c, c]) == 2 * eps
    red = sl.Configuration(tr, np.zeros((tr.mode_count, 2), complex), np.zeros(3))
    with pytest.raises(ValueError):
        sl.signed_count([red])


def reducible_point(c):
    return sl.Configuration(c.trunc, np.zeros_like(c.psi), c.alpha, c.a_field)


def random_reducible(tr, rng):
    m = tr.mode_count
    return sl.Configuration(
        tr,
        np.zeros((m, 2)),
        rng.uniform(-1.0, 1.0, size=3),
        sl.random_configuration(tr, rng).a_field,
    )


def scaled_configs(count, seed=11):
    """Cutoff-2 configurations with the spinor scaled by 3, which gives
    both signs (three negative among the first seven of seed 11)."""
    tr = tm.TorusTruncation(2)
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        c = sl.random_configuration(tr, rng)
        configs.append(sl.Configuration(tr, 3.0 * c.psi, c.alpha, c.a_field))
    return configs, rng


def dense_sign(c, start):
    """Oracle: orientation transport on the assembled Hessians of the
    affine path from start to c."""
    t0 = sl.extended_hessian(start)
    t1 = sl.extended_hessian(c)
    path = sfmod.HermitianPath.affine(t0, t1 - t0)
    return orient.orientation_transport_sf(path, sfmod.SpectralFlowConfig(endpoint_count_only=True))


@pytest.mark.parametrize("cutoff", [1, 2])
def test_reducible_extended_hessian_is_block_diagonal(cutoff):
    rng = np.random.default_rng(100 + cutoff)
    tr = tm.TorusTruncation(cutoff)
    n_s = 4 * tr.mode_count
    red = random_reducible(tr, rng)
    h = sl.extended_hessian(red)
    assert np.all(h[:n_s, n_s:] == 0.0)
    assert np.all(h[n_s:, :n_s] == 0.0)
    assert np.array_equal(h[:n_s, :n_s], sfmod.realify_matrix(sl._dirac_matrix(red)))
    # the form block's spectrum is the closed form per mode k != 0:
    # +-|k| on the transverse 1-forms, +-2|k| on the exact/function pair
    form = sl._form_basis(tr)
    assert form.top == np.abs(h[n_s:, n_s:]).max()
    k = np.linalg.norm(tr.modes, axis=1)
    k = k[k > 0]
    want = np.sort(np.concatenate([k, -k, 2 * k, -2 * k, np.zeros(4)]))
    assert np.max(np.abs(np.sort(form.lam) - want)) < 1e-12


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_reducible_spectrum_is_the_realified_spectrum(cutoff):
    # the complex Dirac block, each eigenvalue listed twice, joined with
    # F's spectrum, is the spectrum of the realified block diag(R, F);
    # with a zero 1-form D_A is taken by its 2 x 2 mode blocks
    rng = np.random.default_rng(110 + cutoff)
    tr = tm.TorusTruncation(cutoff)
    flat = [
        sl.Configuration(tr, np.zeros((tr.mode_count, 2)), alpha)
        for alpha in (np.zeros(3), rng.uniform(-1.0, 1.0, size=3))
    ]
    for c in [random_reducible(tr, rng), sl.random_configuration(tr, rng)] + flat:
        eigs, top = sl._reducible_spectrum(c)
        r = sfmod.realify_matrix(sl._dirac_matrix(c))
        want = np.sort(np.concatenate([np.linalg.eigvalsh(r), sl._form_basis(tr).lam]))
        assert eigs.shape == want.shape
        assert np.max(np.abs(np.sort(eigs) - want)) <= 1e-12 * np.max(np.abs(want))
        assert top == max(sfmod._max_abs(r), sl._form_basis(tr).top)


def reducible_spectrum_solves(monkeypatch, c):
    """Shapes of the eigvalsh calls of one ``_reducible_spectrum`` of c."""
    sl._form_basis(c.trunc)  # the per-cutoff cache is filled outside the spy
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", spy)
        sl._reducible_spectrum(c)
    return shapes


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_flat_dirac_blocks_take_no_solve_of_size_2m(monkeypatch, cutoff):
    # a 1-form that is zero off the zero mode leaves D_A one 2 x 2 block
    # sigma . v per mode (two 1 x 1 blocks, which take no solve, where v
    # is along e_3 or zero): only stacks of 2 x 2 blocks are diagonalized
    rng = np.random.default_rng(130 + cutoff)
    tr = tm.TorusTruncation(cutoff)
    m = tr.mode_count
    on_zero_mode = np.zeros((m, 3))
    on_zero_mode[tr.index((0, 0, 0))] = rng.standard_normal(3)
    for alpha in (np.zeros(3), rng.uniform(-1.0, 1.0, size=3)):
        for a_field in (None, on_zero_mode):
            c = sl.Configuration(tr, np.zeros((m, 2)), alpha, a_field)
            shapes = reducible_spectrum_solves(monkeypatch, c)
            assert len(shapes) == 1
            assert shapes[0][-2:] == (2, 2)


def test_a_coupling_one_form_takes_one_dense_solve(monkeypatch):
    # a random 1-form, nonzero on every mode, couples all modes: D_A is
    # one block, and takes one solve of the whole (2M, 2M) matrix, as a
    # stack of that one block
    rng = np.random.default_rng(140)
    tr = tm.TorusTruncation(2)
    m = tr.mode_count
    shapes = reducible_spectrum_solves(monkeypatch, random_reducible(tr, rng))
    assert shapes == [(1, 2 * m, 2 * m)]


def test_a_one_block_dirac_matrix_is_gathered_as_a_view():
    # at cutoff 3, D_A of a 1-form that couples all modes is one complex
    # 686 x 686 block (7.5 MB); its gather copies nothing
    rng = np.random.default_rng(141)
    tr = tm.TorusTruncation(3)
    d = sl._dirac_matrix(random_reducible(tr, rng))
    assert d.shape == (686, 686) and d.nbytes > 7_500_000
    (idx,) = sfmod._partition(d != 0, d.shape[0])
    block = sfmod._gather(d, idx)
    assert block.shape == (1, 686, 686) and np.shares_memory(block, d)


def test_a_one_form_on_one_mode_splits_the_dirac_block(monkeypatch):
    # a 1-form on the single mode k = (1, 0, 0) couples mode p only with
    # p +- k: at cutoff 2, D_A splits into the 25 lines of 5 modes along
    # the first axis, 25 blocks of size 10, taken by one stacked solve
    rng = np.random.default_rng(170)
    tr = tm.TorusTruncation(2)
    m = tr.mode_count
    a_field = np.zeros((m, 3))
    a_field[tr.index((1, 0, 0))] = rng.standard_normal(3)
    c = sl.Configuration(tr, np.zeros((m, 2)), rng.uniform(-1.0, 1.0, size=3), a_field)
    d = sl._dirac_matrix(c)
    assert [idx.shape for idx in sfmod._partition(d != 0, 2 * m)] == [(25, 10)]
    eigs, _ = sl._reducible_spectrum(c)
    want = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(d), 2), sl._form_basis(tr).lam]))
    assert np.max(np.abs(np.sort(eigs) - want)) <= 1e-12 * np.max(np.abs(want))
    assert reducible_spectrum_solves(monkeypatch, c) == [(25, 10, 10)]


def reducible_cases(tr, rng):
    """Reducible configurations by label: zero 1-forms at three
    holonomies, a 1-form on the zero mode only, one on the single mode
    (1, 0, 0), and a random 1-form, which couples all modes."""
    m = tr.mode_count
    zero = np.zeros((m, 2))
    cases = {
        f"zero-{label}": sl.Configuration(tr, zero, alpha)
        for label, alpha in (
            ("alpha-0", np.zeros(3)),
            ("alpha-e3", np.array([0.0, 0.0, 0.7])),
            ("alpha-random", rng.uniform(-1.0, 1.0, size=3)),
        )
    }
    for label, k in (("zero-mode", (0, 0, 0)), ("one-mode", (1, 0, 0))):
        a_field = np.zeros((m, 3))
        a_field[tr.index(k)] = rng.standard_normal(3)
        cases[label] = sl.Configuration(tr, zero, rng.uniform(-1.0, 1.0, size=3), a_field)
    cases["random"] = random_reducible(tr, rng)
    return cases


def dense_reducible_spectrum(c):
    """The reducible spectrum and top by the dense route: D_A formed whole
    and split by the support of its entries."""
    d = sl._dirac_matrix(c)
    eigs = sfmod._block_spectra([sfmod._gather(d, idx) for idx in sfmod._partition(d != 0, d.shape[0])])
    form = sl._form_basis(c.trunc)
    return np.concatenate([np.repeat(eigs, 2), form.lam]), max(sfmod._max_abs(d.view(float)), form.top)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_mode_blocks_give_the_dense_route_bit_for_bit(cutoff):
    # the blocks of D_A's mode partition give the dense route's spectrum
    # and top bit for bit; at cutoff 4 only the cases that split are run
    rng = np.random.default_rng(180 + cutoff)
    cases = reducible_cases(tm.TorusTruncation(cutoff), rng)
    if cutoff == 4:
        del cases["random"]
    for label, c in cases.items():
        eigs, top = sl._reducible_spectrum(c)
        want, want_top = dense_reducible_spectrum(c)
        assert np.array_equal(eigs, want), label
        assert top == want_top, label


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_each_mode_block_is_a_gather_of_the_dirac_matrix(cutoff):
    # every block equals D_A's entries on its spinor indices 2p, 2p + 1,
    # and the blocks cover every spinor index once
    rng = np.random.default_rng(190 + cutoff)
    tr = tm.TorusTruncation(cutoff)
    for label, c in reducible_cases(tr, rng).items():
        d = sl._dirac_matrix(c)
        parts, stacks = sl._dirac_blocks(c)
        assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in parts])), np.arange(d.shape[0]))
        for idx, stack in zip(parts, stacks):
            assert np.array_equal(stack, sfmod._gather(d, idx)), label


def test_a_flat_reducible_spectrum_at_cutoff_4_forms_no_dirac_matrix(monkeypatch):
    # 2M = 1458: one dense D_A is 34 MB; with a zero 1-form the spectrum
    # is taken from the 729 mode blocks, under 1 MB, and the whole
    # matrix is never formed
    tr = tm.TorusTruncation(4)
    m = tr.mode_count
    c = sl.Configuration(tr, np.zeros((m, 2)), np.array([0.3, -0.2, 0.45]))
    want, want_top = dense_reducible_spectrum(c)  # fills the per-cutoff caches
    assert sl._dirac_matrix(c).nbytes > 34_000_000

    def forbidden(*args, **kwargs):
        raise AssertionError("the whole Dirac matrix was formed")

    monkeypatch.setattr(sl, "_dirac_matrix", forbidden)
    tracemalloc.start()
    try:
        eigs, top = sl._reducible_spectrum(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(eigs, want) and top == want_top


def test_reducible_kernel_dimensions_at_cutoff_4():
    # 2M = 1458: D_A has no kernel at a generic holonomy and a complex
    # 2-dimensional one at alpha = 0 (the constant spinors); F adds 4
    tr = tm.TorusTruncation(4)
    m = tr.mode_count
    assert 2 * m == 1458
    rng = np.random.default_rng(150)
    dims = {}
    for label, alpha in (("generic", rng.uniform(0.2, 0.8, size=3)), ("zero", np.zeros(3))):
        eigs, _ = sl._reducible_spectrum(sl.Configuration(tr, np.zeros((m, 2)), alpha))
        assert eigs.shape == (8 * m,)
        dims[label] = int(np.sum(np.abs(eigs) <= 1e-8 * np.max(np.abs(eigs))))
    assert dims == {"generic": 4, "zero": 8}


@pytest.mark.parametrize("field", ["psi", "alpha", "a_field"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_configuration_rejects_non_finite_fields(field, bad):
    rng = np.random.default_rng(160)
    tr = tm.TorusTruncation(1)
    c = sl.random_configuration(tr, rng)
    fields = {"psi": c.psi.copy(), "alpha": c.alpha.copy(), "a_field": c.a_field.copy()}
    fields[field].flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        sl.Configuration(tr, **fields)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_form_basis_reassembles_the_form_block(cutoff):
    # Q, assembled from the per-block eigenvectors, is orthogonal and
    # Q diag(lam) Q^T is F
    tr = tm.TorusTruncation(cutoff)
    f = sl._form_matrix(tr)
    basis = sl._form_basis(tr)
    n = f.shape[0]
    q = np.zeros((n, n))
    col = 0
    for g, vec in basis.parts:
        cols = col + np.arange(g.size).reshape(g.shape[0], 1, g.shape[1])
        q[g[:, :, None], cols] = vec
        col += g.size
    assert col == n == basis.lam.size
    norm = np.abs(basis.lam).max()
    assert np.abs(q.T @ q - np.eye(n)).max() < 1e-12
    assert np.abs((q * basis.lam) @ q.T - f).max() < 1e-12 * norm
    assert basis.top == sfmod._max_abs(f)
    assert np.count_nonzero(basis.ker) == 4


def test_form_block_off_its_groups_is_rejected(monkeypatch):
    # one tiny entry coupling modes 0 and 1, which F never pairs; it is
    # far below the symmetry tolerance, so only the block check sees it
    tr = tm.TorusTruncation(1)
    form_matrix = sl._form_matrix

    def coupled(trunc):
        f = form_matrix(trunc)
        f[0, 3] = 1e-300
        return f

    monkeypatch.setattr(sl, "_CACHE", {})
    monkeypatch.setattr(sl, "_form_matrix", coupled)
    with pytest.raises(ValueError, match="block diagonal"):
        sl._form_basis(tr)


def test_form_caches_make_no_solve_of_full_size(monkeypatch):
    # filling the per-cutoff caches diagonalizes F by its 8x8 and 4x4
    # blocks: no eigh or eigvalsh of size 4M or more
    tr = tm.TorusTruncation(2)
    sizes = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counting(a, *args, solve=solve, **kwargs):
            sizes.append(a.shape[-1])
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    monkeypatch.setattr(sl, "_CACHE", {})
    sl._first_order(tr)
    sl._form_basis(tr)
    assert sorted(sizes) == [4, 8]


def test_signs_match_dense_route_at_cutoff_one():
    rng = np.random.default_rng(102)
    tr = tm.TorusTruncation(1)
    configs = [sl.random_configuration(tr, rng) for _ in range(6)]
    for c in configs:
        base = random_reducible(tr, rng)
        want = dense_sign(c, reducible_point(c))
        assert dense_sign(c, base) == want
        assert sl.configuration_sign(c) == want
        assert sl.configuration_sign(c, base=base) == want
    red = random_reducible(tr, rng)
    assert sl.configuration_sign(red, base=random_reducible(tr, rng)) == dense_sign(red, red) == 1
    assert sl.signed_count(configs) == sum(dense_sign(c, reducible_point(c)) for c in configs)


def test_signs_match_dense_route_with_both_signs():
    configs, rng = scaled_configs(7)
    want = []
    for c in configs:
        base = random_reducible(c.trunc, rng)
        eps = dense_sign(c, reducible_point(c))
        assert dense_sign(c, base) == eps
        assert sl.configuration_sign(c) == eps
        assert sl.configuration_sign(c, base=base) == eps
        want.append(eps)
    assert want.count(-1) == 3
    for idx in ([0, 1, 2], [1, 5, 6], list(range(7))):
        assert sl.signed_count([configs[i] for i in idx]) == sum(want[i] for i in idx)


def test_sign_route_makes_one_schur_solve_per_configuration(monkeypatch):
    # An irreducible Hessian (size 8M) is neither assembled nor
    # diagonalized: its count is one solve of the Schur complement over
    # the form block (size 4M + 4).  A reducible end makes no solve: its
    # count modulo 2 is the form block's, so D_A (complex, size 2M) is
    # not diagonalized, and the dense fallback is not taken.  Every
    # eigvalsh call is a Schur solve, and a reducible c makes none.
    rng = np.random.default_rng(103)
    tr = tm.TorusTruncation(1)
    n_s = 4 * tr.mode_count
    configs = [sl.random_configuration(tr, rng) for _ in range(3)]
    base = random_reducible(tr, rng)
    sl.configuration_sign(configs[0])  # fills the per-cutoff caches
    sizes = []
    assembled = []
    eigvalsh = np.linalg.eigvalsh
    hessian = sl.extended_hessian

    def counting_eigvalsh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    def counting_hessian(c):
        assembled.append(c.reducible)
        return hessian(c)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(sl, "extended_hessian", counting_hessian)
    for call, solves in (
        (lambda: sl.configuration_sign(configs[0]), 1),
        (lambda: sl.configuration_sign(configs[0], base=base), 1),
        (lambda: sl.signed_count(configs), 3),
        (lambda: sl.configuration_sign(base), 0),
    ):
        sizes.clear()
        assembled.clear()
        call()
        assert sizes == [n_s + 4] * solves
        assert assembled == []


def ends_against_dense(c):
    """The ends of c's scaling path and c's dense spectrum, after checking
    the inertia count against it: the count at c's own kernel floor, and
    no eigenvalue in the certified interval."""
    start, end = sl._scaling_ends(c)
    h = sl.extended_hessian(c)
    eigs = np.linalg.eigvalsh(h)
    assert end.top == sfmod._max_abs(h)
    tau = sfmod.KERNEL_REL * max(1.0, end.top)
    lo, hi = end.certified
    assert lo < tau < hi
    assert end.count == np.count_nonzero(eigs < tau)
    assert not np.any((eigs > lo) & (eigs < hi))
    return start, end, eigs


@pytest.mark.parametrize("cutoff", [1, 2])
def test_inertia_count_equals_dense_count(cutoff):
    cfg = sfmod.SpectralFlowConfig(endpoint_count_only=True)
    tr = tm.TorusTruncation(cutoff)
    rng = np.random.default_rng(105 + cutoff)
    configs = [sl.random_configuration(tr, rng) for _ in range(4)]
    if cutoff == 2:
        configs += scaled_configs(7)[0]
    ends = [ends_against_dense(c) for c in configs]
    # the scaling parities, and the relative parities of signed_count
    # between irreducible ends, all taken with no end diagonalized
    first = ends[0][1]
    parities = [sl._parity(start, end) for start, end, _ in ends]
    relative = [sl._parity(first, end) for _, end, _ in ends[1:]]
    assert all(start.eigs is None and end.eigs is None for start, end, _ in ends)
    # against the dense flow on whole spectra; a reducible end's count is
    # its count below its certified interval modulo 2
    for (start, end, eigs), parity in zip(ends, parities):
        red = start.spectrum()
        lo, hi = start.certified
        assert (start.count - np.count_nonzero(red < hi)) % 2 == 0
        sf, _ = sfmod._endpoint_flow(red, eigs, max(1.0, start.top, end.top), cfg)
        assert parity == (-1) ** (sf % 2)
    first_eigs = ends[0][2]
    for (_, end, eigs), parity in zip(ends[1:], relative):
        sf, _ = sfmod._endpoint_flow(first_eigs, eigs, max(1.0, first.top, end.top), cfg)
        assert parity == (-1) ** (sf % 2)


def planted_hessian(seed, lam):
    """Blocks of a symmetric H = [[R, C], [C^T, F]] with one eigenvalue at
    ``lam``, whose eigenvector lies mostly on the range of F: F has
    eigenvalues (-5, -1, 0, 0, 0, 0, 1, 2) in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    f = q @ np.diag([-5.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]) @ q.T
    f = 0.5 * (f + f.T)
    x_r = rng.standard_normal(6)
    x_r /= np.linalg.norm(x_r)
    # a strong coupling of x_r to F's range, none to F's kernel
    c = 0.1 * rng.standard_normal((6, 8)) + np.outer(x_r, 1.5 * (q[:, 1] + q[:, 6]))
    kernel = q[:, 2:6] @ q[:, 2:6].T
    c -= np.outer(x_r, x_r @ c @ kernel)
    x_f = np.linalg.solve(lam * np.eye(8) - f + kernel, c.T @ x_r)
    r0 = 0.1 * rng.standard_normal((6, 6))
    r0 = r0 + r0.T
    # the symmetric rank-two update with R x_r + C x_f = lam x_r
    y = lam * x_r - r0 @ x_r - c @ x_f
    r = r0 + np.outer(y, x_r) + np.outer(x_r, y) - (x_r @ y) * np.outer(x_r, x_r)
    return r, c, f


def test_eigenvalue_in_the_window_takes_the_dense_route():
    cfg = sfmod.SpectralFlowConfig(endpoint_count_only=True)

    def assembled(lam):
        r, c, f = planted_hessian(107, lam)
        return r, c, f, np.block([[r, c], [c.T, f]])

    # the planted eigenvalue moves the largest entry by about 1e-8 of it
    top = sfmod._max_abs(assembled(0.0)[3])
    r, c, f, h = assembled(0.8 * sfmod.KERNEL_REL * top)
    top = sfmod._max_abs(h)
    floor = sfmod.KERNEL_REL * top
    eigs = np.linalg.eigvalsh(h)
    # one eigenvalue inside the window W = [floor/2, floor]
    assert np.count_nonzero((eigs >= 0.5 * floor) & (eigs <= floor)) == 1
    count, lo, hi = sl._schur_count(r, c, sl._eigenbasis(f, [np.arange(8)[None]]), floor)
    assert count == np.count_nonzero(eigs < floor)
    assert not np.any((eigs > lo) & (eigs < hi))
    dense = []

    def spectrum():
        dense.append(h.shape)
        return np.linalg.eigvalsh(h)

    end = sl._Endpoint(top, count=count, certified=(lo, hi), dense=spectrum)
    # the other end puts delta at 0.6 floor, below the planted eigenvalue,
    # so the count at the floor is not the count below delta
    other = sl._Endpoint(top, eigs=np.array([-1.0, 1.2 * floor, 2.0]))
    sf, delta = sfmod._endpoint_flow(other.eigs, eigs, top, cfg)
    assert np.count_nonzero(eigs < delta) != count
    assert sl._parity(other, end) == (-1) ** (sf % 2)
    assert dense == [h.shape]


def test_a_dirac_eigenvalue_in_the_window_forces_no_dense_route(monkeypatch):
    # a base with a zero 1-form and alpha along e_3 has D_alpha's
    # zero-mode eigenvalues +-|alpha|/2; at |alpha|/2 = 0.75 floor one lies
    # inside W = [floor/2, floor] at the pair's scale.  It counts twice,
    # so the pair keeps its counts on W: no Hessian is assembled (the
    # route that kept D_A's spectrum fell back to the dense one here)
    cfg = sl._SHIFT_CFG
    rng = np.random.default_rng(109)
    tr = tm.TorusTruncation(1)
    m = tr.mode_count
    c = sl.random_configuration(tr, rng)
    _, end = sl._scaling_ends(c)

    def flat(a3):
        return sl.Configuration(tr, np.zeros((m, 2)), np.array([0.0, 0.0, a3]))

    scale = max(1.0, sl._reducible_endpoint(flat(0.0)).top, end.top)
    floor = sfmod.KERNEL_REL * scale
    base = flat(1.5 * floor)
    assert max(1.0, sl._reducible_endpoint(base).top, end.top) == scale
    eigs, _ = sl._reducible_spectrum(base)
    inside = eigs[(eigs >= 0.5 * min(floor, cfg.delta_cap)) & (eigs <= floor)]
    assert np.allclose(inside, [0.75 * floor] * 2, rtol=1e-12, atol=0.0)
    want = dense_sign(c, base)
    assert want == dense_sign(c, reducible_point(c))
    assembled = []
    hessian = sl.extended_hessian

    def counting_hessian(x):
        assembled.append(x.reducible)
        return hessian(x)

    monkeypatch.setattr(sl, "extended_hessian", counting_hessian)
    assert sl.configuration_sign(c, base=base) == want
    assert sl.configuration_sign(c) == want
    assert assembled == []


@pytest.mark.parametrize("cutoff", [1, 2])
def test_a_reducible_count_is_certified_up_to_the_form_gap(cutoff):
    # the count is F's below its gap: the negative range and the kernel,
    # held from the largest kernel eigenvalue to the smallest positive one
    # (|k| = 1); a window that reaches the gap is not certified
    rng = np.random.default_rng(113 + cutoff)
    tr = tm.TorusTruncation(cutoff)
    form = sl._form_basis(tr)
    end = sl._reducible_endpoint(random_reducible(tr, rng))
    assert end.count == np.count_nonzero(form.lam < 0.5)
    lo, hi = end.certified
    assert lo == form.lam[form.ker].max() == 0.0
    assert hi == form.lam[form.pos].min() and abs(hi - 1.0) < 1e-12
    assert end.count_on(1e-8, 0.99) == end.count
    assert end.count_on(1e-8, 1.0) is None
    assert end.count_on(-1e-300, 0.5) is None
    assert end.eigs is None


@pytest.mark.parametrize("case", ["cutoff-1", "cutoff-2-negative"])
def test_an_uncertified_count_falls_back_to_whole_spectra(monkeypatch, case):
    # with the Schur count left uncertified (lo == hi) the pair takes both
    # spectra whole: one assembled Hessian for the irreducible end and
    # one reducible spectrum of c, by blocks, for the reducible end
    if case == "cutoff-1":
        c = sl.random_configuration(tm.TorusTruncation(1), np.random.default_rng(112))
    else:
        c = scaled_configs(2)[0][1]
    want = dense_sign(c, reducible_point(c))
    assert want == (1 if case == "cutoff-1" else -1)
    calls = []
    schur, hessian, spectrum = sl._schur_count, sl.extended_hessian, sl._reducible_spectrum

    def uncertified(r, coupling, basis, tau):
        count, _, _ = schur(r, coupling, basis, tau)
        return count, tau, tau

    def counting(name, fn):
        def wrapped(x):
            calls.append((name, x is c))
            return fn(x)

        return wrapped

    monkeypatch.setattr(sl, "_schur_count", uncertified)
    monkeypatch.setattr(sl, "extended_hessian", counting("hessian", hessian))
    monkeypatch.setattr(sl, "_reducible_spectrum", counting("reducible", spectrum))
    assert sl.configuration_sign(c) == want
    assert sorted(calls) == [("hessian", True), ("reducible", True)]


@pytest.mark.parametrize("which", [2, 3])
def test_coupling_block_off_its_mirror_is_rejected(monkeypatch, which):
    rng = np.random.default_rng(108)
    tr = tm.TorusTruncation(1)
    c = sl.random_configuration(tr, rng)
    blocks = sl._coupling_blocks

    def perturbed(trunc, psi):
        out = list(blocks(trunc, psi))
        out[which] = out[which].copy()
        out[which][1, 2] += 1e-9
        return tuple(out)

    monkeypatch.setattr(sl, "_coupling_blocks", perturbed)
    with pytest.raises(ValueError):
        sl.configuration_sign(c)
    with pytest.raises(ValueError):
        sl.signed_count([c])


def test_irreducible_base_is_rejected_before_any_solve(monkeypatch):
    rng = np.random.default_rng(104)
    tr = tm.TorusTruncation(1)
    c = sl.random_configuration(tr, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the base was validated")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(sl, "extended_hessian", forbidden)
    monkeypatch.setattr(sl, "_dirac_matrix", forbidden)
    with pytest.raises(ValueError):
        sl.configuration_sign(c, base=c)


# Signs and signed counts of the earlier route, which ran the affine
# spectral flow on assembled Hessians at both ends.
FROZEN_SIGNS_C2 = [
    1, -1, 1, 1, 1, -1, -1, 1, 1, 1, 1, 1, 1, 1, -1,
    1, -1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, -1,
]
FROZEN_COUNTS_C2 = [
    (list(range(0, 6)), 2),
    (list(range(6, 12)), 4),
    (list(range(12, 20)), 4),
    (list(range(20, 30)), 2),
    ([3, 3, 7], 3),
]


def test_signs_equal_frozen_corpus():
    # the acceptance battery's seed-1010 stream at cutoff 1: all positive
    tr = tm.TorusTruncation(1)
    rng = np.random.default_rng(1010)
    for _ in range(50):
        c = sl.random_configuration(tr, rng)
        assert sl.configuration_sign(c) == 1
        assert sl.configuration_sign(c, base=random_reducible(tr, rng)) == 1
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rotated = sl.Configuration(tr, np.exp(1j * theta) * c.psi, c.alpha, c.a_field)
        assert sl.configuration_sign(rotated) == 1
    for size in (1, 2, 3, 4, 5):
        assert sl.signed_count([sl.random_configuration(tr, rng) for _ in range(size)]) == size

    configs, rng = scaled_configs(30)
    bases = [random_reducible(configs[0].trunc, rng) for _ in configs]
    got = [sl.configuration_sign(c, base=b) for c, b in zip(configs, bases)]
    assert got == FROZEN_SIGNS_C2
    for idx, want in FROZEN_COUNTS_C2:
        assert sl.signed_count([configs[i] for i in idx]) == want


# --------------------------------------------------------- crossing algebra


def unit_constant_spinor(tr, vec):
    psi = np.zeros((tr.mode_count, 2), complex)
    psi[tr.index((0, 0, 0))] = np.asarray(vec) / np.linalg.norm(vec)
    return psi


def test_crossing_coefficient_values():
    tr = tm.TorusTruncation(1)
    psi = unit_constant_spinor(tr, (1.0, 0.0))
    assert abs(sl.crossing_coefficient(tr, psi, np.array([0.0, 0.0, 0.8])) - 0.4) < 1e-14
    assert sl.crossing_coefficient(tr, psi, np.zeros(3)) == 0.0
    assert (
        abs(
            sl.crossing_coefficient(tr, 1j * psi, np.array([0.0, 0.0, 0.8]))
            - sl.crossing_coefficient(tr, psi, np.array([0.0, 0.0, 0.8]))
        )
        < 1e-14
    )
    with pytest.raises(ValueError):
        sl.crossing_coefficient(tr, 2.0 * psi, np.array([0.0, 0.0, 0.8]))


def test_crossing_coefficient_sign_vs_family():
    rng = np.random.default_rng(99)
    tr = tm.TorusTruncation(1)
    for _ in range(5):
        w = rng.standard_normal(3)
        evals, evecs = np.linalg.eigh(np.einsum("j,jab->ab", w, cl.PAULI))
        for which in (0, 1):
            psi = unit_constant_spinor(tr, evecs[:, which])
            fam = sl.mode_zero_crossing_family(w)
            kap = sl.crossing_coefficient(tr, psi, w, crossing_path=fam)
            assert abs(kap - 0.5 * evals[which]) < 1e-12
        # a family for the reversed covector has the opposite branch slope
        psi = unit_constant_spinor(tr, evecs[:, 1])
        with pytest.raises(RuntimeError):
            sl.crossing_coefficient(tr, psi, w, crossing_path=sl.mode_zero_crossing_family(-w))


def test_crossing_matrices():
    tr = tm.TorusTruncation(1)
    psi = unit_constant_spinor(tr, (1.0, 0.0))
    b0 = sl.crossing_matrix_b0(tr, psi)
    assert np.max(np.abs(b0 - np.array([[0, 0, 0], [0, 0, -1], [0, -1, 0]], dtype=float))) == 0.0
    assert np.allclose(np.linalg.eigvalsh(b0), [-1.0, 0.0, 1.0], atol=1e-14)
    w = np.array([0.0, 0.0, 0.8])
    b1 = sl.crossing_matrix_b1(tr, psi, w)
    kt = 0.4 / 0.8
    assert np.max(np.abs(b1 - b1.T)) == 0.0
    assert abs(np.linalg.det(b1) - kt**2) < 1e-12
    assert np.allclose(np.sort(np.linalg.eigvalsh(b1)), np.sort([-1.0, 1.0, -kt, kt]), atol=1e-12)
    # vanishing coupling is flagged as degenerate
    sideways = unit_constant_spinor(tr, (1.0, 1.0))
    with pytest.raises(ValueError):
        sl.crossing_matrix_b1(tr, sideways, w)
