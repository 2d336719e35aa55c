"""Local structures of the monopole equations on the truncated torus.

Field representations share the truncation's mode labels:

* spinor fields are complex Fourier coefficient arrays of shape (M, 2),
* imaginary functions i*u and imaginary 1-forms i*g are stored through
  the real coefficients of u and g in the orthonormal trigonometric
  basis (1 at the zero mode, sqrt(2) cos<k,x> at lexicographically
  positive modes, sqrt(2) sin<k,x> at their negatives),
* tangent vectors realify to [Re spinor | Im spinor | 1-form | function]
  blocks so the operators below become real symmetric matrices.

Quadratic expressions are evaluated by exact mode convolution over the
sparse supports.  Value-producing operations raise MarginError when the
true product would leave the truncation; operator assembly instead clips
to the truncation, which is the orthogonal compression and keeps all the
adjointness identities exact.  The operators are assembled over the
fields' supports as well: the Dirac operator adds its 1-form's Toeplitz
blocks, and the coupling blocks form their entries, only where the
field is nonzero, and the first-order blocks from their per-mode
blocks; each entry takes the products and two-term sums of the
compression Re(u^H X u) (``_pair``).  They are built apart from the
value-level kernels, which check them.

Signs by inertia.  A configuration sign is (-1)^SF of an affine path of
extended Hessians, and the endpoint-count SF needs only how many
eigenvalues of each end lie below the counting line delta of
specflow._endpoint_flow.  Write the Hessian of an irreducible c as
H = [[R, C], [C^T, F]]: R the realified Dirac block (4M; at a reducible
end its spectrum is the complex block's, each eigenvalue twice),
C = [block_a | block_f], and F the configuration-free form block (4M),
whose eigenvectors are taken once per cutoff by its (k, -k) pair
blocks, Q_r on the range (|lam| >= 1) and Q_0 on the 4-dimensional
kernel.  By Haynsworth's inertia additivity (Haynsworth 1968;
Sylvester's law of inertia for the congruence that eliminates the
range), the number of eigenvalues of H below tau is

    #(Lam_r < tau) + #neg S(tau),
    S(tau) = [[R - tau - C_r (Lam_r - tau)^-1 C_r^T, C_0], [C_0^T, Lam_0 - tau]],

with C_r = C Q_r and C_0 = C Q_0, taken block by block; S has size
4M + 4.  H is not
assembled: one eigvalsh of S at tau* = c's own kernel floor
(kernel_threshold_rel times H's largest entry, floored at 1) gives the
count, and a certificate extends it to an interval of shifts.  dS/dtau
<= -I, and for |tau| <= min|Lam_r|/2 its norm is at most
L = 1 + 4 ||C||_F^2 / min|Lam_r|^2, so every eigenvalue of S falls with
tau at a rate between 1 and L.  The count therefore holds on
(tau* - m_-/L, tau* + m_+/L), where m_- and m_+ are the smallest |mu|
over the negative and over the non-negative eigenvalues of S, each less
a rounding allowance of order n eps (||S||_F plus the products' and F's
eigenbasis' rounding); an end keeps only (top, count, interval).

The window.  For a pair of ends, floor = kernel_threshold_rel * scale;
delta is at least min(floor, delta_cap)/2, and every end eigenvalue above
the floor in magnitude is at least 2 delta.  So an end's count below
delta equals its count below every shift of W = [min(floor,
delta_cap)/2, floor] when it has no eigenvalue in W, and a pair takes
its counts on W: an irreducible end when W lies inside its certified
interval, a reducible end (whose spectrum is kept, by blocks) when none
of its eigenvalues lies in W.  Otherwise the pair falls back to the
dense route, the rule of specflow._endpoint_flow on whole spectra, and
an irreducible end is then assembled and diagonalized.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import clifford3 as cl
from . import specflow as sfmod
from .torus_model import (
    FlatConnection,
    MarginError,
    TorusTruncation,
    _star_block,
    _wedge_blocks,
    fourier_dirac_blocks,
)

__all__ = [
    "Configuration",
    "TangentVector",
    "Perturbation",
    "real_to_complex",
    "complex_to_real",
    "realify_spinor",
    "unrealify_spinor",
    "tangent_to_vector",
    "vector_to_tangent",
    "tangent_inner",
    "field_radius",
    "random_configuration",
    "sw_map",
    "sw_map_perturbed",
    "chern_simons_dirac",
    "sw_hessian",
    "extended_hessian",
    "gauge_deriv",
    "gauge_deriv_adjoint",
    "dastq_residual",
    "configuration_sign",
    "signed_count",
    "crossing_coefficient",
    "mode_zero_crossing_family",
    "crossing_matrix_b0",
    "crossing_matrix_b1",
]


# --------------------------------------------------------------- tables

_CACHE = {}


def _tables(trunc):
    """Mode tables of a truncation, built once per cutoff.

    ``shift[p, q]`` is the index of k_p + k_q and ``diff[p, q]`` that of
    k_p - k_q (-1 outside the truncation); ``neg`` is the index of -k.
    The trig-to-Fourier unitary u pairs each mode with its negative,
    (u x)_p = diag_p x_p + off_p x_{-p}: at a lexicographically positive
    mode (p > neg[p]) the coefficient carries cos, at its negative sin.
    ``first_order`` and ``form_basis`` are filled on first use.
    """
    tab = _CACHE.get(trunc.cutoff)
    if tab is not None:
        return tab
    neg = trunc.neg
    p = np.arange(trunc.mode_count)
    s = 1.0 / np.sqrt(2.0)
    diag = np.select([p > neg, p < neg], [s, 1j * s], 1.0)
    off = np.select([p > neg, p < neg], [-1j * s, s], 0.0)
    star2 = _star_block(2)
    tab = SimpleNamespace(
        neg=neg,
        shift=trunc.sums,
        diff=trunc.sums[:, neg],
        diag=diag,
        off=off,
        star_d=star2 @ _wedge_blocks(trunc.modes, 1),
        star2=star2,
        first_order=None,
        form_basis=None,
    )
    _CACHE[trunc.cutoff] = tab
    return tab


def _pair(tab, x, first, second, axis=0):
    """first_p x_p + second_p x_{-p} along ``axis`` of x, whose length is
    the mode count times a block size, the mode varying slowest."""
    y = x.reshape(x.shape[:axis] + (tab.neg.size, -1) + x.shape[axis + 1 :])
    w = (-1,) + (1,) * (y.ndim - axis - 1)
    out = second.reshape(w) * np.take(y, tab.neg, axis=axis)
    out += first.reshape(w) * y
    return out.reshape(x.shape)


def _uh(tab, y):
    """u^H y along the first axis of y: column p of u holds diag_p and,
    in row -p, off_{-p}."""
    return _pair(tab, y, np.conj(tab.diag), np.conj(tab.off[tab.neg]))


def _compress(tab, blocks):
    """Re(u^H X u), a real operator from the complex Fourier matrix X
    that is block diagonal over the modes with the blocks (M, r, c).

    u pairs each mode with its negative, so X u and u^H X u are nonzero
    only in the blocks (p, p) and (-p, p) of each column mode p (X holds
    a block at (p, -p) only at the self-paired zero mode).  Each entry
    takes the products and the two-term sum of ``_pair``, first along
    the columns (x u) and then along the rows (u^H y), so it equals the
    compression of the dense X entry by entry."""
    neg = tab.neg
    m, rows, cols = blocks.shape
    p = np.arange(m)
    w = (-1, 1, 1)
    # X[p, -p] and X[-p, p]: the block itself only where p = -p
    cross = np.where((neg == p).reshape(w), blocks, 0.0)
    first, second = tab.diag.reshape(w), tab.off[neg].reshape(w)
    y_p = second * cross + first * blocks  # (X u)[p, p]
    y_n = second * blocks[neg] + first * cross  # (X u)[-p, p]
    first, second = np.conj(tab.diag).reshape(w), np.conj(tab.off[neg]).reshape(w)
    out = np.zeros((m, rows, m, cols))
    out[p, :, p, :] = (second * y_n + first * y_p).real
    out[neg, :, p, :] = (second[neg] * y_p + first[neg] * y_n).real
    return out.reshape(m * rows, m * cols)


def _gather(table, vals):
    """vals[table] along the first axis, zero where the table holds -1."""
    padded = np.concatenate([vals, np.zeros((1,) + vals.shape[1:], dtype=vals.dtype)])
    return padded[table]


def real_to_complex(trunc, trig):
    tab = _tables(trunc)
    return _pair(tab, np.asarray(trig, dtype=float), tab.diag, tab.off)


def complex_to_real(trunc, hat):
    return _uh(_tables(trunc), np.asarray(hat, dtype=complex)).real


def realify_spinor(psi):
    flat = np.asarray(psi, dtype=complex).reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def unrealify_spinor(vec):
    vec = np.asarray(vec, dtype=float)
    n = vec.size // 2
    return (vec[:n] + 1j * vec[n:]).reshape(-1, 2)


def field_radius(trunc, coeffs):
    """Largest sup-norm of a mode carrying a nonzero coefficient."""
    coeffs = np.asarray(coeffs)
    flat = coeffs.reshape(coeffs.shape[0], -1)
    mask = np.any(flat != 0, axis=1)
    if not np.any(mask):
        return 0
    return int(np.max(trunc.radii[mask]))


def _sparse_rows(arr):
    flat = np.asarray(arr).reshape(arr.shape[0], -1)
    return np.nonzero(np.any(flat != 0, axis=1))[0]


# ---------------------------------------------------------------- types


@dataclass
class Configuration:
    """A spinor field together with a connection offset from the flat base.

    The connection is A_base + i alpha_j dx^j + i a_field; the spinor is
    stored as complex Fourier coefficients, the 1-form part as real trig
    coefficients.
    """

    trunc: TorusTruncation
    psi: np.ndarray
    alpha: np.ndarray
    a_field: np.ndarray = None

    def __post_init__(self):
        m = self.trunc.mode_count
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (m, 2):
            raise ValueError("spinor coefficients must have shape (modes, 2)")
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (3,):
            raise ValueError("holonomy offset must be a real 3-vector")
        if self.a_field is None:
            self.a_field = np.zeros((m, 3))
        else:
            self.a_field = np.asarray(self.a_field, dtype=float)
            if self.a_field.shape != (m, 3):
                raise ValueError("1-form offset must have shape (modes, 3)")
        if not all(np.isfinite(x).all() for x in (self.psi, self.alpha, self.a_field)):
            raise ValueError("configuration fields must be finite")

    @property
    def reducible(self):
        return not np.any(self.psi)


@dataclass
class TangentVector:
    """(spinor, imaginary 1-form, optional imaginary function) triple."""

    phi: np.ndarray
    a: np.ndarray
    f: np.ndarray = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        self.a = np.asarray(self.a, dtype=float)
        if self.f is not None:
            self.f = np.asarray(self.f, dtype=float)


@dataclass
class Perturbation:
    """A closed imaginary 2-form: d(potential) plus a constant harmonic part."""

    trunc: TorusTruncation
    potential: np.ndarray = None
    harmonic: np.ndarray = None

    def __post_init__(self):
        m = self.trunc.mode_count
        if self.potential is None:
            self.potential = np.zeros((m, 3))
        else:
            self.potential = np.asarray(self.potential, dtype=float)
            if self.potential.shape != (m, 3):
                raise ValueError("potential must be a truncated 1-form")
        if self.harmonic is None:
            self.harmonic = np.zeros(3)
        else:
            self.harmonic = np.asarray(self.harmonic, dtype=float)
            if self.harmonic.shape != (3,):
                raise ValueError("harmonic part must be a constant 2-form 3-vector")


def tangent_to_vector(tv):
    parts = [realify_spinor(tv.phi), tv.a.reshape(-1)]
    if tv.f is not None:
        parts.append(tv.f)
    return np.concatenate(parts)


def vector_to_tangent(trunc, vec, has_f):
    m = trunc.mode_count
    phi = unrealify_spinor(vec[: 4 * m])
    a = vec[4 * m : 7 * m].reshape(m, 3)
    f = vec[7 * m :].copy() if has_f else None
    return TangentVector(phi, a, f)


def tangent_inner(t1, t2):
    """Realified L2 pairing of tangent vectors."""
    out = float(np.real(np.sum(t1.phi * np.conj(t2.phi))))
    out += float(t1.a.reshape(-1) @ t2.a.reshape(-1))
    if t1.f is not None and t2.f is not None:
        out += float(t1.f @ t2.f)
    return out


def random_configuration(trunc, rng, radius=None):
    """Random configuration supported on modes of at most half the cutoff.

    The restricted support guarantees all quadratic margins below.
    """
    if radius is None:
        radius = trunc.cutoff // 2
    m = trunc.mode_count
    mask = trunc.radii <= radius
    count = int(mask.sum())
    psi = np.zeros((m, 2), dtype=complex)
    psi[mask] = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    psi *= rng.uniform(0.5, 1.5) / max(np.linalg.norm(psi), 1e-12)
    a_field = np.zeros((m, 3))
    a_field[mask] = rng.standard_normal((count, 3))
    a_field *= rng.uniform(0.3, 1.0) / max(np.linalg.norm(a_field), 1e-12)
    return Configuration(trunc, psi, rng.uniform(-1.0, 1.0, size=3), a_field)


# ----------------------------------------------------- product kernels


def _mul_form_spinor(trunc, b_hat, psi):
    """Coefficients of (sum_j b_j sigma_j) psi; targets outside are clipped."""
    tab = _tables(trunc)
    out = np.zeros_like(psi)
    sig_psi = np.einsum("jab,mb->jma", cl.PAULI, psi)
    rows = _sparse_rows(psi)
    if rows.size == 0:
        return out
    for q in _sparse_rows(b_hat):
        tgts = tab.shift[rows, q]
        ok = tgts >= 0
        for j in range(3):
            if b_hat[q, j] != 0:
                np.add.at(out, tgts[ok], b_hat[q, j] * sig_psi[j, rows[ok]])
    return out


def _mul_scalar_spinor(trunc, u_hat, psi, factor=1.0):
    tab = _tables(trunc)
    out = np.zeros_like(psi)
    rows = _sparse_rows(psi)
    if rows.size == 0:
        return out
    for q in np.nonzero(u_hat != 0)[0]:
        tgts = tab.shift[rows, q]
        ok = tgts >= 0
        np.add.at(out, tgts[ok], (factor * u_hat[q]) * psi[rows[ok]])
    return out


def _pair_to_form(trunc, psi, phi):
    """Complex coefficients of the real covector field pairing two spinors.

    Pointwise this is the symmetric polarization of the quadratic
    covector: component j equals (1/2) Re <sigma_j psi(x), phi(x)>.
    """
    tab = _tables(trunc)
    m = trunc.mode_count
    sig_psi = np.einsum("jab,mb->jma", cl.PAULI, psi)
    h = np.zeros((m, 3), dtype=complex)
    rows1 = _sparse_rows(psi)
    for k2 in _sparse_rows(phi):
        tgts = tab.shift[rows1, tab.neg[k2]]
        ok = tgts >= 0
        vals = np.einsum("jma,a->mj", sig_psi[:, rows1], np.conj(phi[k2]))
        np.add.at(h, tgts[ok], vals[ok])
    return 0.25 * (h + np.conj(h[tab.neg]))


def _pair_to_scalar(trunc, phi, psi):
    """Complex coefficients of the real function -Im <phi(x), psi(x)>."""
    tab = _tables(trunc)
    w = np.zeros(trunc.mode_count, dtype=complex)
    rows1 = _sparse_rows(phi)
    for k2 in _sparse_rows(psi):
        tgts = tab.shift[rows1, tab.neg[k2]]
        ok = tgts >= 0
        vals = phi[rows1] @ np.conj(psi[k2])
        np.add.at(w, tgts[ok], vals[ok])
    return 0.5j * (w - np.conj(w[tab.neg]))


def _apply_dirac(c, psi):
    tr = c.trunc
    vals = tr.modes + c.alpha / 2.0
    out = np.einsum("mj,jab,mb->ma", vals, cl.PAULI, psi)
    if np.any(c.a_field):
        out = out + 0.5 * _mul_form_spinor(tr, real_to_complex(tr, c.a_field), psi)
    return out


def _star_d(trunc, form_trig):
    tab = _tables(trunc)
    b_hat = real_to_complex(trunc, form_trig)
    return complex_to_real(trunc, np.einsum("mij,mj->mi", tab.star_d, b_hat))


def _codiff(trunc, form_trig):
    b_hat = real_to_complex(trunc, form_trig)
    out = -1j * np.einsum("mj,mj->m", trunc.modes.astype(float), b_hat)
    return complex_to_real(trunc, out)


def _d_scalar(trunc, f_trig):
    hat = real_to_complex(trunc, f_trig)
    return complex_to_real(trunc, 1j * trunc.modes.astype(float) * hat[:, None])


# -------------------------------------------------------------- sw map


def sw_map(c):
    """The monopole map (Dirac of the spinor, half-quadratic minus *curvature)."""
    tr = c.trunc
    r_psi = field_radius(tr, c.psi)
    r_a = field_radius(tr, c.a_field)
    if 2 * r_psi > tr.cutoff:
        raise MarginError("quadratic spinor term leaves the truncation")
    if r_psi + r_a > tr.cutoff:
        raise MarginError("connection-spinor product leaves the truncation")
    phi = _apply_dirac(c, c.psi)
    q_trig = complex_to_real(tr, _pair_to_form(tr, c.psi, c.psi))
    a_out = 0.5 * q_trig - _star_d(tr, c.a_field)
    return TangentVector(phi, a_out)


def _star_eta(pert):
    tr = pert.trunc
    out = _star_d(tr, pert.potential)
    out[tr.index((0, 0, 0))] += _tables(tr).star2 @ pert.harmonic
    return out


def sw_map_perturbed(c, pert):
    """Monopole map shifted by the star of a closed 2-form."""
    out = sw_map(c)
    return TangentVector(out.phi, out.a - _star_eta(pert))


def chern_simons_dirac(c):
    """The action functional whose L2 gradient is the monopole map.

    Both integrals are Parseval sums of truncated coefficients, so no
    margin is needed; the spinor term must be real to 1e-12.
    """
    tr = c.trunc
    dpsi = _apply_dirac(c, c.psi)
    spin = complex(np.sum(c.psi * np.conj(dpsi)))
    if abs(spin.imag) > 1e-12 * max(1.0, abs(spin)):
        raise ArithmeticError("spinor pairing is not real")
    h = c.a_field.copy()
    h[tr.index((0, 0, 0))] += c.alpha
    w = _star_d(tr, h)
    return 0.5 * (spin.real - float(h.reshape(-1) @ w.reshape(-1)))


# -------------------------------------------------------- gauge action


def gauge_deriv(c, f_trig):
    """Derivative of the gauge action at the identity: (-f psi, 2 df)."""
    tr = c.trunc
    f_trig = np.asarray(f_trig, dtype=float)
    if field_radius(tr, f_trig) + field_radius(tr, c.psi) > tr.cutoff:
        raise MarginError("gauge function times spinor leaves the truncation")
    phi = _mul_scalar_spinor(tr, real_to_complex(tr, f_trig), c.psi, factor=-1j)
    return TangentVector(phi, 2.0 * _d_scalar(tr, f_trig))


def gauge_deriv_adjoint(c, tv):
    """Adjoint of the gauge derivative: 2 d* a - i Im <phi, psi>."""
    tr = c.trunc
    if field_radius(tr, tv.phi) + field_radius(tr, c.psi) > tr.cutoff:
        raise MarginError("spinor pairing leaves the truncation")
    v_hat = _pair_to_scalar(tr, tv.phi, c.psi)
    return 2.0 * _codiff(tr, tv.a) + complex_to_real(tr, v_hat)


def dastq_residual(c):
    """Sup-norm coefficient residual of the co-closure identity for q.

    The codifferential of the quadratic covector equals i Im of the
    pairing of the Dirac image with the spinor; both sides are assembled
    independently.
    """
    tr = c.trunc
    r_psi = field_radius(tr, c.psi)
    r_a = field_radius(tr, c.a_field)
    if 2 * r_psi > tr.cutoff or r_psi + r_a > tr.cutoff:
        raise MarginError("quadratic terms leave the truncation")
    g_hat = _pair_to_form(tr, c.psi, c.psi)
    lhs = -1j * np.einsum("mj,mj->m", tr.modes.astype(float), g_hat)
    dpsi = _apply_dirac(c, c.psi)
    rhs = -_pair_to_scalar(tr, dpsi, c.psi)
    return float(np.max(np.abs(lhs - rhs)))


# ------------------------------------------------------------ operators


def _dirac_blocks(c, whole=False):
    """D_A of c by the blocks of its mode partition: (parts, stacks).

    Modes t and p are joined when k_t - k_p carries the 1-form, and the
    parts are the connected components of that graph (specflow._partition
    on the M x M mode adjacency; every mode alone when the 1-form is
    zero), or all modes at once when ``whole``.  Mode p contributes the
    spinor indices 2p and 2p + 1.  For each part size, ``parts`` holds a
    (count, 2 size) array of ascending spinor indices and ``stacks`` the
    (count, 2 size, 2 size) blocks of D_A on them: the flat mode blocks
    sigma . (k + alpha/2) (``fourier_dirac_blocks``) on the diagonal, then
    the Toeplitz blocks (1/2) sigma . b_hat[k_t - k_p] of the 1-form,
    added over its support one component j at a time.  Every entry off
    the blocks is zero, so each block is the gather of ``_dirac_matrix``
    on its indices, entry for entry."""
    tr = c.trunc
    m = tr.mode_count
    half_b = 0.5 * real_to_complex(tr, c.a_field)
    support = _sparse_rows(half_b)
    tab = _tables(tr)
    # k_t - k_p = k_s at t = shift[s, p]
    s, p = np.nonzero(tab.shift[support] >= 0)
    t = tab.shift[support[s], p]
    if whole:
        modes = [np.arange(m)[None]]
    elif support.size:
        joined = np.zeros((m, m), dtype=bool)
        joined[t, p] = True
        modes = sfmod._partition(joined, m)
    else:
        modes = [np.arange(m)[:, None]]
    # each mode's part, and its row and column there
    part, row, col = (np.empty(m, dtype=int) for _ in range(3))
    for i, idx in enumerate(modes):
        part[idx], row[idx], col[idx] = i, np.arange(idx.shape[0])[:, None], np.arange(idx.shape[1])
    flat = fourier_dirac_blocks(tr, FlatConnection(c.alpha))
    parts, stacks = [], []
    for i, idx in enumerate(modes):
        count, size = idx.shape
        out = np.zeros((count, size, 2, size, 2), dtype=complex)
        out[row[idx], col[idx], :, col[idx]] = flat[idx]
        on = part[p] == i
        at = (row[t[on]], col[t[on]], slice(None), col[p[on]])
        for j in range(3):
            out[at] += half_b[support, j, None, None][s[on]] * cl.PAULI[j]
        parts.append((2 * idx[:, :, None] + np.arange(2)).reshape(count, 2 * size))
        stacks.append(out.reshape(count, 2 * size, 2 * size))
    return parts, stacks


def _dirac_matrix(c):
    """Dirac operator of c on complex coefficients, (2M, 2M): the one-block
    case of ``_dirac_blocks``."""
    return _dirac_blocks(c, whole=True)[1][0][0]


def _first_order(trunc):
    tab = _tables(trunc)
    if tab.first_order is None:
        d0 = _wedge_blocks(trunc.modes, 0)
        tab.first_order = SimpleNamespace(
            minus_star_d=_compress(tab, -tab.star_d),
            d0=_compress(tab, d0),
            cod1=_compress(tab, d0.conj().transpose(0, 2, 1)),
        )
    return tab.first_order


def _pair_at(first, second, a, b, xa, xb):
    """first_p x_p + second_p x_{-p} (``_pair``) at p = a and at p = b = -a,
    from x at a and at b: the same two products and sum, entry by entry."""
    w = (-1,) + (1,) * (xa.ndim - 1)
    return (
        second[a].reshape(w) * xb + first[a].reshape(w) * xa,
        second[b].reshape(w) * xa + first[b].reshape(w) * xb,
    )


def _coupling_blocks(trunc, psi, out=None):
    """Realified zero-order blocks linear in the background spinor.

    Returns (spinor row from 1-forms, spinor row from functions,
    form row from spinors, function row from spinors); each block is the
    orthogonal compression of the corresponding pointwise product, whose
    complex Fourier matrix holds the spinor at k_t - k_q or k_t + k_q.
    Only the entries where that mode lies in the spinor's support are
    formed, together with their partners under the pairing p <-> -p of
    u, each with the products and two-term sums of ``_pair``, and
    scattered into zero blocks.  A zero spinor gives zero blocks.  ``out``
    holds four zero blocks of those shapes to scatter into in place of
    new ones, with None for a function block (the second and fourth)
    that is not wanted: it is neither allocated nor formed, and is None
    in the result.  Without ``out`` all four are allocated.
    """
    tab = _tables(trunc)
    m = trunc.mode_count
    shapes = ((4 * m, 3 * m), (4 * m, m), (3 * m, 4 * m), (m, 4 * m))
    out = [np.zeros(s) for s in shapes] if out is None else list(out)
    # block_a[part, t, s, q, j] is row (part, t, s) and column (q, j);
    # block_q[t, j, part, p, s] is row (t, j) and column (part, p, s).
    # Splitting axes makes views, also of a block of a larger matrix.
    block_a = out[0].reshape(2, m, 2, m, 3)
    block_f = None if out[1] is None else out[1].reshape(2, m, 2, m)
    block_q = out[2].reshape(m, 3, 2, m, 2)
    block_v = None if out[3] is None else out[3].reshape(m, 2, m, 2)
    support = _sparse_rows(psi)
    if support.size:
        sig_psi = np.einsum("jab,mb->maj", cl.PAULI, psi)
        diag, off = tab.diag, tab.off[tab.neg]

        def paired(at_s):
            """(o, a, b): each outer mode o with the inner mode a at which
            the matrix holds the spinor at a support mode s (at_s[o, i] for
            s = support[i], -1 outside), and b = -a.  The matrix holds the
            spinor at 2 k_o - k_s at b, which may lie off the support."""
            o, i = np.nonzero(at_s >= 0)
            a = at_s[o, i]
            return o, a, tab.neg[a]

        # Columns: (t, s), (q, j) holds (1/2) (sigma_j psi)_s at k_t - k_q,
        # and -i psi_s there; x u pairs the columns q and -q.
        o, a, b = paired(tab.diff[:, support])
        for vals, block in ((0.5 * sig_psi, block_a), (-1j * psi, block_f)):
            if block is None:
                continue
            xa, xb = _gather(tab.diff[o, a], vals), _gather(tab.diff[o, b], vals)
            for p, val in zip((a, b), _pair_at(diag, off, a, b, xa, xb)):
                block[0][o, :, p] = val.real
                block[1][o, :, p] = val.imag

        # Rows (t, j) and t, columns (part, p, s) with part the real and
        # imaginary halves of the realified spinor: h_j = [G_j, -i G_j]
        # with G_j holding (sigma_j psi)_s at k_t + k_p, and w = [W, i W]
        # with W holding conj(psi_s) at k_p - k_t.  Each is summed with
        # its mirror in the rows t and -t, and u^H pairs those rows
        # again.  The outer mode is p: W meets the support where the
        # columns above do, G_j where k_t = k_s - k_p.
        ch, co = np.conj(diag), np.conj(off)
        o_q, a_q, b_q = paired(tab.diff[support].T)
        g = (_gather(tab.shift[a_q, o_q], sig_psi), _gather(tab.shift[b_q, o_q], sig_psi))
        if block_v is not None:
            w = (_gather(tab.diff[o, a], np.conj(psi)), _gather(tab.diff[o, b], np.conj(psi)))
        for part in range(2):
            ha, hb = g if part == 0 else (-1j * g[0], -1j * g[1])
            sa, sb = 0.25 * (ha + np.conj(hb)), 0.25 * (hb + np.conj(ha))
            for t, val in zip((a_q, b_q), _pair_at(ch, co, a_q, b_q, sa, sb)):
                block_q[t, :, part, o_q] = val.real.transpose(0, 2, 1)
            if block_v is None:
                continue
            wa, wb = w if part == 0 else (1j * w[0], 1j * w[1])
            sa, sb = 0.5j * (wa - np.conj(wb)), 0.5j * (wb - np.conj(wa))
            for t, val in zip((a, b), _pair_at(ch, co, a, b, sa, sb)):
                block_v[t, part, o] = val.real
    return tuple(out)


def _assemble_hessian(c, extended):
    tr = c.trunc
    m = tr.mode_count
    fo = _first_order(tr)
    n_s, n_a = 4 * m, 3 * m
    size = n_s + n_a + (m if extended else 0)
    h = np.zeros((size, size))
    # the blocks are written into h, with no temporary of their size
    sfmod.realify_matrix(_dirac_matrix(c), out=h[:n_s, :n_s])
    sp, fm, fn = slice(0, n_s), slice(n_s, n_s + n_a), slice(n_s + n_a, size)
    # the gauge blocks only in the extended Hessian: None forms neither
    gauge = (h[sp, fn], h[fn, sp]) if extended else (None, None)
    _coupling_blocks(tr, c.psi, out=(h[sp, fm], gauge[0], h[fm, sp], gauge[1]))
    h[fm, fm] = fo.minus_star_d
    if extended:
        np.multiply(2.0, fo.d0, out=h[fm, fn])
        np.multiply(2.0, fo.cod1, out=h[fn, fm])
    return h


def sw_hessian(c):
    """Realified symmetric derivative of the monopole map at c."""
    return _assemble_hessian(c, extended=False)


def extended_hessian(c):
    """Hessian extended by the gauge derivative and its adjoint."""
    return _assemble_hessian(c, extended=True)


# ------------------------------------------------------- sign and count


def _checked_spectrum(mat):
    """(eigenvalues, largest entry magnitude) of a symmetric matrix."""
    top = sfmod._check_symmetric(mat)
    return np.linalg.eigvalsh(mat), top


def _form_matrix(trunc):
    """The form block F = [[-*d, 2 d0], [2 d*, 0]] of the extended Hessian
    on (1-forms, functions).  It does not depend on the configuration."""
    fo = _first_order(trunc)
    n_a = 3 * trunc.mode_count
    f = np.zeros((n_a + trunc.mode_count,) * 2)
    f[:n_a, :n_a] = fo.minus_star_d
    f[:n_a, n_a:] = 2.0 * fo.d0
    f[n_a:, :n_a] = 2.0 * fo.cod1
    return f


def _eigenbasis(f, groups):
    """Eigenpairs of a symmetric F, block diagonal over ``groups``: index
    stacks of shape (g, b) that partition F, one block per row; one eigh
    per stack.  ``parts`` pairs each stack with its eigenvectors, ``lam``
    lists the eigenvalues in that order, and the masks ``neg``, ``ker``
    (|lam| < 1/2) and ``pos`` split it; ``gap`` is the smallest |lam| on
    the range, ``frob`` is ||F||_F and ``top`` F's largest entry."""
    top = sfmod._check_symmetric(f)
    blocks = [sfmod._gather(f, g) for g in groups]
    if sum(np.count_nonzero(b) for b in blocks) != np.count_nonzero(f):
        raise ValueError("matrix is not block diagonal over the given groups")
    parts, lams = [], []
    for g, block in zip(groups, blocks):
        lam, vec = np.linalg.eigh(block)
        parts.append((g, vec))
        lams.append(lam.reshape(-1))
    lam = np.concatenate(lams)
    ker = np.abs(lam) < 0.5
    return SimpleNamespace(
        parts=parts,
        lam=lam,
        neg=lam <= -0.5,
        ker=ker,
        pos=lam >= 0.5,
        gap=float(np.abs(lam[~ker]).min(initial=np.inf)),
        frob=float(np.sqrt(np.vdot(f, f))),
        top=top,
    )


def _form_basis(trunc):
    """``_eigenbasis`` of the form block, cached per cutoff on first use.
    Mode p has the coordinates (3p, 3p + 1, 3p + 2, 3M + p), and F pairs
    it only with -p: one 8x8 block per pair (k, -k) and the 4x4 block of
    the zero mode.  F's range eigenvalues are +-|k| and +-2|k| for k != 0,
    and its kernel is the constant 1-forms and functions."""
    tab = _tables(trunc)
    if tab.form_basis is None:
        m = trunc.mode_count
        p = np.arange(m)
        coords = np.column_stack([3 * p, 3 * p + 1, 3 * p + 2, 3 * m + p])
        up = p[p > tab.neg]
        groups = [np.hstack([coords[up], coords[tab.neg[up]]]), coords[p == tab.neg]]
        basis = _eigenbasis(_form_matrix(trunc), groups)
        if np.count_nonzero(basis.ker) != 4 or basis.gap < 1.0 - 1e-8:
            raise RuntimeError("form block spectrum: kernel not 4-dimensional or range below 1")
        tab.form_basis = basis
    return tab.form_basis


def _schur_count(r, c, basis, tau):
    """(count, lo, hi) for H = [[r, c], [c^T, F]], F given by its
    ``_eigenbasis``: the number of eigenvalues of H below tau, and an open
    interval (lo, hi) of shifts around tau on which that number holds.

    One eigvalsh of the Schur complement S(tau) (module docstring).  An
    empty interval (lo == hi) means the count is not certified."""
    lam, neg, ker, pos = basis.lam, basis.neg, basis.ker, basis.pos
    reach = 0.5 * basis.gap
    if not abs(tau) < reach:
        return 0, tau, tau
    n_s, k = r.shape[0], int(np.count_nonzero(ker))
    # C Q by blocks, one batched product per stack, columns in lam's order
    cq = np.empty((n_s, lam.size))
    col = 0
    for g, vec in basis.parts:
        out = cq[:, col : col + g.size].reshape(n_s, *g.shape).transpose(1, 0, 2)
        np.matmul(c[:, g].transpose(1, 0, 2), vec, out=out)
        col += g.size
    s = np.empty((n_s + k, n_s + k))
    top_left = s[:n_s, :n_s]
    # -C_r (Lam_r - tau)^-1 C_r^T = X_n X_n^T - X_p X_p^T, each a syrk
    x = cq[:, neg]
    x *= np.sqrt(1.0 / (tau - lam[neg]))
    np.matmul(x, x.T, out=top_left)
    gemm = float(np.vdot(x, x))
    x = cq[:, pos]
    x *= np.sqrt(1.0 / (lam[pos] - tau))
    top_left -= x @ x.T
    gemm += float(np.vdot(x, x))
    del x
    top_left += r
    top_left[np.diag_indices(n_s)] -= tau
    s[:n_s, n_s:] = cq[:, ker]
    s[n_s:, :n_s] = s[:n_s, n_s:].T
    s[n_s:, n_s:] = np.diag(lam[ker] - tau)
    del cq
    # every eigenvalue of S falls with tau at a rate in [1, rate]
    rate = 1.0 + float(np.vdot(c, c)) / reach**2
    # eigvalsh's backward error, the rounding of the products, and F's
    # eigenbasis, which is orthonormal and diagonalizes F to rounding
    slack = (n_s + k) * np.finfo(float).eps * (
        np.sqrt(np.vdot(s, s)) + gemm + rate * basis.frob
    )
    mu = np.linalg.eigvalsh(s)
    below = int(np.count_nonzero(mu < 0.0))
    count = int(np.count_nonzero(neg)) + below
    m_neg = -mu[below - 1] if below else np.inf
    m_pos = mu[below] if below < mu.size else np.inf
    if min(m_neg, m_pos) <= slack:
        return count, tau, tau
    lo = max(tau - (m_neg - slack) / rate, -reach)
    hi = min(tau + (m_pos - slack) / rate, reach)
    return count, lo, hi


def _dirac_block(c):
    """(stacks, top): the blocks of D_A on its mode partition
    (``_dirac_blocks``), checked Hermitian to the tolerance
    specflow._check_symmetric applies to D_A's realification R, and R's
    largest entry magnitude.  R's entries are those of Re D_A and Im D_A,
    and R - R^T those of D_A - D_A^H.  Every entry off the blocks is zero,
    so over the blocks the largest entry and the defect are those of the
    whole matrix, and the decision is the same bit for bit."""
    _, stacks = _dirac_blocks(c)
    top = max(sfmod._max_abs(b.view(float)) for b in stacks)
    defect = max(sfmod._max_abs((b - np.conj(np.swapaxes(b, -1, -2))).view(float)) for b in stacks)
    if defect > 1e-12 * max(1.0, top):
        raise ValueError("Dirac block is not Hermitian within tolerance")
    return stacks, top


def _reducible_spectrum(c, dirac=None):
    """Spectrum and largest entry magnitude of the extended Hessian at the
    reducible point (0, A) of c, by blocks.

    With a zero spinor the coupling blocks vanish, so the Hessian is
    diag(R, F) with R the realified Dirac operator D_A.  Realification
    doubles every eigenvalue, so D_A's complex spectrum is listed twice,
    and F's cached spectrum (``_form_basis``) is appended.  D_A is formed
    only by the blocks of its mode partition (``_dirac_block``), one
    stacked solve per block size (specflow._block_spectra).  A 1-form
    that is zero off the zero mode leaves one 2 x 2 block sigma . v per
    mode, and all M take one stacked 2 x 2 solve; one on the modes +-k
    couples mode p only with p +- k, so D_A splits along the lines of
    direction k; a 1-form that is nonzero on every mode couples all
    modes, and D_A is one block, taken by one dense solve.  ``dirac`` is
    the ``_dirac_block`` of c when the caller has it.
    """
    stacks, top = _dirac_block(c) if dirac is None else dirac
    form = _form_basis(c.trunc)
    eigs = sfmod._block_spectra(stacks)
    return np.concatenate([np.repeat(eigs, 2), form.lam]), max(top, form.top)


@dataclass
class _Endpoint:
    """One end of an affine path of extended Hessians, as a sign needs it.

    ``top`` is the Hessian's largest entry magnitude.  A reducible end
    keeps its spectrum ``eigs``.  An irreducible end keeps only ``count``,
    its number of eigenvalues below every shift of the open interval
    ``certified``, and ``dense``, which assembles and diagonalizes its
    Hessian when a pair needs the whole spectrum (the fallback)."""

    top: float
    eigs: np.ndarray = None
    count: int = 0
    certified: tuple = (0.0, 0.0)
    dense: object = None

    def count_on(self, lo, hi):
        """Eigenvalues below every shift of [lo, hi], or None when that
        number is not known to be constant there."""
        if self.eigs is not None:
            if np.any((self.eigs >= lo) & (self.eigs <= hi)):
                return None
            return sfmod._below(self.eigs, lo)
        if self.certified[0] < lo and hi < self.certified[1]:
            return self.count
        return None

    def spectrum(self):
        """The whole spectrum, diagonalized densely on first request for an
        irreducible end."""
        if self.eigs is None:
            self.eigs = self.dense()
            self.dense = None
        return self.eigs


def _reducible_endpoint(c, dirac=None):
    """The ``_Endpoint`` of the reducible point (0, A) of c, by blocks."""
    eigs, top = _reducible_spectrum(c, dirac)
    return _Endpoint(top, eigs=eigs)


def _check_transposed(block, mirror, scale):
    """Reject a coupling block that is not the transpose of its mirror to
    the tolerance of specflow._check_symmetric at ``scale``."""
    if sfmod._max_abs(block - mirror.T) > 1e-12 * max(1.0, scale):
        raise ValueError("extended Hessian is not symmetric within tolerance")


def _irreducible_endpoint(c, d, r_top, cfg):
    """The ``_Endpoint`` of an irreducible c from its blocks; H is not
    assembled.  d is c's Dirac matrix, whose blocks ``_dirac_block`` has
    checked, and r_top its realification's largest entry; each
    coupling block is checked against its mirror here.  The count is
    taken at c's own kernel floor by ``_schur_count`` on the realified
    Dirac block."""
    tr = c.trunc
    block_a, block_f, block_q, block_v = _coupling_blocks(tr, c.psi)
    form = _form_basis(tr)
    top = max(
        [r_top, form.top]
        + [sfmod._max_abs(b) for b in (block_a, block_f, block_q, block_v)]
    )
    _check_transposed(block_q, block_a, top)
    _check_transposed(block_v, block_f, top)
    coupling = np.hstack([block_a, block_f])
    del block_a, block_f, block_q, block_v
    tau = cfg.kernel_threshold_rel * max(1.0, top)
    count, lo, hi = _schur_count(sfmod.realify_matrix(d), coupling, form, tau)
    return _Endpoint(
        top,
        count=count,
        certified=(lo, hi),
        dense=lambda: _checked_spectrum(extended_hessian(c))[0],
    )


def _scaling_ends(c, cfg):
    """Both ends of the spinor-scaling path of c, its reducible point
    (0, A) and c itself, as ``_Endpoint``s that share one checked
    ``_dirac_block``.  Only the Schur count of an irreducible c needs D_A
    as one matrix: a one-block D_A is its own block, and a split one is
    formed whole (``_dirac_matrix``) only there."""
    dirac = _dirac_block(c)
    start = _reducible_endpoint(c, dirac)
    if c.reducible:
        return start, start
    stacks, top = dirac
    d = stacks[0][0] if stacks[0].shape[-1] == 2 * c.trunc.mode_count else _dirac_matrix(c)
    return start, _irreducible_endpoint(c, d, top, cfg)


def _parity(start, end, cfg):
    """(-1)^SF of the affine path between two ``_Endpoint``s.

    SF is the endpoint count below delta of specflow._endpoint_flow.  It
    equals the count below any shift of the window W = [min(floor,
    delta_cap)/2, floor] when neither end has an eigenvalue in W, so the
    ends' counts on W serve; otherwise both spectra are taken whole."""
    scale = max(1.0, start.top, end.top)
    floor = cfg.kernel_threshold_rel * scale
    window = (0.5 * min(floor, cfg.delta_cap), floor)
    n0, n1 = start.count_on(*window), end.count_on(*window)
    if n0 is None or n1 is None:
        sf, _ = sfmod._endpoint_flow(start.spectrum(), end.spectrum(), scale, cfg)
    else:
        sf = n0 - n1
    return 1 if sf % 2 == 0 else -1


def _sign(ends, base, cfg):
    """Sign from the ``_scaling_ends`` of a configuration: the parity of
    its scaling path, checked against the parity from ``base`` when one
    is given."""
    start, end = ends
    eps = _parity(start, end, cfg)
    if base is not None and _parity(_reducible_endpoint(base), end, cfg) != eps:
        raise RuntimeError("base-point route disagrees with the default route")
    return eps


# the shift choice of spectral_flow; the sign layer reads only its
# kernel_threshold_rel and delta_cap
_SHIFT_CFG = sfmod.SpectralFlowConfig()


def configuration_sign(c, base=None):
    """Orientation transport along the spinor-scaling path to c.

    The path t -> extended Hessian of (t psi, A) is affine in t, so the
    transport is the parity of the endpoint-count spectral flow, which
    needs only how many eigenvalues of each end lie below the counting
    line.  The reducible end (0, A) is taken by blocks: there the
    coupling blocks vanish, so its spectrum is that of the Dirac operator
    D_A joined with the cached spectrum of the configuration-free form
    block.  The Hessian of an irreducible c is not assembled: its count
    comes from one eigvalsh of a Schur complement of size 4M + 4 over the
    form block, with a certified interval of shifts on which the count
    holds; a pair whose counting window that interval does not cover
    diagonalizes the assembled Hessian instead (module docstring).  A
    reducible ``base`` (validated before any work) selects the
    alternative affine path from the base, whose end is taken by blocks
    as well; both routes must agree.  Every block is checked for
    symmetry.  The shift is chosen as in spectral_flow (``_SHIFT_CFG``).
    """
    if base is not None and not base.reducible:
        raise ValueError("base configuration must be reducible")
    return _sign(_scaling_ends(c, _SHIFT_CFG), base, _SHIFT_CFG)


def signed_count(configs):
    """Sum of configuration signs, cross-checked by the relative form.

    Each configuration's ends are taken once, as in configuration_sign
    (one Schur-complement solve per configuration, reducible ends by
    blocks), and serve both expressions.  The direct sum adds the
    configuration signs.  The relative form anchors at the first entry
    and multiplies its sign into the parities of the affine paths from
    it, each taken from the two ends' counts on its own counting window;
    the two expressions must produce the same integer.
    """
    configs = list(configs)
    for c in configs:
        if c.reducible:
            raise ValueError("signed counts are defined for irreducible configurations")
    if not configs:
        return 0
    ends = [_scaling_ends(c, _SHIFT_CFG) for c in configs]
    signs = [_sign(pair, None, _SHIFT_CFG) for pair in ends]
    total = sum(signs)
    rel = signs[0] * sum(_parity(ends[0][1], end, _SHIFT_CFG) for _, end in ends)
    if rel != total:
        raise RuntimeError("relative count disagrees with the direct sum")
    return total


# ------------------------------------------------------ crossing algebra


def _check_unit(trunc, psi0):
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (trunc.mode_count, 2):
        raise ValueError("spinor coefficients must have shape (modes, 2)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("spinor must have unit L2 norm")
    return psi0


def crossing_coefficient(trunc, psi0, omega0, crossing_path=None):
    """Half the L2 pairing of the constant covector's Clifford action.

    With a crossing family supplied, the (realified, zero-mode) spinor
    must be an eigenbranch of the family's derivative at the crossing and
    the branch slope must carry the same sign as the coefficient.
    """
    psi0 = _check_unit(trunc, psi0)
    omega0 = np.asarray(omega0, dtype=float)
    kap = 0.5 * float(
        np.real(np.einsum("j,jab,mb,ma->", omega0, cl.PAULI, psi0, np.conj(psi0)))
    )
    if crossing_path is not None:
        i0 = trunc.index((0, 0, 0))
        support = _sparse_rows(psi0)
        if not np.all(support == i0):
            raise ValueError("crossing check requires a zero-mode spinor")
        if crossing_path.n != 4:
            raise ValueError("crossing family must act on the realified zero mode")
        if np.abs(crossing_path.evaluate(0.0)).max() > 1e-10:
            raise ValueError("crossing family must vanish at 0")
        d = crossing_path.derivative_at(0.0)
        b0 = 0.5 * (d + d.T)
        v = np.concatenate([psi0[i0].real, psi0[i0].imag])
        slope = float(v @ b0 @ v)
        resid = np.linalg.norm(b0 @ v - slope * v)
        if resid > 1e-8 * max(1.0, np.linalg.norm(b0)):
            raise ValueError("spinor does not span an eigenbranch of the family")
        if kap != 0.0 and np.sign(slope) != np.sign(kap):
            raise RuntimeError("crossing slope sign disagrees with the coefficient")
    return kap


def mode_zero_crossing_family(omega0, halfwidth=0.25):
    """The level family of the zero mode under a constant covector sweep."""
    block = 0.5 * np.einsum("j,jab->ab", np.asarray(omega0, dtype=float), cl.PAULI)
    lin = sfmod.realify_matrix(block)
    return sfmod.HermitianPath.affine(np.zeros((4, 4)), lin, a=-halfwidth, b=halfwidth)


def crossing_matrix_b0(trunc, psi0):
    """Crossing operator of the degenerate path in the adapted frame."""
    _check_unit(trunc, psi0)
    return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])


def crossing_matrix_b1(trunc, psi0, omega0):
    """Crossing operator in the frame (psi0, i psi0, unit covector, i).

    Determinant is the squared ratio of the coupling to the covector
    norm; a vanishing coupling is degenerate and rejected.
    """
    omega0 = np.asarray(omega0, dtype=float)
    wn = float(np.linalg.norm(omega0))
    if wn == 0.0:
        raise ValueError("covector must be nonzero")
    kt = crossing_coefficient(trunc, psi0, omega0) / wn
    if abs(kt) < 1e-12:
        raise ValueError("degenerate crossing: the coupling vanishes")
    return np.array(
        [
            [0.0, 0.0, kt, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [kt, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
