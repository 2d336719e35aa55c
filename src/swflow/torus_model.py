"""Model operators on a Fourier-truncated flat 3-torus.

Fields are expanded in plane waves exp(i<k, x>) over integer modes k with
||k||_inf <= cutoff.  Spinors carry two complex components per mode; forms
carry one coefficient per component per mode.  Basis labels order modes
lexicographically with the field component varying fastest, so block
operators are Kronecker products (mode action) x (component action).

Provided operators:

* the flat spin-c Dirac operator twisted by a constant imaginary 1-form
  holonomy, block diagonal with 2x2 mode blocks,
* the truncated de Rham package (exterior derivative, codifferential,
  Hodge star) acting on complex form coefficients,
* one-parameter families: interpolation of holonomies, and an explicit
  diagonal eigenvalue model for a magnetic flux line,
* a residual check for the curvature identity satisfied by the square of
  the perturbed Dirac operator, compared on interior modes where the
  truncation does not clip products.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clifford3 as cl
from . import specflow as sfmod

__all__ = [
    "MarginError",
    "TorusTruncation",
    "FlatConnection",
    "mode_shift_matrix",
    "fourier_dirac_blocks",
    "fourier_dirac",
    "exterior_d",
    "codifferential",
    "hodge",
    "dirac_family_path",
    "magnetic_family_path",
    "weitzenbock_check",
]


class MarginError(ValueError):
    """A field product would leave the truncation, so the value is unreliable."""


class TorusTruncation:
    """Integer Fourier modes of the unit 3-torus with ||k||_inf <= cutoff.

    A mode k is encoded by the digits k + cutoff in base 2 cutoff + 1, and
    that code is its position in the lexicographic ordering.  Every table
    of mode indices derives from it.
    """

    def __init__(self, cutoff):
        cutoff = int(cutoff)
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        self.cutoff = cutoff
        width = 2 * cutoff + 1
        self._place = width ** np.arange(2, -1, -1)
        self.modes = np.moveaxis(np.indices((width,) * 3), 0, -1).reshape(-1, 3) - cutoff
        # the sup-norm ||k||_inf of each mode, the radius of its ball
        self.radii = np.max(np.abs(self.modes), axis=1)
        # -k mirrors every digit, so it sits at the mirrored position
        self.neg = np.arange(self.mode_count - 1, -1, -1)

    @property
    def mode_count(self):
        return self.modes.shape[0]

    def indices(self, ks):
        """Positions of the integer modes ks[..., :], -1 outside the truncation."""
        ks = np.asarray(ks)
        inside = np.all(np.abs(ks) <= self.cutoff, axis=-1)
        return np.where(inside, (ks + self.cutoff) @ self._place, -1)

    def index(self, k):
        """Position of mode k in the lexicographic ordering, or None."""
        i = int(self.indices(np.asarray(k, dtype=int)))
        return None if i < 0 else i

    @cached_property
    def sums(self):
        """sums[p, q]: the index of k_p + k_q, or -1 outside the truncation."""
        return self.indices(self.modes[:, None, :] + self.modes[None, :, :])


@dataclass(frozen=True)
class FlatConnection:
    """Constant imaginary 1-form holonomy; coefficients are the real 3-vector."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.shape != (3,):
            raise ValueError("holonomy must be a real 3-vector")


def mode_shift_matrix(trunc, q):
    """Matrix of multiplication by exp(i<q, x>) on scalar coefficients.

    Entries land only where both the source and the shifted mode stay
    inside the truncation; everything else is clipped.
    """
    m = trunc.mode_count
    out = np.zeros((m, m))
    src = trunc.indices(trunc.modes - np.asarray(q, dtype=int))
    rows = np.nonzero(src >= 0)[0]
    out[rows, src[rows]] = 1.0
    return out


def _block_diag(blocks):
    """Block-diagonal matrix of a stack of per-mode blocks, shape (M, r, c)."""
    m, rows, cols = blocks.shape
    out = np.zeros((m, rows, m, cols), dtype=blocks.dtype)
    diag = np.arange(m)
    out[diag, :, diag, :] = blocks
    return out.reshape(m * rows, m * cols)


def fourier_dirac_blocks(trunc, conn):
    """Mode blocks sigma . (k + alpha/2) of the flat Dirac operator with
    holonomy, shape (M, 2, 2), in the order of the modes."""
    vals = trunc.modes + conn.alpha / 2.0
    return np.einsum("mj,jab->mab", vals, cl.PAULI)


def fourier_dirac(trunc, conn):
    """Flat Dirac operator with holonomy: the block diagonal of its mode
    blocks (``fourier_dirac_blocks``)."""
    return _block_diag(fourier_dirac_blocks(trunc, conn))


# ----------------------------------------------------------- de Rham ops


def _wedge_block(k, source_degree):
    """Per-mode matrix of (ik) wedge on coefficients of the given degree."""
    ik = 1j * np.asarray(k, dtype=float)
    cols = cl.FORM_DIMS[source_degree]
    rows = cl.FORM_DIMS[source_degree + 1]
    out = np.zeros((rows, cols), dtype=complex)
    for j in range(cols):
        unit = np.zeros(cols)
        unit[j] = 1.0
        wedge = cl.wedge(cl.Form(1, ik), cl.Form(source_degree, unit))
        out[:, j] = wedge.coeffs
    return out


def _wedge_blocks(modes, source_degree):
    """Stack of the per-mode wedge blocks of ``_wedge_block``, linear in k."""
    basis = np.array([_wedge_block(e, source_degree) for e in np.eye(3)])
    return np.einsum("mj,jab->mab", modes, basis)


def exterior_d(trunc, degree):
    """Truncated exterior derivative on forms of degree 0, 1 or 2."""
    if degree not in (0, 1, 2):
        raise ValueError("exterior derivative provided for degrees 0, 1 and 2")
    return _block_diag(_wedge_blocks(trunc.modes, degree))


def _star_block(degree):
    cols = cl.FORM_DIMS[degree]
    rows = cl.FORM_DIMS[3 - degree]
    out = np.zeros((rows, cols))
    for j in range(cols):
        unit = np.zeros(cols)
        unit[j] = 1.0
        out[:, j] = cl.hodge_star(cl.Form(degree, unit)).coeffs.real
    return out


def hodge(trunc, degree):
    """Truncated Hodge star on forms of the given degree."""
    if degree not in (0, 1, 2, 3):
        raise ValueError("degree must be 0..3")
    return np.kron(np.eye(trunc.mode_count), _star_block(degree)).astype(complex)


def codifferential(trunc, degree):
    """Adjoint of the exterior derivative, assembled via the star route.

    On 1-forms this is -*d*; on 2-forms the sign flips to +*d*.
    """
    if degree == 1:
        return -hodge(trunc, 3) @ exterior_d(trunc, 2) @ hodge(trunc, 1)
    if degree == 2:
        s = hodge(trunc, 2)
        return s @ exterior_d(trunc, 1) @ s
    raise ValueError("codifferential provided for degrees 1 and 2")


# ------------------------------------------------------------- families


def dirac_family_path(trunc, alpha_start, alpha_end):
    """Linear holonomy interpolation as a realified self-adjoint path.

    The path is affine in the parameter: the Dirac operator of the
    holonomy alpha_start plus t times its constant slope, the block
    diagonal of half the Clifford action of the holonomy increment,
    identical in every mode.  A scalar holonomy is broadcast to all three
    components.
    """
    alpha_start = np.broadcast_to(np.asarray(alpha_start, dtype=float), 3)
    beta = np.asarray(alpha_end, dtype=float) - alpha_start
    slope = np.broadcast_to(0.5 * cl.clifford_im_matrix(beta), (trunc.mode_count, 2, 2))
    return sfmod.HermitianPath.affine(fourier_dirac(trunc, FlatConnection(alpha_start)), _block_diag(slope))


def magnetic_family_path(flux, depth):
    """Diagonal eigenvalue model for one period of a magnetic flux line.

    For flux d != 0 there are |d| identical towers.  Each contributes one
    family of levels -sign(d)(n + r) for integer n in [-depth, depth]
    sweeping down (up) through zero once per period, plus the gapped
    levels +-sqrt(2|d|m + (n + r)^2), m = 1, 2, that never vanish.  Zero
    flux has no zero towers and the family is a constant invertible
    diagonal.  The family is sampled at 17 equally spaced times: the 17
    diagonals are taken in one broadcast over r and stored as 1 x 1
    blocks (``HermitianPath.from_blocks``), so no dense sample is formed.
    The path keeps the diagonal matrix and its derivative as its callable
    for ``evaluate`` and ``derivative_at``, and is refined as its sample
    interpolant.
    """
    flux = int(flux)
    depth = int(depth)
    if depth < 2:
        raise ValueError("depth must be at least 2")
    ns = np.arange(-depth, depth + 1, dtype=float)
    sgn = float(np.sign(flux))
    absd = abs(flux)
    levels = (1, 2)

    # the diagonal at each r of an array of times, on a last axis
    if flux == 0:
        base = np.concatenate(
            [s * np.sqrt(2.0 * m + ns**2) for m in levels for s in (1.0, -1.0)]
        )

        def entries(r):
            return np.broadcast_to(base, np.shape(r) + base.shape)

        def entries_deriv(r):
            return np.zeros(np.shape(r) + base.shape)

    else:

        def entries(r):
            x = ns + np.asarray(r)[..., None]
            gapped = [s * np.sqrt(2.0 * absd * m + x**2) for m in levels for s in (1.0, -1.0)]
            return np.tile(np.concatenate([-sgn * x] + gapped, axis=-1), absd)

        def entries_deriv(r):
            x = ns + np.asarray(r)[..., None]
            gapped = [s * x / np.sqrt(2.0 * absd * m + x**2) for m in levels for s in (1.0, -1.0)]
            return np.tile(np.concatenate([np.full(x.shape, -sgn)] + gapped, axis=-1), absd)

    grid = np.linspace(0.0, 1.0, 17)
    diagonals = entries(grid)
    return sfmod.HermitianPath.from_blocks(
        grid,
        [np.arange(diagonals.shape[-1])[:, None]],
        [diagonals[:, :, None, None]],
        func=lambda r: np.diag(entries(r)),
        derivative=lambda r: np.diag(entries_deriv(r)),
    )


# -------------------------------------------------- curvature identity


def weitzenbock_check(trunc, conn, mode, coeff):
    """Residual of the curvature identity for the perturbed Dirac square.

    The perturbation is the imaginary 1-form with components
    i Re(coeff_j exp(i<mode, x>)).  Both sides are assembled from scratch:
    the square of the perturbed Dirac operator on one hand, the connection
    Laplacian plus half the Clifford action of the curvature on the other.
    They can only be compared where truncated products are not clipped,
    namely on modes with ||k||_inf <= cutoff - ||mode||_inf; the returned
    value is the largest entry of the difference restricted there.
    """
    mode = np.asarray(mode, dtype=int)
    coeff = np.asarray(coeff, dtype=complex)
    reach = int(np.max(np.abs(mode)))
    interior_cut = trunc.cutoff - reach
    if interior_cut < 0:
        raise MarginError(
            f"perturbation mode reach {reach} exceeds the cutoff {trunc.cutoff}"
        )

    # multiplication operators for the real functions Re(c_j exp(i<k,x>))
    up = mode_shift_matrix(trunc, mode)
    down = mode_shift_matrix(trunc, -mode)
    mult = [0.5 * coeff[j] * up + 0.5 * np.conj(coeff[j]) * down for j in range(3)]

    # perturbed Dirac operator and its square
    dirac = fourier_dirac(trunc, conn)
    for j in range(3):
        dirac += 0.5 * np.kron(mult[j], cl.PAULI[j])
    lhs = dirac @ dirac

    # connection Laplacian: sum over directions of L* L with
    # L_j = d/dx_j + (i alpha_j + i g_j)/2 acting on scalar coefficients
    rhs = np.zeros_like(lhs)
    for j in range(3):
        partial = np.diag(1j * (trunc.modes[:, j] + conn.alpha[j] / 2.0))
        lj = partial + 0.5j * mult[j]
        rhs += np.kron(lj.conj().T @ lj, np.eye(2))

    # half the Clifford action of the curvature of the perturbation
    for j in range(3):
        for l in range(j + 1, 3):
            w = mode[j] * coeff[l] - mode[l] * coeff[j]
            f_op = (-0.5 * w) * up + (0.5 * np.conj(w)) * down
            rhs += 0.5 * np.kron(f_op, cl.CLIFF[j] @ cl.CLIFF[l])

    inside = trunc.radii <= interior_cut
    keep = np.repeat(inside, 2)
    diff = (lhs - rhs)[np.ix_(keep, keep)]
    return float(np.max(np.abs(diff))) if diff.size else 0.0
