"""Sign calculus on determinant lines of finite-dimensional linear maps.

A determinant line carries an integer weight (the dimension of the
underlying space, negated for duals).  Reordering and contracting tensor
factors of weighted lines costs signs:

* swapping factors of weights w, w' costs (-1)^(w w');
* contracting a dual pair (det W)* (x) det W of weight w costs
  (-1)^(w(w-1)/2), i.e. the sign of pairing u* with u when u is a wedge
  of basis vectors and u* the reversed dual wedge.

For a finite-rank perturbation problem the central object is the transfer
isomorphism between det(ker T) (x) det(coker T)* and
det(ker T_K) (x) (det V)*, where K: V -> R^m is a stabilizer of T (the
block map T_K = [T K] is surjective).  The transfer is evaluated through
an adapted basis of the exact sequence

    0 -> ker T -> ker T_K -> V -> coker T -> 0

and is independent of all basis choices.  Elements are stored as a single
coefficient relative to a deterministic orthonormal reference basis of
ker T_K (and the standard basis of the stabilizer domain V), so numbers
produced by different call paths are directly comparable.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExactnessError",
    "StabilizerError",
    "LinearMapData",
    "StabilizedElement",
    "swap_sign",
    "pair_sign",
    "weighted_swap",
    "weighted_pair",
    "adapted_basis",
    "adapted_induced_scalar",
    "stabilized_kernel_basis",
    "is_stabilizer",
    "stabilized_det_transfer",
    "stabilizer_extension",
    "stabilizer_composition_check",
    "selfadjoint_det_pairing",
]

RANK_TOL = 1e-10


class ExactnessError(ValueError):
    """A sequence of maps fails to be exact within tolerance."""


class StabilizerError(ValueError):
    """The proposed stabilizer does not make the block map surjective."""


def _rank(s):
    """Numerical rank from singular values, or eigenvalue magnitudes, along
    the last axis: the count above RANK_TOL times the largest."""
    top = s.max(axis=-1, keepdims=True, initial=0.0)
    return np.count_nonzero((s > RANK_TOL * top) & (top > 0), axis=-1)


def _redraw(rng, shape, image):
    """A standard normal draw of ``shape`` whose ``image`` has singular
    values within a factor 1e3 of each other, redrawn up to 50 times."""
    for _ in range(50):
        w = rng.standard_normal(shape)
        if shape[1] == 0:
            return w
        s = np.linalg.svd(image(w), compute_uv=False)
        if s.size and s[0] > 0 and s[-1] > 1e-3 * s[0]:
            return w
    raise RuntimeError("failed to draw a nondegenerate frame")


def swap_sign(w1, w2):
    """Sign for swapping adjacent tensor factors of weights w1, w2."""
    return -1 if (w1 * w2) % 2 else 1


def pair_sign(w):
    """Sign for contracting a dual pair of weight w."""
    return -1 if (w * (w - 1) // 2) % 2 else 1


def weighted_swap(c1, w1, c2, w2):
    """Swap two weighted factors carrying coefficients c1, c2."""
    return (c2, w2, swap_sign(w1, w2) * c1, w1)


def weighted_pair(c_dual, w_dual, c, w):
    """Contract (det W)* (x) det W, dual factor first, into a scalar."""
    if w_dual != w:
        raise ValueError("dual pairing requires equal weights")
    return pair_sign(w) * c_dual * c


class LinearMapData:
    """A real matrix with cached SVD-derived kernel and cokernel bases.

    The rank cut is relative: singular values below RANK_TOL times the
    largest singular value count as zero.  All bases are orthonormal and
    deterministic for a given input matrix.
    """

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("expected a 2d matrix")
        u, s, vt = np.linalg.svd(self.matrix, full_matrices=True)
        self.rank = int(_rank(s))
        self.singular_values = s
        self.right_singular_basis = vt.T
        self.kernel_basis = vt[self.rank:].T
        self.row_space_basis = vt[: self.rank].T
        self.cokernel_basis = u[:, self.rank:]
        self.range_basis = u[:, : self.rank]

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def kernel_dim(self):
        return self.kernel_basis.shape[1]

    @property
    def cokernel_dim(self):
        return self.cokernel_basis.shape[1]


@dataclass
class StabilizedElement:
    """Element of det(ker T_K) (x) (det V)*, stored as one coefficient.

    The coefficient is relative to the wedge of kernel_basis columns and
    the standard basis wedge of the stabilizer domain V.
    """

    coeff: float
    kernel_basis: np.ndarray
    stabilizer_dim: int


def _sequence_dims(maps):
    """Dimensions (V_0, ..., V_n) for maps = [f_1, ..., f_n]."""
    dims = [maps[0].shape[0]]
    for i, f in enumerate(maps):
        if f.ndim != 2:
            raise ValueError("maps must be 2d matrices")
        if i > 0 and f.shape[0] != maps[i - 1].shape[1]:
            raise ValueError("inconsistent map shapes")
        dims.append(f.shape[1])
    return dims


def _check_exact(maps, ranks, dims):
    n = len(maps)
    if ranks[-1] != dims[n]:
        raise ExactnessError("last map is not injective")
    if ranks[0] != dims[0]:
        raise ExactnessError("first map is not surjective")
    for i in range(n - 1):
        comp = maps[i] @ maps[i + 1]
        scale = 1.0 + np.abs(maps[i]).max(initial=0.0) * np.abs(
            maps[i + 1]
        ).max(initial=0.0)
        if comp.size and np.abs(comp).max() > 1e-8 * scale:
            raise ExactnessError("consecutive maps do not compose to zero")
        if ranks[i] + ranks[i + 1] != dims[i + 1]:
            raise ExactnessError("rank defect: homology at position %d" % (i + 1))


def adapted_basis(maps, rng=None, ranks=None):
    """Frames adapted to an exact sequence 0 -> V_n -> ... -> V_0 -> 0.

    maps = [f_1, ..., f_n] with f_i: V_i -> V_{i-1}.  Returns a list
    [W_0, ..., W_n] where W_i has rank(f_i) columns spanning a complement
    of ker f_i in V_i (W_0 is empty).  Deterministic orthonormal frames
    unless rng is given, in which case random complements are drawn.

    The rank of each map is estimated with a relative singular-value cut
    unless ranks = [rank f_1, ..., rank f_n] is passed; pass it when a
    map in the sequence is expected to vanish, since a relative cut
    cannot tell a zero map from a scaled-down invertible one.
    """
    maps = [np.asarray(f, dtype=float) for f in maps]
    dims = _sequence_dims(maps)
    data = [LinearMapData(f) for f in maps]
    if ranks is None:
        ranks = [d.rank for d in data]
    _check_exact(maps, ranks, dims)
    frames = [np.zeros((dims[0], 0))]
    for i in range(len(maps)):
        c = ranks[i]
        if rng is None:
            frames.append(data[i].right_singular_basis[:, :c])
        else:
            frames.append(_redraw(rng, (dims[i + 1], c), lambda w: maps[i] @ w))
    return frames


def adapted_induced_scalar(maps, frames):
    """Scalar of the determinant-line isomorphism induced by an exact
    sequence, relative to standard basis wedges.

    For maps = [f_1, ..., f_n] the isomorphism sends the tensor product
    of det V_i over i = n, n-2, ... to the product over i = n-1, n-3, ...
    with the adapted generator built from wedges f_{i+1}(W_{i+1}) ^ W_i.
    Returns the coefficient lambda with ref_lhs -> lambda * ref_rhs.
    """
    maps = [np.asarray(f, dtype=float) for f in maps]
    dims = _sequence_dims(maps)
    n = len(maps)
    dets = []
    for i in range(n + 1):
        blocks = []
        if i < n:
            blocks.append(maps[i] @ frames[i + 1])
        blocks.append(frames[i])
        block = np.hstack(blocks) if blocks else np.zeros((dims[i], 0))
        if block.shape[0] != block.shape[1]:
            raise ValueError("frames not adapted: non-square wedge block")
        d = np.linalg.det(block) if block.size else 1.0
        if block.shape[0] == 0:
            d = 1.0
        if d == 0.0:
            raise ValueError("degenerate adapted frame")
        dets.append(d)
    num = 1.0
    den = 1.0
    for i in range(n + 1):
        if (n - i) % 2 == 1:
            num *= dets[i]
        else:
            den *= dets[i]
    return num / den


def stabilized_kernel_basis(T, K):
    """Deterministic orthonormal basis of ker [T K] in R^(n+v)."""
    block = np.hstack([T.matrix, np.asarray(K, dtype=float)])
    return LinearMapData(block).kernel_basis


def is_stabilizer(T, K):
    """True when [T K] is surjective (full row rank within tolerance)."""
    block = np.hstack([T.matrix, np.asarray(K, dtype=float)])
    return LinearMapData(block).rank == T.matrix.shape[0]


def _complement_in_kernel(big_basis, embedded, rng):
    """Frame inside span(big_basis) complementary to span(embedded).

    embedded must have orthonormal columns contained in span(big_basis).
    Deterministic mode returns an orthonormal frame of the orthogonal
    complement of embedded within the span.
    """
    total = big_basis.shape[1]
    extra = total - embedded.shape[1]
    if rng is None:
        resid = big_basis - embedded @ (embedded.T @ big_basis)
        u, s, _ = np.linalg.svd(resid, full_matrices=False)
        return u[:, :extra]
    lift = lambda x: big_basis.T @ np.hstack([embedded, big_basis @ x])
    return big_basis @ _redraw(rng, (total, extra), lift)


def stabilized_det_transfer(T, K, coeff=1.0, rng=None):
    """Transfer det(ker T) (x) det(coker T)* to det(ker T_K) (x) (det V)*.

    The input element is coeff relative to the wedge of T.kernel_basis and
    the dual wedge of T.cokernel_basis.  K is an (m x v) stabilizer.  The
    result is coefficient times (-1)^((n0+v)(n0+v+1)/2) * d_F * d_1 / d_2
    where the determinants express the adapted wedges in the reference
    bases; it is independent of the adapted choices (pass rng to draw
    random ones).
    """
    K = np.asarray(K, dtype=float)
    m, n = T.matrix.shape
    v = K.shape[1]
    if K.shape[0] != m:
        raise ValueError("stabilizer row count must match the target space")
    block = LinearMapData(np.hstack([T.matrix, K]))
    if block.rank != m:
        raise StabilizerError("[T K] is not surjective")
    n0 = T.cokernel_dim
    kt = T.kernel_dim
    bkk = block.kernel_basis
    # omega: complement of ker F in V, F = proj_coker K
    f_mat = T.cokernel_basis.T @ K
    if rng is None:
        omega = LinearMapData(f_mat).row_space_basis
    else:
        omega = _redraw(rng, (v, n0), lambda w: f_mat @ w)
    # eta: complement of the embedded ker T inside ker T_K
    embedded = np.vstack([T.kernel_basis, np.zeros((v, kt))])
    eta = _complement_in_kernel(bkk, embedded, rng)
    d_f = np.linalg.det(f_mat @ omega) if n0 else 1.0
    cols = np.hstack([embedded, eta])
    d_1 = np.linalg.det(bkk.T @ cols) if cols.shape[1] else 1.0
    vblock = np.hstack([eta[n:, :], omega])
    d_2 = np.linalg.det(vblock) if v else 1.0
    exp = (n0 + v) * (n0 + v + 1) // 2
    sign = -1.0 if exp % 2 else 1.0
    return StabilizedElement(
        coeff=coeff * sign * d_f * d_1 / d_2,
        kernel_basis=bkk,
        stabilizer_dim=v,
    )


def stabilizer_extension(elem, T, K1, K2, rng=None):
    """Extend a stabilized element along an enlarged stabilizer.

    elem lives in det(ker T_K1) (x) (det V1)* relative to its stored
    kernel basis; the result lives in det(ker T_{K1+K2}) (x) (det V1+V2)*
    with the joint stabilizer [K1 K2].  The sign is
    (-1)^(v1 v2 + v2(v2+1)/2).
    """
    K1 = np.asarray(K1, dtype=float)
    K2 = np.asarray(K2, dtype=float)
    n = T.matrix.shape[1]
    v1 = K1.shape[1]
    v2 = K2.shape[1]
    if elem.stabilizer_dim != v1:
        raise ValueError("element does not match the first stabilizer")
    b12 = stabilized_kernel_basis(T, np.hstack([K1, K2]))
    embedded = np.vstack([elem.kernel_basis, np.zeros((v2, elem.kernel_basis.shape[1]))])
    eta2 = _complement_in_kernel(b12, embedded, rng)
    cols = np.hstack([embedded, eta2])
    d_1 = np.linalg.det(b12.T @ cols) if cols.shape[1] else 1.0
    omega1 = np.vstack([np.eye(v1), np.zeros((v2, v1))])
    vblock = np.hstack([omega1, eta2[n:, :]])
    d_2 = np.linalg.det(vblock) if (v1 + v2) else 1.0
    exp = v1 * v2 + v2 * (v2 + 1) // 2
    sign = -1.0 if exp % 2 else 1.0
    return StabilizedElement(
        coeff=elem.coeff * sign * d_1 / d_2,
        kernel_basis=b12,
        stabilizer_dim=v1 + v2,
    )


def stabilizer_composition_check(T, K1, K2, tol=1e-10, rng=None):
    """Verify that extending a transfer along K2 equals the joint transfer.

    Both routes land in det(ker T_{K1+K2}) (x) (det V1+V2)* relative to
    the same deterministic reference basis, so their coefficients must
    agree.  Returns (ok, diagnostics).
    """
    split = stabilizer_extension(
        stabilized_det_transfer(T, K1, 1.0, rng=rng), T, K1, K2, rng=rng
    )
    joint = stabilized_det_transfer(T, np.hstack([K1, K2]), 1.0, rng=rng)
    diff = abs(split.coeff - joint.coeff)
    ok = bool(diff <= tol * max(1.0, abs(joint.coeff)))
    return ok, {"route_split": split.coeff, "route_joint": joint.coeff, "diff": diff}


def selfadjoint_det_pairing(T, coeff=1.0, sym_tol=1e-12):
    """Scalar obtained by pairing det(ker T) against its own dual.

    For symmetric T the input det(ker T) (x) (det ker T)* element with
    the given coefficient maps to (-1)^(n0(n0+1)/2) * coeff where n0 is
    the kernel dimension.  Raises ValueError when T is not symmetric.
    """
    a = T.matrix
    if a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and np.abs(a - a.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    n0 = T.kernel_dim
    exp = n0 * (n0 + 1) // 2
    return (-1.0 if exp % 2 else 1.0) * coeff
