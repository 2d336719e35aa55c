"""Orientation transport along paths of symmetric matrices.

Two independent computations of the transported sign:

* kernel-bundle route: pick a constant stabilizer K so that [T_t K] is
  surjective for every t (certified by singular-value movement bounds
  and adaptive refinement), parallel-transport an orthonormal frame of
  ker [T_t K] along the path by projection plus symmetric
  re-orthonormalization, and compare the projections to the stabilizer
  domain at both ends: the sign is sgn(det A_b * det A_a) where A_t is
  the stabilizer block of the frame (valid when the endpoints are
  invertible, so that the stabilizer block is square and nonsingular);

* flow route: (-1) raised to the spectral flow of the path.

The two routes agree on every continuously differentiable path with
invertible endpoints; the flow route also covers singular endpoints
through the shifted counting line.

Surjectivity is certified interval by interval.  Let ml and mr be the
least singular values of [T K] at the ends of [l, r], and move the flow
route's chord bound (``HermitianPath.chord_norms``, see ``specflow``),
so that x + y <= move for x >= ||T(t) - T(l)||_2 and
y >= ||T(r) - T(t)||_2 inside.  Weyl's inequality for singular values
gives sigma(t) = sigma_min [T_t K] >= (ml + mr - move) / 2, so
surjectivity would need only move < ml + mr.  The rule is
move < (ml + mr) / 2: it certifies a margin of (ml + mr) / 4, and it
keeps every kernel N(t) on [l, r] acute to N(l), as the sign needs.  A callable sampled without a
curvature bound is its sample interpolant (``specflow``), which has the
endpoints and so the transported sign of the callable.

The scan is level-synchronous, like the flow route's refinement: each
level certifies all of its open intervals with one broadcast chord
bound, then probes all of their midpoints with one stacked SVD of
[T_t K] per chunk of ``specflow._STACK_BYTES``.  When K is empty, [T] is
symmetric and sigma_min is its least |eigenvalue|, so the level takes
the flow route's spectra by blocks (``specflow._spectra``) and an SVD
only at the probes below the collection level.  A probe whose margin
lies between the trigger and the collection level takes one Newton step
on sigma_min, whose slope is u^T T'(t) v[:n] with u and v the singular
vectors of sigma_min from that probe's SVD; the level's Newton points
take one more stacked SVD.  When a probe of a level, or else one of its
Newton points, triggers, the scan fails with the near-cokernel of the
triggering probe of least margin.  A scan that certifies probes the
same times in any order, since each interval's fate depends only on its
own ends.

The stabilizer grows in one loop (``_collect_stabilizer``), from no
directions unless ``_transport_det`` is handed a ``start``: each failed
scan adds the near-cokernel directions it returns, the loop takes the
full space when they add no rank, and a full-rank stabilizer that fails
to certify raises ``OrientationTransportError``.  The directions V are
orthonormal, and the scan and the transport take K = scale V, with
scale = ``path.top``, not floored at 1: the trigger is relative to
scale, and sigma_min [T, scale I] >= scale, so the full space clears it
on every path.  ``orientation_transport_det`` starts from no directions.
``transport_report`` runs the flow route first and starts from the
union of the kernels of A - delta at its recorded crossings
(``_crossing_kernels``), spanned by the SVD and rank cut with which the
loop grows V (``_span``).  Near a zero of T the near-cokernel that a
failed scan would return lies close to such a kernel, so on most paths
the seed certifies at the first scan; a seed that does not certify is
grown like any other V, and a path with no record starts from none.

The sign depends neither on K nor on the initial kernel frame.  Let
[T_t K] be onto for every t and K' = [K L].  A frame of ker [T_t K'] is
a frame F_t of ker [T_t K], padded with zeros on the L coordinates,
followed by lifts (x_t, y_t, I) of the identity on the L coordinates;
the lifts can be chosen continuously since [T_t K] is onto.  Its
stabilizer block is block upper triangular with the identity in the
corner, so its determinant is det A_t.  A frame carried continuously
differs from a continuous choice by a continuous invertible matrix,
whose determinant keeps its sign, so K' gives the sign of K.  Two
certified stabilizers compare through [K K'], up to a column
permutation that multiplies both end determinants by the same sign.  So
the seed, and each direction the loop adds, changes the rank of K but
not the sign.

The transported sign from frame overlaps.  Let B_k be the kernel basis
of [T K] at the k-th certified probe and O_k = B_{k+1}^T B_k.  If every
N(t) on [l, r] = [t_k, t_{k+1}] is acute to N(l), P_{N(t)} B_l is a
continuous frame, equal to B_l at l and to B_r O_k at r, so the frame
carried from B_0 has det(frame_N[n:]) = det(B_N[n:]) prod_k sgn det O_k.
A rotation q of B_0 multiplies both end determinants by det q.  So no
frame is carried: one stacked product for the O_k, one stacked SVD for
the rounding check and one stacked det.

Acuteness follows from a projector bound (Wedin 1973; Stewart 1977).
For M and M' of full row rank n with row-space projections P and P',
(I - P) M'^T = (I - P)(M' - M)^T and P' = M'^T (M'^+)^T, so, the ranks
being equal, ||P - P'||_2 = ||(I - P) P'||_2 <= ||M - M'||_2 ||M'^+||_2,
and the same with M and M' swapped.  The kernels are the complements,
and ||M^+||_2 = 1 / sigma_min(M), so for M = [T_l K], M' = [T_t K]

    sin Theta(N(t), N(l)) <= ||T(t) - T(l)||_2 / max(ml, sigma(t))
                          <= x / max(ml, sigma(t)).

If x < ml, this is below 1.  If x >= ml, the rule gives
ml + y <= x + y < (ml + mr) / 2, so mr > ml + 2 y > x + y, and
x < mr - y <= sigma(t) by Weyl.  Under move < ml + mr the case x >= ml
is left open: the kernel may turn past pi / 2, and O_k cannot tell a
turn by theta from one by pi - theta.  So no step is ever cut.

Rounding.  Each probe the scan keeps has a margin of at least its
trigger, 1e-6 scale.  The SVD is backward stable: a computed basis spans
the kernel of [T K] + E, ||E||_2 <= p eps ||[T K]||_2 <= p eps (M +
scale), M ``specflow``'s bound (``_norm_bound``), p = 64 (n + v) as
``specflow`` takes 64 n.  The projector bound puts it within
e = p eps (M + scale) / trigger of an exact kernel basis, so each O_k is
within about 2 e of an exact overlap.  Above 2 e, sigma_min(O_k) gives
the exact sign by Weyl; at or below it the transport raises
``OrientationTransportError``.
"""

from dataclasses import dataclass

import numpy as np

from . import detsign
from . import specflow as sfmod

__all__ = [
    "OrientationTransportError",
    "TransportReport",
    "orientation_transport_det",
    "orientation_transport_sf",
    "transport_report",
]


class OrientationTransportError(RuntimeError):
    """Stabilizer certification or frame transport failed."""


@dataclass
class TransportReport:
    eps_det: int
    eps_sf: int
    sf: int
    stabilizer_dim: int


def _block_svds(path, K, times):
    """Full SVDs (u, s, vt) of [T_t K] at each of ``times``, stacked along a
    leading axis: one svd per chunk of ``specflow._STACK_BYTES``, with T_t
    the whole matrix of the path's block values (``specflow._dense``).
    [T K] has n rows and at least n columns, so it has n singular values."""
    n = path.n

    def fill(start, out):
        out[:, :, :n] = sfmod._dense(path, path.block_values(times[start : start + len(out)]))
        out[:, :, n:] = K

    parts = [np.linalg.svd(stack) for _, stack in sfmod._chunks(len(times), (n, n + K.shape[1]), fill)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def _scan_stabilizer(path, K, scale):
    """Certify that [T_t K] stays surjective, or return directions to add.

    A probe triggers below a margin of 1e-6 scale (``scale`` as in
    ``_collect_stabilizer``) and collects the directions below 1e-3 scale.
    Intervals are certified by move < (ml + mr) / 2, level by level up to
    ``specflow.MAX_DEPTH`` levels, with Newton points and the failing
    probe as in the module docstring.

    Returns (certified, new_directions, bases): on success ``bases``
    maps each probed time, in increasing order, to the kernel basis of
    [T K] there; every interval between neighbours is certified."""
    trigger, collect_tol = 1e-6 * scale, 1e-3 * scale
    n, v = path.n, K.shape[1]
    bases = {}

    def probe(times):
        """(margins, None) at ``times``, keeping each kernel basis, or
        (None, near-cokernel directions) when a probe or its Newton point
        triggers."""
        if v:
            u, s, vt = _block_svds(path, K, times)
            margins = s[:, -1]
            bases.update(zip(times.tolist(), (w[r:].T for w, r in zip(vt, detsign._rank(s).tolist()))))
            low = np.flatnonzero(margins < collect_tol)
            u, s, vt = u[low], s[low], vt[low]
        else:
            eigs = sfmod._spectra(path, times)
            margins = np.abs(eigs).min(axis=1)
            bases.update(zip(times.tolist(), [np.zeros((n, 0))] * times.size))
            low = np.flatnonzero(margins < collect_tol)
            if low.size:
                u, s, vt = _block_svds(path, K, times[low])
                margins[low] = s[:, -1]
        hit = margins[low] < trigger
        if low.size and not hit.any():
            near = times[low]
            slope = np.array([u[j, :, -1] @ path.derivative_at(t) @ vt[j, n - 1, :n] for j, t in enumerate(near.tolist())])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope != 0.0, near - s[:, -1] / slope, near)
            step = step[(path.a <= step) & (step <= path.b) & (step != near)]
            if step.size:
                u, s, _ = _block_svds(path, K, step)
                hit = s[:, -1] < trigger
        if not hit.any():
            return margins, None
        j = np.flatnonzero(hit)[np.argmin(s[hit, -1])]
        return None, u[j][:, s[j] < collect_tol]

    ts = path.t_samples
    margins, dirs = probe(ts)
    if dirs is not None:
        return False, dirs, None
    left, right, ml, mr = ts[:-1], ts[1:], margins[:-1], margins[1:]
    for depth in range(sfmod.MAX_DEPTH + 1):
        # the half keeps each kernel acute to its left end's (module docstring)
        split = ~(path.chord_norms(left, right) < 0.5 * (ml + mr))
        if not split.any():
            return True, None, dict(sorted(bases.items()))
        if depth == sfmod.MAX_DEPTH:
            raise OrientationTransportError(
                "cannot certify the stabilizer: depth %d exceeded at trigger %.3g (no shift); %s"
                % (sfmod.MAX_DEPTH, trigger, sfmod._open(left[split], right[split]))
            )
        left, right, ml, mr = (x[split] for x in (left, right, ml, mr))
        mid = 0.5 * (left + right)
        mm, dirs = probe(mid)
        if dirs is not None:
            return False, dirs, None
        left, right, ml, mr = (np.concatenate(x) for x in ((left, mid), (mid, right), (ml, mm), (mm, mr)))


def _span(columns):
    """Orthonormal basis of the span of ``columns``: the left singular
    vectors of the singular values that ``detsign._rank`` counts."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, : int(detsign._rank(s))]


def _collect_stabilizer(path, scale, V):
    """Constant stabilizer covering every near-singular parameter, grown
    from V (orthonormal columns) as in the module docstring; ``scale`` is
    the largest entry magnitude of the samples.  The scan
    takes K = scale V, sized like T, since its trigger is relative to
    scale: sigma_min [T K] >= scale on the full space.  Returns (K,
    bases) with ``bases`` as from a certifying ``_scan_stabilizer``."""
    while True:
        K = scale * V
        certified, dirs, bases = _scan_stabilizer(path, K, scale)
        if certified:
            return K, bases
        if V.shape[1] == path.n:
            raise OrientationTransportError("full-rank stabilizer failed to certify")
        grown = _span(np.hstack([V, dirs]))
        V = grown if grown.shape[1] > V.shape[1] else np.eye(path.n)


def _transport_frame(path, K, bases, scale):
    """Both endpoint stabilizer-block determinants of the kernel frame
    carried along the probes of ``bases`` (time to kernel basis of [T K],
    in increasing order, as a certifying ``_scan_stabilizer`` returns
    them at ``scale``), from the signs of the frame overlaps (module
    docstring)."""
    n, v = path.n, K.shape[1]
    if any(b.shape[1] != v for b in bases.values()):
        raise OrientationTransportError("kernel dimension is not the stabilizer rank")
    if v == 0:
        return 1.0, 1.0
    stack = np.array(list(bases.values()))
    overlap = np.matmul(stack[1:].transpose(0, 2, 1), stack[:-1])
    # 2 e of the module docstring, with the scan's trigger 1e-6 scale
    allowance = 128.0 * (n + v) * np.finfo(float).eps * (sfmod._norm_bound(path) + scale) / (1e-6 * scale)
    if not np.linalg.svd(overlap, compute_uv=False).min() > allowance:
        raise OrientationTransportError("a frame overlap is singular to rounding")
    sign = np.prod(np.sign(np.linalg.det(overlap)))
    det_a, det_b = np.linalg.det(stack[[0, -1], n:])
    return float(det_a), float(det_b * sign)


def _transport_det(path, start=None):
    """(sign, stabilizer rank) of the kernel-bundle route, with the
    stabilizer grown from ``start`` (orthonormal columns; none when None)."""
    scale = path.top
    floor = sfmod.KERNEL_REL * scale
    # not above the floor: a zero path, whose floor is 0, is singular too
    if not np.abs(sfmod._end_spectra(path)).min() > floor:
        raise ValueError("endpoint is singular: kernel-bundle route undefined")
    V = np.zeros((path.n, 0)) if start is None else start
    K, bases = _collect_stabilizer(path, scale, V)
    det_a, det_b = _transport_frame(path, K, bases, scale)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise OrientationTransportError("stabilizer block is numerically singular")
    return (1 if det_a * det_b > 0 else -1), K.shape[1]


def orientation_transport_det(path):
    """Transported orientation sign via the kernel-bundle trivialization.

    Requires invertible endpoints.  The sign depends neither on the
    stabilizer nor on the initial kernel frame (module docstring); a
    stabilizer that cannot be certified raises OrientationTransportError."""
    eps, _ = _transport_det(path)
    return eps


def orientation_transport_sf(path, cfg=None):
    """Transported orientation sign as the parity of the spectral flow."""
    flow = sfmod.spectral_flow(path, cfg).sf
    return 1 if flow % 2 == 0 else -1


def _crossing_kernels(path, rep):
    """Orthonormal basis of the union of the kernels of A - delta_used at
    the crossings recorded in ``rep``, or None when it records none."""
    if not rep.crossings:
        return None
    floor = sfmod.KERNEL_REL * path.top
    frames = []
    for rec in rep.crossings:
        _, _, w, rows = sfmod._kernel_frame(path, floor, rep.delta_used, t=rec.t)
        frame = np.zeros((path.n, w.shape[1]))
        frame[rows] = w
        frames.append(frame)
    return _span(np.hstack(frames))


def transport_report(path, cfg=None):
    """Run both routes and package the results (endpoints invertible).

    The flow route runs first, and the determinant route's stabilizer
    grows from the kernels of A - delta at the flow route's recorded
    crossings (``_crossing_kernels``).  The determinant route still
    certifies that seed by its own scan, grows it when it does not
    certify, and takes the sign from its own frame transport; the sign
    does not depend on the stabilizer (module docstring).  So
    ``stabilizer_dim`` is the rank of the seeded stabilizer, which may
    exceed the rank that ``orientation_transport_det`` grows to."""
    rep = sfmod.spectral_flow(path, cfg)
    eps_det, vdim = _transport_det(path, _crossing_kernels(path, rep))
    return TransportReport(
        eps_det=eps_det,
        eps_sf=1 if rep.sf % 2 == 0 else -1,
        sf=rep.sf,
        stabilizer_dim=vdim,
    )

