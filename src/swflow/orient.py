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

Surjectivity is certified interval by interval.  With ml and mr the
smallest singular values of [T K] at the ends of [l, r] and
move = beta (r - l), beta a bound on ||T'||_2 over [l, r], so that
||T(t) - T(l)||_2 + ||T(r) - T(t)||_2 <= move inside, Weyl's inequality
for singular values gives

    sigma_min [T_t K] >= (ml + mr - move) / 2    for every t in [l, r],

so move < (ml + mr) / 2 certifies a margin of at least (ml + mr) / 4.
``move`` is the flow route's chord bound (``HermitianPath.chord_norms``,
see ``specflow``): exact where the path is affine, and certified on a
curved path through its curvature bound.  A callable that declares no
curvature bound is transported as its sample interpolant, which has the
endpoints and so the transported sign of the callable.

The scan is level-synchronous, like the flow route's refinement: each
level certifies all of its open intervals with one broadcast chord
bound, then probes all of their midpoints with one stacked SVD of
[T_t K] per chunk of ``specflow._STACK_BYTES``.  When K is empty, [T] is
symmetric and sigma_min is its least |eigenvalue|, so the level takes the
flow route's spectra by blocks (``specflow._spectra``) and an SVD only at
the probes below the collection level.  A probe whose margin lies between the trigger and the collection
level takes one Newton step on sigma_min, whose slope is u^T T'(t) v[:n]
with u and v the singular vectors of sigma_min from that probe's SVD;
the level's Newton points take one more stacked SVD.  When a probe of a
level, or else one of its Newton points, triggers, the scan fails with
the near-cokernel of the triggering probe of least margin.  A scan that
certifies probes the same times in any order, since each interval's
fate depends only on its own ends.

The stabilizer grows in one loop (``_collect_stabilizer``), from no
directions unless ``_transport_det`` is handed a ``start``: each failed
scan adds the near-cokernel directions it returns, the loop takes the
full space when they add no rank, and a full-rank stabilizer that fails
to certify raises ``OrientationTransportError``.  The directions V are
orthonormal, and the scan and the transport take K = scale V, with scale
the largest entry magnitude of the samples floored at 1: the trigger is
relative to scale, and sigma_min [T, scale I] >= scale, so the full
space clears it on every path.  The sign depends neither on K nor on the
initial kernel frame; the tests show both by
starting the loop from enlarged stabilizers and the full space, and by
rotating the first kernel basis handed to ``_transport_frame``.

The transported sign from frame overlaps.  Let B_k be the kernel basis of
[T K] at the k-th certified probe and O_k = B_{k+1}^T B_k.  The frame is
carried from probe to probe by projection and symmetric
re-orthonormalization: frame_{k+1} = polar(B_{k+1} B_{k+1}^T frame_k).
Writing frame_k = B_k R_k with R_k orthogonal, the projection is
B_{k+1} O_k R_k, so R_{k+1} = polar(O_k) R_k, and the step is valid when
the singular values of O_k are at least 1/2 (a step that fails this is
cut at its midpoint, down to refine_max_depth).  Since
sgn det polar(O) = sgn det O, the end block is

    det(frame_N[n:]) = det(B_N[n:]) * prod_k sgn det O_k

for the initial frame B_0 (R_0 = I); a rotation q of B_0 multiplies both
end determinants by det q and leaves the sign alone.  So no frame is
carried: one stacked product for the O_k, one stacked SVD of their
singular values for the check and one stacked det give the sign.
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
    "ot_axioms",
]


class OrientationTransportError(RuntimeError):
    """Certification or frame transport failed after refinement."""


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


def _scan_stabilizer(path, K, scale, cfg):
    """Certify that [T_t K] stays surjective, or return directions to add.

    A probe triggers below a margin of 1e-6 scale (``scale`` as in
    ``_collect_stabilizer``) and collects the directions below 1e-3 scale.
    Intervals are certified by move < (ml + mr) / 2, level by level, with
    Newton points and the failing probe as in the module docstring.

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
    for depth in range(cfg.refine_max_depth + 1):
        split = ~(path.chord_norms(left, right) < 0.5 * (ml + mr))
        if not split.any():
            return True, None, dict(sorted(bases.items()))
        if depth == cfg.refine_max_depth:
            raise OrientationTransportError("cannot certify the stabilizer: refinement depth exceeded")
        left, right, ml, mr = (x[split] for x in (left, right, ml, mr))
        mid = 0.5 * (left + right)
        mm, dirs = probe(mid)
        if dirs is not None:
            return False, dirs, None
        left, right, ml, mr = (np.concatenate(x) for x in ((left, mid), (mid, right), (ml, mm), (mm, mr)))


def _collect_stabilizer(path, cfg, scale, V):
    """Constant stabilizer covering every near-singular parameter, grown
    from V (orthonormal columns) as in the module docstring; ``scale`` is
    the largest entry magnitude of the samples, floored at 1.  The scan
    takes K = scale V, sized like T, since its trigger is relative to
    scale: sigma_min [T K] >= scale on the full space.  Returns (K,
    bases) with ``bases`` as from a certifying ``_scan_stabilizer``."""
    while True:
        K = scale * V
        certified, dirs, bases = _scan_stabilizer(path, K, scale, cfg)
        if certified:
            return K, bases
        if V.shape[1] == path.n:
            raise OrientationTransportError("full-rank stabilizer failed to certify")
        u, s, _ = np.linalg.svd(np.hstack([V, dirs]), full_matrices=False)
        grown = u[:, : int(detsign._rank(s))]
        V = grown if grown.shape[1] > V.shape[1] else np.eye(path.n)


def _transport_frame(path, K, bases, cfg):
    """Both endpoint stabilizer-block determinants of the kernel frame
    carried along the probes of ``bases`` (time to kernel basis of [T K],
    in increasing order), from the signs of the frame overlaps (module
    docstring).  Sub-steps take one stacked SVD per level."""
    n, v = path.n, K.shape[1]
    stack = list(bases.values())
    if stack[0].shape[1] != v:
        raise OrientationTransportError("kernel dimension is not the stabilizer rank")
    if any(b.shape[1] != v for b in stack):
        raise OrientationTransportError("kernel dimension changed along the path")
    if v == 0:
        return 1.0, 1.0
    times = np.array(list(bases))
    left, right, lb, rb = times[:-1], times[1:], np.array(stack[:-1]), np.array(stack[1:])
    sign = 1.0
    for depth in range(cfg.refine_max_depth + 1):
        overlap = np.matmul(rb.transpose(0, 2, 1), lb)
        fine = np.linalg.svd(overlap, compute_uv=False).min(axis=1) >= 0.5
        sign *= np.prod(np.sign(np.linalg.det(overlap[fine])))
        if fine.all():
            break
        if depth == cfg.refine_max_depth:
            raise OrientationTransportError("projection between samples is rank-deficient: grid too coarse")
        left, right, lb, rb = (x[~fine] for x in (left, right, lb, rb))
        mid = 0.5 * (left + right)
        _, s, vt = _block_svds(path, K, mid)
        if np.any(detsign._rank(s) != n):
            raise OrientationTransportError("kernel dimension changed along the path")
        mb = vt[:, n:].transpose(0, 2, 1)
        left, right, lb, rb = (np.concatenate(x) for x in ((left, mid), (mid, right), (lb, mb), (mb, rb)))
    det_a, det_b = np.linalg.det(np.array([stack[0][n:], stack[-1][n:]]))
    return float(det_a), float(det_b * sign)


def _transport_det(path, cfg, start=None):
    """(sign, stabilizer rank) of the kernel-bundle route, with the
    stabilizer grown from ``start`` (orthonormal columns; none when None)."""
    path, _ = sfmod._bounded(path)
    scale = max(1.0, path.top)
    floor = cfg.kernel_threshold_rel * scale
    if np.abs(sfmod._end_spectra(path)).min() < floor:
        raise ValueError("endpoint is singular: kernel-bundle route undefined")
    V = np.zeros((path.n, 0)) if start is None else start
    K, bases = _collect_stabilizer(path, cfg, scale, V)
    det_a, det_b = _transport_frame(path, K, bases, cfg)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise OrientationTransportError("stabilizer block is numerically singular")
    return (1 if det_a * det_b > 0 else -1), K.shape[1]


def orientation_transport_det(path, cfg=None):
    """Transported orientation sign via the kernel-bundle trivialization.

    Requires invertible endpoints.  The sign depends neither on the
    stabilizer nor on the initial kernel frame (module docstring); a
    stabilizer that cannot be certified raises OrientationTransportError."""
    if cfg is None:
        cfg = sfmod.SpectralFlowConfig()
    eps, _ = _transport_det(path, cfg)
    return eps


def orientation_transport_sf(path, cfg=None):
    """Transported orientation sign as the parity of the spectral flow."""
    flow = sfmod.spectral_flow(path, cfg).sf
    return 1 if flow % 2 == 0 else -1


def transport_report(path, cfg=None):
    """Run both routes and package the results (endpoints invertible)."""
    if cfg is None:
        cfg = sfmod.SpectralFlowConfig()
    # one interpolant, and one slope solve, for both routes
    path, _ = sfmod._bounded(path)
    eps_det, vdim = _transport_det(path, cfg)
    flow = sfmod.spectral_flow(path, cfg).sf
    return TransportReport(
        eps_det=eps_det,
        eps_sf=1 if flow % 2 == 0 else -1,
        sf=flow,
        stabilizer_dim=vdim,
    )


def ot_axioms(p1, p2, homotopy=None, cfg=None):
    """Check multiplicativity under direct sum and concatenation, and
    homotopy invariance of the transported sign.

    Returns a dict with entries "direct_sum", "concat" (None when the
    paths cannot be concatenated) and "homotopy" (None when no homotopy
    is supplied); each entry holds both sides and an "ok" flag."""
    e1 = orientation_transport_sf(p1, cfg)
    e2 = orientation_transport_sf(p2, cfg)
    report = {}
    eps_sum = 1 if sfmod.sf_direct_sum(p1, p2, cfg) % 2 == 0 else -1
    report["direct_sum"] = {"ok": eps_sum == e1 * e2, "lhs": eps_sum, "rhs": e1 * e2}
    report["concat"] = None
    if p1.n == p2.n and sfmod._joins(p1, p2):
        eps_cat = 1 if sfmod.sf_concat(p1, p2, cfg) % 2 == 0 else -1
        report["concat"] = {"ok": eps_cat == e1 * e2, "lhs": eps_cat, "rhs": e1 * e2}
    report["homotopy"] = None
    if homotopy is not None:
        a, b = p1.a, p1.b
        for t in (a, b):
            lo = np.asarray(homotopy(0.0, t), dtype=float)
            hi = np.asarray(homotopy(1.0, t), dtype=float)
            if sfmod._max_abs(lo - hi) > 1e-12 * max(1.0, sfmod._max_abs(lo)):
                raise ValueError("homotopy does not fix the endpoints")
        edges = [
            sfmod.HermitianPath.from_callable(lambda t, s=s: homotopy(s, t), a, b)
            for s in (0.0, 1.0)
        ]
        eps_edges = [orientation_transport_sf(e, cfg) for e in edges]
        report["homotopy"] = {
            "ok": eps_edges[0] == eps_edges[1],
            "lhs": eps_edges[0],
            "rhs": eps_edges[1],
        }
    return report
