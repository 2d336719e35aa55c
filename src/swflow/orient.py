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

The scan pops its open intervals best first, the one whose smaller end
margin is least (a heap), so a scan that must fail reaches a margin
below the trigger early; a scan that certifies probes the same times in
any order, since each interval's fate depends only on its own ends.  A
probe whose margin lies between the trigger and the collection level
also takes one Newton step on sigma_min, whose slope is u^T T'(t) v[:n]
with u and v the singular vectors of sigma_min from that probe's own
SVD, and probes that point once: the scan fails there when it
triggers, and the point is dropped otherwise.
"""

import heapq
from dataclasses import dataclass

import numpy as np

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


def _rank(s):
    """Numerical rank from singular values in descending order."""
    return int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0


def _block_svd(mat, K):
    """One full SVD of [T K]: (u, singular values, kernel basis, right
    singular vector of the smallest singular value).  [T K] has n rows
    and at least n columns, so it has n singular values."""
    block = np.hstack([mat, K])
    u, s, vt = np.linalg.svd(block, full_matrices=True)
    return u, s, vt[_rank(s) :].T, vt[s.size - 1]


def _scan_stabilizer(path, K, scale, cfg):
    """Certify that [T_t K] stays surjective, or return directions to add.

    A probe triggers below a margin of 1e-6 scale (``scale`` as in
    ``_collect_stabilizer``) and collects the directions below 1e-3 scale.

    An interval [l, r] is certified once move < (ml + mr) / 2, with ml,
    mr the smallest singular values of [T K] at its ends and move the
    path's bound on the chord ||T(l) - T(r)||_2 (``path`` carries slope
    bounds): Weyl's inequality for singular values bounds
    sigma_min [T_t K] >= (ml + mr - move) / 2 > (ml + mr) / 4 inside it.
    Each probe takes one SVD.

    Open intervals are split best first: the one whose smaller end
    margin is least, so a scan that fails reaches its trigger early.  A
    scan that certifies probes the same times in any order.  A probe
    whose margin lies in [trigger, collect) also takes one Newton step
    on sigma_min, whose slope u^T T'(t) v[:n] comes from that probe's
    own singular vectors, and probes that point once: the scan fails
    there if it triggers, and the point is dropped otherwise.

    Returns (certified, new_directions, bases): on success ``bases``
    maps each probed time, in increasing order, to the kernel basis of
    [T K] there; the probes are dense enough that every interval between
    neighbours is certified."""
    trigger, collect_tol = 1e-6 * scale, 1e-3 * scale
    margins, bases = {}, {}

    def cokernel(u, s):
        """Near-cokernel directions when the margin is below the trigger."""
        return u[:, s < collect_tol] if s[-1] < trigger else None

    def probe(t):
        """Near-cokernel directions when the margin at t, or at its Newton
        point, is below the trigger, else None."""
        u, s, basis, v = _block_svd(path.evaluate(t), K)
        dirs = cokernel(u, s)
        if dirs is None and s[-1] < collect_tol:
            slope = u[:, -1] @ path.derivative_at(t) @ v[: path.n]
            step = t - s[-1] / slope if slope else t
            if path.a <= step <= path.b and step != t:
                dirs = cokernel(*_block_svd(path.evaluate(step), K)[:2])
        if dirs is None:
            margins[t] = float(s[-1])
            bases[t] = basis
        return dirs

    def certified(left, right):
        """Whether each interval [left[j], right[j]] is certified."""
        limit = 0.5 * np.array([margins[l] + margins[r] for l, r in zip(left, right)])
        return path.chord_norms(np.array(left), np.array(right)) < limit

    heap = []

    def push(l, r, depth):
        heapq.heappush(heap, (min(margins[l], margins[r]), l, r, depth))

    ts = path.t_samples.tolist()
    for t in ts:
        dirs = probe(t)
        if dirs is not None:
            return False, dirs, None
    for l, r, ok in zip(ts[:-1], ts[1:], certified(ts[:-1], ts[1:])):
        if not ok:
            push(l, r, 0)
    while heap:
        _, l, r, depth = heapq.heappop(heap)
        if depth >= cfg.refine_max_depth:
            raise OrientationTransportError(
                "cannot certify the stabilizer: refinement depth exceeded"
            )
        m = 0.5 * (l + r)
        dirs = probe(m)
        if dirs is not None:
            return False, dirs, None
        for (a, b), ok in zip([(l, m), (m, r)], certified([l, m], [m, r])):
            if not ok:
                push(a, b, depth + 1)
    return True, None, dict(sorted(bases.items()))


def _orthonormalize(cols):
    if cols.shape[1] == 0:
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : _rank(s)]


def _collect_stabilizer(path, cfg, scale):
    """Constant stabilizer covering every near-singular parameter; ``scale``
    is the largest entry magnitude of the samples, floored at 1."""
    n = path.n
    V = np.zeros((n, 0))
    for _ in range(n + 1):
        certified, dirs, bases = _scan_stabilizer(path, V, scale, cfg)
        if certified:
            return V, bases
        V = _orthonormalize(np.hstack([V, dirs]))
    # fallback: the full space always stabilizes ([T I] has margin >= 1)
    V = np.eye(n)
    certified, _, bases = _scan_stabilizer(path, V, scale, cfg)
    if not certified:
        raise OrientationTransportError("full-space stabilizer failed to certify")
    return V, bases


def _transport_frame(path, K, bases, rng, cfg):
    """Parallel-transport a kernel frame along the certified probes;
    returns both endpoint stabilizer-block determinants.

    ``bases`` maps each probed time, in increasing order, to the kernel
    basis of [T K] from the scan's SVD; only frame sub-steps between
    probes take new SVDs."""
    n = path.n
    v = K.shape[1]
    grid = list(bases)
    frame = bases[grid[0]]
    if frame.shape[1] != v:
        raise OrientationTransportError("kernel dimension is not the stabilizer rank")
    if rng is not None and v > 0:
        q, r = np.linalg.qr(rng.standard_normal((v, v)))
        frame = frame @ q
    det_a = float(np.linalg.det(frame[n:, :])) if v else 1.0

    def advance(frame, t_next, t_cur, depth, basis=None):
        if basis is None:
            basis = _block_svd(path.evaluate(t_next), K)[2]
        if basis.shape[1] != v:
            raise OrientationTransportError("kernel dimension changed along the path")
        m = basis @ (basis.T @ frame)
        if v == 0:
            return frame
        u, s, wt = np.linalg.svd(m, full_matrices=False)
        if s.min() >= 0.5:
            return u @ wt
        if depth >= cfg.refine_max_depth:
            raise OrientationTransportError(
                "projection between samples is rank-deficient: grid too coarse"
            )
        mid = 0.5 * (t_cur + t_next)
        return advance(advance(frame, mid, t_cur, depth + 1), t_next, mid, depth + 1, basis)

    for i in range(len(grid) - 1):
        frame = advance(frame, grid[i + 1], grid[i], 0, bases[grid[i + 1]])
    det_b = float(np.linalg.det(frame[n:, :])) if v else 1.0
    return det_a, det_b


def _transport_det(path, cfg, rng, extra_directions, full_stabilizer):
    path, _ = sfmod._bounded(path)
    scale = max(1.0, sfmod._max_abs(path.values))
    floor = cfg.kernel_threshold_rel * scale
    for idx in (0, -1):
        if np.abs(np.linalg.eigvalsh(path.values[idx])).min() < floor:
            raise ValueError("endpoint is singular: kernel-bundle route undefined")
    if full_stabilizer:
        V = np.eye(path.n)
        _, _, bases = _scan_stabilizer(path, V, scale, cfg)
    else:
        V, bases = _collect_stabilizer(path, cfg, scale)
    if extra_directions > 0:
        gen = rng if rng is not None else np.random.default_rng(0)
        extra = gen.standard_normal((path.n, extra_directions))
        V = _orthonormalize(np.hstack([V, extra]))
        certified, _, bases = _scan_stabilizer(path, V, scale, cfg)
        if not certified:
            raise OrientationTransportError("enlarged stabilizer failed to certify")
    det_a, det_b = _transport_frame(path, V, bases, rng, cfg)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise OrientationTransportError("stabilizer block is numerically singular")
    return (1 if det_a * det_b > 0 else -1), V.shape[1]


def orientation_transport_det(
    path, cfg=None, rng=None, extra_directions=0, full_stabilizer=False
):
    """Transported orientation sign via the kernel-bundle trivialization.

    Requires invertible endpoints.  The result is independent of the
    stabilizer (enlarge with extra_directions or force the full space
    with full_stabilizer) and of the initial frame (randomized when rng
    is given)."""
    if cfg is None:
        cfg = sfmod.SpectralFlowConfig()
    eps, _ = _transport_det(path, cfg, rng, extra_directions, full_stabilizer)
    return eps


def orientation_transport_sf(path, cfg=None):
    """Transported orientation sign as the parity of the spectral flow."""
    flow = sfmod.spectral_flow(path, cfg).sf
    return 1 if flow % 2 == 0 else -1


def transport_report(path, cfg=None):
    """Run both routes and package the results (endpoints invertible)."""
    if cfg is None:
        cfg = sfmod.SpectralFlowConfig()
    eps_det, vdim = _transport_det(path, cfg, None, 0, False)
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
