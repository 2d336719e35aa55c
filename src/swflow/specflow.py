"""Spectral flow of continuous paths of symmetric matrices.

The flow is counted against a line shifted slightly above zero: with a
shift delta > 0 chosen below half the smallest nonzero endpoint
eigenvalue magnitude, SF equals the number of eigenvalues below the line
at the start minus the number below at the end.  Zero endpoint
eigenvalues therefore sit below the counting line: a branch departing
zero upward contributes +1, a branch arriving at zero from above
contributes -1, and branches that keep their sign contribute nothing.
The result is independent of the admissible delta and of the sample
grid, and is additive under direct sums and concatenation.

Crossings of the shifted line are localized to an interval shorter than
bisection_tol and validated with the crossing operator (the path
derivative compressed to the numerical kernel); a degenerate crossing
triggers a delta halving.  The crossing operator is singular when its
smallest eigenvalue magnitude is below 1e-10 times its largest, which
does not depend on the kernel dimension k (its determinant scales as
c^k).

Movement bounds.  Every path the engine refines carries, on each sample
segment, a bound beta_seg >= sup ||A'(t)||_2 over the segment
(``HermitianPath.slope_norms``):

* where the path is affine on the segment (``HermitianPath.affine``, a
  path interpolated between its samples) beta_seg = ||B||_2 of the
  segment slope B, and it is exact;
* on a curved path that declares its derivative A' and a curvature
  bound gamma >= sup ||A''||_2,

      beta_seg = ||A'(m)||_2 + gamma * len / 2,

  with m the middle of the segment and len its length, since
  ||A'(t) - A'(m)||_2 <= gamma |t - m| <= gamma * len / 2 there.

Refinement intervals never cross a sample, so ||A(l) - A(r)||_2 <=
beta_seg (r - l) on every interval [l, r] the engine meets.  By Weyl's
inequality each sorted eigenvalue, and each singular value, moves by at
most the 2-norm of the change of the matrix (Kato, Perturbation Theory
for Linear Operators, II.5); the determinant route of ``orient`` uses
the same bound.

A callable that declares no curvature bound is refined as its sample
interpolant: the path linear between its samples, whose derivative on a
segment is the segment slope.  The straight-line homotopy from the
callable to its interpolant fixes the endpoints, and spectral flow is
invariant under homotopy with fixed endpoints (Robbin and Salamon, The
spectral flow and the Maslov index, 1995), so sf is the callable's.  The
crossing records are the interpolant's, and the report's method reads
"interpolant".

A subinterval [l, r] needs no refinement once

    beta_seg (r - l) < 1/2 * min_i (|lam_i(l) - delta| + |lam_i(r) - delta|),

with i running over the eigenvalues sorted in ascending order: branch i
can meet delta inside [l, r] only if it moves by |lam_i(l) - delta| +
|lam_i(r) - delta|.  The factor 1/2 is a safety margin.

Secant localization.  An interval [l, r] whose end counts nl and nr
differ holds a zero of f = lam_i - delta for the sorted eigenvalue
i = min(nl, nr), and f changes sign between its ends.  It is split at a
secant point of f, from spectra already held: the secant through an end
and the other probe of its closing pair (see below) where that point
lies inside, the end nearer the line first, and otherwise the secant
through l and r.  The point t_s is kept at least bisection_tol / 2
inside [l, r], and the bracket is closed by probing t_s - q and t_s + q
(q = bisection_tol / 4), so [l, r] becomes three intervals whose middle
one is already narrow.  An outer interval longer than half of [l, r] is
bisected at the next level instead (the Illinois-style safeguard: every
two levels at least halve it).

The crossing window.  A crossing located at t* (the middle of a narrow
interval) on a sample segment where the path is affine gets a window
[t* - h, t* + h], clipped to the segment, that holds no other crossing.
From the eigh of A(t*) - delta taken for the record, let the cluster be
the k eigenvalues below the kernel floor, m the largest of their
magnitudes, g the smallest magnitude of the others, C = W^T B W the
crossing form of the segment slope B on the cluster's eigenvectors W, c
the smallest |eigenvalue| of C and beta = ||B||_2.  At t* + s, for
|s| beta <= g / 4, Weyl's inequality keeps the other eigenvalues at least
3g/4 from delta and the cluster's within m + g/4 < g/2 (m < g/4).  In the
eigenbasis at t*, an eigenvalue lam of the cluster is, by the Schur
reduction, an eigenvalue of sC + E with

    E = D_c - s^2 B_cr (D_r + s B_rr - lam)^-1 B_rc,
    ||E|| <= m + 4 s^2 beta^2 / g

(D the spectrum at t*, c and r the cluster and the rest; the inverse is
at most 4/g since |lam| < g/2), so |lam| >= |s| c - m - 4 s^2 beta^2 / g.
With

    h = min(g / (4 beta), c g / (8 beta^2))

the last term is at most |s| c / 2 for |s| <= h, so |lam| >= |s| c / 2 - m:
every zero of the cluster lies within 2m/c of t*, and the count changes
across [t* - h, t* + h] by the signature of C (Robbin and Salamon).  The
window is taken when 2m/c < bisection_tol / 2 < h, so it holds only this
crossing.  The open intervals that meet it are cut at t* +- h, the new
ends are probed with the level's stacked call, and the count change
across the window must equal the crossing's signature.  The siblings of
a crossing so restart h from t*, not bisection_tol: their certificate
needs an interval whose length is about its distance to the crossing
divided by ||B|| / |slope|, so the partition grows geometrically outward
from where it starts.  On a curved segment E gains a Taylor remainder of
A, which this derivation does not bound, so no window is taken there.

Refinement runs breadth-first.  Each level classifies all of its open
intervals at once, takes the certificate for the whole level by
broadcasting, and diagonalizes all new midpoints in one stacked eigvalsh
per chunk of at most _STACK_BYTES, with the secant probes and the
window ends.  ``HermitianPath.evaluate_into`` writes a chunk into one
reused buffer in one array operation: a broadcast on an affine path, a
gather and lerp on an interpolated one.  The samples are diagonalized
once, from their stored values, and the spectrum of every probed time is
kept across delta halvings, so no point of the path is diagonalized
twice.  The stabilizer scan of ``orient`` runs level by level the same
way.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralFlowError",
    "SpectralFlowConfig",
    "HermitianPath",
    "CrossingRecord",
    "SpectralFlowReport",
    "TrackedBranches",
    "realify_matrix",
    "crossing_operator",
    "spectral_flow",
    "sf_direct_sum",
    "sf_concat",
    "track_degenerate_eigenvalue",
]


class SpectralFlowError(RuntimeError):
    """Raised when no admissible shift or refinement resolves the path."""


class _DegenerateCrossing(Exception):
    pass


@dataclass
class SpectralFlowConfig:
    delta_cap: float = 0.5
    max_halvings: int = 20
    kernel_threshold_rel: float = 1e-8
    bisection_tol: float = 1e-10
    gap_min: float = 1e-8
    refine_max_depth: int = 80
    endpoint_count_only: bool = False


@dataclass
class CrossingRecord:
    t: float
    kernel_dim: int
    crossing_signature: int
    crossing_det_sign: int


@dataclass
class SpectralFlowReport:
    sf: int
    delta_used: float
    crossings: list
    refinement_depth: int
    method: str = "crossing"


@dataclass
class TrackedBranches:
    t_samples: np.ndarray
    eigenvalues: np.ndarray  # (samples, n), branch j in column j
    eigenvectors: np.ndarray  # (samples, n, n), branch j in [..., j]
    eigenvalue_slopes: np.ndarray  # (n,) ascending
    second_derivatives: np.ndarray  # (n,) curvature of each branch at 0


def realify_matrix(m, out=None):
    """Real 2n x 2n matrix of a complex n x n map acting on (Re, Im).

    Leading axes are a stack of maps; all are written into one output
    array (``out`` when given), with no other temporary."""
    m = np.asarray(m)
    r, n = m.shape[-2:]
    if out is None:
        out = np.empty(m.shape[:-2] + (2 * r, 2 * n), dtype=m.real.dtype)
    out[..., :r, :n] = out[..., r:, n:] = m.real
    out[..., r:, :n] = m.imag
    np.negative(m.imag, out=out[..., :r, n:])
    return out


def _max_abs(a):
    """Largest entry magnitude, without an |a| temporary the size of a."""
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


def _check_symmetric(values, tol=1e-12):
    """Reject a matrix, or a stack of matrices, that is not symmetric.

    The defect is taken one matrix at a time, so the only temporary is
    the size of one sample."""
    scale = max(1.0, _max_abs(values))
    mats = values[None] if values.ndim == 2 else values
    defect = max(_max_abs(v - v.T) for v in mats)
    if defect > tol * scale:
        raise ValueError("path samples are not symmetric within tolerance")


class HermitianPath:
    """A sampled path of symmetric matrices on [a, b].

    Values between samples come from the stored callable when available
    and from linear interpolation otherwise; complex Hermitian input is
    converted on ingest to the doubled real symmetric form and flagged,
    and checked in that form (R - R^T holds the entries of v - v^H).
    The derivative is the stored closure, the segment slope of a path
    interpolated between its samples, or else a central finite
    difference.  ``curvature`` is a bound gamma >= sup ||A''||_2 that a
    callable with a derivative may declare (``slope_norms``); an
    interpolated path has curvature 0.
    """

    def __init__(self, t_samples, values, derivative=None, func=None, curvature=None):
        if curvature is not None and not (func is not None and derivative is not None and curvature >= 0.0):
            raise ValueError("a curvature bound is >= 0 and needs a callable with its derivative")
        t_samples = np.asarray(t_samples, dtype=float)
        if t_samples.ndim != 1 or t_samples.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(t_samples) <= 0):
            raise ValueError("t_samples must be strictly increasing")
        values = np.asarray(values)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError("samples must be square matrices")
        realified = np.iscomplexobj(values)
        if realified:
            values = realify_matrix(values)
            if func is not None:
                raw = func
                func = lambda t: realify_matrix(raw(t))
            if derivative is not None:
                rawd = derivative
                derivative = lambda t: realify_matrix(rawd(t))
        values = values.astype(float, copy=False)
        _check_symmetric(values)
        if values.shape[0] != t_samples.size:
            raise ValueError("sample count mismatch")
        self.t_samples = t_samples
        self.values = values
        self._derivative = derivative
        self._func = func
        self.realified = realified
        self.curvature = 0.0 if func is None else curvature
        # bound on ||dA/dt||_2 on each sample segment: set by ``affine``,
        # else filled lazily by ``slope_norms``
        self._slopes = None
        # (const, linear) of a path made by ``affine``
        self._affine = None

    @classmethod
    def from_callable(cls, func, a, b, num_samples=33, derivative=None, curvature=None):
        """func sampled at num_samples equally spaced times of [a, b].

        A callable that declares its ``derivative`` and a ``curvature``
        bound gamma >= sup ||A''||_2 is refined with certified slope
        bounds (``slope_norms``); one without gamma is refined as its
        sample interpolant (module docstring)."""
        grid = np.linspace(a, b, num_samples)
        if grid.size < 2:
            raise ValueError("need at least two samples")
        return cls(grid, _sample(func, grid), derivative=derivative, func=func, curvature=curvature)

    @classmethod
    def affine(cls, const, linear, a=0.0, b=1.0):
        const = np.asarray(const)
        linear = np.asarray(linear)
        path = cls.from_callable(
            lambda t: const + t * linear,
            a,
            b,
            num_samples=2,
            derivative=lambda t: linear,
            curvature=0.0,
        )
        path._slopes = np.array([_sym_norm2(linear)])
        if {const.dtype, linear.dtype} <= {np.dtype(float), np.dtype(complex)}:
            # broadcast by ``evaluate_into`` in the path's realified form
            path._affine = tuple(realify_matrix(m) if path.realified else m for m in (const, linear))
        return path

    @property
    def a(self):
        return float(self.t_samples[0])

    @property
    def b(self):
        return float(self.t_samples[-1])

    @property
    def n(self):
        return self.values.shape[1]

    def evaluate(self, t):
        if self._func is not None:
            return np.asarray(self._func(t), dtype=float)
        return self.evaluate_into([t], np.empty((1, self.n, self.n)))[0]

    def evaluate_into(self, times, out):
        """Write A(t) for each of ``times`` into the stack ``out``, bit for
        bit as ``evaluate``: a broadcast on a path made by ``affine``, a
        gather and lerp (clamped to [a, b]) on an interpolated path, else
        a loop."""
        times = np.asarray(times, dtype=float)
        if self._affine is not None:
            const, linear = self._affine
            np.multiply(times[:, None, None], linear, out=out)
            out += const
        elif self._func is None:
            ts = self.t_samples
            t = np.clip(times, ts[0], ts[-1])
            i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
            w = ((t - ts[i]) / (ts[i + 1] - ts[i]))[:, None, None]
            np.take(self.values, i, axis=0, out=out, mode="clip")
            out *= 1.0 - w
            # right ends in blocks of an eighth of a chunk, so the only
            # temporary is no larger than that, or than one sample
            step = _per_chunk(self.n) // 8 or 1
            for s in range(0, len(out), step):
                right = np.take(self.values, i[s : s + step] + 1, axis=0, mode="clip")
                right *= w[s : s + step]
                out[s : s + step] += right
        else:
            for j, t in enumerate(times.tolist()):
                out[j] = self.evaluate(t)
        return out

    def derivative_at(self, t, h=None):
        if self._derivative is not None:
            return np.asarray(self._derivative(t), dtype=float)
        if self._func is None:
            return self.segment_slope(self.segment(t))
        if h is None:
            h = 1e-5 * (self.b - self.a)
        t1 = max(self.a, t - h)
        t2 = min(self.b, t + h)
        return (self.evaluate(t2) - self.evaluate(t1)) / (t2 - t1)

    def slope_norms(self):
        """A bound beta_seg >= sup ||dA/dt||_2 on each sample segment, or
        None for a callable that declares no curvature bound.

        beta_seg = ||A'(m)||_2 + gamma * len / 2 at the segment's middle m
        (module docstring), exact (||B||_2) where the path is affine: set
        by ``affine``, else taken once by one stacked eigvalsh of the
        segment slopes."""
        if self._slopes is None and self.curvature is not None:
            lens = np.diff(self.t_samples)

            def fill(start, out):
                for j, slope in enumerate(out):
                    slope[...] = self.segment_slope(start + j)

            eigs = _eigvalsh_stacked(self.n, lens.size, fill)
            self._slopes = np.abs(eigs).max(axis=1, initial=0.0) + 0.5 * self.curvature * lens
        return self._slopes

    def chord_norms(self, l, r):
        """A bound on ||A(l) - A(r)||_2, exact where the path is affine,
        or None for a callable that declares no curvature bound.

        ``l`` and ``r`` are interval ends (scalars or arrays), each
        interval inside one sample segment: the segment's slope bound
        (``slope_norms``) times (r - l)."""
        slopes = self.slope_norms()
        if slopes is None:
            return None
        l, r = np.asarray(l), np.asarray(r)
        seg = np.searchsorted(self.t_samples, 0.5 * (l + r)) - 1
        return slopes[seg] * (r - l)

    def segment(self, t):
        """Index i of the sample segment [t_i, t_{i+1}] that holds t."""
        i = int(np.searchsorted(self.t_samples, t, side="right")) - 1
        return min(max(i, 0), self.t_samples.size - 2)

    def segment_slope(self, i):
        """dA/dt at the middle of sample segment i: the difference
        quotient of the segment's samples on a path interpolated between
        them, else the path's derivative there."""
        ts, v = self.t_samples, self.values
        if self._func is not None:
            return self.derivative_at(0.5 * (ts[i] + ts[i + 1]))
        return (v[i + 1] - v[i]) / (ts[i + 1] - ts[i])


def _sample(func, grid):
    """func at each grid time, written into one preallocated stack.

    The stack upcasts when a later sample needs it; a sample that changes
    shape is rejected."""
    first = np.asarray(func(grid[0]))
    vals = np.empty((len(grid),) + first.shape, dtype=first.dtype)
    vals[0] = first
    for i in range(1, len(grid)):
        sample = np.asarray(func(grid[i]))
        if sample.shape != first.shape:
            raise ValueError("path samples change shape")
        if not np.can_cast(sample.dtype, vals.dtype):
            vals = vals.astype(np.result_type(vals, sample))
        vals[i] = sample
    return vals


def _sym_norm2(diff):
    """2-norm of a symmetric matrix: its largest eigenvalue magnitude.

    One eigvalsh in place of the SVD behind np.linalg.norm(diff, 2)."""
    return float(np.abs(np.linalg.eigvalsh(diff)).max(initial=0.0))


# Byte budget of one stacked eigvalsh: numpy's per-call overhead dominates
# at n <= 10, and a chunk bounds the memory held at large n.
_STACK_BYTES = 1 << 21


def _per_chunk(n, cols=None):
    """Number of n x cols float matrices (cols = n by default) in one
    chunk of _STACK_BYTES."""
    return max(1, _STACK_BYTES // (8 * n * (cols or n)))


def _chunks(count, shape, fill):
    """Yield (start, stack) for ``count`` matrices of ``shape`` in chunks
    of at most _STACK_BYTES; ``fill(start, stack)`` writes matrices
    start, start + 1, ... into the stack.  Every chunk reuses one
    buffer."""
    per = _per_chunk(*shape)
    buf = np.empty((min(per, count),) + shape)
    for start in range(0, count, per):
        stack = buf[: min(per, count - start)]
        fill(start, stack)
        yield start, stack


def _eigvalsh_stacked(n, count, fill):
    """Eigenvalues of ``count`` n x n matrices, one stacked eigvalsh per
    chunk (``_chunks``).  A row per matrix, ascending."""
    eigs = np.empty((count, n))
    for start, stack in _chunks(count, (n, n), fill):
        eigs[start : start + len(stack)] = np.linalg.eigvalsh(stack)
    return eigs


def _fill_at(path, times):
    """``fill`` for ``_chunks``: the path's values at ``times``."""
    return lambda start, out: path.evaluate_into(times[start : start + len(out)], out)


def _kernel(path, t, tol, delta):
    """eigh of A(t) - delta, with the mask of its numerical kernel
    (|eigenvalue| < tol)."""
    eigs, vecs = np.linalg.eigh(path.evaluate(t) - delta * np.eye(path.n))
    return eigs, vecs, np.abs(eigs) < tol


def _compressed(w, d):
    """The symmetric part of d compressed to the columns of w."""
    c = w.T @ d @ w
    return 0.5 * (c + c.T)


def crossing_operator(path, t, tol, delta=0.0):
    """Path derivative compressed to the numerical kernel at time t.

    The kernel collects eigenvectors of A(t) - delta with |eigenvalue| <
    tol; the result is the k x k symmetric matrix of the compressed
    derivative (empty when A(t) - delta is invertible)."""
    _, vecs, ker = _kernel(path, t, tol, delta)
    return _compressed(vecs[:, ker], path.derivative_at(t))


def _signature(eigs, floor):
    return int(np.sum(eigs > floor) - np.sum(eigs < -floor))


def _window(eigs, ker, form, beta, tol):
    """Half-width h of the crossing window (module docstring), or 0.

    ``eigs`` is the spectrum of A(t*) - delta with its cluster ``ker``,
    ``form`` the eigenvalues of the crossing form of the slope B of an
    affine segment and ``beta`` = ||B||_2.  The window holds only this
    crossing when every zero of the cluster lies within tol / 2 of t*,
    and it is taken only when it reaches beyond that."""
    m = float(np.abs(eigs[ker]).max())
    g = float(np.abs(eigs[~ker]).min(initial=np.inf))
    c = float(np.abs(form).min())
    if not (4.0 * m < c * tol and 4.0 * m < g):
        return 0.0
    h = min(g / (4.0 * beta), c * g / (8.0 * beta * beta)) if beta else np.inf
    return h if h > 0.5 * tol else 0.0


def _make_record(path, tstar, net, delta, kernel_floor, tol, seg=None):
    """(record, window half-width) of the crossing located at tstar.

    The window (``_window``) is taken on sample segment ``seg`` where the
    path is affine, from the same eigh and crossing form as the record
    (the derivative there is the segment slope); it is 0 when ``seg`` is
    None."""
    eigs, vecs, ker = _kernel(path, tstar, kernel_floor, delta)
    k = int(np.count_nonzero(ker))
    if k == 0:
        raise _DegenerateCrossing("no numerical kernel at a located crossing")
    w = vecs[:, ker]
    ceigs = np.linalg.eigvalsh(_compressed(w, path.derivative_at(tstar)))
    mags = np.abs(ceigs)
    # det scales as c^k, so compare the smallest magnitude, not det
    if mags.max() == 0.0 or mags.min() < 1e-10 * mags.max():
        raise _DegenerateCrossing("crossing operator is numerically singular")
    if _signature(ceigs, 0.0) != net:
        raise _DegenerateCrossing("crossing signature disagrees with the count")
    record = CrossingRecord(
        t=float(tstar),
        kernel_dim=k,
        crossing_signature=int(net),
        crossing_det_sign=int(np.sign(np.prod(ceigs))),
    )
    if seg is None:
        return record, 0.0
    return record, _window(eigs, ker, ceigs, float(path.slope_norms()[seg]), tol)


def _below(eigs, delta):
    """Number of eigenvalues below the counting line at delta; an array
    of counts, one per row, for a stack of spectra."""
    counts = np.count_nonzero(eigs < delta, axis=-1)
    return counts if counts.ndim else int(counts)


def _initial_shift(eigs_a, eigs_b, scale, cfg):
    """Half the smallest endpoint eigenvalue magnitude above the kernel
    floor cfg.kernel_threshold_rel * scale, capped at cfg.delta_cap / 2."""
    mags = np.abs(np.concatenate([eigs_a, eigs_b]))
    nonzero = mags[mags > cfg.kernel_threshold_rel * scale]
    return 0.5 * min(float(nonzero.min()) if nonzero.size else cfg.delta_cap, cfg.delta_cap)


def _endpoint_flow(eigs_a, eigs_b, scale, cfg):
    """Endpoint-count spectral flow from the two endpoint spectra.

    Returns (sf, delta): the shift of ``_initial_shift`` and
    sf = N(a) - N(b), N counting eigenvalues below it.  ``scale`` is the
    largest entry magnitude over both endpoints, floored at 1, and the
    spectra need not be sorted.  Only cfg.kernel_threshold_rel and
    cfg.delta_cap are read."""
    delta = _initial_shift(eigs_a, eigs_b, scale, cfg)
    return _below(eigs_a, delta) - _below(eigs_b, delta), delta


def _cut(left, right, windows):
    """The parts of the intervals [left[j], right[j]] outside the windows
    (lo, hi, _); returns (pieces, the windows that cut something)."""
    pieces, used = list(zip(left.tolist(), right.tolist())), []
    for window in windows:
        lo, hi, _ = window
        rest = []
        for l, r in pieces:
            if l < hi and r > lo:
                rest += [(l, lo)] * (l < lo) + [(hi, r)] * (r > hi)
            else:
                rest.append((l, r))
        if rest != pieces:
            used.append(window)
        pieces = rest
    return pieces, used


def _secant(spectra, partner, l, r, i, delta):
    """Split point of [l, r] for the zero of f = lam_i - delta, whose sign
    differs at the ends: the secant through an end and its closing-pair
    partner where that lands inside (the end nearer the line first), else
    the secant through the two ends."""
    fl, fr = spectra[l][i] - delta, spectra[r][i] - delta
    for end, f in sorted([(l, fl), (r, fr)], key=lambda e: abs(e[1])):
        other = partner.get(end)
        if other is not None:
            slope = (spectra[other][i] - delta - f) / (other - end)
            if slope != 0.0 and l < end - f / slope < r:
                return end - f / slope
    return l + (r - l) * (fl / (fl - fr))


def _flow_with_delta(path, delta, cfg, scale, spectra):
    """One refinement pass at shift delta, breadth-first (module docstring).

    ``path`` carries slope bounds.  ``spectra`` maps each probed time,
    every sample among them, to its eigenvalues; it outlives the delta
    halvings of one spectral_flow call."""
    kernel_floor = cfg.kernel_threshold_rel * scale
    tol = cfg.bisection_tol
    ts = path.t_samples
    left, right = ts[:-1], ts[1:]
    # crossing windows need segments where the path is affine
    affine = path.curvature == 0.0
    # intervals that the last secant step did not halve: bisected next
    halve = np.zeros(left.shape, dtype=bool)
    # the other probe of each closing pair
    partner = {}

    def probe(times):
        times = [t for t in times if t not in spectra]
        spectra.update(zip(times, _eigvalsh_stacked(path.n, len(times), _fill_at(path, times))))

    def ends(times):
        return np.array([spectra[t] for t in times.tolist()]).reshape(times.size, path.n)

    crossings = []
    depth = 0
    while True:
        el, er = ends(left), ends(right)
        nl, nr = _below(el, delta), _below(er, delta)
        narrow = right - left < tol
        windows = []
        for j in np.flatnonzero(narrow & (nl != nr)):
            mid = 0.5 * (left[j] + right[j])
            seg = path.segment(mid) if affine else None
            rec, h = _make_record(path, float(mid), int(nl[j] - nr[j]), delta, kernel_floor, tol, seg)
            crossings.append(rec)
            if h > 0.0:
                lo, hi = max(ts[seg], mid - h), min(ts[seg + 1], mid + h)
                windows.append((float(lo), float(hi), rec.crossing_signature))
        drop = narrow
        pieces, used = [], []
        if windows:
            # the neighbours of a crossing window restart at its ends
            hit = np.zeros(left.shape, dtype=bool)
            for lo, hi, _ in windows:
                hit |= ~narrow & (left < hi) & (right > lo)
            pieces, used = _cut(left[hit], right[hit], windows)
            drop = narrow | hit
        if drop.any():
            left, right, el, er, nl, nr, halve = (
                x[~drop] for x in (left, right, el, er, nl, nr, halve)
            )
        # Per-branch certificate (module docstring): by Weyl's inequality
        # the i-th sorted eigenvalue moves by at most the slope bound
        # times r - l, so it meets delta only if that reaches
        # |el_i - delta| + |er_i - delta|.  So a branch near delta at one
        # end does not block the certificate when it is far from delta at
        # the other.  Only an interval whose end counts agree can be
        # certified.
        reach = np.min(np.abs(el - delta) + np.abs(er - delta), axis=1)
        cross = nl != nr
        split = cross | ~(path.chord_norms(left, right) < 0.5 * reach)
        if not split.any() and not used:
            break
        if depth >= cfg.refine_max_depth:
            raise SpectralFlowError("adaptive refinement depth exceeded")
        # an interval whose end counts differ is split at its secant
        # point (module docstring)
        sec = cross & ~halve
        l, r = left[split & ~sec], right[split & ~sec]
        m = 0.5 * (l + r)
        lefts, rights, halves = [l, m], [m, r], [np.zeros(2 * m.size, dtype=bool)]
        times = m.tolist()
        if sec.any():
            sl, sr = left[sec], right[sec]
            branch = np.minimum(nl[sec], nr[sec])
            mid = np.array([_secant(spectra, partner, *x, delta) for x in zip(sl, sr, branch)])
            q = 0.25 * tol
            mid = np.clip(mid, sl + 2.0 * q, sr - 2.0 * q)
            a, b = mid - q, mid + q
            partner.update(zip(a.tolist(), b.tolist()))
            partner.update(zip(b.tolist(), a.tolist()))
            lefts += [sl, a, b]
            rights += [a, b, sr]
            halves += [a - sl > 0.5 * (sr - sl), np.zeros(a.size, dtype=bool), sr - b > 0.5 * (sr - sl)]
            times += a.tolist() + b.tolist()
        if pieces:
            pl, pr = np.array(pieces).T
            lefts.append(pl)
            rights.append(pr)
            halves.append(np.zeros(pl.size, dtype=bool))
        times += [t for w in used for t in w[:2]]
        left, right, halve = (np.concatenate(x) for x in (lefts, rights, halves))
        probe(times)
        for lo, hi, sig in used:
            if _below(spectra[lo], delta) - _below(spectra[hi], delta) != sig:
                raise SpectralFlowError("count change across a crossing window disagrees with its signature")
        depth += 1
    crossings.sort(key=lambda rec: rec.t)
    total = sum(rec.crossing_signature for rec in crossings)
    if total != _below(spectra[path.a], delta) - _below(spectra[path.b], delta):
        raise SpectralFlowError("crossing sum disagrees with endpoint counts")
    return SpectralFlowReport(
        sf=total,
        delta_used=delta,
        crossings=crossings,
        refinement_depth=depth,
    )


def _bounded(path):
    """(path, method) for the refinement: the path itself when it carries
    slope bounds, else its sample interpolant (module docstring)."""
    if path.slope_norms() is not None:
        return path, "crossing"
    return HermitianPath(path.t_samples, path.values), "interpolant"


def spectral_flow(path, cfg=None):
    """Spectral flow of a symmetric-matrix path, with crossing records.

    The shift starts at half the smallest nonzero endpoint eigenvalue
    magnitude (capped by cfg.delta_cap) and halves, at most
    cfg.max_halvings times, whenever a located crossing of the shifted
    path is numerically degenerate.  The report's sf always equals the
    sum of recorded crossing signatures; in endpoint-count mode only the
    endpoint eigenvalue counts are used and no crossings are recorded.
    A callable that declares no curvature bound is refined as its sample
    interpolant, and the report's method says so.
    """
    if cfg is None:
        cfg = SpectralFlowConfig()
    scale = max(1.0, _max_abs(path.values))
    eigs_a = np.linalg.eigvalsh(path.values[0])
    eigs_b = np.linalg.eigvalsh(path.values[-1])
    spectra = {path.a: eigs_a, path.b: eigs_b}
    if cfg.endpoint_count_only:
        sf, delta = _endpoint_flow(eigs_a, eigs_b, scale, cfg)
        return SpectralFlowReport(
            sf=sf, delta_used=delta, crossings=[], refinement_depth=0, method="endpoint-count"
        )
    path, method = _bounded(path)
    inner = path.values[1:-1]
    fill = lambda start, out: np.copyto(out, inner[start : start + len(out)])
    spectra.update(zip(path.t_samples[1:-1].tolist(), _eigvalsh_stacked(path.n, len(inner), fill)))
    delta0 = _initial_shift(eigs_a, eigs_b, scale, cfg)
    err = None
    for halving in range(cfg.max_halvings + 1):
        delta = delta0 / 2.0**halving
        try:
            report = _flow_with_delta(path, delta, cfg, scale, spectra)
        except _DegenerateCrossing as exc:
            err = exc
            continue
        report.method = method
        return report
    raise SpectralFlowError(
        "no admissible shift after %d halvings: %s" % (cfg.max_halvings, err)
    )


def _joined_curvature(p1, p2):
    """The larger of two paths' curvature bounds, or None when one has
    none: the bound of their direct sum and of their concatenation."""
    if p1.curvature is None or p2.curvature is None:
        return None
    return max(p1.curvature, p2.curvature)


def sf_direct_sum(p1, p2, cfg=None):
    """Spectral flow of the block-diagonal join of two paths, sampled on
    the union of their grids."""
    if abs(p1.a - p2.a) > 1e-12 or abs(p1.b - p2.b) > 1e-12:
        raise ValueError("direct sum requires a common parameter domain")
    n1, n2 = p1.n, p2.n

    def f(t):
        out = np.zeros((n1 + n2, n1 + n2))
        out[:n1, :n1] = p1.evaluate(t)
        out[n1:, n1:] = p2.evaluate(t)
        return out

    def df(t):
        out = np.zeros((n1 + n2, n1 + n2))
        out[:n1, :n1] = p1.derivative_at(t)
        out[n1:, n1:] = p2.derivative_at(t)
        return out

    grid = np.union1d(p1.t_samples, p2.t_samples[1:-1])
    joined = HermitianPath(grid, _sample(f, grid), derivative=df, func=f, curvature=_joined_curvature(p1, p2))
    return spectral_flow(joined, cfg).sf


def _joins(p1, p2):
    """Whether p2 starts where p1 ends, to 1e-12 relative to p1's end."""
    end = p1.values[-1]
    return _max_abs(end - p2.values[0]) <= 1e-12 * max(1.0, _max_abs(end))


def sf_concat(p1, p2, cfg=None):
    """Spectral flow of the concatenation (p2 reparametrized after p1),
    sampled on the union of their grids."""
    if not _joins(p1, p2):
        raise ValueError("concatenation endpoints do not match")
    offset = p1.b - p2.a
    junction = p1.b

    def f(t):
        return p1.evaluate(t) if t <= junction else p2.evaluate(t - offset)

    def df(t):
        return p1.derivative_at(t) if t <= junction else p2.derivative_at(t - offset)

    grid = np.unique(np.concatenate([p1.t_samples, p2.t_samples + offset]))
    joined = HermitianPath(grid, _sample(f, grid), derivative=df, func=f, curvature=_joined_curvature(p1, p2))
    return spectral_flow(joined, cfg).sf


def _match_to_reference(ref_vecs, eigs, vecs):
    """Permute and sign-fix eigenvector columns to follow ref_vecs."""
    n = ref_vecs.shape[1]
    overlap = np.abs(ref_vecs.T @ vecs)
    perm = np.full(n, -1)
    used = set()
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
        perm[i] = j
        used.add(j)
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    out_vecs = vecs[:, perm]
    out_eigs = eigs[perm]
    signs = np.sign(np.sum(ref_vecs * out_vecs, axis=0))
    signs[signs == 0] = 1.0
    return out_eigs, out_vecs * signs


def track_degenerate_eigenvalue(path, cfg=None):
    """Branch data of a path vanishing at t = 0 with simple slope matrix.

    Requires A(0) = 0 and pairwise-distinct eigenvalues of A'(0).  The
    scaled family B(t) = A(t)/t (with B(0) = A'(0)) has continuous simple
    branches near 0; branch j (ordered by ascending slope) carries
    eigenvalue t * mu_j(t) and the B-eigenvector.  The curvature of each
    branch at 0 is the central difference of t -> <A'(t) v_j(t), v_j(t)>.
    """
    if cfg is None:
        cfg = SpectralFlowConfig()
    a, b = path.a, path.b
    if not (a < 0.0 < b):
        raise ValueError("domain must contain 0 in its interior")
    scale = max(1.0, _max_abs(path.values))
    if _max_abs(path.evaluate(0.0)) > 1e-12 * scale:
        raise ValueError("path does not vanish at t = 0")
    b0 = path.derivative_at(0.0)
    b0 = 0.5 * (b0 + b0.T)
    slopes, v0 = np.linalg.eigh(b0)
    if np.min(np.diff(slopes)) <= cfg.gap_min:
        raise ValueError("derivative at 0 has a degenerate spectrum")

    grid = np.unique(np.concatenate([path.t_samples, np.linspace(a, b, 101), [0.0]]))
    tiny = 1e-13 * (b - a)

    def scaled(t):
        if abs(t) < tiny:
            return b0
        m = path.evaluate(t) / t
        return 0.5 * (m + m.T)

    n = path.n
    i0 = int(np.argmin(np.abs(grid)))
    mus = np.zeros((grid.size, n))
    vecs = np.zeros((grid.size, n, n))
    mus[i0], vecs[i0] = slopes, v0
    for direction in (1, -1):
        ref = v0
        i = i0 + direction
        while 0 <= i < grid.size:
            e, v = np.linalg.eigh(scaled(grid[i]))
            mus[i], vecs[i] = _match_to_reference(ref, e, v)
            ref = vecs[i]
            i += direction

    lam = grid[:, None] * mus
    h = 1e-3 * (b - a)
    for sgn in (1.0, -1.0):
        t = sgn * h
        e, v = np.linalg.eigh(scaled(t))
        _, v = _match_to_reference(v0, e, v)
        d = path.derivative_at(t)
        g = np.einsum("ij,ik,jk->k", d, v, v)
        if sgn > 0:
            gplus = g
        else:
            gminus = g
    second = (gplus - gminus) / (2.0 * h)
    return TrackedBranches(
        t_samples=grid,
        eigenvalues=lam,
        eigenvectors=vecs,
        eigenvalue_slopes=slopes,
        second_derivatives=second,
    )
