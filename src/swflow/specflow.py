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
crossing.  The open intervals that meet it are cut at its ends, the new
ends are probed with the level's stacked call, and the count change
across the window must equal the crossing's signature.  The siblings of
a crossing so restart at the window's ends, not bisection_tol from t*:
their certificate needs an interval whose length is about its distance
to the crossing divided by ||B|| / |slope|, so the partition grows
geometrically outward from where it starts.  On a curved segment E gains
a Taylor remainder of A, which this derivation does not bound, so no
window is taken there.

The window at a sample.  The window above is clipped to the segment of
t*.  A crossing that lands on an interior sample t_j (a branch that
meets delta at t_j) would keep an end at t_j, where that branch sits on
the line: the neighbouring interval on the far side of t_j has reach 0
at that end, and its certificate fails by a factor of 2 at every
bisection, down to bisection_tol.  So a crossing located within
bisection_tol of an interior sample t_j of a path interpolated between
its samples takes its window at t_j, on both sides.  There

    A(t_j + s) = A(t_j) + s B_R,    A(t_j - s) = A(t_j) - s B_L

for s from 0 to the length of the right (left) segment, with B_R and B_L
the two segment slopes, so the derivation above holds on each side from
one eigh of the stored sample A(t_j) - delta: with the cluster's
one-sided crossing forms C_L = W^T B_L W and C_R = W^T B_R W it gives
h_L and h_R, each clipped to its segment.  Every zero of the cluster
lies within 2m/c of t_j.  At t_j + h_R the cluster's eigenvalues below
the line are those of the negative eigenvalues of C_R, and at t_j - h_L
those of the positive eigenvalues of C_L, so the count changes across
[t_j - h_L, t_j + h_R] by #pos(C_L) - #neg(C_R).  That is the crossing's
signature when both forms are nonsingular and have that signature (and
so the same inertia), and the window is taken only then, with the
cluster at t_j of the record's kernel dimension; otherwise (a corner at
t_j whose one-sided forms differ) the crossing takes the one-sided
window.  A callable with curvature 0 (a concatenation of affine paths)
may meet its join only to the join tolerance, so it takes the
one-sided window.

Refinement runs breadth-first.  Each level classifies all of its open
intervals at once, takes the certificate for the whole level by
broadcasting, and diagonalizes all new midpoints in one stacked eigvalsh
per chunk of at most _STACK_BYTES, with the secant probes and the
window ends.  ``HermitianPath.block_values`` evaluates a chunk in one
array operation per block size: a broadcast of the stored (const,
linear) on a path made by ``affine``, whatever the dtype it was given, a
gather and lerp on an interpolated one.  It is the one place where the
values of such paths are formed.  The samples are diagonalized
once, from their stored values, and the spectrum of every probed time is
kept across delta halvings, so no point of the path is diagonalized
twice.  The stabilizer scan of ``orient`` runs level by level the same
way.

Block-diagonal paths.  Every path holds a partition of its index set that
each of its values respects (``HermitianPath.blocks``), and stores its
samples only by it.  A dense stack is partitioned on ingest, by the
connected components of a union support: of const and linear on a path
made by ``affine``, of the samples on a path refined as its sample
interpolant.  A callable with a curvature bound is one block, and a dense
support is one block after one check.  ``HermitianPath.from_blocks``
takes the blocks themselves and forms no dense sample.  The scale that
the kernel floor reads is the largest entry over the blocks, which is
the whole matrices' since entries off the blocks are zero; a path whose
every sample is zero has no scale, and ``spectral_flow`` raises
``SpectralFlowError`` on it.  The spectrum of a direct sum is
the union of its blocks' spectra, so each spectrum is taken with one
stacked eigvalsh per block size (1 x 1 blocks are read) and merged by
sorting.  That is the sorted spectrum of the whole matrix (bit for bit
where every block is 1 x 1, as dense eigvalsh returns a diagonal
exactly), and every step above reads only sorted spectra.  The 2-norm of
a direct sum is the largest of its blocks' norms, so beta_seg is the
maximum over blocks and the Weyl certificate holds unchanged; the secant
step reads the same sorted eigenvalue i.  An eigenvector of a block,
embedded in R^n, is one of the whole matrix, so the kernel at a crossing
comes from one stacked eigh per block size, and its crossing form needs
only the rows of the blocks that hold it, since the slope respects the
partition.  The window takes g over the eigenvalues of all blocks and
beta over all blocks, so its derivation holds as it stands.  Probes
evaluate only the blocks, from the stored blocks of const and linear or
of the samples.  Where a whole matrix is needed (``evaluate``,
``values``, and the [T_t K] probes of ``orient``), the blocks are
scattered into zeros (``_dense``).  A path of one block takes the same
route: its block is a view of the whole matrix, and the stacked eigvalsh
of that block is its sorted spectrum as it stands.
"""

import copy
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


def _sym_defect(m, tile=256):
    """max |m - m^T| of a square matrix, or over a stack of them
    (..., n, n), NaN when m holds a NaN.

    Up to ``tile`` rows this is one m - m^T.  A larger m is visited by
    tile x tile blocks of its upper triangle, each against its mirror,
    so every pair (i, j) is seen once and no temporary is larger than a
    tile; |m_ij - m_ji| is exact and symmetric in i and j, so the
    maximum is the same bit for bit."""
    n = m.shape[-1]
    if n <= tile:
        return _max_abs(m - np.swapaxes(m, -1, -2))
    if m.ndim > 2:
        return float(np.max([_sym_defect(x) for x in m.reshape((-1, n, n))]))
    starts = range(0, n, tile)
    return float(np.max([
        _max_abs(m[i : i + tile, j : j + tile] - m[j : j + tile, i : i + tile].T)
        for i in starts
        for j in starts
        if j >= i
    ]))


def _check_symmetric(values, tol=1e-12):
    """Reject samples that are not finite or not symmetric, and return
    their largest entry magnitude.

    ``values`` is a matrix, a stack of matrices, or a list of stacks of
    blocks (..., size, size) as ``HermitianPath`` stores its samples.
    Entries off the blocks are zero, so over blocks the largest entry and
    the defect are those of the whole matrices, and the decision is the
    same bit for bit.  The defect is taken one sample at a time by
    ``_sym_defect``, so the only temporary is the size of one sample at
    most; 1 x 1 blocks take none."""
    stacks = values if isinstance(values, list) else [values[None] if values.ndim == 2 else values]
    top = float(np.max([_max_abs(s) for s in stacks]))
    if not np.isfinite(top):
        raise ValueError("path samples are not finite")
    defect = max((_sym_defect(v) for s in stacks if s.shape[-1] > 1 for v in s), default=0.0)
    if defect > tol * max(1.0, top):
        raise ValueError("path samples are not symmetric within tolerance")
    return top


def _times(t_samples):
    """The sample times as a float array, checked strictly increasing."""
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.ndim != 1 or t_samples.size < 2:
        raise ValueError("need at least two samples")
    if np.any(np.diff(t_samples) <= 0):
        raise ValueError("t_samples must be strictly increasing")
    return t_samples


def _real_samples(values):
    """(stack, realified): a stack of square matrices as float64, a
    complex one in its doubled real form (``realify_matrix``)."""
    values = np.asarray(values)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise ValueError("samples must be square matrices")
    realified = np.iscomplexobj(values)
    if realified:
        values = realify_matrix(values)
    return values.astype(float, copy=False), realified


class HermitianPath:
    """A sampled path of symmetric matrices on [a, b], stored by blocks.

    ``blocks`` is a partition of the index set that every value respects:
    one (count, size) array of indices per block size, ascending in size,
    each block's indices ascending; ``[arange(n)[None]]`` is one block.
    The samples are kept only by it, per block size as a (samples, count,
    size, size) stack (``sample_blocks``).  A dense stack given to the
    constructor is checked and partitioned on ingest, by the connected
    components of a union support: of const and linear on a path made by
    ``affine``, of the samples on a path refined as its sample
    interpolant; a callable with a curvature bound is one block.  A path
    of one block stores a view of the given stack.  ``from_blocks`` takes
    the blocks themselves, and no dense sample is formed.  ``values``,
    the samples as whole matrices, is derived from the blocks on each
    request and not kept; ``top`` is the largest entry magnitude over the
    samples, taken from the blocks on ingest.

    Values come from the stored callable when available, else from
    ``block_values``: the stored (const, linear) of a path made by
    ``affine``, or linear interpolation between the samples.  Complex
    Hermitian input is converted on ingest to the doubled real symmetric
    form and flagged, and checked in that form (R - R^T holds the entries
    of v - v^H).  The derivative is the stored closure, the slope of an
    affine or interpolated path, or else a central finite difference.
    ``curvature`` is a bound gamma >= sup ||A''||_2 that a callable with a
    derivative may declare (``slope_norms``); an affine or interpolated
    path has curvature 0.
    """

    def __init__(self, t_samples, values, derivative=None, func=None, curvature=None):
        if curvature is not None and not (func is not None and derivative is not None and curvature >= 0.0):
            raise ValueError("a curvature bound is >= 0 and needs a callable with its derivative")
        t_samples = _times(t_samples)
        values, realified = _real_samples(values)
        if realified:
            if func is not None:
                raw = func
                func = lambda t: realify_matrix(raw(t))
            if derivative is not None:
                rawd = derivative
                derivative = lambda t: realify_matrix(rawd(t))
        top = _check_symmetric(values)
        support = None
        if func is None or curvature is None:
            support = values[0] != 0
            for v in values[1:]:
                support |= v != 0
        blocks = _partition(support, values.shape[1])
        samples = [_gather(values, idx) for idx in blocks]
        self._store(t_samples, blocks, samples, top, func, derivative, curvature, realified)

    def _store(self, t_samples, blocks, samples, top, func=None, derivative=None, curvature=None, realified=False):
        """Keep the checked samples, block by block, and the callables."""
        if any(s.shape[0] != t_samples.size for s in samples):
            raise ValueError("sample count mismatch")
        self.t_samples = t_samples
        self.blocks = blocks
        self.n = sum(idx.size for idx in blocks)
        self.top = top
        self._samples = samples
        self._derivative = derivative
        self._func = func
        self.realified = realified
        self.curvature = 0.0 if func is None else curvature
        # bound on ||dA/dt||_2 on each sample segment, filled lazily by
        # ``slope_norms``
        self._slopes = None
        # (const, linear) of a path made by ``affine``, and their blocks
        # for ``block_values``, gathered on first use
        self._affine = None
        self._block_data = None

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
    def from_blocks(cls, t_samples, blocks, samples, func=None, derivative=None):
        """The path whose samples are given block by block, stored as given.

        ``blocks`` is a partition of range(n) in ``_partition``'s form (the
        class docstring), and ``samples`` holds per block size a real
        (samples, count, size, size) stack of symmetric blocks.  The blocks
        must cover range(n) exactly once.  The stacks are checked for
        finiteness and symmetry by ``_check_symmetric``, with its tolerance
        against the largest entry over all blocks: entries off the blocks
        are zero, so that is the decision the dense check makes.  No dense
        sample is formed.  ``func`` and ``derivative``, when given, are the
        whole matrices A(t) and A'(t) that ``evaluate`` and
        ``derivative_at`` return; the path is refined as its sample
        interpolant."""
        t_samples = _times(t_samples)
        blocks = [np.asarray(idx) for idx in blocks]
        flat = np.concatenate([idx.ravel() for idx in blocks]) if blocks else np.zeros(0)
        if (
            not blocks
            or any(idx.ndim != 2 or idx.dtype.kind not in "iu" or 0 in idx.shape for idx in blocks)
            or any(p.shape[1] >= q.shape[1] for p, q in zip(blocks, blocks[1:]))
            or any(np.any(np.diff(idx, axis=1) <= 0) for idx in blocks)
            or not np.array_equal(np.sort(flat), np.arange(flat.size))
        ):
            raise ValueError("blocks are not a partition of range(n) in ascending order")
        samples = [np.asarray(s) for s in samples]
        if len(samples) != len(blocks) or any(
            np.iscomplexobj(s) or s.shape[1:] != idx.shape + idx.shape[1:] for s, idx in zip(samples, blocks)
        ):
            raise ValueError("samples must be real (samples, count, size, size) stacks on the blocks")
        samples = [s.astype(float, copy=False) for s in samples]
        path = cls.__new__(cls)
        path._store(t_samples, blocks, samples, _check_symmetric(samples), func, derivative)
        return path

    @classmethod
    def affine(cls, const, linear, a=0.0, b=1.0):
        """The path const + t linear on [a, b], sampled at its two ends.

        Both matrices are cast to float64, or to complex128 when either
        is complex, and stored as (const, linear) in the path's realified
        form: ``block_values`` broadcasts them, and the ends are sampled
        with the same arithmetic.  The partition is that of their union
        support."""
        dtype = complex if np.iscomplexobj(const) or np.iscomplexobj(linear) else float
        const, linear = np.asarray(const, dtype=dtype), np.asarray(linear, dtype=dtype)
        ends = _times(np.linspace(a, b, 2))
        values, realified = _real_samples(ends[:, None, None] * linear + const)
        if realified:
            const, linear = realify_matrix(const), realify_matrix(linear)
        blocks = _partition((const != 0) | (linear != 0), values.shape[1])
        path = cls.__new__(cls)
        samples = [_gather(values, idx) for idx in blocks]
        path._store(ends, blocks, samples, _check_symmetric(values), realified=realified)
        path._affine = const, linear
        return path

    @property
    def a(self):
        return float(self.t_samples[0])

    @property
    def b(self):
        return float(self.t_samples[-1])

    @property
    def values(self):
        """The samples as whole matrices, (samples, n, n): derived from the
        stored blocks on each request and not kept, a view of the one
        block of a path of one block, else the blocks scattered into zeros
        (``_dense``)."""
        return _dense(self, self._samples)

    def evaluate(self, t):
        """A(t): the stored callable's value, else the whole matrix of
        ``block_values([t])`` (``_dense``)."""
        if self._func is not None:
            return np.asarray(self._func(t), dtype=float)
        return _dense(self, self.block_values([t]))[0]

    def _lerp(self, times):
        """(i, w): the sample segment of each of ``times``, clamped to
        [a, b], and its weight on the segment's right sample."""
        ts = self.t_samples
        t = np.clip(times, ts[0], ts[-1])
        i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        return i, (t - ts[i]) / (ts[i + 1] - ts[i])

    def _stored_blocks(self):
        """Per block size, the blocks ``block_values`` evaluates from:
        (const, linear) on a path made by ``affine``, else the stored
        sample stacks."""
        if self._affine is None:
            return self._samples
        if self._block_data is None:
            self._block_data = [tuple(_gather(m, idx) for m in self._affine) for idx in self.blocks]
        return self._block_data

    def block_values(self, times):
        """A(t) for each of ``times``, block by block: per block size a
        (times, count, size, size) stack.  This is the one place where the
        values of an affine or interpolated path are formed: a broadcast
        of the stored blocks of const and linear, or a gather and lerp of
        the stored sample blocks (clamped to [a, b]), which also serves a
        callable without a curvature bound as its sample interpolant.  A
        curved callable is one block, evaluated time by time."""
        times = np.asarray(times, dtype=float)
        out = []
        if self._affine is not None:
            for const, lin in self._stored_blocks():
                out.append(times[:, None, None, None] * lin)
                out[-1] += const
        elif self._func is not None and self.curvature is not None:
            out.append(np.empty((times.size, 1, self.n, self.n)))
            for j, t in enumerate(times.tolist()):
                out[-1][j, 0] = self.evaluate(t)
        else:
            i, w = self._lerp(times)
            w = w[:, None, None, None]
            for stored in self._stored_blocks():
                out.append(stored[i])
                out[-1] *= 1.0 - w
                right = stored[i + 1]
                right *= w
                out[-1] += right
        return out

    def sample_blocks(self, part):
        """The stored samples ``part`` (a slice), block by block: per block
        size a (samples, count, size, size) stack, a view of the store."""
        return [s[part] for s in self._samples]

    def derivative_at(self, t):
        """A'(t): the stored derivative of a callable, the slope of an
        affine or interpolated path (``slope_at`` on every row), else a
        central difference of the callable over 1e-5 (b - a)."""
        if self._derivative is not None:
            return np.asarray(self._derivative(t), dtype=float)
        if self._func is None:
            return self.slope_at(t, np.arange(self.n))
        h = 1e-5 * (self.b - self.a)
        t1 = max(self.a, t - h)
        t2 = min(self.b, t + h)
        return (self.evaluate(t2) - self.evaluate(t1)) / (t2 - t1)

    def slope_norms(self):
        """A bound beta_seg >= sup ||dA/dt||_2 on each sample segment, or
        None for a callable that declares no curvature bound.

        beta_seg = ||A'(m)||_2 + gamma * len / 2 at the segment's middle m
        (module docstring), exact (||B||_2) where the path is affine:
        taken once, from the spectra of the segment slopes by blocks
        (``_chunked_spectra``)."""
        if self._slopes is None and self.curvature is not None:
            lens = np.diff(self.t_samples)
            eigs = _chunked_spectra(self, lens.size, self._slope_blocks)
            self._slopes = np.abs(eigs).max(axis=1, initial=0.0) + 0.5 * self.curvature * lens
        return self._slopes

    def _slope_blocks(self, lo, hi):
        """The slopes of sample segments lo to hi - 1, block by block as
        ``block_values``: the stored blocks of linear on a path made by
        ``affine``, difference quotients of the stored sample blocks on an
        interpolated path, and A' at the middles on a curved callable."""
        if self._affine is not None:
            return [lin[None] for _, lin in self._stored_blocks()]
        if self._func is None:
            lens = np.diff(self.t_samples[lo : hi + 1])[:, None, None, None]
            out = [v[lo + 1 : hi + 1] - v[lo:hi] for v in self._stored_blocks()]
            for slope in out:
                slope /= lens
            return out
        ts = self.t_samples
        out = np.empty((hi - lo, 1, self.n, self.n))
        for i in range(lo, hi):
            out[i - lo, 0] = self.derivative_at(0.5 * (ts[i] + ts[i + 1]))
        return [out]

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

    def slope_at(self, t, rows):
        """A'(t) on rows x rows, with ``rows`` indices of whole blocks: the
        slope of a path made by ``affine``, the slope of t's sample segment
        on a path refined as its sample interpolant, else
        ``derivative_at(t)`` on a curved callable."""
        if self._affine is not None:
            return self._affine[1][np.ix_(rows, rows)]
        if self._func is None or self.curvature is None:
            ts, i = self.t_samples, self.segment(t)
            out = np.zeros((len(rows), len(rows)))
            hosts = np.zeros(self.n, dtype=bool)
            hosts[rows] = True
            for idx, s in zip(self.blocks, self._samples):
                host = hosts[idx[:, 0]]
                at = np.searchsorted(rows, idx[host])
                out[at[:, :, None], at[:, None, :]] = (s[i + 1, host] - s[i, host]) / (ts[i + 1] - ts[i])
            return out
        return self.derivative_at(t)[np.ix_(rows, rows)]


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


def _partition(support, n):
    """The connected components of the graph on range(n) whose edges are
    the True entries of ``support`` (None: one component), as index
    arrays grouped by size (``HermitianPath.blocks``).

    Each index takes the least label among its neighbours' and then the
    label of that label, until no label changes.  Labels only decrease
    and stay inside their component, and at the fixed point they are
    constant along every edge."""
    if support is None or support.all():
        return [np.arange(n)[None]]
    support = support | support.T
    np.fill_diagonal(support, True)
    rows, cols = np.nonzero(support)
    # every row holds its diagonal, so row i starts the i-th run
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    labels = np.arange(n)
    while True:
        least = np.minimum.reduceat(labels[cols], starts)
        least = least[least]
        if np.array_equal(least, labels):
            break
        labels = least
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    return [order[first[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


def _dense(path, groups):
    """The whole matrices of a stack given block by block on the path's
    partition (``HermitianPath.block_values``): a view of the one block
    of a path of one block, else the blocks scattered into zeros."""
    if path.blocks[0].shape[1] == path.n:
        return groups[0][..., 0, :, :]
    out = np.zeros(groups[0].shape[:-3] + (path.n, path.n))
    for idx, g in zip(path.blocks, groups):
        out[..., idx[:, :, None], idx[:, None, :]] = g
    return out


def _gather(stack, idx):
    """The blocks idx (count, size) of a matrix or a stack of matrices:
    shape (..., count, size, size).  Each block's indices ascend, as in
    ``_partition``, so a block of all n indices is the identity partition,
    and it is returned as a view of the stack, not a copy."""
    if idx.shape[1] == stack.shape[-1]:
        return stack[..., None, :, :]
    return stack[..., idx[:, :, None], idx[:, None, :]]


def _block_spectra(groups):
    """Sorted spectra of direct sums given block by block: per block size
    a (..., count, size, size) stack of symmetric or Hermitian blocks,
    diagonalized by one stacked eigvalsh (1 x 1 blocks are read, their
    real part), then merged by sorting.  The spectrum of a direct sum is
    the union of its blocks' spectra; a single block's is eigvalsh's,
    already sorted."""
    parts = []
    for g in groups:
        eigs = g[..., 0].real if g.shape[-1] == 1 else np.linalg.eigvalsh(g)
        parts.append(eigs.reshape(eigs.shape[:-2] + (eigs.shape[-2] * eigs.shape[-1],)))
    if len(groups) == 1 and groups[0].shape[-3] == 1:
        return parts[0]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


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


def _chunked_spectra(path, count, groups):
    """Sorted spectra of ``count`` direct sums on the path's partition, a
    row each: ``groups(lo, hi)`` gives sums lo to hi - 1 block by block
    (per block size a (hi - lo, count, size, size) stack), in chunks of at
    most _STACK_BYTES, each through ``_block_spectra``."""
    per = max(1, _STACK_BYTES // (8 * sum(idx.size * idx.shape[1] for idx in path.blocks)))
    eigs = np.empty((count, path.n))
    for lo in range(0, count, per):
        hi = min(lo + per, count)
        eigs[lo:hi] = _block_spectra(groups(lo, hi))
    return eigs


def _spectra(path, times):
    """Sorted spectra of the path at ``times``, a row per time, from the
    blocks' values (``HermitianPath.block_values``)."""
    return _chunked_spectra(path, len(times), lambda lo, hi: path.block_values(times[lo:hi]))


def _end_spectra(path):
    """Sorted spectra of the path's first and last samples, by blocks."""
    return _block_spectra(path.sample_blocks(slice(None, None, path.t_samples.size - 1)))


def _kernel_frame(path, tol, delta, t=None, j=None):
    """(eigs, ker, w, rows) of A - delta at time t, or at stored sample j.

    Each block is diagonalized by one stacked eigh per block size (1 x 1
    blocks are read).  ``eigs`` are the eigenvalues in block order, ``ker``
    the mask of the numerical kernel (|eigenvalue| < tol), and w holds the
    kernel eigenvectors on ``rows``, the indices of the blocks that hold
    them: A and its derivative respect the partition, so the crossing form
    needs no other row."""
    groups = path.sample_blocks(slice(j, j + 1)) if t is None else path.block_values([t])
    eigs, kers, cols, hosts = [], [], [], []
    for idx, g in zip(path.blocks, groups):
        size = idx.shape[1]
        if size == 1:
            e, v = g[0, :, :, 0] - delta, np.ones((len(idx), 1, 1))
        else:
            e, v = np.linalg.eigh(g[0] - delta * np.eye(size))
        ker = np.abs(e) < tol
        block, col = np.nonzero(ker)
        w = np.zeros((path.n, block.size))
        w[idx[block], np.arange(block.size)[:, None]] = v[block, :, col]
        eigs.append(e.ravel())
        kers.append(ker.ravel())
        cols.append(w)
        hosts.append(idx[ker.any(axis=1)].ravel())
    rows = np.sort(np.concatenate(hosts))
    return np.concatenate(eigs), np.concatenate(kers), np.hstack(cols)[rows], rows


def _compressed(w, d):
    """The symmetric part of d compressed to the columns of w."""
    c = w.T @ d @ w
    return 0.5 * (c + c.T)


def crossing_operator(path, t, tol, delta=0.0):
    """Path derivative compressed to the numerical kernel at time t.

    The kernel collects eigenvectors of A(t) - delta with |eigenvalue| <
    tol; the result is the k x k symmetric matrix of the compressed
    derivative (empty when A(t) - delta is invertible).  A callable that
    declares no curvature bound is read as its sample interpolant, as in
    ``spectral_flow``."""
    _, _, w, rows = _kernel_frame(path, tol, delta, t=t)
    return _compressed(w, path.slope_at(t, rows))


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
    eigs, ker, w, rows = _kernel_frame(path, kernel_floor, delta, t=tstar)
    k = int(np.count_nonzero(ker))
    if k == 0:
        raise _DegenerateCrossing("no numerical kernel at a located crossing")
    ceigs = np.linalg.eigvalsh(_compressed(w, path.slope_at(tstar, rows)))
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


def _sample_window(path, tstar, rec, delta, kernel_floor, tol):
    """The window (lo, hi) at the interior sample within tol of the
    crossing recorded at tstar, or None (module docstring).

    ``path`` is interpolated between its samples.  One eigh of the stored
    sample gives the cluster, whose crossing forms of the left and right
    segment slopes must both have the record's signature; ``_window``
    gives each side's half-width, clipped to its segment."""
    ts = path.t_samples
    j = path.segment(tstar)
    j += int(ts[j + 1] - tstar < tstar - ts[j])
    if not (0 < j < ts.size - 1 and abs(ts[j] - tstar) < tol):
        return None
    eigs, ker, w, rows = _kernel_frame(path, kernel_floor, delta, j=j)
    if np.count_nonzero(ker) != rec.kernel_dim:
        return None
    h = []
    for seg in (j - 1, j):
        form = np.linalg.eigvalsh(_compressed(w, path.slope_at(0.5 * (ts[seg] + ts[seg + 1]), rows)))
        if _signature(form, 0.0) != rec.crossing_signature:
            return None
        h.append(_window(eigs, ker, form, float(path.slope_norms()[seg]), tol))
    if not min(h) > 0.0:
        return None
    return max(ts[j - 1], ts[j] - h[0]), min(ts[j + 1], ts[j] + h[1])


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
        # a closing pair closer than the float spacing of t collapses
        if other is not None and other != end:
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
    # crossing windows need segments where the path is affine, and a
    # window at a sample needs a path interpolated between its samples
    affine = path.curvature == 0.0
    interpolated = path._func is None
    # intervals that the last secant step did not halve: bisected next
    halve = np.zeros(left.shape, dtype=bool)
    # the other probe of each closing pair
    partner = {}

    def probe(times):
        times = [t for t in times if t not in spectra]
        spectra.update(zip(times, _spectra(path, times)))

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
            window = _sample_window(path, mid, rec, delta, kernel_floor, tol) if interpolated else None
            if window is None and h > 0.0:
                window = max(ts[seg], mid - h), min(ts[seg + 1], mid + h)
            if window is not None:
                windows.append((float(window[0]), float(window[1]), rec.crossing_signature))
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
    # the callable's samples, checked on ingest, and so its partition
    interpolant = copy.copy(path)
    interpolant._func = interpolant._derivative = None
    interpolant.curvature = 0.0
    return interpolant, "interpolant"


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
    if path.top == 0.0:
        raise SpectralFlowError("every sample of the path is zero: no shift is admissible")
    scale = max(1.0, path.top)
    eigs_a, eigs_b = _end_spectra(path)
    spectra = {path.a: eigs_a, path.b: eigs_b}
    if cfg.endpoint_count_only:
        sf, delta = _endpoint_flow(eigs_a, eigs_b, scale, cfg)
        return SpectralFlowReport(
            sf=sf, delta_used=delta, crossings=[], refinement_depth=0, method="endpoint-count"
        )
    path, method = _bounded(path)
    eigs = _chunked_spectra(path, path.t_samples.size - 2, lambda lo, hi: path.sample_blocks(slice(lo + 1, hi + 1)))
    spectra.update(zip(path.t_samples[1:-1].tolist(), eigs))
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
    """Whether p2 starts where p1 ends, to 1e-12 relative to p1's end:
    the two end samples, formed from their blocks."""
    end = _dense(p1, p1.sample_blocks(slice(-1, None)))[0]
    start = _dense(p2, p2.sample_blocks(slice(1)))[0]
    return _max_abs(end - start) <= 1e-12 * max(1.0, _max_abs(end))


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
    scale = max(1.0, path.top)
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
