"""Thin-plate spline machinery: radial kernel, bending-energy penalty, interpolation.

A field sampled at p fixed sites is smoothed by penalizing the bending energy
of the spline interpolating it.  That energy is a quadratic form

    v' omega v  =  roughness of the spline through (s_i, v_i),

where ``omega`` is the upper-left p x p block of the inverse of the bordered
kernel system [[g, e], [e', 0]].  :func:`build_penalty` computes it in
null-space form from the d + 1 Householder reflectors of the affine design
``e`` in about p^3 flops, never assembles the bordered matrix or a complete
Q, and keeps no p x p array but omega.  Code downstream works with ``omega``
directly and only touches spline coefficients when a component is evaluated
off the observation sites; :func:`evaluate` builds the kernel in row blocks
and multiplies each into its rows of the result, never holding a q x p
matrix.  Both kernel builds start from squared distances whose coordinate
differences are exact BLAS products (``_distances``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ConditioningError",
    "SpatialDomain",
    "PenaltyOperator",
    "SplineCoefficients",
    "kernel",
    "build_penalty",
    "solve_coefficients",
    "evaluate",
]


class ConditioningError(ValueError):
    """The interpolation system is numerically singular.

    ``pair`` holds the indices of the closest (or coincident) pair of sites,
    which is the usual culprit; it is None when the sites are collinear
    (d = 2) or coplanar (d = 3).
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class SpatialDomain:
    """Fixed set of study sites in R^d with d in {1, 2, 3}.

    Parameters
    ----------
    locations : ndarray, shape (p, d)
        Site coordinates, one row per site.  A 1-d array is accepted as a
        column of one-dimensional sites.

    Notes
    -----
    At least d + 2 sites are required so that the affine part of the spline
    is identifiable alongside the radial part.
    """

    locations: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim == 1:
            loc = loc[:, None]
        if loc.ndim != 2:
            raise ValueError("locations must be a p x d matrix")
        p, d = loc.shape
        if d not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {d}")
        if p < d + 2:
            raise ValueError(f"need at least d + 2 = {d + 2} sites, got {p}")
        if not np.all(np.isfinite(loc)):
            raise ValueError("site coordinates must be finite")
        loc = loc.copy()
        loc.setflags(write=False)
        object.__setattr__(self, "locations", loc)

    @property
    def p(self) -> int:
        return self.locations.shape[0]

    @property
    def d(self) -> int:
        return self.locations.shape[1]


@dataclass(frozen=True)
class PenaltyOperator:
    """Bending-energy penalty and interpolation solver for one domain.

    Attributes
    ----------
    domain : SpatialDomain
    omega : ndarray, shape (p, p)
        Symmetric positive semidefinite; annihilates affine fields
        (``omega @ e == 0`` for the affine design e, row i equal to
        (1, s_i')) and satisfies ``v' omega v == a' g a`` for the radial
        coefficients ``a`` interpolating ``v``, g the kernel matrix
        g(||s_i - s_j||).
    affine : tuple
        ``(q1, r1, g q1)``: the reduced QR factorization e = q1 r1 and the
        p x (d + 1) product of g with q1, all that :func:`solve_coefficients`
        needs besides omega.
    """

    domain: SpatialDomain
    omega: np.ndarray
    affine: tuple

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, vectors)`` with ``omega = vectors diag(values) vectors'``,
        values ascending.

        Computed on first use and kept, the one eigendecomposition of omega
        (:func:`build_penalty` checks it with a Cholesky): its one reader,
        the solver's low-rank Phi update of ADMM fits (tau2 > 0) on far
        fewer rows than sites, reads it on every such fit on this domain,
        so a domain never fitted that way never pays for it.
        """
        values, vectors = np.linalg.eigh(self.omega)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


@dataclass(frozen=True)
class SplineCoefficients:
    """Radial weights ``a`` (p x K, e'a = 0) and affine part ``b`` ((d + 1) x K).

    Column k is the k-th of K interpolants; for a single field both are vectors.
    """

    a: np.ndarray
    b: np.ndarray


def kernel(r, d: int):
    """Radial generator of thin-plate splines in R^d.

    g(r) = r^2 log(r) / (16 pi)                          for d = 2
    g(r) = Gamma(d/2 - 2) r^(4 - d) / (16 pi^(d/2))      for d = 1, 3

    with g(0) = 0 by continuity.  The d = 3 coefficient is negative because
    Gamma(-1/2) < 0; that is the correct bending-energy generator, not a sign
    slip.  For d = 1 the formula reduces to r^3 / 12.  g is computed from r^2
    (``_radial``, as in build_penalty and evaluate); ValueError if it overflows.

    Parameters
    ----------
    r : float or ndarray
        Nonnegative distances.
    d : int
        Spatial dimension, 1, 2 or 3.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"kernel defined for d in {{1, 2, 3}}, got {d}")
    arr = np.array(r, dtype=float, ndmin=1)
    if not np.all(arr >= 0):
        raise ValueError("distances must be nonnegative numbers")
    with np.errstate(over="ignore"):
        out = _radial(arr * arr, d, np.empty_like(arr))
    if not np.all(np.isfinite(out)):
        raise ValueError("g(r) overflows: the distances are too large")
    return float(out[0]) if np.ndim(r) == 0 else out


# bytes of a kernel row block plus its scratch block, the one buffer evaluate
# allocates beside its output (one buffer, so that freeing it leaves glibc's
# heap untrimmed: two 512 KiB ones cost 224 page faults a call at q = 2001,
# p = 50, K = 2).  evaluate at q = 3600, p = 400, K = 5 took 6.0 ms at 1 MiB,
# 6.3 at 512 KiB and 6.8 at 2 MiB; at p = 1600, 24.0, 26.2 and 25.4 ms; at
# q = 2001, p = 50, K = 2, 0.28-0.30 ms (medians of ten alternating process
# pairs, 1 MiB winning 8-10 of each ten but 5 against 2 MiB at q = 2001; 2-core
# Xeon with a 2 MiB L2 per core, one BLAS thread)
_BLOCK_BYTES = 1 << 20


def _radial(s: np.ndarray, d: int, scratch: np.ndarray) -> np.ndarray:
    """Overwrite squared distances s (nonnegative, unchecked) with g; clobbers
    scratch.  d = 2: s log(s) / (32 pi), the log of max(s, 5e-324) so that s = 0
    gives 0 unmasked; d = 1, 3: kernel's coefficient times s sqrt(s) or sqrt(s)."""
    if d == 2:
        s *= np.log(np.maximum(s, 5e-324, out=scratch), out=scratch)
        s /= 32.0 * math.pi
        return s
    r = np.sqrt(s, out=scratch if d == 1 else s)
    if d == 1:
        s *= r
    s *= math.gamma(d / 2.0 - 2.0) / (16.0 * math.pi ** (d / 2.0))
    return s


def _distances(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill out with ||a_i - b_j||^2, clobbering scratch.  Axis k's differences
    are the BLAS product [a_k, 1] @ [1; -b_k], four times as fast as numpy's
    broadcast subtraction: two exact products rounded once, so a_ik - b_jk to
    the bit but a zero's sign, which the square drops.  The squares are summed
    in axis order, as np.sum over a difference tensor sums them, for its bits."""
    left, right = np.ones((a.shape[0], 2)), np.ones((2, b.shape[0]))
    for k in range(a.shape[1]):
        left[:, 0] = a[:, k]
        np.negative(b[:, k], out=right[1])
        diff = np.matmul(left, right, out=scratch if k else out)
        diff *= diff
        if k:
            out += scratch
    return out


def build_penalty(domain: SpatialDomain) -> PenaltyOperator:
    """Assemble the bending-energy penalty for ``domain``.

    ``omega`` is the upper-left p x p block of the inverse of the bordered
    system [[g, e], [e', 0]], computed in null-space form: with q2 an
    orthonormal basis of the complement of col(e), omega equals
    q2 (q2' g q2)^{-1} q2', which annihilates affine fields to machine
    precision.  With e = H [r1; 0], H the d + 1 Householder reflectors of e's
    QR, the core q2' g q2 is the trailing block of H'gH, so omega is
    H [[0, 0], [0, core^{-1}]] H': the reflectors are applied to g in place,
    the core inverted by a Cholesky, and q2 never formed, about p^3 flops in
    g's buffer and omega's.  The result is symmetrized and checked for
    positive semidefiniteness by a Cholesky of omega + tol*I, tol = 1e-10
    max|omega|, which succeeds when every eigenvalue exceeds -tol, up to
    roundoff; only when it fails is omega decomposed, to clip its spectrum at
    zero.  Otherwise omega's eigenpairs are computed only on demand
    (``PenaltyOperator.spectrum``).  The reduced factor (q1, r1) of the same
    QR and g q1 are kept for :func:`solve_coefficients`; g itself is not.

    Raises
    ------
    ConditioningError
        If two sites coincide, the sites are collinear (d = 2) or coplanar
        (d = 3), or the interpolation system is singular.
    """
    from scipy.linalg.lapack import dgeqrf, dorgqr, dormqr, dpotrf, dpotri
    loc = domain.locations
    p, d = loc.shape
    scratch = np.empty((p, p))
    sq = _distances(loc, loc, np.empty((p, p)), scratch)
    # the closest distinct pair, first in row-major order; the diagonal is exactly 0
    np.fill_diagonal(sq, np.inf)
    i, j = np.unravel_index(int(np.argmin(sq)), sq.shape)
    closest = math.sqrt(sq[i, j])
    if closest == 0.0:
        raise ConditioningError(
            f"sites {i} and {j} coincide; the interpolation system is singular",
            pair=(i, j),
        )
    np.fill_diagonal(sq, 0.0)
    g = _radial(sq, d, scratch)
    where = f"closest sites are {i} and {j} at distance {closest:.6g}"
    m = d + 1
    qr, tau = dgeqrf(np.hstack([np.ones((p, 1)), loc]))[:2]  # H's reflectors below r1
    r1 = np.triu(qr[:m])
    # the coordinate columns' diagonal ratio is free of offset and units; below
    # 1e-8 the affine part of an interpolant keeps fewer than half its digits
    spread = np.abs(np.diag(r1)[1:])
    if spread.min() <= 1e-8 * spread.max():
        shape = "on a line" if d == 2 else "in a plane"
        raise ConditioningError(
            f"the sites lie {shape}; the affine part of the spline is not identifiable"
        )
    q1 = dorgqr(qr, tau)[0]
    gq1 = g @ q1
    # g is symmetric, so g.T is g in Fortran order for LAPACK to overwrite
    # (dormqr's workspace of p is its minimum, ample for m < 64 reflectors):
    # H'gH with the identity's leading rows and columns is block-diagonal,
    # the core its trailing block, inverted in the upper triangle
    a = g.T
    dormqr("L", "T", qr, tau, a, p, overwrite_c=1)
    dormqr("R", "N", qr, tau, a, p, overwrite_c=1)
    a[:m], a[:, :m] = 0.0, 0.0
    np.fill_diagonal(a[:m, :m], 1.0)
    if dpotrf(a, overwrite_a=1)[1] or dpotri(a, overwrite_c=1)[1]:
        raise ConditioningError(f"interpolation system is singular; {where}", pair=(i, j))
    # X = [[0, 0], [0, core^{-1}]] is u + u', u its upper triangle (dpotrf
    # zeroed the strict lower one) less half its diagonal: omega = H u H' + its transpose
    a[:m, :m] = 0.0
    a.flat[:: p + 1] *= 0.5
    dormqr("L", "N", qr, tau, a, p, overwrite_c=1)
    dormqr("R", "T", qr, tau, a, p, overwrite_c=1)
    omega = np.add(a, g, out=scratch)
    if not np.all(np.isfinite(omega)):
        raise ConditioningError(
            f"interpolation system is numerically singular; {where}", pair=(i, j)
        )

    # the PSD check: tol is relative to omega's scale, which grows as the sites
    # draw together (about 1e8 for 200 sites in [0, 1]), so that its roundoff
    # passes; omega + tol*I is formed and factored in g's buffer
    g[...] = omega
    g.flat[:: p + 1] += 1e-10 * max(float(omega.max()), -float(omega.min()))
    if dpotrf(g.T, overwrite_a=1, clean=0)[1]:
        # real negative curvature; project back onto the cone
        w, u = np.linalg.eigh(omega)
        omega = (u * np.clip(w, 0.0, None)) @ u.T
        omega = 0.5 * (omega + omega.T)

    for arr in (omega, q1, r1, gq1):
        arr.setflags(write=False)
    return PenaltyOperator(domain=domain, omega=omega, affine=(q1, r1, gq1))


def solve_coefficients(penalty: PenaltyOperator, values) -> SplineCoefficients:
    """Interpolating spline through (s_i, values_i), via omega and the QR of e.

    With e = q1 r1 and c = q1'v, the radial weights are a = omega (v - q1 c);
    projecting out col(e) first leaves a at roundoff level for affine fields.
    The affine part solves r1 b = c - (g q1)' a: no p x p kernel matrix is
    read.  ``values`` is a length-p vector or a p x K matrix, solved at once.
    """
    p = penalty.domain.p
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != p:
        raise ValueError(f"values must have p = {p} rows, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    from scipy.linalg import solve_triangular
    q1, r1, gq1 = penalty.affine
    c = q1.T @ v
    a = penalty.omega @ (v - q1 @ c)
    # r1 and the right-hand side are finite by construction; the outputs are checked below
    b = solve_triangular(r1, c - gq1.T @ a, check_finite=False)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConditioningError("interpolation solve produced non-finite coefficients")
    a.setflags(write=False)
    b.setflags(write=False)
    return SplineCoefficients(a=a, b=b)


def evaluate(coeffs: SplineCoefficients, domain: SpatialDomain, query) -> np.ndarray:
    """Evaluate the spline, or all K splines of ``coeffs`` at once, at query points.

    phi(s) = sum_i a_i g(||s - s_i||) + b_0 + b_{1:}' s

    The kernel is built from squared distances in row blocks of about 1 MiB,
    each multiplied by ``a`` into its rows of the output while it is in
    cache; no q x p matrix is held, so the memory is the 8qK-byte result and
    one block with its scratch.  A value that overflows, far enough from the
    sites, raises ValueError.

    Parameters
    ----------
    query : ndarray
        Shape (q, d).  A 1-d array is read as q one-dimensional points when
        d = 1, otherwise as a single d-dimensional point.

    Returns
    -------
    ndarray, shape (q,) for a single spline, (q, K) for K of them
    """
    q = np.asarray(query, dtype=float)
    if q.ndim == 1:
        q = q[:, None] if domain.d == 1 else q[None, :]
    if q.ndim != 2 or q.shape[1] != domain.d:
        raise ValueError(f"query must be q x {domain.d}, got shape {np.shape(query)}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query points must be finite")
    loc, a = domain.locations, coeffs.a
    out = np.empty(q.shape[:1] + a.shape[1:])
    rows = max(1, _BLOCK_BYTES // (16 * domain.p))
    block, scratch = np.empty((2, min(rows, q.shape[0]), domain.p))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, q.shape[0], rows):
            part = q[start : start + rows]
            g, tmp = block[: part.shape[0]], scratch[: part.shape[0]]
            _radial(_distances(part, loc, g, tmp), domain.d, tmp)
            np.matmul(g, a, out=out[start : start + rows])
        out += coeffs.b[0]
        out += q @ coeffs.b[1:]
    if not np.all(np.isfinite(out)):
        raise ValueError("the spline overflows: query points lie too far from the sites")
    return out
