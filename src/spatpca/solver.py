"""Regularized eigenbasis estimation.

Minimizes, over p x K matrices Phi with orthonormal columns,

    ||Y - Y Phi Phi'||_F^2 + tau1 * sum_k phi_k' omega phi_k
                           + tau2 * sum_jk |phi_jk|

by an augmented-Lagrangian splitting with an increasing penalty parameter
rho.  Every update of the three-block scheme is in closed form: a shifted
solve against tau1*omega + rho*I - Y'Y, a polar factor for orthonormality
and a soft threshold for sparsity.  The exactly orthonormal block is
returned as the estimate.  At tau2 = 0 the K leading eigenvectors of
Y'Y - tau1*omega are the exact minimizer (Ky Fan), returned with no iteration.

A term holds B = Y'Y - tau1*omega in one of three forms.  A QuadraticTerm
holds one spectral factorization of B per tau1 and serves every rho's
shifted solve from it.  A LowRankTerm factors omega once per domain, each
solve is a Woodbury update through one n x n Cholesky, and its starting
basis is the closed form's: it saves a full eigensolve per chain but costs
more per ADMM step.  A ClosedFormTerm, for chains along tau2 = 0 alone and
a LowRankTerm's start, has no shifted solve and decomposes only B's top K,
in site coordinates.  An ADMM term's floor_bound, an upper bound on B's
largest eigenvalue, is the one floor it offers: rho's start clears it, and
a RhoTooSmallError reports it.
precompute_quadratic is the one constructor, called once per data set,
and picks the form from the number of tau2 values above 0 and the shape
alone (_low_rank_pays), never from what ran before.

The polar factor comes from the K x K Gram (Higham 1986): Q = M V
diag(w)^(-1/2) V' with M'M = V diag(w) V'.  The Gram squares M's condition
number, so a member with w_min <= w_max/100 takes the SVD instead; the test
is made per member, and no member's bits depend on another's.

fit_chains takes data sets and (data set, tau1) chains and alone builds,
groups and stacks their terms: groups of one term layout (low-rank chains
of one row count, spectral chains of any), as many as fit in _GROUP_BYTES
of stacked terms.  Each chain starts from its initial_phi and _initial_rho.
_fit_group steps a group of B chains as B x p x K arrays against a stack
of B terms; admm_step takes that leading batch axis with a rho and a tau2
per member.  Each member gets exactly the arithmetic of a lone chain, so
batching changes no bit and only spreads the per-call overhead of the
small products over the members.  fit is the one-chain case, and cv_tau
one call over its folds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from itertools import groupby
from typing import ClassVar

import numpy as np

from .tps import PenaltyOperator, SplineCoefficients, solve_coefficients

__all__ = [
    "RhoTooSmallError",
    "SolverConfig",
    "AdmmState",
    "EigenBasis",
    "QuadraticTerm",
    "LowRankTerm",
    "ClosedFormTerm",
    "soft_threshold",
    "initial_phi",
    "precompute_quadratic",
    "admm_step",
    "fit_chains",
    "fit",
]


class RhoTooSmallError(ValueError):
    """rho does not make the Phi-update quadratic term positive definite."""

    def __init__(self, rho: float, min_rho: float):
        super().__init__(
            f"rho = {rho:.6g} is too small for a positive definite update; "
            f"need rho > {min_rho:.6g}"
        )
        self.min_rho = min_rho


@dataclass(frozen=True)
class SolverConfig:
    """Penalty weights and iteration controls.

    An ADMM fit starts the penalty parameter rho at 10 ||Y||_2^2, or higher
    where the floor of positive definiteness demands (_initial_rho), then
    multiplies it by rho_growth each iteration, capped at 1e12 times its
    start.  Every number must be finite.
    """

    tau1: float = 0.0
    tau2: float = 0.0
    k: int = 1
    rho_growth: float = 1.5
    tolerance: float = 1e-6
    max_iterations: int = 1000

    def __post_init__(self):
        if not all(map(math.isfinite, (self.tau1, self.tau2, self.rho_growth, self.tolerance))):
            raise ValueError("tau1, tau2, rho_growth and tolerance must be finite")
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.rho_growth <= 1.0:
            raise ValueError("rho_growth must exceed 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class AdmmState:
    """One iterate: primal blocks phi/q/r, multipliers gamma1/gamma2, and rho.

    q carries the orthonormality constraint (columns orthonormal to 1e-12
    after every update); r carries the sparsity constraint.  A stack of B
    chains holds B x p x K blocks and a length-B rho.
    """

    phi: np.ndarray
    q: np.ndarray
    r: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    rho: float | np.ndarray


@dataclass(frozen=True)
class EigenBasis:
    """Fitted basis: orthonormal columns ordered by explained sample variance.

    sample_variances[k] = phi_k' S phi_k with S = Y'Y/n, nonincreasing.
    splines, the columns' interpolants off the sites, is solved once by fit;
    a cv_tau chain's basis has None.  iterations counts ADMM iterations: 0
    for a tau2 = 0 fit, solved in closed form.
    """

    phi: np.ndarray
    sample_variances: np.ndarray
    config: SolverConfig
    converged: bool
    iterations: int
    splines: SplineCoefficients | None = None


def _below_floor(quad, rho, i) -> RhoTooSmallError:
    """The error for member i of a stack (0 for a lone term), whose rho is at
    or below its floor: it reports the term's floor_bound."""
    return RhoTooSmallError(float(np.ravel(rho)[i]), float(np.ravel(quad.floor_bound)[i]))


@dataclass(frozen=True)
class QuadraticTerm:
    """Spectral factorization of B = Y'Y - tau1*omega, shared across rho values.

    (tau1*omega + rho*I - Y'Y)^{-1} x = vectors diag(1/(rho - values)) vectors' x,
    valid whenever rho exceeds values[-1].  lam_max_yty is the largest
    eigenvalue of Y'Y, ||Y||_2^2, read by the rule for rho's start.  This is
    the term of data that do not have far fewer rows than sites; see
    LowRankTerm for the rest.  Both offer leading(k), shifted_solve(rho,
    rhs), which raises RhoTooSmallError below the floor, and floor_bound, an
    upper bound on B's largest eigenvalue with no eigensolve and the one
    floor a term offers for error reports: here beta_max itself.

    A stack of B factorizations has a leading batch axis: vectors B x p x p,
    values B x p, lam_max_yty and beta_max length B, and shifted_solve takes
    B rho values and a B x p x K right-hand side.
    """

    vectors: np.ndarray
    values: np.ndarray
    lam_max_yty: float | np.ndarray

    # the arrays with one entry per member of a stack, and those a stack drops
    BATCHED: ClassVar[tuple[str, ...]] = ("vectors", "values", "lam_max_yty")
    UNSTACKED: ClassVar[tuple[str, ...]] = ()

    @property
    def beta_max(self) -> float | np.ndarray:
        """Largest eigenvalue of Y'Y - tau1*omega, one per member of a stack."""
        return self.values[..., -1][()]

    floor_bound = beta_max

    def leading(self, k: int) -> np.ndarray:
        """The top k eigenvectors of B, in descending order (one term, no stack)."""
        return self.vectors[:, ::-1][:, :k]

    def shifted_solve(self, rho, rhs: np.ndarray) -> np.ndarray:
        shift = np.asarray(rho)[..., None] - self.values
        low = shift[..., -1] <= 0.0
        if low.any():
            raise _below_floor(self, rho, np.argmax(low))
        # p x K order: the p x p factor is read twice and never scaled
        return self.vectors @ ((np.swapaxes(self.vectors, -1, -2) @ rhs) / shift[..., None])


@dataclass(frozen=True)
class LowRankTerm:
    """B = Y'Y - tau1*omega for data with far fewer rows than sites.

    omega = U diag(d) U' is factored once per domain (PenaltyOperator.spectrum,
    held here as vectors and values) and Y is kept in that basis, yu = Y U.
    With A = U diag(tau1*d + rho) U', the Phi update solves against A - Y'Y
    by the Woodbury identity

        (A - Y'Y)^{-1} = A^{-1} + A^{-1} Y' (I - Y A^{-1} Y')^{-1} Y A^{-1},

    which costs one n x n Cholesky per solve and no factorization per tau1.
    By the Schur complement that Cholesky fails exactly when rho does not
    exceed B's largest eigenvalue (or A itself is not positive definite), so
    it is the rho floor check; the error it raises reports floor_bound,
    Weyl's bound on that eigenvalue and the one floor this term offers.
    leading(k) is closed's, the ClosedFormTerm of the same rows and tau1.

    A stack has a leading batch axis on yu (B x n x p, one n for the whole
    stack), tau1 and lam_max_yty; vectors and values are the domain's and
    shared by every member; closed is dropped, as a stack takes no start.
    """

    vectors: np.ndarray
    values: np.ndarray
    yu: np.ndarray
    tau1: float | np.ndarray
    lam_max_yty: float | np.ndarray
    closed: ClosedFormTerm | None = None

    BATCHED: ClassVar[tuple[str, ...]] = ("yu", "tau1", "lam_max_yty")
    UNSTACKED: ClassVar[tuple[str, ...]] = ("closed",)

    @property
    def floor_bound(self) -> float | np.ndarray:
        """Weyl's bound on the largest eigenvalue of Y'Y - tau1*omega,
        ||Y||_2^2 + tau1*max(0, -d_min), one per member of a stack."""
        return self.lam_max_yty + np.asarray(self.tau1) * max(0.0, -self.values[0])

    def leading(self, k: int) -> np.ndarray:
        """The top k eigenvectors of B, in descending order (one term, no stack)."""
        return self.closed.leading(k)

    def shifted_solve(self, rho, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import lapack
        rho = np.asarray(rho)
        a = np.asarray(self.tau1)[..., None] * self.values + rho[..., None]
        low = a[..., 0] <= 0.0  # values ascend, so a[..., 0] is A's smallest eigenvalue
        if low.any():
            raise _below_floor(self, rho, np.argmax(low))
        # symmetric form: v = A^{-1/2} U' rhs, yh = Y U A^{-1/2}, s = I - yh yh',
        # solution U A^{-1/2} (v + yh' s^{-1} yh v)
        root = np.sqrt(a)[..., None]
        yh = self.yu / np.swapaxes(root, -1, -2)
        yh_t = np.swapaxes(yh, -1, -2)
        v = (self.vectors.T @ rhs) / root
        n = yh.shape[-2]
        s = (np.eye(n) - yh @ yh_t).reshape(-1, n, n)
        t = yh @ v
        z = np.empty_like(t)
        members = zip(s, t.reshape(len(s), n, -1), z.reshape(len(s), n, -1))
        for i, (s_i, t_i, z_i) in enumerate(members):
            _, z_i[...], info = lapack.dposv(s_i, t_i, lower=1)
            if info:
                raise _below_floor(self, rho, i)
        return self.vectors @ ((v + yh_t @ z) / root)


@dataclass(frozen=True)
class ClosedFormTerm:
    """B = Y'Y - tau1*omega for chains along tau2 = 0 alone, which take no
    ADMM step, and for a LowRankTerm's start, so it has no shifted_solve;
    yty() is Y'Y, formed once per data set when first read.  leading(k) is
    a top-k subset eigensolve of B in site coordinates; at tau1 = 0 with
    k <= n it is the top k right singular vectors of Y, by a thin SVD, and
    reads no Y'Y."""

    y: np.ndarray
    yty: Callable[[], np.ndarray]
    omega: np.ndarray
    tau1: float

    def leading(self, k: int) -> np.ndarray:
        """The top k eigenvectors of B, in descending order."""
        import scipy.linalg
        if self.tau1 == 0 and k <= len(self.y):
            return np.linalg.svd(self.y, full_matrices=False)[2][:k].T
        p = self.omega.shape[0]
        b = -self.tau1 * self.omega
        b += self.yty()
        # eigh reads one triangle: b's transpose is Fortran-ordered, so no copy is made
        _, v = scipy.linalg.eigh(
            b.T, subset_by_index=[p - k, p - 1], overwrite_a=True, check_finite=False
        )
        return v[:, ::-1]


Term = QuadraticTerm | LowRankTerm | ClosedFormTerm


def _shrink(m: np.ndarray, tau, out: np.ndarray) -> np.ndarray:
    """sign(m) * max(|m| - tau, 0) written into out, which may be m."""
    sign = np.sign(m)
    np.abs(m, out=out)
    out -= tau
    np.maximum(out, 0.0, out=out)
    out *= sign
    return out


def soft_threshold(m, tau: float):
    """Elementwise shrinkage sign(m) * max(|m| - tau, 0)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(m, dtype=float)
    out = _shrink(arr, tau, np.empty_like(arr))
    return float(out) if arr.ndim == 0 else out


def _check_data(y, penalty: PenaltyOperator) -> np.ndarray:
    # C order: Y'Y of a column-strided view is not exactly symmetric
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("data must be an n x p matrix")
    if not np.all(np.isfinite(y)):
        raise ValueError("data must be finite; drop or impute missing values first")
    if y.shape[1] != penalty.domain.p:
        raise ValueError(
            f"data has {y.shape[1]} site columns but the penalty was built "
            f"for {penalty.domain.p} sites"
        )
    return y


def _fix_signs(phi: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of each column made nonnegative, ties at the lowest
    # index; a copy, one member or a stack
    rows, cols = np.argmax(np.abs(phi), axis=-2), np.arange(phi.shape[-1])
    lead = phi[rows, cols] if phi.ndim == 2 else phi[np.arange(len(phi))[:, None], rows, cols]
    return np.where(lead[..., None, :] < 0, -phi, phi)


def _polar(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The polar factor of m, or of each member of a stack, into out when given:
    from the K x K Gram M'M = V diag(w) V', or by SVD where w_min <= w_max/100."""
    w, v = np.linalg.eigh(np.swapaxes(m, -1, -2) @ m)
    ok = w[..., 0] > 1e-2 * w[..., -1]
    root = np.sqrt(np.where(ok[..., None], w, 1.0))
    out = np.matmul(m, (v / root[..., None, :]) @ np.swapaxes(v, -1, -2), out=out)
    if not ok.all():
        u, _, vt = np.linalg.svd(m[~ok], full_matrices=False)
        out[~ok] = u @ vt
    return out


def _stop_measure(state: AdmmState, prev_phi: np.ndarray) -> np.ndarray:
    """The stop test's quantity, one per member: max(||Phi - Phi_prev||,
    ||Phi - R||, ||Phi - Q||) / sqrt(p), Frobenius norms, in one pass over
    the three differences stacked."""
    phi = state.phi
    diffs = np.empty((3, *phi.shape))
    for diff, other in zip(diffs, (prev_phi, state.r, state.q)):
        np.subtract(phi, other, out=diff)
    diffs *= diffs
    squares = diffs.reshape(*diffs.shape[:-2], -1).sum(axis=-1).max(axis=0)
    return (1.0 / math.sqrt(phi.shape[-2])) * np.sqrt(squares)


def _low_rank_pays(n: int, p: int, tau2_count: int) -> bool:
    """Whether chains on n rows and p sites, each along tau2_count tau2
    values above 0, run faster on LowRankTerm than on QuadraticTerm.

    Asked only when T2 > 0: at T2 = 0 no chain steps, and the term is a
    ClosedFormTerm.  Per chain the low-rank term saves a full p x p
    eigensolve less a top-K one, about p^3 flops, and pays about n^2 p more
    per step, with about 20 steps per tau2 value above 0: it pays while
    n sqrt(T2) stays below a fixed fraction of p.  On select_and_fit (5
    folds, 11 tau1 values, one BLAS thread, 2-core Xeon) the two terms
    broke even with one tau2 value at 0.38 p training rows for p = 400 and
    0.37 p for p = 900; with 4 values at 0.23 p and 0.18-0.22 p; with 31 at
    0.12 p and 0.07 p.  The switch, n sqrt(T2) < 3p/8, is at or below each
    of these.  A lone fit is one chain along its own tau2: on the low-rank
    term it pays omega's decomposition on first use of a domain, and every
    later fit on that domain reuses it.
    """
    return 8 * n * math.sqrt(tau2_count) < 3 * p


def _lam_max(y: np.ndarray) -> float:
    # the n x p thin SVD is far cheaper than a p x p eigensolve when n < p
    return float(np.max(np.linalg.svd(y, compute_uv=False), initial=0.0) ** 2)


def precompute_quadratic(
    y, penalty: PenaltyOperator, tau2_count: int
) -> Callable[[float], Term]:
    """The Phi-update terms of one data set for chains along tau2_count tau2
    values above 0 (and any at 0): call the result with tau1.

    The one constructor of a term, for a lone fit (fit, tau2_count 0 or 1)
    and each cv_tau fold alike.  The work that depends on the rows alone is
    done here, once, and Y'Y at its first read.  tau2_count = 0 gives a
    ClosedFormTerm.  Otherwise ||Y||_2^2, and the shape and tau2_count pick
    the term (_low_rank_pays): a LowRankTerm from Y U (omega = U D U',
    factored once per penalty) and its ClosedFormTerm, for far fewer rows
    than sites; a QuadraticTerm, one p x p eigendecomposition per tau1,
    otherwise.
    """
    y = _check_data(y, penalty)
    yty = cache(lambda: y.T @ y)
    closed = partial(ClosedFormTerm, y, yty, penalty.omega)
    if not tau2_count:
        return closed
    lam_max = _lam_max(y)
    if _low_rank_pays(*y.shape, tau2_count):
        values, vectors = penalty.spectrum
        yu = y @ vectors
        return lambda tau1: LowRankTerm(vectors, values, yu, tau1, lam_max, closed(tau1))

    def spectral(tau1: float) -> QuadraticTerm:
        # eigh reads one triangle; omega and Y'Y (by SYRK) are exactly symmetric
        values, vectors = np.linalg.eigh(yty() - tau1 * penalty.omega)
        return QuadraticTerm(vectors=vectors, values=values, lam_max_yty=lam_max)

    return spectral


# cap on the stacked terms of one group of fit_chains: 205 spectral chains
# at p = 50, 3 at p = 400, 27 low-rank ones at p = 400 with 48 training
# rows.  At 1 MiB cv1d's 55 chains ran as 51 + 4, the 4 paying a whole
# stack's per-step overhead; as one stack, cv_tau took 0.46 s for 0.53 s
# (median of 16 alternating runs, one BLAS thread)
_GROUP_BYTES = 4 << 20


def initial_phi(quad: Term, k: int) -> np.ndarray:
    """Leading k eigenvectors of Y'Y - tau1*omega from quad, every chain's starting basis."""
    p = (quad.omega if isinstance(quad, ClosedFormTerm) else quad.vectors).shape[-1]
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, p] = [1, {p}], got {k}")
    return _fix_signs(quad.leading(k))


def admm_step(state: AdmmState, quad: Term, tau2, out: AdmmState | None = None) -> AdmmState:
    """One three-block pass at the state's rho against quad, an ADMM term.

    For a stack of B chains, state holds B x p x K blocks and a length-B rho,
    quad stacks the B factorizations and tau2 is a scalar or length B; each
    member gets exactly the arithmetic it would get alone.

    Phi <- (tau1*omega + rho*I - Y'Y)^{-1} (rho(Q + R) - Gamma1 - Gamma2) / 2
    Q   <- polar factor of Phi + Gamma2/rho
    R   <- soft_threshold(rho*Phi + Gamma1, tau2) / rho
    Gamma1 <- Gamma1 + rho(Phi - R);  Gamma2 <- Gamma2 + rho(Phi - Q)

    Each multiplier ascends on the gap of the block its proximal step reads;
    pairing them the other way makes the dual error double per iteration.

    Raises RhoTooSmallError when rho does not exceed the largest eigenvalue
    of Y'Y - tau1*omega, for the first such member, carrying the term's
    floor_bound as .min_rho.
    With out, the new blocks are written into its arrays, which may be
    state's own, with the same bits; out's rho is not read.
    """
    rho = np.asarray(state.rho)[..., None, None]
    if out is None:
        out = AdmmState(*(np.empty_like(state.phi) for _ in range(5)), rho=state.rho)
    work = state.q + state.r
    work *= rho
    work -= state.gamma1
    work -= state.gamma2
    phi = np.multiply(quad.shifted_solve(state.rho, work), 0.5, out=out.phi)
    np.divide(state.gamma2, rho, out=work)
    _polar(np.add(phi, work, out=work), out=out.q)
    np.multiply(rho, phi, out=work)
    work += state.gamma1
    np.divide(_shrink(work, np.asarray(tau2)[..., None, None], out=out.r), rho, out=out.r)
    for gamma, new_gamma, block in (
        (state.gamma1, out.gamma1, out.r), (state.gamma2, out.gamma2, out.q)
    ):
        np.subtract(phi, block, out=work)
        work *= rho
        np.add(gamma, work, out=new_gamma)
    return AdmmState(out.phi, out.q, out.r, out.gamma1, out.gamma2, rho=state.rho)


def _initial_rho(quad: QuadraticTerm | LowRankTerm) -> np.ndarray:
    """rho's start per member: 10 ||Y||_2^2 (1 for Y = 0) if above the term's
    floor_bound, else 10 floor_bound (on small-scale data B's roundoff,
    about eps tau1 ||omega||, can exceed 10 ||Y||_2^2)."""
    lam, bound = quad.lam_max_yty, quad.floor_bound
    start = np.where(lam > 0, 10.0 * lam, 1.0)
    return np.where(start > bound, start, 10.0 * bound)


def _finish(ys, configs, qs: np.ndarray, converged, iterations):
    """The stacked phis and the bases of the B finished members of a stack at
    once: member b's columns qs[b] by descending sample variance on ys[b], signs fixed."""
    variances = np.empty((len(qs), qs.shape[-1]))
    for var, y, q in zip(variances, ys, qs):
        yq = y @ q
        np.einsum("ij,ij->j", yq, yq, out=var)
        var /= y.shape[0]
    order = np.argsort(-variances, axis=-1, kind="stable")
    members = np.arange(len(qs))[:, None]
    # gathered as rows of the K x p transposes, then copied back to C order,
    # on which the bits of later products depend
    rows = np.swapaxes(qs, 1, 2)[members, order]
    phis = _fix_signs(np.ascontiguousarray(np.swapaxes(rows, 1, 2)))
    variances = variances[members, order]
    phis.setflags(write=False)
    variances.setflags(write=False)
    return phis, [
        EigenBasis(*fields)
        for fields in zip(phis, variances, configs, map(bool, converged), map(int, iterations))
    ]


def _stack_chains(quads: Iterable[Term], count: int, p: int, k: int):
    """The count ADMM terms, of one kind and layout, as one stack, and each
    chain's starting basis, its initial_phi.

    Each term's BATCHED arrays are copied into one preallocated stack and
    the term is released, so a generator of quads keeps a single unstacked
    one alive; what a term shares with every chain (the domain's spectrum of
    omega) the stack shares too.  A lone chain reads its term in place
    instead: at large p the copy costs time and a p x p array per fit.
    """
    start = np.empty((count, p, k))
    stack = None
    for c, quad in enumerate(quads):
        parts = {name: np.asarray(getattr(quad, name)) for name in quad.BATCHED}
        if stack is None:
            stack = replace(quad, **dict.fromkeys(quad.UNSTACKED), **{
                name: a[None] if count == 1 else np.empty((count, *a.shape))
                for name, a in parts.items()
            })
        if count > 1:
            for name, a in parts.items():
                getattr(stack, name)[c] = a
        start[c] = initial_phi(quad, k)
    return stack, start


def fit_chains(
    data: Sequence[np.ndarray], chains: Sequence[tuple[int, float]], penalty: PenaltyOperator,
    config: SolverConfig, tau2_values: Sequence[float],
) -> Iterator[tuple[int, int, EigenBasis]]:
    """Fit independent chains, each along all of tau2_values.

    Chain c = (d, tau1) fits the rows data[d] at tau1 and at each tau2 in
    turn, and yields (c, j, basis) when it finishes tau2_values[j], which
    must be nonempty, nonnegative and strictly ascending; chains finish in
    any order.  config gives k and the rho schedule; each basis carries it
    with the chain's tau1 and tau2.

    At tau2 = 0 the objective on orthonormal Phi is a constant minus
    tr(Phi' B Phi), B = Y'Y - tau1*omega, so by Ky Fan's theorem the
    chain's initial_phi minimizes it exactly: that fit takes no ADMM step
    and comes with converged=True, iterations=0.  Every other fit runs the
    ADMM from the previous basis, the first from initial_phi, at
    _initial_rho with zero multipliers, until its own stop test or
    config.max_iterations, bit-identical to the chain alone.  A chain is
    thus fixed by its rows, tau1 and tau2_values, and its fit at
    tau2_values[j] is the last of the chain along tau2_values[:j + 1]
    whenever both take the same kind of term (precompute_quadratic's pick
    depends on the count above 0), and at j = 0 on a low-rank chain, whose
    start is its closed form's.

    Each data set's terms come from one precompute_quadratic call, made at
    its first chain.  Chains stack by term layout: low-rank ones by row
    count, as their Y U rows are stacked, spectral ones all together; then
    by data set, so one data set's terms are alive at a time.  The C chains
    of one layout run in ceil(C / cap) groups of sizes within one, cap =
    _GROUP_BYTES // (the bytes one chain's term adds to a stack); along
    tau2 = 0 alone they run as one, and unstacked.
    """
    data = [_check_data(y, penalty) for y in data]
    k, p = config.k, penalty.domain.p
    for y in data:
        if k > min(y.shape):
            raise ValueError(f"k = {k} exceeds min(n, p) = {min(y.shape)}")
    t2s = np.asarray(tau2_values, dtype=float)
    if not (t2s.size and t2s[0] >= 0 and np.all(np.diff(t2s) > 0)):
        raise ValueError("tau2 values must be nonempty, nonnegative and strictly ascending")
    admm_fits = int(np.count_nonzero(t2s))
    family = lru_cache(maxsize=1)(lambda d: precompute_quadratic(data[d], penalty, admm_fits))
    # the stack key: a low-rank chain's row count, 0 for every other chain
    rows = [len(data[d]) for d, _ in chains]
    layout = [n if admm_fits and _low_rank_pays(n, p, admm_fits) else 0 for n in rows]
    order = sorted(range(len(chains)), key=lambda c: (layout[c], chains[c][0]))
    for n, same in groupby(order, key=layout.__getitem__):
        same = list(same)
        # a chain's stacked term: p x p factors, or low-rank n x p rows Y U
        term_bytes = 8 * (n * p + 2 if n else p * p + p + 1)
        cap = max(1, _GROUP_BYTES // term_bytes) if admm_fits else len(same)
        for part in np.array_split(same, -(-len(same) // cap)):
            group = [chains[c] for c in part]
            quads = (family(d)(t1) for d, t1 in group)
            members = _fit_group(
                [data[d] for d, _ in group], [t1 for _, t1 in group], quads, config, t2s
            )
            yield from ((int(part[b]), j, basis) for b, j, basis in members)


def _fit_group(
    ys, tau1s, quads: Iterable[Term], config: SolverConfig, t2s: np.ndarray
) -> Iterator[tuple[int, int, EigenBasis]]:
    """fit_chains on given terms, one per chain: chain b fits the rows ys[b]
    (read, never copied) with quads[b], of one kind and layout, at tau1s[b],
    stepped as one stack through admm_step, updated in place; a member's
    tau2, t2s[step], and rho cap, 1e12 times its start, are read where used.
    Members finishing in one step are finished together; those past their
    last tau2 retire, the last active members moving into their slots.
    """
    count, k = len(ys), config.k
    config_at = cache(lambda t1, t2: replace(config, tau1=t1, tau2=t2))  # shared by bases
    first = int(t2s[0] == 0)  # the index of the first ADMM fit
    if first == t2s.size:  # closed forms only: each term is read once, and never stacked
        start = np.array([initial_phi(quad, k) for quad in quads])
    else:
        quad, start = _stack_chains(quads, count, ys[0].shape[1], k)
    if first:
        cfgs = [config_at(float(t1), 0.0) for t1 in tau1s]
        phis, bases = _finish(ys, cfgs, start, [True] * count, [0] * count)
        yield from ((c, 0, basis) for c, basis in enumerate(bases))
        start = phis.copy()
    if first == t2s.size:
        return
    rho0 = _initial_rho(quad)
    chain = np.arange(count)
    step, iters = np.full(count, first), np.zeros(count, dtype=int)
    blocks = [start, start.copy(), start.copy(), np.zeros_like(start), np.zeros_like(start)]
    prev_phi, rho = np.empty_like(start), rho0.copy()
    active = count
    while active:
        # the new phi goes into the spare buffer, the other blocks are updated in place
        state = AdmmState(*blocks, rho=rho)
        blocks[0], prev_phi = prev_phi, blocks[0]
        state = admm_step(state, quad, t2s[step], AdmmState(*blocks, rho=rho))
        iters += 1
        converged = _stop_measure(state, prev_phi) <= config.tolerance
        rho = np.minimum(rho * config.rho_growth, 1e12 * rho0)
        done = np.flatnonzero(converged | (iters >= config.max_iterations))
        if not done.size:
            continue
        cs, js = chain[done].tolist(), step[done].tolist()
        cfgs = [config_at(float(tau1s[c]), float(t2s[j])) for c, j in zip(cs, js)]
        phis, bases = _finish(
            [ys[c] for c in cs], cfgs, blocks[1][done], converged[done], iters[done]
        )
        yield from zip(cs, js, bases)
        # each goes on as a fresh fit warm started from its basis: phi = q = r =
        # basis, zero multipliers, rho0
        for block, value in zip(blocks, [phis] * 3 + [0.0] * 2):
            block[done] = value
        rho[done], iters[done], step[done] = rho0[done], 0, step[done] + 1
        retired = done[step[done] == t2s.size]
        if retired.size:
            # the active members stay in the leading slots: the last ones move into the gaps
            active -= retired.size
            holes = retired[retired < active]
            movers = np.setdiff1d(np.arange(active, active + retired.size), retired)
            factors = [getattr(quad, name) for name in quad.BATCHED]
            members = [rho0, rho, chain, step, iters]
            for arr in blocks + factors + members if holes.size else ():
                arr[holes] = arr[movers]  # a lone chain's term is read in place, never written
            quad = replace(quad, **{name: a[:active] for name, a in zip(quad.BATCHED, factors)})
            rho0, rho, chain, step, iters = (a[:active] for a in members)
            blocks, prev_phi = [block[:active] for block in blocks], prev_phi[:active]


def fit(y, penalty: PenaltyOperator, config: SolverConfig) -> EigenBasis:
    """Estimate the regularized eigenbasis at the p sites: the one-chain fit_chains.

    The term is precompute_quadratic's for one chain along config.tau2, so
    a lone fit follows the same rule as a cv_tau chain; the basis carries its
    interpolants, solved here once.  At tau2 = 0 it is the closed form (see
    fit_chains); otherwise the ADMM starts from initial_phi.  Non-convergence
    within max_iterations is reported through the returned converged flag,
    never as an exception.
    """
    ((_, _, basis),) = fit_chains([y], [(0, config.tau1)], penalty, config, [config.tau2])
    return replace(basis, splines=solve_coefficients(penalty, basis.phi))
