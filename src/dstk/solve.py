"""Rational nullspace bases, linear rational matrix equations, and the
L2-optimal model-matching solver.

Nullspace bases come from the staircase form of the system matrix pencil:
its leading right-singular block, compressed to ``[B1 | A1 - lam E1]`` with
``E1`` invertible, realizes the kernel in the input coordinates: a proper
basis, which only :func:`right_nullspace` stabilizes by an LQR feedback.
No polynomial arithmetic is involved.  A particular solution of
``G X = F`` is built from the library's own realization arithmetic: the
inverse of the invertible core ``G[rows, cols]``, whose indices pivoted
QRs of ``G`` at a probe point pick, in series with ``F[rows]``.  The
model-matching pipeline compresses the problem with the thin inner-outer
factors ``G = Q1 R``, splits the transformed target ``Q1~ F`` into its
causal part ``Ls`` and the rest, back-substitutes ``R X = Ls`` through a
stable inverse of the outer factor, and reports the H2 norm of the stable
residual ``F - G X = F - Q1 Ls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exceptions import (
    BoundaryZeros,
    DimensionMismatch,
    DomainMismatch,
    EvalAtPole,
    Incompatible,
    IterationFailure,
    NonstrictlyProperF,
    UnstableInput,
    UnsupportedShape,
)
from .analysis import (
    _all_stable,
    _reduce,
    _strictly_proper,
    _structure,
    _system_pencil,
    h2_norm,
    is_stable,
    minreal,
    stability_region,
)
from .factor import _additive_split, _inner_outer_thin, _riccati_schur, _standard_stable_data
from .kernels import PROBE_RESIDUAL_TOL, _accepted, _lu_solve, _probe_rank, _svd
from .ops import _pencil_inverse, _static, concat_row, conjugate, inverse, parallel, series, transpose_dual
from .system import DescriptorSystem, TimeDomain, _trusted_system, eval_tfm, probe_points

__all__ = [
    "SolveResult",
    "LdpParts",
    "left_nullspace",
    "right_nullspace",
    "solve_right",
    "solve_left",
    "l2_model_match",
]


@dataclass
class SolveResult:
    """Particular solution plus a proper, not stabilized, nullspace basis; the general solution
    is ``particular + null_basis * Y`` (``Y * null_basis`` for the left variant), ``Y`` rational."""

    particular: DescriptorSystem
    null_basis: DescriptorSystem


@dataclass
class LdpParts:
    """Intermediate quantities of the least-distance step of model matching.

    ``in_range`` is the target seen through the inner factor, ``Q1~ F``;
    ``stable_part`` is its causal part ``Ls``, the optimal stable correction
    (``R X = Ls``), and ``antistable_part`` the irreducible remainder.
    ``error_norm`` is ``||F - G X||_2``, the H2 norm of the stable residual
    ``F - Q1 Ls``.
    """

    in_range: DescriptorSystem
    stable_part: DescriptorSystem
    antistable_part: DescriptorSystem
    error_norm: float


# ---------------------------------------------------------------------------
# nullspace bases


def right_nullspace(sys: DescriptorSystem, tol=None) -> DescriptorSystem:
    """Proper stable rational basis of the right nullspace of the TFM.

    The result has shape ``m x (m - r)`` (``r`` the normal rank), full column normal rank,
    and order equal to the sum of the right minimal indices.  It is :func:`solve_right`'s
    basis with its poles placed by a stabilizing LQR gain, whose failed Riccati solve is a
    "nullspace stabilization" refusal.  Full-column-rank inputs yield an empty ``m x 0``
    basis.  The staircase is the checked one of :func:`_structure`: Kronecker block counts
    other than ``m - r`` right and ``p - r`` left raise :class:`IterationFailure` instead of
    returning a basis of the wrong width.
    """
    g = minreal(sys, tol=tol)
    return _right_nullspace(g, _structure(g, tol))


def _kernel_block(g, structure) -> DescriptorSystem:
    """Proper right nullspace basis of a minimal ``g`` from its :func:`_structure`: one SVD of the
    leading block's ``N`` part, of full row rank ``nr``, compresses it to ``[B1 | A1 - lam E1]``."""
    Mk, Nk, V, ks, _ = structure
    nr, nu = ks.nr, len(ks.right_indices)
    if nu == 0:
        return _static(np.zeros((g.m, 0)), g.domain)
    Nr = Nk[:nr, : nr + nu]
    Vh = _svd(Nr)[2]
    W = np.hstack([Vh[nr:].T, Vh[:nr].T])
    MW, Vu = Mk[:nr, : nr + nu] @ W, V[g.n :, : nr + nu] @ W
    return _trusted_system(MW[:, nu:], (Nr @ W)[:, nu:], -MW[:, :nu], Vu[:, nu:], Vu[:, :nu], g.domain)


def _right_nullspace(g, structure) -> DescriptorSystem:
    """:func:`right_nullspace` of a minimal ``g``: :func:`_kernel_block` under the feedback ``v = F x + w``."""
    N = _kernel_block(g, structure)
    if not N.n:
        return N
    As, Bs = np.linalg.solve(N.E, N.A), np.linalg.solve(N.E, -N.B)
    try:
        F = _riccati_schur(As, Bs, np.eye(N.n), np.zeros((N.n, N.m)), np.eye(N.m), g.domain)[1]
    except IterationFailure as exc:
        raise IterationFailure(f"nullspace stabilization: {exc}") from None
    return _trusted_system(N.A - N.B @ F, N.E, N.B, N.C + N.D @ F, N.D, g.domain)


def left_nullspace(sys: DescriptorSystem, tol=None) -> DescriptorSystem:
    """Proper rational basis of the left nullspace (``(p - r) x p``)."""
    return transpose_dual(right_nullspace(transpose_dual(sys), tol=tol))


# ---------------------------------------------------------------------------
# linear rational matrix equations


def _particular(g, f, r, tol) -> DescriptorSystem:
    """Particular solution of ``G X = F`` for minimal ``g``, ``f`` and the
    normal rank ``r`` of ``g``.

    The probe points are the first three of :func:`probe_points` of ``[G F]``.  One pivoted
    QR of ``G`` at the first picks ``r`` columns, and one of those columns' transpose picks
    ``r`` rows, each kept in ascending order (a square invertible ``G`` is its own core); the
    core ``G[rows, cols]`` is cut out of the realization, so ``X[cols] = core^-1 F[rows]`` and
    ``X`` is zero elsewhere.  ``G X = F`` must hold at the probe points within
    ``PROBE_RESIDUAL_TOL``; otherwise, when no probe point clears, when the LU of the core
    at the first point has reciprocal condition at most ``r * SINGULAR_RCOND``, or when
    ``X`` has a pole at a probe point, :class:`IterationFailure` is raised.
    """
    probes = probe_points(concat_row(g, f), count=3)
    if not probes:
        raise IterationFailure("eval_tfm cannot evaluate [G F] at any probe point")
    Gvs = [eval_tfm(g, lam) for lam in probes]
    Gv = Gvs[0]
    cols = np.sort(sla.qr(Gv, mode="r", pivoting=True)[1][:r])
    rows = np.sort(sla.qr(Gv[:, cols].T, mode="r", pivoting=True)[1][:r])
    if _lu_solve(Gv[np.ix_(rows, cols)], Gv[rows, :0]) is None:
        raise IterationFailure("the r x r core of G is singular at the probe point")
    core = _trusted_system(g.A, g.E, g.B[:, cols], g.C[rows], g.D[np.ix_(rows, cols)], g.domain)
    X2 = series(_pencil_inverse(core), _trusted_system(f.A, f.E, f.B, f.C[rows], f.D[rows], f.domain))
    C, D = np.zeros((g.m, X2.n)), np.zeros((g.m, f.m))
    C[cols], D[cols] = X2.C, X2.D
    X0 = minreal(_trusted_system(X2.A, X2.E, X2.B, C, D, g.domain), tol=tol)
    try:
        for lam, gv in zip(probes, Gvs):
            _accepted([gv @ eval_tfm(X0, lam), -eval_tfm(f, lam)], IterationFailure, "G X = F", PROBE_RESIDUAL_TOL)
    except EvalAtPole:
        raise IterationFailure("the particular solution cannot be evaluated at a probe point") from None
    return X0


def solve_right(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``G X = F`` for a rational ``X``.

    The particular solution is ``inverse`` of an invertible ``r x r`` core
    ``G[rows, cols]`` (``r`` the normal rank of ``G``) in series with
    ``F[rows]``, placed in the rows ``cols``; pivoted QRs of ``G`` at a probe
    point pick both index sets once.  The result is certified, ``G X = F`` at
    three probe points.  Only a failed certificate tests compatibility: when
    the system pencil of ``[G F]`` has a normal rank, the largest rank at
    three fixed probe points, above its order plus the ``r`` that
    :func:`_structure` checked, :class:`Incompatible` is raised, else the
    :class:`IterationFailure`.  The returned basis, proper but not stabilized,
    parameterizes all solutions.  The result depends on ``G``, ``F`` and ``tol`` alone.
    """
    if G.domain is not F.domain:
        raise DomainMismatch("G and F must share a time domain")
    if G.p != F.p:
        raise DimensionMismatch(f"G and F must have equal output counts, got {G.p} and {F.p}")
    g = minreal(G, tol=tol)
    f = minreal(F, tol=tol)
    structure = _structure(g, tol)
    try:
        X0 = _particular(g, f, structure[4], tol)
    except IterationFailure:
        # the system pencil of [G F] has normal rank g.n + f.n + r when F is in G's range
        if _probe_rank(*_system_pencil(concat_row(g, f)), tol) > g.n + f.n + structure[4]:
            raise Incompatible("[G F] has a larger normal rank than G") from None
        raise
    return SolveResult(X0, _kernel_block(g, structure))


def solve_left(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``X G = F`` (transpose-dual of :func:`solve_right`); the basis
    field holds a proper, not stabilized, left nullspace basis of ``G``."""
    res = solve_right(transpose_dual(G), transpose_dual(F), tol=tol)
    return SolveResult(transpose_dual(res.particular), transpose_dual(res.null_basis))


# ---------------------------------------------------------------------------
# L2 model matching


def _causal_split(g, nf, ninf):
    """Orthogonal causal/anticausal split of a two-sided system, given as
    the output ``(g, nf, ninf)`` of :func:`_reduce`.

    The pole-based decomposition alone is not orthogonal on the unit circle:
    the antistable part still owns the zeroth Fourier coefficient
    ``c0 = Gu(0)``, which belongs to the causal side.  Returns
    ``(causal, strictly_anticausal)`` whose L2 norms add in squares.
    """
    parts = _additive_split(g, nf, ninf, stability_region(g.domain), improper_to_bad=True)
    gs, gu = parts.first, parts.second
    if g.domain is TimeDomain.DISCRETE and gu.n:
        c0 = eval_tfm(gu, 0.0).real
        gs = _trusted_system(gs.A, gs.E, gs.B, gs.C, gs.D + c0, gs.domain)
        gu = _trusted_system(gu.A, gu.E, gu.B, gu.C, gu.D - c0, gu.domain)
    return gs, gu


def l2_model_match(G: DescriptorSystem, F: DescriptorSystem, tol=None):
    """L2-optimal stable solution of ``min ||F - G X||`` and its certificate.

    Both systems must be stable and proper and ``G`` must have full column
    normal rank with no zeros on the stability boundary; in continuous time
    ``F`` must additionally be strictly proper for the error norm to be
    finite.  Returns ``(X, parts)`` where ``parts`` collects the compressed
    target, its stable/antistable split, and the achieved error
    ``||F - G X||_2``, the H2 norm of the residual ``F - Q1 Ls``.
    """
    if G.domain is not F.domain:
        raise DomainMismatch("G and F must share a time domain")
    if G.p != F.p:
        raise DimensionMismatch(f"G and F must have equal output counts, got {G.p} and {F.p}")
    g, r, zd, w = _standard_stable_data(G, tol)
    f = minreal(F, tol=tol)
    if not (f.is_standard and _all_stable(np.linalg.eigvals(f.A), 0, f.domain)):
        raise UnstableInput("F must be stable and proper")
    if g.domain is TimeDomain.CONTINUOUS and not _strictly_proper(f):
        raise NonstrictlyProperF("continuous-time model matching needs a strictly proper F")
    if r < g.m:
        raise UnsupportedShape("G must have full column normal rank")
    if g.domain is TimeDomain.CONTINUOUS and w is None:
        # zeros at infinity: outside the restricted inner-outer scope, but a
        # square G with an exact stable solution needs no compression at all
        # (take the identity as the inner factor and G itself as the outer)
        if g.p == g.m:
            X0 = _particular(g, f, r, tol)
            if is_stable(X0, tol=tol):
                zero_sys = _static(np.zeros((g.m, f.m)), g.domain)
                parts = LdpParts(
                    in_range=f,
                    stable_part=f,
                    antistable_part=zero_sys,
                    error_norm=0.0,
                )
                return X0, parts
        raise BoundaryZeros("G has zeros at infinity on the stability boundary")

    q1, R = _inner_outer_thin(g, tol, zd, w)
    f1t, nf, ninf = _reduce(series(conjugate(q1), f), tol)

    # the optimal stable correction is the causal projection of the
    # compressed target (in discrete time that includes the zeroth Fourier
    # coefficient of the antistable part, not just its stable poles)
    Ls, Lu = _causal_split(f1t, nf, ninf)

    if Ls.n or np.any(Ls.D):
        X = minreal(series(inverse(R, mode="d-inverse"), Ls), tol=tol)
    else:
        X = _static(np.zeros((g.m, f.m)), g.domain)

    # G X = Q1 Ls, so the residual F - Q1 Ls is stable and its H2 norm is
    # the achieved error
    QL = series(q1, Ls)
    resid = parallel(f, _trusted_system(QL.A, QL.E, QL.B, -QL.C, -QL.D, g.domain))
    parts = LdpParts(
        in_range=f1t,
        stable_part=Ls,
        antistable_part=Lu,
        error_norm=h2_norm(resid, tol=tol),
    )
    return X, parts
