"""Rational nullspace bases, linear rational matrix equations, and the
L2-optimal model-matching solver.

Nullspace bases come from the staircase form of the system matrix pencil:
its leading right-singular block, compressed to ``[B1 | A1 - lam E1]`` with
``E1`` invertible, is a descriptor realization of the kernel once a
stabilizing LQR feedback on ``(A1, E1, B1)`` fixes its poles; the
accumulated orthogonal transforms map it back to the input coordinates.
No polynomial arithmetic is involved.  The model-matching pipeline
compresses the problem with the thin inner-outer factors ``G = Q1 R``,
splits the transformed target ``Q1~ F`` into its causal part ``Ls`` and
the rest, back-substitutes ``R X = Ls`` through a stable inverse of the
outer factor, and reports the H2 norm of the stable residual
``F - G X = F - Q1 Ls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BoundaryZeros,
    DimensionMismatch,
    DomainMismatch,
    Incompatible,
    IterationFailure,
    NonstrictlyProperF,
    UnstableInput,
    UnsupportedShape,
)
from .analysis import (
    _system_pencil,
    _zeros,
    h2_norm,
    is_stable,
    minreal,
    normal_rank,
    stability_region,
)
from .factor import _inner_outer_thin, _riccati_schur, additive_decompose
from .kernels import _GOLDEN, _col_compress_null_first, _probe_rank, rank_tol
from .ops import _static, concat_row, conjugate, inverse, parallel, series, transpose_dual
from .pencil import klf
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
    """Particular solution plus a nullspace basis; the general solution is
    ``particular + null_basis * Y`` (``Y * null_basis`` for the left variant)
    with ``Y`` an arbitrary rational matrix."""

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

    The result has shape ``m x (m - r)`` (``r`` the normal rank), full column
    normal rank, and order equal to the sum of the right minimal indices.
    It is read off the leading right-singular block of the staircase form
    of the system pencil; its poles are placed by a stabilizing LQR gain.
    Full-column-rank inputs yield an empty ``m x 0`` basis.  A staircase
    whose count of right Kronecker blocks disagrees with ``m - r`` raises
    :class:`IterationFailure` instead of returning a basis of the wrong width.
    """
    return _right_nullspace(minreal(sys, tol=tol), tol)


def _right_nullspace(g, tol) -> DescriptorSystem:
    """:func:`right_nullspace` of a system ``g`` that is already minimal."""
    Mk, Nk, _, V, ks = klf(*_system_pencil(g), tol=tol)
    nr, nu = ks.nr, len(ks.right_indices)
    width = g.m - normal_rank(g)
    if nu != width:
        raise IterationFailure(f"staircase found {nu} right Kronecker blocks where the normal rank leaves {width}")
    if nu == 0:
        return _static(np.zeros((g.m, 0)), g.domain)
    # the leading block has only right Kronecker structure, so its N part
    # has full row rank nr: compress it to [0 | E1] with E1 invertible
    Nr = Nk[:nr, : nr + nu]
    W, _ = _col_compress_null_first(Nr, None, nu)
    MW = Mk[:nr, : nr + nu] @ W
    B1, A1, E1 = MW[:, :nu], MW[:, nu:], (Nr @ W)[:, nu:]
    # kernel: (A1 - lam E1) x + B1 v = 0; the feedback v = F x + w moves its
    # poles into the stability region
    F = np.zeros((nu, nr))
    if nr:
        As, Bs = np.linalg.solve(E1, A1), np.linalg.solve(E1, B1)
        F = _riccati_schur(As, Bs, np.eye(nr), np.zeros((nr, nu)), np.eye(nu), g.domain)[1]
    Vu = V[g.n :, : nr + nu] @ W
    return _trusted_system(A1 + B1 @ F, E1, -B1, Vu[:, nu:] + Vu[:, :nu] @ F, Vu[:, :nu], g.domain)


def left_nullspace(sys: DescriptorSystem, tol=None) -> DescriptorSystem:
    """Proper rational basis of the left nullspace (``(p - r) x p``)."""
    return transpose_dual(right_nullspace(transpose_dual(sys), tol=tol))


# ---------------------------------------------------------------------------
# linear rational matrix equations


def _selector(rows, cols, attempt):
    """Fixed orthonormal ``rows x cols`` selector of the given attempt: the Q
    factor of ``cos((attempt + 1) (i + 1) (j + 1) phi)`` with
    ``phi = pi (sqrt(5) - 1)``.  Every entry moves with the attempt, so no
    direction (such as the all-ones vector, which ``G`` may annihilate) is
    shared by all attempts."""
    i, j = np.ogrid[1 : rows + 1, 1 : max(cols, 1) + 1]
    Q, _ = np.linalg.qr(np.cos((attempt + 1) * i * j * 2.0 * np.pi * _GOLDEN))
    return Q[:, :cols]


def _shared_solver_pencil(G2, F2):
    """Particular-solution realization for square invertible G2: picks the
    input component of the lifted pencil solution of ``G2 X = F2``."""
    nG, nF = G2.n, F2.n
    r = G2.m
    q = F2.m
    nsh = nG + nF
    Ash = np.zeros((nsh + r, nsh + r))
    Ash[:nG, :nG] = G2.A
    Ash[nG:nsh, nG:nsh] = F2.A
    Ash[:nG, nsh:] = -G2.B
    Ash[nsh:, :nG] = G2.C
    Ash[nsh:, nG:nsh] = F2.C
    Ash[nsh:, nsh:] = G2.D
    Esh = np.zeros_like(Ash)
    Esh[:nG, :nG] = G2.E
    Esh[nG:nsh, nG:nsh] = F2.E
    Bx = np.zeros((nsh + r, q))
    Bx[nG:nsh, :] = -F2.B
    Bx[nsh:, :] = F2.D
    Cx = np.zeros((r, nsh + r))
    Cx[:, nsh:] = np.eye(r)
    return _trusted_system(Ash, Esh, Bx, Cx, np.zeros((r, q)), G2.domain)


def _row_col_select(sys, P=None, T=None):
    """Constant row selection ``P @ G`` and/or column selection ``G @ T``."""
    B = sys.B if T is None else sys.B @ T
    D = sys.D if T is None else sys.D @ T
    C = sys.C if P is None else P @ sys.C
    D = D if P is None else P @ D
    return _trusted_system(sys.A, sys.E, B, C, D, sys.domain)


def solve_right(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``G X = F`` for a rational ``X``.

    ``F`` is compatible when the system pencil of ``[G F]`` has no larger
    normal rank than that of ``G``, each the largest rank at three fixed
    probe points; otherwise :class:`Incompatible` is raised.  When ``G`` is
    invertible the explicit lifted-pencil realization is used directly;
    otherwise fixed orthonormal row/column selectors reduce the problem to
    an invertible core, trying up to five selector pairs until ``G X = F``
    holds at three probe points.  The returned nullspace basis
    parameterizes all solutions.  The result depends on ``G``, ``F`` and
    ``tol`` alone.
    """
    if G.domain is not F.domain:
        raise DomainMismatch("G and F must share a time domain")
    if G.p != F.p:
        raise DimensionMismatch(f"G and F must have equal output counts, got {G.p} and {F.p}")
    g = minreal(G, tol=tol)
    f = minreal(F, tol=tol)

    # system pencil of [G F]; its leading gf.n + g.m columns are G's, on the
    # shared state
    gf = concat_row(g, f)
    Mgf, Ngf = _system_pencil(gf)
    ng = gf.n + g.m
    if _probe_rank(Mgf, Ngf, tol) > _probe_rank(Mgf[:, :ng], Ngf[:, :ng], tol):
        raise Incompatible("[G F] has a larger normal rank than G")

    r = normal_rank(g)
    square = r == g.p == g.m
    probes = probe_points(gf, count=3)
    for attempt in range(1 if square else 5):
        if square:
            P, T = None, None
            g2, f2 = g, f
        else:
            P = _selector(g.p, r, attempt).T
            T = _selector(g.m, r, attempt)
            g2 = _row_col_select(g, P=P, T=T)
            f2 = _row_col_select(f, P=P)
            if normal_rank(g2) < r:
                continue
        if r == 0:
            X0 = _static(np.zeros((g.m, f.m)), g.domain)
        else:
            Xh = _shared_solver_pencil(g2, f2)
            X0 = Xh if T is None else series(_static(T, g.domain), Xh)
        X0 = minreal(X0, tol=tol)
        ok = True
        for lam in probes:
            lhs = eval_tfm(g, lam) @ eval_tfm(X0, lam)
            rhs = eval_tfm(f, lam)
            if np.linalg.norm(lhs - rhs) > 1e-7 * (1.0 + np.linalg.norm(rhs)):
                ok = False
                break
        if ok:
            return SolveResult(X0, _right_nullspace(g, tol))
    raise IterationFailure("could not construct a particular solution (is the system compatible?)")


def solve_left(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``X G = F`` (transpose-dual of :func:`solve_right`); the basis
    field holds a left nullspace basis of ``G``."""
    res = solve_right(transpose_dual(G), transpose_dual(F), tol=tol)
    return SolveResult(transpose_dual(res.particular), transpose_dual(res.null_basis))


# ---------------------------------------------------------------------------
# L2 model matching


def _causal_split(g, tol=None):
    """Orthogonal causal/anticausal split of a two-sided system.

    The pole-based decomposition alone is not orthogonal on the unit circle:
    the antistable part still owns the zeroth Fourier coefficient
    ``c0 = Gu(0)``, which belongs to the causal side.  Returns
    ``(causal, strictly_anticausal)`` whose L2 norms add in squares.
    """
    region = stability_region(g.domain)
    parts = additive_decompose(g, region, improper_to_bad=True, tol=tol)
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
    g = minreal(G, tol=tol)
    f = minreal(F, tol=tol)
    region = stability_region(g.domain)
    for h, name in ((g, "G"), (f, "F")):
        if not (h.is_standard and all(region.contains(z) for z in np.linalg.eigvals(h.A))):
            raise UnstableInput(f"{name} must be stable and proper")
    if g.domain is TimeDomain.CONTINUOUS and np.linalg.norm(f.D) > 1e-10 * (1.0 + np.linalg.norm(f.B) * np.linalg.norm(f.C)):
        raise NonstrictlyProperF("continuous-time model matching needs a strictly proper F")
    if normal_rank(g) < g.m:
        raise UnsupportedShape("G must have full column normal rank")
    for z in _zeros(g, tol).finite:
        if region.on_boundary(z, 1e-8):
            raise BoundaryZeros(f"zero {z} lies on the stability boundary")
    if g.domain is TimeDomain.CONTINUOUS and rank_tol(g.D.T @ g.D) < g.m:
        # zeros at infinity: outside the restricted inner-outer scope, but a
        # square G with an exact stable solution needs no compression at all
        # (take the identity as the inner factor and G itself as the outer)
        if g.p == g.m:
            X0 = solve_right(g, f, tol=tol).particular
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

    q1, R = _inner_outer_thin(g, tol)
    f1t = minreal(series(conjugate(q1), f), tol=tol)

    # the optimal stable correction is the causal projection of the
    # compressed target (in discrete time that includes the zeroth Fourier
    # coefficient of the antistable part, not just its stable poles)
    Ls, Lu = _causal_split(f1t, tol=tol)

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
