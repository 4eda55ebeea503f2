"""Rational nullspace bases, linear rational matrix equations, and the
L2-optimal model-matching solver.

Nullspace bases come from the staircase form of the system matrix pencil:
its leading right-singular block, compressed to ``[B1 | A1 - lam E1]`` with
``E1`` invertible, is a descriptor realization of the kernel once a
stabilizing LQR feedback on ``(A1, E1, B1)`` fixes its poles; the
accumulated orthogonal transforms map it back to the input coordinates.
No polynomial arithmetic is involved.  A particular solution of
``G X = F`` is built from the library's own realization arithmetic:
``inverse(G)`` in series with ``F``, on an invertible core ``P G T`` cut
out by constant selectors when ``G`` is not square and invertible.  The
model-matching pipeline compresses the problem with the thin inner-outer
factors ``G = Q1 R``, splits the transformed target ``Q1~ F`` into its
causal part ``Ls`` and the rest, back-substitutes ``R X = Ls`` through a
stable inverse of the outer factor, and reports the H2 norm of the stable
residual ``F - G X = F - Q1 Ls``.
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
    NotInvertibleTFM,
    UnstableInput,
    UnsupportedShape,
)
from .analysis import (
    _reduce,
    _strictly_proper,
    _system_pencil,
    _zeros,
    h2_norm,
    is_stable,
    minreal,
    normal_rank,
    stability_region,
)
from .factor import _additive_split, _inner_outer_thin, _riccati_schur
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


def solve_right(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``G X = F`` for a rational ``X``.

    ``F`` is compatible when the system pencil of ``[G F]`` has no larger
    normal rank than that of ``G``, each the largest rank at three fixed
    probe points; otherwise :class:`Incompatible` is raised.  When ``G`` is
    invertible the particular solution is ``inverse(G)`` in series with
    ``F``; otherwise fixed orthonormal row/column selectors ``P``, ``T``,
    entered as static systems, reduce the problem to the invertible core
    ``P G T X2 = P F`` with ``X = T X2``, trying up to five selector pairs
    until ``G X = F`` holds at three probe points.  The returned nullspace
    basis parameterizes all solutions.  The result depends on ``G``, ``F``
    and ``tol`` alone.
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
        # the invertible core P G T X2 = P F, with X = T X2 (P = T = I for a square invertible G)
        P, T = (np.eye(k) if square else _selector(k, r, attempt) for k in (g.p, g.m))
        P, T = _static(P.T, g.domain), _static(T, g.domain)
        try:
            X0 = minreal(series(T, series(inverse(series(P, series(g, T))), series(P, f))), tol=tol)
        except NotInvertibleTFM:
            continue
        values = ((eval_tfm(g, lam) @ eval_tfm(X0, lam), eval_tfm(f, lam)) for lam in probes)
        if all(np.linalg.norm(lhs - rhs) <= 1e-7 * (1.0 + np.linalg.norm(rhs)) for lhs, rhs in values):
            return SolveResult(X0, _right_nullspace(g, tol))
    raise IterationFailure("could not construct a particular solution (is the system compatible?)")


def solve_left(G: DescriptorSystem, F: DescriptorSystem, tol=None) -> SolveResult:
    """Solve ``X G = F`` (transpose-dual of :func:`solve_right`); the basis
    field holds a left nullspace basis of ``G``."""
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
    g = minreal(G, tol=tol)
    f = minreal(F, tol=tol)
    region = stability_region(g.domain)
    for h, name in ((g, "G"), (f, "F")):
        if not (h.is_standard and all(region.contains(z) for z in np.linalg.eigvals(h.A))):
            raise UnstableInput(f"{name} must be stable and proper")
    if g.domain is TimeDomain.CONTINUOUS and not _strictly_proper(f):
        raise NonstrictlyProperF("continuous-time model matching needs a strictly proper F")
    if normal_rank(g) < g.m:
        raise UnsupportedShape("G must have full column normal rank")
    for z in _zeros(g, tol).finite:
        if region.on_boundary(z):
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
