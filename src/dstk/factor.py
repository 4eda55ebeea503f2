"""Factorizations of rational matrices through their descriptor realizations.

Additive decomposition over a good/bad split of the complex plane, right and
left coprime factorizations by eigenvalue dislocation with state feedback /
output injection, and inner-outer (and co-outer--co-inner) factorizations of
stable proper full-rank systems via an algebraic Riccati equation solved on
an extended structured pencil.  The same Riccati solver gives the
dislocating feedback: with zero state weight its gain mirrors every bad
eigenvalue into the region, so no random placement is involved.  Both read
:func:`minreal`'s split: no rank of ``E`` is decided again, and no QZ orders the poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BoundaryZeros,
    ImproperInput,
    IterationFailure,
    PlacementFailure,
    PoleOnBoundary,
    RankDeficiencyUnsupported,
    RegionInvalid,
    UnstableInput,
)
from .analysis import StabilityRegion, _reduce, _structure, _zeros, minreal, stability_region
from .kernels import (
    RESIDUAL_TOL,
    _diag2,
    _schur_ordered,
    _svd,
    _sylv_quasi,
    gschur_ordered,
    null_basis,
    rank_tol,
)
from .ops import _static, concat_row, transpose_dual
from .system import DescriptorSystem, TimeDomain, _trusted_system

__all__ = [
    "FactorPair",
    "additive_decompose",
    "rcf",
    "lcf",
    "inner_outer",
    "co_outer_co_inner",
]


@dataclass
class FactorPair:
    """A two-factor result.

    ``kind`` is one of ``"additive"`` (good part, bad part), ``"rcf"`` /
    ``"lcf"`` (numerator, denominator), ``"inner-outer"`` (square inner
    factor, outer factor) and ``"co-outer-co-inner"`` (co-outer factor,
    square inner factor).  For the compressions, ``inner_columns`` is the
    number of leading columns (rows, for the co-variant) of the square inner
    factor that span the image (co-image) of the input.
    """

    first: DescriptorSystem
    second: DescriptorSystem
    kind: str
    inner_columns: int | None = None


# ---------------------------------------------------------------------------
# additive decomposition


def additive_decompose(
    sys: DescriptorSystem,
    region: StabilityRegion,
    improper_to_bad: bool = False,
    tol=None,
) -> FactorPair:
    """Split ``G = Gg + Gb`` with the poles of ``Gg`` in ``region`` and those
    of ``Gb`` outside; the feedthrough goes to ``Gg``.

    Infinite poles cannot straddle a half-plane boundary, so improper systems
    are rejected for half-plane regions unless ``improper_to_bad`` forces the
    whole infinite structure into ``Gb``.  For disk regions the infinite
    structure always belongs to the bad part.  The finite/infinite split is
    :func:`minreal`'s, the one place ``tol`` acts.  Its finite ``E = I``
    block takes one ordered real Schur form, and ``dtrsyl`` decouples the
    good and bad parts by a similarity.
    """
    if not isinstance(region, StabilityRegion):
        raise RegionInvalid("region must be a StabilityRegion")
    return _additive_split(*_reduce(sys, tol), region, improper_to_bad)


def _additive_split(g, nf, ninf, region, improper_to_bad) -> FactorPair:
    """:func:`additive_decompose` of the output ``(g, nf, ninf)`` of :func:`_reduce`."""
    T, Z, eigs, k = _schur_ordered(g.A[:nf, :nf], region.contains)
    for lam in eigs:
        if region.on_boundary(lam):
            raise PoleOnBoundary(f"pole {lam} lies on the region boundary")
    if ninf and region.is_half_plane and not improper_to_bad:
        raise PoleOnBoundary(
            "improper system: infinite poles straddle a half-plane boundary "
            "(pass improper_to_bad=True to force them into the bad part)"
        )

    B1, C1 = Z.T @ g.B[:nf], g.C[:, :nf] @ Z
    R = _sylv_quasi(T[:k, :k], T[:k, k:], T[k:, k:])
    Gg = _trusted_system(T[:k, :k], np.eye(k), B1[:k] - R @ B1[k:], C1[:, :k], g.D, g.domain)
    # the infinite block joins the bad part as minreal decoupled it
    Ab, Eb = _diag2(T[k:, k:], g.A[nf:, nf:]), _diag2(np.eye(nf - k), g.E[nf:, nf:])
    Bb, Cb = np.vstack([B1[k:], g.B[nf:]]), np.hstack([C1[:, :k] @ R + C1[:, k:], g.C[:, nf:]])
    Gb = _trusted_system(Ab, Eb, Bb, Cb, np.zeros((g.p, g.m)), g.domain)
    return FactorPair(Gg, Gb, "additive")


# ---------------------------------------------------------------------------
# coprime factorizations


def _dislocating_feedback(g, nf, ninf, region, pole_set, tol):
    """State feedback making all infinite eigenvalues of ``A + BF - lam E``
    simple and moving every finite eigenvalue outside ``region`` into it, for
    the output ``(g, nf, ninf)`` of :func:`_reduce`.  An improper ``g`` takes
    one SVD of its trailing ``E`` block, split at its rank ``ninf``; an
    index-reducing gain and one LU solve residualize the kernel states.  The
    standard pair left (``(A, B)`` when proper) takes one ordered real Schur form."""
    n, m, re = g.n, g.m, nf + ninf
    F, As, Bs = np.zeros((m, n)), g.A, g.B
    if re < n:
        U, s, Vh = _svd(g.E[nf:, nf:])
        Ul, V = _diag2(np.eye(nf), U), _diag2(np.eye(nf), Vh.T)
        Ap, Bp = Ul.T @ g.A @ V, Ul.T @ g.B
        B2 = Bp[re:]
        if rank_tol(B2, tol) < n - re:
            raise PlacementFailure("infinite eigenvalues are not controllable")
        target = (1.0 + np.linalg.norm(g.A, 2)) * np.eye(n - re)
        F[:, re:] = B2.T @ np.linalg.solve(B2 @ B2.T, target - Ap[re:, re:])
        Ap += Bp @ F
        # x2 = -Ap22^-1 (Ap21 x1 + B2 u); E is diag(1, ..., 1, s) on the rest
        P = Ap[:re, re:] @ np.linalg.solve(Ap[re:, re:], np.hstack([Ap[re:, :re], B2]))
        d = np.r_[np.ones(nf), s[:ninf]][:, None]
        As, Bs = (Ap[:re, :re] - P[:, :re]) / d, (Bp[:re] - P[:, re:]) / d

    T, Z, _, k = _schur_ordered(As, region.contains)
    if k < re:
        nb = re - k
        Abs, Bbs = T[k:, k:], (Z.T @ Bs)[k:]
        if pole_set is None:
            # the zero-state-weight LQR gain mirrors every bad pole: about
            # Re z = alpha - 1/2, or about |z| = rho/sqrt(2) after scaling
            if region.is_half_plane:
                Am, Bm, kind = Abs - (region.alpha - 0.5) * np.eye(nb), Bbs, TimeDomain.CONTINUOUS
            else:
                r = region.rho / np.sqrt(2.0)
                Am, Bm, kind = Abs / r, Bbs / r, TimeDomain.DISCRETE
            Fb = _riccati_schur(Am, Bm, np.zeros((nb, nb)), np.zeros((nb, m)), np.eye(m), kind)[1]
        else:
            targets = [complex(z) for z in pole_set]
            for z in targets:
                if not region.contains(z):
                    raise RegionInvalid(f"target pole {z} is outside the region")
            if len(targets) != nb:
                raise RegionInvalid(f"need {nb} target poles, got {len(targets)}")
            from scipy.signal import place_poles  # slow import, so only on request

            try:
                Fb = -place_poles(Abs, Bbs, targets).gain_matrix
            except ValueError as exc:
                raise RegionInvalid(f"target poles cannot be placed: {exc}") from None
        if not all(region.contains(z) for z in np.linalg.eigvals(Abs + Bbs @ Fb)):
            raise PlacementFailure("closed-loop poles are not all in the region")
        F[:, :re] += Fb @ Z[:, k:].T
    return F if re == n else F @ V.T


def rcf(sys: DescriptorSystem, region: StabilityRegion, pole_set=None, tol=None) -> FactorPair:
    """Right coprime factorization ``G = N M^{-1}`` over a good region.

    A state feedback built on the minimal realization dislocates every bad
    finite eigenvalue into the region and reduces the infinite structure so
    that all infinite eigenvalues of the factor pencil are simple.  ``M`` is
    square ``m x m`` with ``M(inf) = I``.  The rank of ``E`` is read from
    :func:`minreal`'s split, and ``tol`` acts there and in the index reduction.

    By default the feedback is the zero-state-weight LQR gain of the bad
    block, which puts each bad eigenvalue ``z`` at its mirror image
    ``region.reflect(z)``: about ``Re z = alpha - 1/2`` for a half-plane,
    about ``|z| = rho/sqrt(2)`` (at ``rho**2 / (2 conj(z))``) for a disk.
    An explicit ``pole_set`` (one target per bad eigenvalue, in the region,
    closed under conjugation, none repeated more than ``rank(B)`` times) is
    placed by ``scipy.signal.place_poles``; other target sets raise
    :class:`RegionInvalid`.  A Riccati solve that fails raises
    :class:`IterationFailure`; a closed loop left with a pole outside the
    region raises :class:`PlacementFailure`.
    """
    if not isinstance(region, StabilityRegion):
        raise RegionInvalid("region must be a StabilityRegion")
    g, nf, ninf = _reduce(sys, tol)
    F = _dislocating_feedback(g, nf, ninf, region, pole_set, tol)
    Af = g.A + g.B @ F
    N = _trusted_system(Af, g.E, g.B, g.C - g.D @ F, g.D, g.domain)
    M = _trusted_system(Af, g.E, g.B, -F, np.eye(g.m), g.domain)
    return FactorPair(N, M, "rcf")


def lcf(sys: DescriptorSystem, region: StabilityRegion, pole_set=None, tol=None) -> FactorPair:
    """Left coprime factorization ``G = M^{-1} N`` (dual of :func:`rcf`)."""
    pair = rcf(transpose_dual(sys), region, pole_set=pole_set, tol=tol)
    return FactorPair(transpose_dual(pair.first), transpose_dual(pair.second), "lcf")


# ---------------------------------------------------------------------------
# inner-outer machinery


def _psd_sqrt(W, what):
    w, V = np.linalg.eigh(0.5 * (W + W.T))
    if w.size and w.min() <= 1e-10 * max(w.max(), 1.0):
        raise RankDeficiencyUnsupported(f"{what} is numerically rank deficient")
    root = V @ np.diag(np.sqrt(w)) @ V.T
    inv_root = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    return root, inv_root


def _riccati_schur(A, B, Qc, Sc, Rc, domain):
    """Stabilizing Riccati solution ``X`` and its gain ``F`` (closed loop
    ``A + B F``) via the ordered Schur form of the extended structured
    pencil (size 2n + m)."""
    n, m = B.shape
    Zn = np.zeros((n, n))
    Znm = np.zeros((n, m))
    if domain is TimeDomain.CONTINUOUS:
        M = np.block([[A, Zn, B], [Qc, A.T, Sc], [Sc.T, B.T, Rc]])
        N = np.zeros((2 * n + m, 2 * n + m))
        N[:n, :n] = np.eye(n)
        N[n : 2 * n, n : 2 * n] = -np.eye(n)

        def sel(a, b):
            return b > 1e-8 * (abs(a) + b + 1e-300) and (a / b).real < 0.0

    else:
        M = np.block([[A, Zn, B], [Qc, -np.eye(n), Sc], [Sc.T, Znm.T, Rc]])
        N = np.zeros((2 * n + m, 2 * n + m))
        N[:n, :n] = np.eye(n)
        N[n : 2 * n, n : 2 * n] = -A.T
        N[2 * n :, n : 2 * n] = -B.T

        def sel(a, b):
            return b > 1e-8 * (abs(a) + b + 1e-300) and abs(a / b) < 1.0

    res = gschur_ordered(M, N, select=sel)
    if res.selected_count != n:
        raise IterationFailure("Riccati pencil did not split into n stable directions")
    Z1 = res.Z[:n, :n]
    Z2 = res.Z[n : 2 * n, :n]
    try:
        X = np.linalg.solve(Z1.T, Z2.T).T
    except np.linalg.LinAlgError:
        raise IterationFailure("Riccati deflating subspace is not a graph") from None
    X = 0.5 * (X + X.T)

    if domain is TimeDomain.CONTINUOUS:
        gain = np.linalg.solve(Rc, B.T @ X + Sc.T)
        resid = A.T @ X + X @ A + Qc - (X @ B + Sc) @ gain
    else:
        Wd = Rc + B.T @ X @ B
        gain = np.linalg.solve(Wd, B.T @ X @ A + Sc.T)
        resid = A.T @ X @ A - X + Qc - (A.T @ X @ B + Sc) @ gain
    scale = 1.0 + np.linalg.norm(Qc) + (1.0 + np.linalg.norm(A)) ** 2 * (1.0 + np.linalg.norm(X))
    if np.linalg.norm(resid) > RESIDUAL_TOL * scale:
        raise IterationFailure("Riccati residual too large")
    return X, -gain


def _standard_stable_data(sys, tol):
    """Minimal realization and its normal rank (:func:`_structure`), validated
    for the inner-outer restricted scope.  The TFM is proper exactly when
    ``minreal``'s ``E`` is ``I``; then ``(A, B, C, D)`` is standard, poles ``eig(A)``."""
    g = minreal(sys, tol=tol)
    region = stability_region(g.domain)
    if not g.is_standard:
        raise ImproperInput("inner-outer factorization needs a proper system")
    if not all(region.contains(z) for z in np.linalg.eigvals(g.A)):
        raise UnstableInput("inner-outer factorization needs a stable system")
    *_, ks, r = _structure(g, tol)
    for z in _zeros(ks).finite:
        if region.on_boundary(z):
            raise BoundaryZeros(f"zero {z} lies on the stability boundary")
    return g, r


def inner_outer(sys: DescriptorSystem, tol=None) -> FactorPair:
    """Inner--outer factorization ``G = Q1 R`` of a stable proper system of
    full column normal rank.

    ``Q = [Q1 Q2]`` is returned square inner; ``R`` is square, stable,
    minimum phase and invertible.  Rank-deficient cases (including a
    continuous-time feedthrough without full column rank, i.e. zeros at
    infinity) fall outside the restricted scope and raise
    :class:`RankDeficiencyUnsupported`.
    """
    g, r = _standard_stable_data(sys, tol)
    p, m = g.p, g.m
    if m == 0:
        return FactorPair(_static(np.eye(p), g.domain), _static(np.zeros((0, 0)), g.domain), "inner-outer", 0)
    if r < m:
        raise RankDeficiencyUnsupported("TFM must have full column normal rank")
    q1, R = _inner_outer_thin(g, tol)
    Q = concat_row(q1, _inner_complement(q1, g.domain)) if p > m else q1
    return FactorPair(Q, R, "inner-outer", inner_columns=m)


def _inner_outer_thin(g, tol):
    """Thin factors ``(Q1, R)`` of ``G = Q1 R`` for a minimal, validated
    ``g`` (stable, proper, ``E = I``) of full column normal rank ``m``:
    ``Q1`` is ``p x m`` inner and minimal, ``R`` square outer."""
    As, Bs, C, D = g.A, g.B, g.C, g.D
    n, m = g.n, g.m
    Qc = C.T @ C
    Sc = -C.T @ D
    Rc = D.T @ D
    if g.domain is TimeDomain.CONTINUOUS:
        _psd_sqrt(Rc, "D^T D")  # zeros at infinity are out of scope
    if n:
        X, F = _riccati_schur(As, Bs, Qc, Sc, Rc, g.domain)
    else:
        X, F = np.zeros((0, 0)), np.zeros((m, 0))
    W = Rc if g.domain is TimeDomain.CONTINUOUS else Rc + Bs.T @ X @ Bs
    W12, W12i = _psd_sqrt(W, "spectral-factor weight")

    R = _trusted_system(As, np.eye(n), Bs, W12 @ F, W12, g.domain)
    Q1 = _trusted_system(As + Bs @ F, np.eye(n), Bs @ W12i, C - D @ F, D @ W12i, g.domain)
    return minreal(Q1, tol=tol), R


def _inner_complement(q1, domain):
    """Square-inner completion ``[Q1 Q2]`` of a minimal inner factor Q1."""
    A, C, D = q1.A, q1.C, q1.D
    n, p, m = q1.n, q1.p, q1.m
    if n == 0:
        Dp = null_basis(D.T)
        return _static(Dp, domain)
    # observability Gramian X1 of Q1 by an O(n^6) Kronecker solve: X1 is as
    # ill-conditioned as Q1's Hankel singular values decay, and the X1^-1
    # below keeps its digits with this solve but not with glyap's
    At, I = A.T, np.eye(n)
    if domain is TimeDomain.CONTINUOUS:
        K = np.kron(At, I) + np.kron(I, At)
    else:
        K = np.kron(At, At) - np.kron(I, I)
    X1 = np.linalg.solve(K, -(C.T @ C).ravel()).reshape(n, n)
    X1 = 0.5 * (X1 + X1.T)
    if domain is TimeDomain.CONTINUOUS:
        Dp = null_basis(D.T)
        B2 = np.linalg.solve(X1, C.T @ Dp)
        return _trusted_system(A, np.eye(n), B2, C, Dp, domain)
    # discrete: complete [B; D] to an M-orthonormal basis of the constraint
    # kernel, M = diag(X1, I)
    Kmat = np.hstack([A.T @ X1, -C.T])
    NK = null_basis(Kmat)
    if NK.shape[1] != p:
        raise IterationFailure("inner completion kernel has unexpected dimension")
    w, V = np.linalg.eigh(X1)
    w = np.clip(w, 1e-14 * max(w.max(), 1.0), None)
    Xh = V @ np.diag(np.sqrt(w)) @ V.T
    Xhi = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    Mhalf = _diag2(Xh, np.eye(p))
    Mhalfi = _diag2(Xhi, np.eye(p))
    T1 = Mhalf @ np.vstack([q1.B, D])
    Kt = Mhalf @ NK
    P = Kt - T1 @ (T1.T @ Kt)
    U, s, _ = _svd(P, full=False)
    keep = U[:, : p - m]
    if s.size < p - m or (p > m and s[p - m - 1] <= 1e-10 * max(s[0], 1.0)):
        raise IterationFailure("inner completion basis is numerically deficient")
    BD = Mhalfi @ keep
    return _trusted_system(A, np.eye(n), BD[:n, :], C, BD[n:, :], domain)


def co_outer_co_inner(sys: DescriptorSystem, tol=None) -> FactorPair:
    """Co-outer--co-inner factorization ``G = R Q1`` with ``Q1`` the leading
    ``inner_columns`` rows of the returned square inner ``Q`` (dual of
    :func:`inner_outer`)."""
    pair = inner_outer(transpose_dual(sys), tol=tol)
    return FactorPair(
        transpose_dual(pair.second),
        transpose_dual(pair.first),
        "co-outer-co-inner",
        inner_columns=pair.inner_columns,
    )
