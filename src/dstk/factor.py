"""Factorizations of rational matrices through their descriptor realizations.

Additive decomposition over a good/bad split of the complex plane, right and
left coprime factorizations by eigenvalue dislocation with state feedback /
output injection, and inner-outer (and co-outer--co-inner) factorizations of
stable proper full-rank systems via an algebraic Riccati equation.  A Riccati
with no state weight is a Bernoulli equation: one Lyapunov (Stein) equation on
the antistable block of an ordered real Schur form solves it.  That form is the
one ordering the poles for the default dislocating gain, which mirrors every
bad eigenvalue into the region, and that of ``A + B D^-1 C``, which also gives
the zeros, for a square system past the gate of the one SVD of ``D``
(``analysis._zero_dynamics``).  A weighted Riccati takes one sorted LAPACK
``dgges`` of its extended pencil.  Both factorizations read :func:`minreal`'s
split: no rank of ``E`` is decided again, and no QZ orders the poles.  Every
other square solve but the Riccati graph is one LU (``kernels._solve``), which
raises a typed error on a singular matrix.
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
from .analysis import _all_stable, _reduce, _structure, _zero_dynamics, _zeros, minreal
from .kernels import DEFICIENCY_RCOND, INFINITE_EIG_TOL, StabilityRegion
from .kernels import (
    _accepted,
    _diag2,
    _gges,
    _lyap_quasi,
    _quasi_inv,
    _schur_ordered,
    _solve,
    _svd,
    _svd_rank,
    _sylv_quasi,
    null_basis,
    stability_region,
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
    T, Z, eigs, k = _schur_ordered(g.A[:nf, :nf], region.inside)
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
    simple and moving every finite eigenvalue not ``region.inside`` into it, for
    the output ``(g, nf, ninf)`` of :func:`_reduce`.  An improper ``g`` takes
    no SVD of its trailing ``E`` block: :func:`_reduce` leaves it diagonal,
    its ``ninf`` kept singular values first and zeros on the kernel states
    after them; the thin SVD deciding their inputs' rank gives the
    minimum-norm index-reducing gain, and one LU solve residualizes them.
    The standard pair left (``(A, B)`` when proper) takes one ordered real
    Schur form."""
    n, m, re = g.n, g.m, nf + ninf
    F, As, Bs = np.zeros((m, n)), g.A, g.B
    if re < n:
        B2 = g.B[re:]
        U, s, Vh = _svd(B2, full=False)
        if _svd_rank(s, B2.shape, tol) < n - re:
            raise PlacementFailure("infinite eigenvalues are not controllable")
        target = (1.0 + np.linalg.norm(g.A, 2)) * np.eye(n - re)
        F[:, re:] = Vh.T @ ((U.T @ (target - g.A[re:, re:])) / s[:, None])
        Ap = g.A + g.B @ F
        # x2 = -Ap22^-1 (Ap21 x1 + B2 u); E is diag(1, ..., 1, sigma) on the rest
        X = _solve(Ap[re:, re:], np.hstack([Ap[re:, :re], B2]), PlacementFailure, "kernel block is singular")
        P = Ap[:re, re:] @ X
        d = np.diag(g.E)[:re, None]
        As, Bs = (Ap[:re, :re] - P[:, :re]) / d, (g.B[:re] - P[:, re:]) / d

    T, Z, eigs, k = _schur_ordered(As, region.inside)
    if k < re:
        nb = re - k
        Abs, Bbs = T[k:, k:], (Z.T @ Bs)[k:]
        if pole_set is None:
            # the zero-state-weight LQR gain, one Bernoulli equation on the bad block, mirrors every
            # bad pole: about Re z = alpha - 1/2, or about |z| = rho/sqrt(2) after scaling
            c, r = (region.alpha - 0.5, 1.0) if region.is_half_plane else (0.0, region.rho / np.sqrt(2.0))
            kind = TimeDomain.CONTINUOUS if region.is_half_plane else TimeDomain.DISCRETE
            Am, Bm, zb = (Abs - c * np.eye(nb)) / r, Bbs / r, [(z - c) / r for z in eigs[k:]]
            X = _bernoulli((Am, np.eye(nb), zb, 0, Bm), kind)
            Fb = _riccati_gain(Am, Bm, np.zeros((nb, nb)), np.zeros((nb, m)), np.eye(m), X, kind)[1]
        else:
            targets = [complex(z) for z in pole_set]
            for z in targets:
                if not region.inside(z):
                    raise RegionInvalid(f"target pole {z} is not inside the region, off its boundary")
            if len(targets) != nb:
                raise RegionInvalid(f"need {nb} target poles, got {len(targets)}")
            from scipy.signal import place_poles  # slow import, so only on request

            try:
                Fb = -place_poles(Abs, Bbs, targets).gain_matrix
            except ValueError as exc:
                raise RegionInvalid(f"target poles cannot be placed: {exc}") from None
        if not all(region.inside(z) for z in np.linalg.eigvals(Abs + Bbs @ Fb)):
            raise PlacementFailure("closed-loop poles are not all inside the region, off its boundary")
        F[:, :re] += Fb @ Z[:, k:].T
    return F


def rcf(sys: DescriptorSystem, region: StabilityRegion, pole_set=None, tol=None) -> FactorPair:
    """Right coprime factorization ``G = N M^{-1}`` over a good region.

    A state feedback built on the minimal realization dislocates every bad
    finite eigenvalue (not :meth:`StabilityRegion.inside`, so one in the
    boundary band too) into the region and reduces the infinite structure so
    that all infinite eigenvalues of the factor pencil are simple.  ``M`` is
    square ``m x m``, with ``M(inf) = I`` for a proper ``G``; for an improper
    one ``N`` is proper and ``M(inf)`` singular.  The rank of ``E`` is read from
    :func:`minreal`'s split, and ``tol`` acts there and in the index reduction.

    By default the feedback is the zero-state-weight LQR gain of the bad
    Schur block, a Bernoulli equation (no QZ), which puts each bad eigenvalue
    ``z`` at its mirror image ``region.reflect(z)``: about ``Re z = alpha -
    1/2`` for a half-plane, about ``|z| = rho/sqrt(2)`` (at ``rho**2 / (2
    conj(z))``) for a disk.
    An explicit ``pole_set`` (one target per bad eigenvalue, inside the region,
    closed under conjugation, none repeated more than ``rank(B)`` times) is
    placed by ``scipy.signal.place_poles``; other target sets raise
    :class:`RegionInvalid`.  A Riccati solve that fails raises
    :class:`IterationFailure`; a closed loop left with a pole not inside the
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
    """``(W^1/2, W^-1/2)`` of a symmetric positive definite ``W``, never clipped: an eigenvalue at
    most ``DEFICIENCY_RCOND * max(largest, 1)`` raises :class:`RankDeficiencyUnsupported` naming ``what``."""
    w, V = np.linalg.eigh(0.5 * (W + W.T))
    if _svd_rank(w, W.shape, DEFICIENCY_RCOND * max(w.max(initial=0.0), 1.0)) < w.size:
        raise RankDeficiencyUnsupported(f"{what} is numerically rank deficient")
    return V @ np.diag(np.sqrt(w)) @ V.T, V @ np.diag(1.0 / np.sqrt(w)) @ V.T


def _riccati_schur(A, B, Qc, Sc, Rc, domain):
    """Stabilizing Riccati solution ``X`` and its gain ``F`` (closed loop
    ``A + B F``) from the right deflating subspace of the extended pencil
    ``M - z N`` (size 2n + m) for its finite eigenvalues that are
    ``StabilityRegion.inside`` the stable region, put first by one sorted :func:`_gges`
    that forms no left Schur vectors.  Discrete time orders the reversed
    pencil ``N - mu M`` (``mu = 1/z``, the same subspaces), whose QZ leaves
    the stable set ``|mu| > 1`` (``z = 0`` at ``mu = inf``) in front, where
    that of ``M - z N`` leaves it last.  An eigenvalue in the boundary band
    leaves fewer than ``n`` selected and raises ``IterationFailure``.  A
    Riccati with no state weight takes :func:`_bernoulli` instead."""
    n, m = B.shape
    Zn = np.zeros((n, n))
    Znm = np.zeros((n, m))
    region = stability_region(domain)
    if domain is TimeDomain.CONTINUOUS:
        M = np.block([[A, Zn, B], [Qc, A.T, Sc], [Sc.T, B.T, Rc]])
        N = np.diag(np.r_[np.ones(n), -np.ones(n), np.zeros(m)])
        pencil, stable = (M, N), lambda a, b: b > INFINITE_EIG_TOL * (abs(a) + b) and region.inside(a / b)
    else:
        M = np.block([[A, Zn, B], [Qc, -np.eye(n), Sc], [Sc.T, Znm.T, Rc]])
        N = np.block([[np.eye(n), Zn, Znm], [Zn, -A.T, Znm], [Znm.T, -B.T, np.zeros((m, m))]])
        # z = b / a is finite and inside the unit disk
        pencil, stable = (N, M), lambda a, b: abs(a) > INFINITE_EIG_TOL * (abs(a) + b) and region.inside(b / a)
    _, _, _, Z, _, _, k = _gges(*pencil, stable, left=False)
    if k != n:
        raise IterationFailure("Riccati pencil did not split into n stable directions")
    # no regularity probe: a singular pencil fails the count, the graph or
    # the gain solve, or the residual test
    try:
        X = np.linalg.solve(Z[:n, :n].T, Z[n : 2 * n, :n].T).T
    except np.linalg.LinAlgError:
        raise IterationFailure("Riccati deflating subspace is not a graph") from None
    return _riccati_gain(A, B, Qc, Sc, Rc, X, domain)


def _bernoulli(zd, domain):
    """Stabilizing solution ``X`` of the Riccati with zero state weight and
    unit input weight (a Bernoulli equation) of ``(A, Bd)``, ``A = Z T Z^T``
    and ``zd = (T, Z, eigenvalues, k, Bd)``, the first four from
    :func:`_schur_ordered`, stable block first: ``X = Z2 Y^-1 Z2^T``, ``T22 Y
    + Y T22^T = W`` (continuous) or ``T22 Y T22^T - Y = W`` (discrete), ``W =
    Bt Bt^T``, ``Bt = Z2^T Bd``, solved by :func:`_lyap_quasi` on ``-T22`` or
    ``T22^-1`` and their eigenvalues, read off ``zd``: no second Schur form.
    The square :func:`_inner_outer_thin` passes the zero dynamics ``A + Bd C``,
    ``Bd = B D^-1``; the dislocating gain its shifted bad block (``Z = I, k = 0``)."""
    T, Z, zs, k, Bd = zd
    Z2, Bt = Z[:, k:], Z[:, k:].T @ Bd
    if domain is TimeDomain.CONTINUOUS:
        M, eigs = -T[k:, k:], [-z for z in zs[k:]]
    else:
        M, eigs = _quasi_inv(T[k:, k:]), [1.0 / z for z in zs[k:]]
        Bt = M @ Bt
    Y = _lyap_quasi(M, eigs, Bt @ Bt.T, domain, IterationFailure)
    return Z2 @ _solve(Y, Z2.T, IterationFailure, "Bernoulli solution is singular")


def _riccati_gain(A, B, Qc, Sc, Rc, X, domain):
    """``(X, F, W)``: the symmetrized Riccati solution ``X``, its gain ``F =
    -W^-1 H^T`` and its weight ``W``, accepted by :func:`_accepted` on the
    terms of its residual ``A^T X + X A`` (continuous) or ``A^T X A - X``
    (discrete) ``+ Qc + H F``."""
    X = 0.5 * (X + X.T)
    AX = A.T @ X
    if domain is TimeDomain.CONTINUOUS:
        H, W, terms = X @ B + Sc, Rc, [AX, AX.T]
    else:
        H, W, terms = AX @ B + Sc, Rc + B.T @ X @ B, [AX @ A, -X]
    gain = _solve(W, H.T, IterationFailure, "Riccati gain weight is singular")
    _accepted(terms + [Qc, -H @ gain], IterationFailure, "Riccati")
    return X, -gain, W


def _standard_stable_data(sys, tol):
    """Minimal realization, normal rank ``r``, zero dynamics ``zd`` and weight ``w``, validated for the
    inner-outer scope: proper (``minreal``'s ``E`` is ``I``), stable off the boundary, no boundary zeros.
    :func:`_zero_dynamics` takes the one SVD ``D = U diag(s) V^T``: a ``full`` ``D`` gives ``w = (W, W^-1)``,
    ``W = V diag(s) V^T = (D^T D)^1/2``, else ``w`` is None.  Past its gate, ``r = m`` and ``zd`` is the Schur
    form of ``A + Bd C``; else :func:`_structure`, told the gate's answer, reads ``r`` and the zeros."""
    g = minreal(sys, tol=tol)
    region = stability_region(g.domain)
    if not g.is_standard:
        raise ImproperInput("the system must be proper")
    if not _all_stable(np.linalg.eigvals(g.A), 0, g.domain):
        raise UnstableInput("the system must be stable")
    full, sv, Vh, Bd = _zero_dynamics(g)
    w = ((Vh.T * sv) @ Vh, (Vh.T / sv) @ Vh) if full else None
    if Bd is None:
        *_, ks, r = _structure(g, tol, gate=False)
        zs, zd = _zeros(ks).finite, None
    else:
        zd = (*_schur_ordered(g.A + Bd @ g.C, region.inside), Bd)
        r, zs = g.m, zd[2]
    for z in zs:
        if region.on_boundary(z):
            raise BoundaryZeros(f"zero {z} lies on the stability boundary")
    return g, r, zd, w


def inner_outer(sys: DescriptorSystem, tol=None) -> FactorPair:
    """Inner--outer factorization ``G = Q1 R`` of a stable proper system of
    full column normal rank.

    ``Q = [Q1 Q2]`` is returned square inner; ``R`` is square, stable,
    minimum phase and invertible.  Rank-deficient cases (including a
    continuous-time feedthrough without full column rank, i.e. zeros at
    infinity) fall outside the restricted scope and raise
    :class:`RankDeficiencyUnsupported`.
    """
    g, r, zd, w = _standard_stable_data(sys, tol)
    p, m = g.p, g.m
    if r < m or (w is None and g.domain is TimeDomain.CONTINUOUS):  # zeros at infinity are out of scope
        raise RankDeficiencyUnsupported("TFM must have full column normal rank, and a continuous D full column rank")
    q1, R = _inner_outer_thin(g, tol, zd, w)
    Q = concat_row(q1, _inner_complement(q1, g.domain)) if p > m else q1
    return FactorPair(Q, R, "inner-outer", inner_columns=m)


def _inner_outer_thin(g, tol, zd, w):
    """Thin factors ``(Q1, R)`` of ``G = Q1 R`` from the output ``(g, r, zd,
    w)`` of :func:`_standard_stable_data`, ``r = m`` and a continuous ``w``:
    ``Q1`` is ``p x m`` inner and minimal, ``R`` square outer.  Given zero
    dynamics ``zd``, the Riccati takes :func:`_bernoulli`, not the pencil."""
    As, Bs, C, D = g.A, g.B, g.C, g.D
    n, m = g.n, g.m
    Qc, Sc, Rc = C.T @ C, -C.T @ D, D.T @ D
    if not n:
        X, F, W = np.zeros((0, 0)), np.zeros((m, 0)), Rc
    elif zd is None:
        X, F, W = _riccati_schur(As, Bs, Qc, Sc, Rc, g.domain)
    else:
        X, F, W = _riccati_gain(As, Bs, Qc, Sc, Rc, _bernoulli(zd, g.domain), g.domain)
    W12, W12i = w if g.domain is TimeDomain.CONTINUOUS else _psd_sqrt(W, "spectral-factor weight")

    R = _trusted_system(As, np.eye(n), Bs, W12 @ F, W12, g.domain)
    Q1 = _trusted_system(As + Bs @ F, np.eye(n), Bs @ W12i, C - D @ F, D @ W12i, g.domain)
    return minreal(Q1, tol=tol), R


def _inner_complement(q1, domain):
    """Square-inner completion ``[Q1 Q2]`` of a minimal inner factor Q1; a deficient discrete Gramian is refused."""
    A, C, D = q1.A, q1.C, q1.D
    n, p, m = q1.n, q1.p, q1.m
    if n == 0:
        return _static(null_basis(D.T), domain)
    # observability Gramian X1 of Q1 by an O(n^6) Kronecker solve: X1 is as
    # ill-conditioned as Q1's Hankel singular values decay, and the X1^-1
    # below keeps its digits with this solve but not with glyap's
    At, I = A.T, np.eye(n)
    if domain is TimeDomain.CONTINUOUS:
        K = np.kron(At, I) + np.kron(I, At)
    else:
        K = np.kron(At, At) - np.kron(I, I)
    X1 = _solve(K, -(C.T @ C).ravel(), IterationFailure, "inner completion Gramian equation is singular").reshape(n, n)
    X1 = 0.5 * (X1 + X1.T)
    if domain is TimeDomain.CONTINUOUS:
        Dp = null_basis(D.T)
        B2 = _solve(X1, C.T @ Dp, IterationFailure, "inner completion Gramian is singular")
        return _trusted_system(A, np.eye(n), B2, C, Dp, domain)
    # discrete: complete [B; D] to an M-orthonormal basis of the constraint
    # kernel, M = diag(X1, I)
    Kmat = np.hstack([A.T @ X1, -C.T])
    NK = null_basis(Kmat)
    if NK.shape[1] != p:
        raise IterationFailure("inner completion kernel has unexpected dimension")
    Xh, Xhi = _psd_sqrt(X1, "inner completion Gramian")
    Mhalf = _diag2(Xh, np.eye(p))
    T1 = Mhalf @ np.vstack([q1.B, D])
    Kt = Mhalf @ NK
    P = Kt - T1 @ (T1.T @ Kt)
    U, s, _ = _svd(P, full=False)
    keep = U[:, : p - m]
    if _svd_rank(s, P.shape, DEFICIENCY_RCOND * max(s.max(initial=0.0), 1.0)) < p - m:
        raise IterationFailure("inner completion basis is numerically deficient")
    BD = _diag2(Xhi, np.eye(p)) @ keep
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
