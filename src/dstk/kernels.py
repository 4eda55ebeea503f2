"""Dense real linear-algebra kernels.

Tolerance-based rank decisions and orthonormal nullspace bases, all from one
SVD entry point (``_svd``: one LAPACK ``gesdd`` call), then Schur forms and
the equations solved on them: one real Schur form and LAPACK ``dtrsyl`` for
the block decoupling and the Lyapunov equation of a standard block (Bartels
& Stewart, 1972), the ordered QZ form and ``dtgsyl`` for general pencils,
whose Lyapunov equation is standardized onto the same solver.

Point ranks (``rank_tol``, ``null_basis``, probes) are relative to
``sigma_max``; structural cuts (staircase, deflation, QZ beta) are absolute,
at ``stair_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .exceptions import (
    DimensionMismatch,
    IterationFailure,
    SingularPencil,
    SpectraNotDisjoint,
    UnstablePair,
)

__all__ = [
    "GschurResult",
    "rank_tol",
    "null_basis",
    "gschur_ordered",
    "gsylv_separation",
    "glyap",
]

EPS = float(np.finfo(float).eps)
RESIDUAL_TOL = 1e-6  # an equation solve is accepted at residual <= RESIDUAL_TOL * its Frobenius scale
LYAP_RESIDUAL_TOL = 1e-7  # a Lyapunov solve is accepted at residual <= LYAP_RESIDUAL_TOL * its scale
BOUNDARY_TOL = 1e-8  # lam is on a stability boundary within BOUNDARY_TOL * (1 + |lam|) of it

def as_matrix(M, name="matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def default_tol(dim, scale) -> float:
    """Default absolute tolerance ``100 * max(dim, 1) * eps * scale``.

    The safety factor absorbs roundoff accumulated over repeated orthogonal
    updates, which can sit well above ``eps * scale``.
    """
    return 100.0 * max(dim, 1) * EPS * scale


def stair_tol(tol, dim, *mats) -> float:
    """Absolute tolerance of a structural rank cut: ``tol`` when given, else
    ``default_tol(dim, max ||M||_F)`` over the matrices the cut is about."""
    return tol if tol is not None else default_tol(dim, max(np.linalg.norm(M) for M in mats))


def _svd_rank(s, shape, tol=None) -> int:
    """Number of singular values ``s`` (descending) above ``tol``.

    The default tolerance is ``max(shape) * eps * s[0]`` for a matrix of the
    given shape.
    """
    if tol is None:
        tol = max(shape) * EPS * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > tol))


def _svd(M, vectors=True, full=True):
    """``(U, s, Vh)`` of ``M``, full ``U`` and ``Vh`` or thin ones without
    ``full`` (``s`` alone without ``vectors``), from one LAPACK ``gesdd`` call,
    real or complex.  A failed iteration raises ``numpy.linalg.LinAlgError``."""
    if M.size == 0:
        k = None if full else 0
        return (np.eye(M.shape[0])[:, :k], np.zeros(0), np.eye(M.shape[1])[:k]) if vectors else np.zeros(0)
    U, s, Vh, info = sla.get_lapack_funcs("gesdd", (M,))(M, compute_uv=int(vectors), full_matrices=int(full))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return (U, s, Vh) if vectors else s


def rank_tol(M, tol=None) -> int:
    """Numerical rank: number of singular values above the tolerance.

    The effective tolerance is ``tol`` when given, otherwise
    ``max(rows, cols) * eps * sigma_max``.  Empty matrices have rank 0.
    """
    M = np.asarray(M)
    return _svd_rank(_svd(M, vectors=False), M.shape, tol)


def null_basis(M, tol=None) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``M``.

    Columns are orthonormal and satisfy ``M @ basis ~ 0``; the column count
    equals ``cols - rank_tol(M, tol)``.
    """
    M = np.asarray(M, dtype=M.dtype if np.iscomplexobj(M) else float)
    m, n = M.shape if M.ndim == 2 else (1, M.size)
    M = M.reshape(m, n)
    if m == 0 or not M.any():
        return np.eye(n)
    _, s, Vh = _svd(M)
    return Vh[_svd_rank(s, M.shape, tol) :].conj().T


def _row_compress(M, tol_abs, rank=None):
    """Orthogonal U with ``U.T @ M = [full-row-rank; 0]``; returns (U, rank).

    A given ``rank`` prescribes the split instead of deciding it against
    ``tol_abs``.
    """
    U, s, _ = _svd(M)
    return U, _svd_rank(s, M.shape, tol_abs) if rank is None else rank


def _col_compress_null_first(M, tol_abs, nullity=None):
    """Orthogonal V with ``M @ V = [~0 | full-column-rank]``; returns (V, nullity).

    A given ``nullity`` prescribes the split instead of deciding it against
    ``tol_abs``.
    """
    m, n = M.shape
    if m == 0 or not M.any():
        return np.eye(n), n if nullity is None else nullity
    _, s, Vh = _svd(M)
    r = _svd_rank(s, M.shape, tol_abs) if nullity is None else n - nullity
    V = np.hstack([Vh[r:].T, Vh[:r].T])
    return V, n - r


def _diag2(X, Y):
    out = np.zeros((X.shape[0] + Y.shape[0], X.shape[1] + Y.shape[1]))
    out[: X.shape[0], : X.shape[1]] = X
    out[X.shape[0] :, X.shape[1] :] = Y
    return out


@dataclass
class GschurResult:
    """Ordered generalized real Schur decomposition of a regular pencil.

    ``Q.T @ A @ Z = S`` (quasi-upper-triangular) and ``Q.T @ B @ Z = T``
    (upper-triangular, nonnegative diagonal).  ``eigenvalues`` holds
    ``(alpha, beta)`` pairs per position; the generalized eigenvalue is
    ``alpha/beta`` with ``beta = 0`` marking an infinite one.  The first
    ``selected_count`` positions satisfy the ordering predicate.
    """

    S: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    eigenvalues: list
    selected_count: int


def _quasi_blocks(S):
    """Positions (start, size) of the 1x1 / 2x2 diagonal blocks of S."""
    blocks, i, n = [], 0, S.shape[0]
    while i < n:
        blocks.append((i, 2 if i + 1 < n and S[i + 1, i] != 0.0 else 1))
        i += blocks[-1][1]
    return blocks


def _block_eigenvalues(S, T, blocks):
    # standardized 2x2 blocks carry finite conjugate pairs: one batched
    # eigenvalue call on the stacked T_b^-1 S_b, positive imaginary part first
    sel = np.array([start for start, size in blocks if size == 2], dtype=int)[:, None] + np.arange(2)
    rows, cols = sel[:, :, None], sel[:, None, :]
    vals = np.linalg.eigvals(np.linalg.solve(T[rows, cols], S[rows, cols]))
    pairs = iter(np.take_along_axis(vals, np.argsort(-vals.imag, axis=1), axis=1).tolist())
    eigs = []
    for start, size in blocks:
        if size == 1:
            eigs.append((complex(S[start, start]), float(T[start, start])))
        else:
            eigs.extend((complex(v), 1.0) for v in next(pairs))
    return eigs


# golden-ratio fraction: its multiples mod 1 spread the probe angles evenly
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _ring_points(A, B, count):
    """The first ``count`` points of the fixed probe sequence of the pencil
    ``A - lam*B``.

    The points lie off the real axis on a circle of radius
    ``1 + min(||A||_F / ||B||_F, 1e6)`` (radius 2 when ``B = 0``); the k-th
    has angle ``0.15 + (pi - 0.3) * frac((k + 1) * golden)``, with the sign
    alternating from point to point.
    """
    nb = np.linalg.norm(B)
    radius = 1.0 + (min(np.linalg.norm(A) / max(nb, 1e-12), 1e6) if nb > 0 else 1.0)
    k = np.arange(count)
    theta = 0.15 + (np.pi - 0.3) * ((k + 1) * _GOLDEN % 1.0)
    return list(radius * np.exp(1j * np.where(k % 2, -theta, theta)))


def _probe_rank(M, N, tol=None) -> int:
    """Normal rank of the pencil ``M - lam*N``: the largest
    ``rank_tol(M - lam*N, tol)`` over three fixed probe points, stopping
    early at full rank ``min(M.shape)``."""
    full, best = min(M.shape), 0
    for lam in _ring_points(M, N, 3):
        if best == full:
            break
        best = max(best, rank_tol(M - lam * N, tol))
    return best


def gschur_ordered(A, B, select: Callable | None = None) -> GschurResult:
    """Ordered generalized real Schur form of the regular pencil ``A - lam*B``.

    Parameters
    ----------
    A, B : ndarray
        Square real matrices of the same order.
    select : callable, optional
        Predicate ``select(alpha, beta) -> bool`` over generalized eigenvalue
        representations.  Selected eigenvalues are moved to the leading
        positions.  Within a complex-conjugate 2x2 block the pair moves
        together (selected if either member is).

    Raises
    ------
    SingularPencil
        If ``A - lam*B`` is rank deficient at every regularity probe point.
    IterationFailure
        If the QZ iteration or the reordering does not converge.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"pencil blocks must be square and equal-sized, got {A.shape} and {B.shape}")
    if n == 0:
        return GschurResult(A.copy(), B.copy(), np.eye(0), np.eye(0), [], 0)
    if _probe_rank(A, B) < n:
        raise SingularPencil("pencil A - lambda*B is numerically singular")

    try:
        if select is None:
            S, T, Q, Z = sla.qz(A, B, output="real")
        else:
            def _sort(alpha, beta):
                alpha = np.atleast_1d(alpha)
                beta = np.atleast_1d(beta)
                return np.array([bool(select(complex(a), float(abs(b)))) for a, b in zip(alpha, beta)])

            S, T, _, _, Q, Z = sla.ordqz(A, B, sort=_sort, output="real")
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError) as exc:
        raise IterationFailure(f"QZ iteration failed: {exc}") from None

    # normalize: nonnegative diagonal of T on 1x1 blocks
    blocks = _quasi_blocks(S)
    for start, size in blocks:
        if size == 1 and T[start, start] < 0.0:
            S[start, :] = -S[start, :]
            T[start, :] = -T[start, :]
            Q[:, start] = -Q[:, start]

    eigs = _block_eigenvalues(S, T, blocks)

    selected = 0
    if select is not None:
        # a block is selected if either eigenvalue is; the selected ones lead
        flags = [any(select(a, b) for a, b in eigs[start : start + size]) for start, size in blocks]
        if flags != sorted(flags, reverse=True):
            raise IterationFailure("eigenvalue reordering produced an inconsistent leading block")
        selected = sum(size for (_, size), f in zip(blocks, flags) if f)

    return GschurResult(S, T, Q, Z, eigs, selected)


def _schur_ordered(A, select: Callable | None = None):
    """Real Schur form ``Z.T @ A @ Z = T`` by one ``scipy.linalg.schur`` call:
    ``(T, Z, eigenvalues, k)``, the eigenvalues read off the standardized
    quasi-diagonal, the first ``k`` satisfying ``select(lam)`` (a conjugate
    pair moves together).  A failed iteration or reordering raises
    ``IterationFailure``."""
    sort = None if select is None else (lambda re, im: bool(select(complex(re, im))))
    try:
        T, Z, *k = sla.schur(A, output="real", sort=sort)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise IterationFailure(f"Schur reordering failed: {exc}") from None
    eigs = []
    for i, size in _quasi_blocks(T):
        w = 0.0 if size == 1 else np.sqrt(abs(T[i, i + 1])) * np.sqrt(abs(T[i + 1, i]))
        eigs += [complex(T[i, i], w), complex(T[i, i], -w)][:size]
    return T, Z, eigs, k[0] if k else 0


def gsylv_separation(A11, A12, A22, E11, E12, E22):
    """Solve the block-decoupling generalized Sylvester system.

    Returns ``(L, R)`` with ``A11 @ R - L @ A22 = -A12`` and
    ``E11 @ R - L @ E22 = -E12``.  Requires the spectra of the pencils
    ``(A11, E11)`` and ``(A22, E22)`` to be disjoint; either may hold
    infinite eigenvalues (a nilpotent ``E11``).

    Each diagonal pencil is brought to real generalized Schur form by QZ and
    the transformed system is solved by LAPACK ``dtgsyl`` (Kagstrom &
    Poromaa, 1996): O(n1^3 + n2^3 + n1 n2 (n1 + n2)) work, O(n1 n2) memory.
    ``SpectraNotDisjoint`` is raised when ``dtgsyl`` reports common or close
    eigenvalues or the residual check fails; ``IterationFailure`` when a QZ
    iteration fails.
    """
    A11 = as_matrix(A11, "A11")
    A22 = as_matrix(A22, "A22")
    A12 = as_matrix(A12, "A12")
    E11 = as_matrix(E11, "E11")
    E22 = as_matrix(E22, "E22")
    E12 = as_matrix(E12, "E12")
    n1 = A11.shape[0]
    n2 = A22.shape[0]
    if A11.shape != (n1, n1) or E11.shape != (n1, n1):
        raise DimensionMismatch("leading blocks must be square and equal-sized")
    if A22.shape != (n2, n2) or E22.shape != (n2, n2):
        raise DimensionMismatch("trailing blocks must be square and equal-sized")
    if A12.shape != (n1, n2) or E12.shape != (n1, n2):
        raise DimensionMismatch("coupling blocks must be n1 x n2")
    if n1 == 0 or n2 == 0:
        return np.zeros((n1, n2)), np.zeros((n1, n2))

    try:
        S1, T1, Q1, Z1 = sla.qz(A11, E11, output="real")
        S2, T2, Q2, Z2 = sla.qz(A22, E22, output="real")
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError) as exc:
        raise IterationFailure(f"QZ iteration failed: {exc}") from None
    # in the Schur bases: S1 R~ - L~ S2 = -Q1^T A12 Z2, T1 R~ - L~ T2 = -Q1^T E12 Z2
    Rt, Lt, scl, _, info = sla.lapack.dtgsyl(S1, S2, -Q1.T @ A12 @ Z2, T1, T2, -Q1.T @ E12 @ Z2)
    if info != 0 or scl == 0.0:
        raise SpectraNotDisjoint("generalized Sylvester system is singular")
    R = Z1 @ Rt @ Z2.T / scl
    L = Q1 @ Lt @ Q2.T / scl
    return _checked_decoupling(L, R, [A11 @ R - L @ A22 + A12, E11 @ R - L @ E22 + E12], [A11, A12, A22, E11, E12, E22])


def _checked_decoupling(L, R, residuals, blocks):
    """``(L, R)`` if ``max ||residual|| <= RESIDUAL_TOL (1 + max ||block||) (1 + ||R|| + ||L||)``."""
    res = max(np.linalg.norm(X) for X in residuals)
    scale = 1.0 + max(np.linalg.norm(M) for M in blocks)
    if not np.isfinite(res) or res > RESIDUAL_TOL * scale * (1.0 + np.linalg.norm(R) + np.linalg.norm(L)):
        raise SpectraNotDisjoint("block-decoupling equations are numerically singular")
    return L, R


def _sylv_quasi(T11, T12, T22):
    """``R`` with ``T11 @ R - R @ T22 = -T12`` for quasi-triangular ``T11``,
    ``T22`` of disjoint spectra: :func:`gsylv_separation` at ``E = I``, where
    ``L = R``, by LAPACK ``dtrsyl`` and checked by :func:`_checked_decoupling`."""
    if T12.size == 0:
        return np.zeros(T12.shape)
    R, scl, info = sla.lapack.dtrsyl(T11, T22, -T12, isgn=-1)
    if info != 0 or scl == 0.0:
        raise SpectraNotDisjoint("Sylvester equation is singular")
    R /= scl
    return _checked_decoupling(R, R, [T11 @ R - R @ T22 + T12], [T11, T12, T22])[1]


def _domain_kind(domain) -> str:
    kind = getattr(domain, "value", domain)
    if kind not in ("continuous", "discrete"):
        raise ValueError(f"unknown time domain {domain!r}")
    return kind


def glyap(A, E, W, domain) -> np.ndarray:
    """Solve the generalized Lyapunov equation for a stable pair ``(A, E)``.

    Continuous:  ``A X E^T + E X A^T + W = 0``.
    Discrete:    ``A X A^T - E X E^T + W = 0``.

    ``W`` must be symmetric; the stable region is the open left half-plane or
    the open unit disk according to ``domain``.  The QZ form
    ``Q^T (A, E) Z = (S, T)`` standardizes the pair (Penzl, 1998): the
    standard equation in ``M = T^-1 S`` and ``T^-1 Q^T W Q T^-T`` goes to
    :func:`_stable_lyap`, which decides the finite eigenvalues, and its
    solution ``Y`` gives ``X = Z Y Z^T``.  A QZ beta at most
    ``stair_tol(None, n, E)`` is an infinite, hence unstable, eigenvalue.
    """
    A, E, W = as_matrix(A, "A"), as_matrix(E, "E"), as_matrix(W, "W")
    kind, n = _domain_kind(domain), A.shape[0]
    if A.shape != (n, n) or E.shape != (n, n) or W.shape != (n, n):
        raise DimensionMismatch("glyap blocks must be square of equal order")
    if np.linalg.norm(W - W.T) > 1e-8 * (1.0 + np.linalg.norm(W)):
        raise ValueError("W must be symmetric")
    W = 0.5 * (W + W.T)

    qz = gschur_ordered(A, E)
    if any(beta <= stair_tol(None, n, E) for _, beta in qz.eigenvalues):
        raise UnstablePair("pencil has an infinite eigenvalue")
    M = sla.solve_triangular(qz.T, qz.S)
    Wt = sla.solve_triangular(qz.T, sla.solve_triangular(qz.T, qz.Q.T @ W @ qz.Q).T)
    Y = _stable_lyap(M, Wt, kind, UnstablePair)
    X = qz.Z @ Y @ qz.Z.T
    return _checked_lyap(A, E, 0.5 * (X + X.T), W, kind)


def _stable_lyap(M, W, domain, unstable) -> np.ndarray:
    """``X`` with ``M X + X M^T + W = 0`` (continuous) or ``M X M^T - X + W = 0``
    (discrete) for a symmetric ``W``.  One real Schur form ``M = Z T Z^T``
    decides stability, raising ``unstable`` at ``Re lam >= -b`` or ``|lam| >= 1 - b``
    (``b = BOUNDARY_TOL (1 + |lam|)``), and LAPACK ``dtrsyl`` solves ``T Y + Y T^T =
    -Z^T W Z``, in discrete time after the Cayley map ``T -> I - 2 (T + I)^-1``;
    ``X = Z Y Z^T`` is checked by :func:`_checked_lyap`."""
    kind, n = _domain_kind(domain), M.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    T, Z, eigs, _ = _schur_ordered(M)
    for lam in eigs:
        margin = BOUNDARY_TOL * (1.0 + abs(lam))
        if kind == "continuous" and lam.real >= -margin:
            raise unstable(f"eigenvalue {lam} not in the open left half-plane, off its boundary")
        if kind == "discrete" and abs(lam) >= 1.0 - margin:
            raise unstable(f"eigenvalue {lam} not in the open unit disk, off its boundary")
    S, Wt = T, -Z.T @ W @ Z
    if kind == "discrete":
        # (T + I)^-1 has T's quasi-triangular blocks, and dtrsyl reads them
        # off the subdiagonal: zero what roundoff left below them
        P = np.linalg.inv(T + np.eye(n))
        P[np.tril(T == 0.0, -1)] = 0.0
        S, Wt = np.eye(n) - 2.0 * P, 2.0 * P @ Wt @ P.T
    Y, scl, _ = sla.lapack.dtrsyl(S, S, Wt, tranb="T")
    X = Z @ (Y / scl) @ Z.T
    return _checked_lyap(M, np.eye(n), 0.5 * (X + X.T), W, kind)


def _checked_lyap(A, E, X, W, kind):
    """``X`` if its Lyapunov residual in ``(A, E, W)`` is at most
    ``LYAP_RESIDUAL_TOL (1 + ||W|| + (||A|| + ||E||)^2 ||X||)``."""
    if kind == "continuous":
        res = np.linalg.norm(A @ X @ E.T + E @ X @ A.T + W)
    else:
        res = np.linalg.norm(A @ X @ A.T - E @ X @ E.T + W)
    scale = 1.0 + np.linalg.norm(W) + (np.linalg.norm(A) + np.linalg.norm(E)) ** 2 * np.linalg.norm(X)
    if not np.isfinite(res) or res > LYAP_RESIDUAL_TOL * scale:
        raise IterationFailure("Lyapunov residual too large")
    return X
