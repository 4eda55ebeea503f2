"""Dense real linear-algebra kernels.

Tolerance-based rank decisions, orthonormal nullspace bases, the ordered
generalized real Schur decomposition, the generalized Sylvester solver of
block decoupling (LAPACK ``dtgsyl`` on the QZ forms) and a small-scale
generalized Lyapunov solver.  Everything downstream is built on these
primitives.
"""

from __future__ import annotations

import contextvars
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

# Default seed for probe-point generators; reseedable through
# :func:`dstk.set_probe_seed` so that command-line runs are reproducible.
# The seed lives in a context variable, so each thread and each asyncio task
# sees its own value.
_DEFAULT_PROBE_SEED = 1905
_probe_seed = contextvars.ContextVar("dstk_probe_seed", default=_DEFAULT_PROBE_SEED)


def set_probe_seed(seed=None):
    """Set the default seed used by all probabilistic rank/regularity probes.

    ``None`` restores the built-in fixed seed.  Probe-based routines create a
    fresh generator per call, so results stay reproducible and independent of
    call order.  The setting holds for the current thread or asyncio task
    only; the returned :class:`contextvars.Token` can restore the previous
    value.
    """
    return _probe_seed.set(_DEFAULT_PROBE_SEED if seed is None else int(seed))


def get_probe_seed() -> int:
    return _probe_seed.get()


def probe_rng(rng=None) -> np.random.Generator:
    """Return ``rng`` if given, else a generator seeded with the probe seed."""
    if rng is None:
        return np.random.default_rng(_probe_seed.get())
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


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


def _svd_rank(s, shape, tol=None) -> int:
    """Number of singular values ``s`` (descending) above ``tol``.

    The default tolerance is ``max(shape) * eps * s[0]`` for a matrix of the
    given shape.
    """
    if tol is None:
        tol = max(shape) * EPS * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > tol))


def rank_tol(M, tol=None) -> int:
    """Numerical rank: number of singular values above the tolerance.

    The effective tolerance is ``tol`` when given, otherwise
    ``max(rows, cols) * eps * sigma_max``.  Empty matrices have rank 0.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return _svd_rank(np.linalg.svd(M, compute_uv=False), M.shape, tol)


def null_basis(M, tol=None) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``M``.

    Columns are orthonormal and satisfy ``M @ basis ~ 0``; the column count
    equals ``cols - rank_tol(M, tol)``.
    """
    M = np.asarray(M, dtype=M.dtype if np.iscomplexobj(M) else float)
    m, n = M.shape if M.ndim == 2 else (1, M.size)
    M = M.reshape(m, n)
    if n == 0:
        return np.zeros((0, 0))
    if m == 0 or not M.any():
        return np.eye(n)
    U, s, Vh = np.linalg.svd(M, full_matrices=True)
    return Vh[_svd_rank(s, M.shape, tol) :].conj().T


def _row_compress(M, tol_abs, rank=None):
    """Orthogonal U with ``U.T @ M = [full-row-rank; 0]``; returns (U, rank).

    A given ``rank`` prescribes the split instead of deciding it against
    ``tol_abs``.
    """
    m = M.shape[0]
    if M.size == 0:
        return np.eye(m), 0
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    return U, _svd_rank(s, M.shape, tol_abs) if rank is None else rank


def _col_compress_null_first(M, tol_abs, nullity=None):
    """Orthogonal V with ``M @ V = [~0 | full-column-rank]``; returns (V, nullity).

    A given ``nullity`` prescribes the split instead of deciding it against
    ``tol_abs``.
    """
    m, n = M.shape
    if n == 0:
        return np.eye(0), 0
    if m == 0 or not M.any():
        return np.eye(n), n if nullity is None else nullity
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
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
    n = S.shape[0]
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and S[i + 1, i] != 0.0:
            blocks.append((i, 2))
            i += 2
        else:
            blocks.append((i, 1))
            i += 1
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


def _ring_points(A, B, rng, count):
    """Random complex probe points for the pencil ``A - lam*B``, off the real
    axis on a circle of radius ``1 + min(||A||_F / ||B||_F, 1e6)`` (radius 2
    when ``B = 0``)."""
    nb = np.linalg.norm(B)
    radius = 1.0 + (min(np.linalg.norm(A) / max(nb, 1e-12), 1e6) if nb > 0 else 1.0)
    pts = []
    for _ in range(count):
        theta = rng.uniform(0.15, np.pi - 0.15)
        if rng.uniform() < 0.5:
            theta = -theta
        pts.append(radius * np.exp(1j * theta))
    return pts


def pencil_regular_probe(A, B, rng=None) -> bool:
    """Probabilistic regularity test: full rank of A - lam*B at random shifts."""
    n = A.shape[0]
    if n == 0:
        return True
    for lam in _ring_points(A, B, probe_rng(rng), 3):
        if rank_tol(A - lam * B) == n:
            return True
    return False


def gschur_ordered(A, B, select: Callable | None = None, rng=None) -> GschurResult:
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
    rng : generator or int, optional
        Source for the regularity probe points.

    Raises
    ------
    SingularPencil
        If the random-shift regularity probe fails.
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
    if not pencil_regular_probe(A, B, rng):
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
        flags = []
        pos = 0
        for start, size in blocks:
            vals = eigs[pos : pos + size]
            flags.append(any(select(a, b) for a, b in vals))
            pos += size
        run = True
        for (start, size), f in zip(blocks, flags):
            if f and not run:
                raise IterationFailure("eigenvalue reordering produced an inconsistent leading block")
            if not f:
                run = False
            else:
                selected += size

    return GschurResult(S, T, Q, Z, eigs, selected)


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
    scale = 1.0 + max(np.linalg.norm(M) for M in (A11, A12, A22, E11, E12, E22))
    res = max(
        np.linalg.norm(A11 @ R - L @ A22 + A12),
        np.linalg.norm(E11 @ R - L @ E22 + E12),
    )
    if not np.isfinite(res) or res > 1e-6 * scale * (1.0 + np.linalg.norm(R) + np.linalg.norm(L)):
        raise SpectraNotDisjoint("generalized Sylvester system is numerically singular")
    return L, R


def _domain_kind(domain) -> str:
    kind = getattr(domain, "value", domain)
    if kind not in ("continuous", "discrete"):
        raise ValueError(f"unknown time domain {domain!r}")
    return kind


def finite_beta_threshold(E) -> float:
    """Threshold under which a QZ beta is treated as an infinite eigenvalue."""
    E = np.asarray(E, dtype=float)
    scale = np.linalg.norm(E, 2) if E.size else 0.0
    return default_tol(E.shape[0], scale + 1e-300)


def glyap(A, E, W, domain) -> np.ndarray:
    """Solve the generalized Lyapunov equation for a stable pair ``(A, E)``.

    Continuous:  ``A X E^T + E X A^T + W = 0``.
    Discrete:    ``A X A^T - E X E^T + W = 0``.

    ``W`` must be symmetric; the stable region is the open left half-plane or
    the open unit disk according to ``domain``.
    """
    A = as_matrix(A, "A")
    E = as_matrix(E, "E")
    W = as_matrix(W, "W")
    kind = _domain_kind(domain)
    n = A.shape[0]
    if A.shape != (n, n) or E.shape != (n, n) or W.shape != (n, n):
        raise DimensionMismatch("glyap blocks must be square of equal order")
    if n == 0:
        return np.zeros((0, 0))
    wscale = np.linalg.norm(W)
    if np.linalg.norm(W - W.T) > 1e-8 * (1.0 + wscale):
        raise ValueError("W must be symmetric")
    W = 0.5 * (W + W.T)

    beta_tol = finite_beta_threshold(E)
    for alpha, beta in gschur_ordered(A, E).eigenvalues:
        if beta <= beta_tol:
            raise UnstablePair("pencil has an infinite eigenvalue")
        lam = alpha / beta
        if kind == "continuous":
            if lam.real >= 0.0:
                raise UnstablePair(f"eigenvalue {lam} not in the open left half-plane")
        else:
            if abs(lam) >= 1.0:
                raise UnstablePair(f"eigenvalue {lam} not in the open unit disk")

    if kind == "continuous":
        K = np.kron(A, E) + np.kron(E, A)
    else:
        K = np.kron(A, A) - np.kron(E, E)
    try:
        x = np.linalg.solve(K, -W.ravel())
    except np.linalg.LinAlgError:
        raise UnstablePair("Lyapunov operator is numerically singular") from None
    X = x.reshape(n, n)
    X = 0.5 * (X + X.T)
    if kind == "continuous":
        res = np.linalg.norm(A @ X @ E.T + E @ X @ A.T + W)
    else:
        res = np.linalg.norm(A @ X @ A.T - E @ X @ E.T + W)
    scale = 1.0 + wscale + (np.linalg.norm(A) + np.linalg.norm(E)) ** 2 * np.linalg.norm(X)
    if not np.isfinite(res) or res > 1e-7 * scale:
        raise IterationFailure("Lyapunov residual too large")
    return X
