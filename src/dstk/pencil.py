"""Orthogonal staircase (Kronecker-like) reduction of matrix pencils.

For an arbitrary real pencil ``M - lambda*N`` the reduction produces
orthogonal ``U, V`` with ``U (M - lambda N) V`` block upper triangular:
a leading full-row-rank block carrying the right singular (minimal index)
structure, a middle regular block carrying the infinite and finite
eigenvalue structure, and a trailing full-column-rank block carrying the
left singular structure.  A regular pencil needs one deflation pass, and
finite eigenvalues come from a QZ without Schur vectors.  Canonical
(Weierstrass/Kronecker) transformation matrices are never formed, since
they would require ill-conditioned non-orthogonal transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .exceptions import DimensionMismatch, IterationFailure, SingularPencil
from .kernels import (
    _col_compress_null_first,
    _probe_rank,
    _require_regular,
    _row_compress,
    _svd,
    _svd_rank,
    as_matrix,
    stair_tol,
)

__all__ = [
    "KroneckerStructure",
    "WeierstrassStructure",
    "klf",
    "weierstrass_structure",
    "pencil_normal_rank",
]


@dataclass
class KroneckerStructure:
    """Structural counts of a pencil: minimal indices and eigenvalue structure.

    ``nr = sum(right_indices)``, ``nl = sum(left_indices)`` and
    ``nreg = len(finite_eigenvalues) + sum(infinite_divisor_degrees)``; the
    normal rank of the pencil is ``nr + nreg + nl``.
    """

    right_indices: list = field(default_factory=list)
    left_indices: list = field(default_factory=list)
    finite_eigenvalues: list = field(default_factory=list)
    infinite_divisor_degrees: list = field(default_factory=list)

    @property
    def nr(self) -> int:
        return int(sum(self.right_indices))

    @property
    def nl(self) -> int:
        return int(sum(self.left_indices))

    @property
    def nreg(self) -> int:
        return len(self.finite_eigenvalues) + int(sum(self.infinite_divisor_degrees))

    @property
    def normal_rank(self) -> int:
        return self.nr + self.nreg + self.nl


@dataclass
class WeierstrassStructure:
    """Eigenvalue structure of a regular pencil: finite eigenvalues with
    multiplicity plus infinite elementary-divisor degrees."""

    finite_eigenvalues: list
    infinite_divisor_degrees: list

    @property
    def nf(self) -> int:
        return len(self.finite_eigenvalues)

    @property
    def ninf(self) -> int:
        return int(sum(self.infinite_divisor_degrees))


def _deflate(M, N, tol_abs):
    """Peel the column-nullity staircase of ``N`` off the pencil front.

    Returns ``(M2, N2, L, R, mus, nus)`` with ``M2 = L @ M @ R`` and
    ``N2 = L @ N @ R`` block upper triangular; the trailing block (rows
    ``sum(nus):``, cols ``sum(mus):``) has an ``N`` part of full column rank.
    The peeled stairs carry the right-singular and infinite structure of the
    pencil: ``mus[k] - nus[k]`` blocks of right minimal index ``k`` and
    ``nus[k] - mus[k+1]`` infinite divisors of degree ``k + 1``.  Every stair
    is cut where it is compressed, at the absolute ``tol_abs``.
    """
    m, n = M.shape
    L = np.eye(m)
    R = np.eye(n)
    M = M.copy()
    N = N.copy()
    ro = co = 0
    mus, nus = [], []
    while n - co > 0:
        V1, mu = _col_compress_null_first(N[ro:, co:], tol_abs)
        if mu == 0:
            break
        M[:, co:] = M[:, co:] @ V1
        N[:, co:] = N[:, co:] @ V1
        R[:, co:] = R[:, co:] @ V1
        N[ro:, co : co + mu] = 0.0
        U1, nu = _row_compress(M[ro:, co : co + mu], tol_abs)
        M[ro:, :] = U1.T @ M[ro:, :]
        N[ro:, :] = U1.T @ N[ro:, :]
        L[ro:, :] = U1.T @ L[ro:, :]
        M[ro + nu :, co : co + mu] = 0.0
        mus.append(mu)
        nus.append(nu)
        ro += nu
        co += mu
    return M, N, L, R, mus, nus


def _stair_counts(mus, nus):
    """(right minimal indices, infinite divisor degrees) from stair sizes."""
    right = []
    divisors = []
    K = len(mus)
    for k in range(K):
        right.extend([k] * (mus[k] - nus[k]))
        nxt = mus[k + 1] if k + 1 < K else 0
        divisors.extend([k + 1] * (nus[k] - nxt))
    return right, divisors


def _finite_eigenvalues(M, N):
    """Eigenvalues of a deflated block ``M - lambda*N`` with invertible ``N``."""
    try:
        alpha, beta = sla.eigvals(M, N, homogeneous_eigvals=True)
    except np.linalg.LinAlgError as exc:
        raise IterationFailure(f"QZ iteration failed: {exc}") from None
    if np.any(beta == 0.0):
        raise IterationFailure("infinite eigenvalue leaked into the finite block")
    z = alpha / beta
    # the two members of a complex pair get separate betas: pair them exactly
    lead = np.flatnonzero(alpha.imag > 0.0)
    z[lead + 1] = z[lead].conj()
    return [complex(v) for v in z]


def _regular_deflate(M, N, tol_abs):
    """One deflation pass on a regular square pencil: ``(Mk, Nk, U, V, divisors)``, infinite
    structure leading, trailing ``Nk`` invertible.  Regularity was judged by :func:`_require_regular`
    or by construction, and a square pencil without right minimal indices has no left ones, so a
    right index found here is a misjudged staircase: :class:`IterationFailure`.  One absolute cut,
    ``tol_abs``, decides both steps: ``N`` is invertible, and the pencil comes back unchanged, when
    all its singular values exceed it (no singular vectors needed); else the staircase cuts there."""
    n = N.shape[0]
    if _svd_rank(_svd(N, vectors=False), N.shape, tol_abs) == n:
        return M.copy(), N.copy(), np.eye(n), np.eye(n), []
    Mk, Nk, U, V, mus, nus = _deflate(M, N, tol_abs)
    right, divisors = _stair_counts(mus, nus)
    if right:
        raise IterationFailure("the staircase found minimal indices in a regular pencil")
    return Mk, Nk, U, V, divisors


def klf(M, N, tol=None):
    """Kronecker-like staircase form of the pencil ``M - lambda*N``.

    Returns ``(Mk, Nk, U, V, ks)`` with orthogonal ``U, V`` such that
    ``U @ (M - lambda N) @ V = Mk - lambda Nk`` is block upper triangular:
    leading right-singular stairs, then the regular part (infinite structure
    followed by the finite block, whose eigenvalues come from a QZ without
    Schur vectors), then trailing left-singular stairs.  ``ks`` collects the
    structural counts.  Each of the three passes cuts its own stairs at
    ``stair_tol(tol, max(M.shape), M, N)``; a second pass that does not find
    the first pass's right indices raises :class:`IterationFailure`.

    Regular pencils yield empty index lists; a square pencil without right
    indices is regular, so it skips the third pass.
    """
    M = as_matrix(M, "M")
    N = as_matrix(N, "N")
    if M.shape != N.shape:
        raise DimensionMismatch(f"M and N must have equal shapes, got {M.shape} and {N.shape}")
    m, n = M.shape
    tol_abs = stair_tol(tol, max(M.shape), M, N)

    # pass 1: right singular + infinite structure to the front
    Mk, Nk, L, R, mus1, nus1 = _deflate(M, N, tol_abs)
    ro1, co1 = int(sum(nus1)), int(sum(mus1))
    right, divisors = _stair_counts(mus1, nus1)

    # pass 2: within the leading block, order [right stairs | infinite block]
    # by deflating the role-swapped pencil (which has no infinite structure);
    # it cuts its own stairs at the same tol_abs, and must find pass 1's
    # right indices and no infinite divisor
    if ro1 and right:
        Na2, Ma2, L2, R2, mus2, nus2 = _deflate(Nk[:ro1, :co1], Mk[:ro1, :co1], tol_abs)
        right2, div2 = _stair_counts(mus2, nus2)
        if div2 or sorted(right2) != sorted(right):
            raise IterationFailure("inconsistent staircase ranks while separating the right singular part")
        Mk[:ro1, :co1] = Ma2
        Nk[:ro1, :co1] = Na2
        Mk[:ro1, co1:] = L2 @ Mk[:ro1, co1:]
        Nk[:ro1, co1:] = L2 @ Nk[:ro1, co1:]
        L[:ro1, :] = L2 @ L[:ro1, :]
        R[:, :co1] = R[:, :co1] @ R2

    n_inf = int(sum(divisors))
    if ro1 != int(sum(right)) + n_inf or co1 != ro1 + len(right):
        raise IterationFailure("staircase dimension bookkeeping failed")

    # pass 3: trailing block via its transpose, peeling the left structure
    mf, nf_ = m - ro1, n - co1
    left = []
    if mf and nf_ and (right or m != n):
        Mt, Nt, L3, R3, mus3, nus3 = _deflate(Mk[ro1:, co1:].T, Nk[ro1:, co1:].T, tol_abs)
        left, div3 = _stair_counts(mus3, nus3)
        if div3:
            raise IterationFailure("inconsistent staircase ranks while separating the left singular part")
        if left:
            # transpose back and reverse so the left stairs trail; the
            # reversed factors are copied so that they multiply through BLAS
            left_l = np.ascontiguousarray(R3.T[::-1])
            right_r = np.ascontiguousarray(L3.T[:, ::-1])
            Mk[ro1:, co1:] = Mt.T[::-1, ::-1]
            Nk[ro1:, co1:] = Nt.T[::-1, ::-1]
            Mk[:ro1, co1:] = Mk[:ro1, co1:] @ right_r
            Nk[:ro1, co1:] = Nk[:ro1, co1:] @ right_r
            L[ro1:, :] = left_l @ L[ro1:, :]
            R[:, co1:] = R[:, co1:] @ right_r
    elif mf and not nf_:
        left = [0] * mf

    nl = int(sum(left))
    n_fin = mf - nl - len(left)
    if n_fin != nf_ - nl:
        raise IterationFailure("staircase dimension bookkeeping failed")

    sl, cl = slice(ro1, ro1 + n_fin), slice(co1, co1 + n_fin)
    finite = _finite_eigenvalues(Mk[sl, cl], Nk[sl, cl])

    ks = KroneckerStructure(
        right_indices=sorted(right),
        left_indices=sorted(left),
        finite_eigenvalues=finite,
        infinite_divisor_degrees=sorted(divisors),
    )
    return Mk, Nk, L, R, ks


def weierstrass_structure(A, E, tol=None) -> WeierstrassStructure:
    """Finite eigenvalues and infinite divisor degrees of a regular pencil.

    As in ``make_system``, an LU of ``A - lam*E`` must clear ``eval_tfm``'s cut at a probe point,
    else :class:`SingularPencil` is raised.  One deflation pass, cut at ``stair_tol(tol, n, A, E)``,
    gives the infinite structure; the finite eigenvalues come from the deflated trailing block, so
    no eigenvalue ever has to be classified by the size of a QZ beta.
    """
    A = as_matrix(A, "A")
    E = as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("regular pencil blocks must be square and equal-sized")
    _require_regular(A, E, SingularPencil)
    Mk, Nk, _, _, divisors = _regular_deflate(A, E, stair_tol(tol, A.shape[0], A, E))
    k = int(sum(divisors))
    return WeierstrassStructure(_finite_eigenvalues(Mk[k:, k:], Nk[k:, k:]), divisors)


def pencil_normal_rank(M, N) -> int:
    """Normal rank: the largest rank of ``M - lam N`` at three fixed probe
    points."""
    M = as_matrix(M, "M")
    N = as_matrix(N, "N")
    if M.shape != N.shape:
        raise DimensionMismatch("M and N must have equal shapes")
    return _probe_rank(M, N)
