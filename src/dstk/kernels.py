"""Dense real linear-algebra kernels.

Tolerance-based rank decisions and orthonormal nullspace bases, all from one SVD
entry point (``_svd``: one LAPACK ``gesdd`` call), then Schur forms and the
equations solved on them: one real Schur form and LAPACK ``dtrsyl`` for the
block decoupling and the Lyapunov equation of a standard block (Bartels &
Stewart, 1972), and the QZ form and ``dtgsyl`` for general pencils.  Every QZ
but ``pencil``'s bare eigenvalues (LAPACK ``ggev``) is one ``dgges`` call
(``_gges``) that sorts only given a selector and forms left Schur vectors only
on request.  The Lyapunov core (``_lyap_quasi``) takes its caller's
quasi-triangular form and eigenvalues, so no form is reduced twice; each caller
accepts its equation by the one residual rule, ``_accepted``.  A square matrix or
pencil is judged by one LU (``_lu_solve``) whose ``gecon`` reciprocal condition
decides it singular: a solve (``_solve`` makes that a typed error), the probe points
(``_clear_points``) and regularity (``_require_regular``, the one source of
``SingularPencil``).  Point ranks (``rank_tol``, ``null_basis``, ``_probe_rank``) are
relative to ``sigma_max``; structural cuts (staircase, deflation, QZ beta) are
absolute, at ``stair_tol``.  One predicate, ``StabilityRegion.inside``, places eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .exceptions import (
    DimensionMismatch,
    IterationFailure,
    RegionInvalid,
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
RESIDUAL_TOL = 1e-3  # a Sylvester, Lyapunov or Riccati solve is accepted at |sum of its terms| <= RESIDUAL_TOL * sum |term|
BOUNDARY_TOL = 1e-8  # lam is inside a region only past BOUNDARY_TOL * (1 + |lam|) from its boundary, else on it
PROBE_RESIDUAL_TOL = 1e-7  # X solves G X = F where |G X - F| <= PROBE_RESIDUAL_TOL * (|G X| + |F|) at each probe point
INFINITE_EIG_TOL = 1e-8  # alpha/beta is infinite at |beta| <= INFINITE_EIG_TOL * (|alpha| + |beta|), zero at that |alpha|
FEEDTHROUGH_RCOND = 0.1  # a square D of full column rank takes the zero-dynamics path at sigma_min > FEEDTHROUGH_RCOND * sigma_max
DEFICIENCY_RCOND = 1e-10  # a weight (basis) is numerically deficient at eigenvalue (sigma) <= DEFICIENCY_RCOND * max(largest, 1)
SINGULAR_RCOND = 10.0 * EPS  # an order-n LU is numerically singular at reciprocal condition <= n * SINGULAR_RCOND
SYMMETRY_TOL = 1e-8  # W is symmetric at ||W - W^T|| <= SYMMETRY_TOL * (1 + ||W||)
REAL_TOL = 1e-10  # a computed eigenvalue v is real at |Im v| <= REAL_TOL * max(1, |v|)
FEEDTHROUGH_ZERO_TOL = 1e-10  # D vanishes at ||D|| <= FEEDTHROUGH_ZERO_TOL * (1 + ||B|| ||C||)
COEFF_TRIM_TOL = 1e-12  # a polynomial coefficient is zero at |c| <= COEFF_TRIM_TOL * the largest coefficient
SPECTRAL_RADIUS_FLOOR = 1e-6  # random_system rescales A by target / max(rho(A), SPECTRAL_RADIUS_FLOOR)
RING_RADIUS_CAP = 1e6  # the probe ring's radius is 1 + min(||A|| / ||B||, RING_RADIUS_CAP)
ORTH_TOL = EPS  # a Krylov staircase basis of k columns is re-orthonormalized past max |V^T V - I| = ORTH_TOL * k


@dataclass(frozen=True)
class StabilityRegion:
    """An open "good" region of the complex plane, symmetric about the real
    axis: a shifted half-plane ``Re z < alpha`` or a scaled disk ``|z| < rho``.
    Every decision by eigenvalue location asks :meth:`inside`, true past
    ``BOUNDARY_TOL * (1 + |z|)`` inside the boundary: a point in that band is
    :meth:`on_boundary`, in neither the region nor its complement."""

    kind: str  # "half-plane" | "disk"
    alpha: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("half-plane", "disk"):
            raise RegionInvalid(f"unknown region kind {self.kind!r}")
        if not (np.isfinite(self.alpha) and np.isfinite(self.rho)):
            raise RegionInvalid("region alpha and rho must be finite")
        if self.kind == "disk" and not self.rho > 0.0:
            raise RegionInvalid("disk radius must be positive")

    @staticmethod
    def left_half_plane() -> "StabilityRegion":
        return StabilityRegion("half-plane", alpha=0.0)

    @staticmethod
    def unit_disk() -> "StabilityRegion":
        return StabilityRegion("disk", rho=1.0)

    @staticmethod
    def half_plane(alpha: float) -> "StabilityRegion":
        return StabilityRegion("half-plane", alpha=float(alpha))

    @staticmethod
    def disk(rho: float) -> "StabilityRegion":
        return StabilityRegion("disk", rho=float(rho))

    @property
    def is_half_plane(self) -> bool:
        return self.kind == "half-plane"

    def _depth(self, z) -> float:
        """Signed distance of ``z`` to the boundary, positive inside."""
        return self.alpha - z.real if self.kind == "half-plane" else self.rho - abs(z)

    def contains(self, z) -> bool:
        return self._depth(complex(z)) > 0.0

    def inside(self, z) -> bool:
        z = complex(z)
        return self._depth(z) > BOUNDARY_TOL * (1.0 + abs(z))

    def boundary_distance(self, z) -> float:
        return abs(self._depth(complex(z)))

    def on_boundary(self, z) -> bool:
        z = complex(z)
        return abs(self._depth(z)) <= BOUNDARY_TOL * (1.0 + abs(z))

    def real_point(self) -> float:
        return self.alpha - 1.0 if self.kind == "half-plane" else 0.0

    def reflect(self, z) -> complex:
        """Default dislocation target of a point outside the region: its
        mirror image about ``Re z = alpha - 1/2`` (half-plane) or about
        ``|z| = rho/sqrt(2)``, i.e. ``rho**2 / (2 conj(z))`` (disk)."""
        z = complex(z)
        if self.kind == "half-plane":
            return complex(self.alpha - abs(z.real - self.alpha) - 1.0, z.imag)
        if z == 0:
            return complex(0.5 * self.rho)
        return 0.5 * self.rho**2 / z.conjugate()

    def boundary_points(self, count=20):
        """Sample points on the region boundary (for inner-factor checks)."""
        if self.kind == "half-plane":
            w = np.logspace(-3, 3, count)
            return [complex(self.alpha, wi) for wi in w]
        theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return [self.rho * np.exp(1j * t) for t in theta]


def _domain_kind(domain) -> str:
    kind = getattr(domain, "value", domain)
    if kind not in ("continuous", "discrete"):
        raise ValueError(f"unknown time domain {domain!r}")
    return kind


def stability_region(domain) -> StabilityRegion:
    """The stable region of a time domain: open left half-plane or unit disk."""
    return StabilityRegion.left_half_plane() if _domain_kind(domain) == "continuous" else StabilityRegion.unit_disk()


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
    """Number of singular values ``s`` (descending; any order given ``tol``) above ``tol``.

    The default tolerance is ``max(shape) * eps * s[0]`` for a matrix of the
    given shape; a given ``tol`` that is not a finite number >= 0 raises
    ``ValueError``.
    """
    if tol is None:
        tol = max(shape) * EPS * (s[0] if s.size else 0.0)
    elif not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return int(np.count_nonzero(s > tol))


def _svd(M, vectors=True, full=True):
    """``(U, s, Vh)`` of ``M``, full ``U`` and ``Vh`` or thin ones without
    ``full`` (``s`` alone without ``vectors``), from one LAPACK ``gesdd`` call,
    real or complex.  A failed iteration raises ``IterationFailure``."""
    if M.size == 0:
        k = None if full else 0
        return (np.eye(M.shape[0])[:, :k], np.zeros(0), np.eye(M.shape[1])[:k]) if vectors else np.zeros(0)
    U, s, Vh, info = sla.get_lapack_funcs("gesdd", (M,))(M, compute_uv=int(vectors), full_matrices=int(full))
    if info:
        raise IterationFailure(f"SVD did not converge (gesdd info {info})")
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


def _lu_solve(M, B, rcond=None):
    """``M^-1 B`` from one LU of the square ``M`` (LAPACK ``getrf`` and
    ``getrs``, real or complex); ``None`` when ``M`` is numerically singular:
    the reciprocal 1-norm condition of that same LU (``gecon``, against
    ``||M||_1``) is at most ``rcond``, by default ``n * SINGULAR_RCOND``."""
    rcond = M.shape[0] * SINGULAR_RCOND if rcond is None else rcond
    if not M.size:
        return np.zeros(B.shape, dtype=np.result_type(M, B))
    getrf, gecon, getrs = sla.get_lapack_funcs(("getrf", "gecon", "getrs"), (M, B))
    lu, piv, info = getrf(M)
    if info == 0:
        rc, info = gecon(lu, np.linalg.norm(M, 1))
    return getrs(lu, piv, B)[0] if info == 0 and rc > rcond else None


def _solve(M, B, exc, msg):
    """``M^-1 B`` by :func:`_lu_solve` at ``rcond = 0``, where ``gesv`` would
    fail; a singular ``M`` raises ``exc(msg)``."""
    X = _lu_solve(M, B, 0.0)
    if X is None:
        raise exc(msg)
    return X


def _row_compress(M, tol_abs):
    """Orthogonal U with ``U.T @ M = [full-row-rank; 0]``; returns (U, rank),
    the rank cut at ``tol_abs``."""
    U, s, _ = _svd(M)
    return U, _svd_rank(s, M.shape, tol_abs)


def _col_compress_null_first(M, tol_abs):
    """Orthogonal V with ``M @ V = [~0 | full-column-rank]``; returns (V, nullity),
    the rank cut at ``tol_abs``."""
    m, n = M.shape
    if m == 0 or not M.any():
        return np.eye(n), n
    _, s, Vh = _svd(M)
    r = _svd_rank(s, M.shape, tol_abs)
    return np.hstack([Vh[r:].T, Vh[:r].T]), n - r


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


# golden-ratio fraction: its multiples mod 1 spread the probe angles evenly
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _ring_points(A, B, count):
    """The first ``count`` points of the fixed probe sequence of the pencil
    ``A - lam*B``.

    The points lie off the real axis on a circle of radius ``1 + min(||A||_F / ||B||_F,
    RING_RADIUS_CAP)`` (radius 2 when ``B = 0``), unchanged by a common scale of ``A`` and
    ``B``; the k-th has angle ``0.15 + (pi - 0.3) * frac((k + 1) * golden)``, with the sign
    alternating from point to point.
    """
    nb = np.linalg.norm(B)
    radius = 1.0 + (min(np.linalg.norm(A) / nb, RING_RADIUS_CAP) if nb > 0 else 1.0)
    k = np.arange(count)
    theta = 0.15 + (np.pi - 0.3) * ((k + 1) * _GOLDEN % 1.0)
    return list(radius * np.exp(1j * np.where(k % 2, -theta, theta)))


def _clear_points(A, B, count=3):
    """Lazily, those of the first ``count`` probe points of the square pencil ``A - lam*B`` at
    which ``eval_tfm`` can evaluate it: its LU clears the default cut of :func:`_lu_solve`."""
    return (lam for lam in _ring_points(A, B, count) if _lu_solve(A - lam * B, A[:, :0]) is not None)


def _require_regular(A, B, exc, names=("A", "E"), what="pencil"):
    """Raise ``exc``, naming the cut and both 1-norms, unless the square pencil
    ``A - lam*B`` clears the default cut of :func:`_lu_solve` at a probe point."""
    cut, (a, b) = A.shape[0] * SINGULAR_RCOND, names
    if next(_clear_points(A, B), None) is None:
        raise exc(f"{what} {a} - lambda*{b} is numerically singular: its LU has reciprocal condition <= {cut:.2e} at"
                  f" all three probe points (||{a}||_1 = {np.linalg.norm(A, 1):.3e}, ||{b}||_1 = {np.linalg.norm(B, 1):.3e})")


def _probe_rank(M, N, tol=None) -> int:
    """Normal rank of a rectangular pencil ``M - lam*N`` (a square one is
    judged by :func:`_require_regular`): the largest ``rank_tol(M - lam*N,
    tol)`` over three fixed probe points, stopping early at ``min(M.shape)``."""
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
        together (selected, and counted 2, if either member is).

    Raises
    ------
    SingularPencil
        If at every regularity probe point the LU of ``A - lam*B`` fails the
        cut ``n * SINGULAR_RCOND`` of ``eval_tfm``; no SVD is taken.
    IterationFailure
        If the QZ iteration or the reordering does not converge.
    """
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"pencil blocks must be square and equal-sized, got {A.shape} and {B.shape}")
    if n == 0:
        return GschurResult(A.copy(), B.copy(), np.eye(0), np.eye(0), [], 0)
    _require_regular(A, B, SingularPencil, ("A", "B"))

    S, T, Q, Z, alpha, beta, k = _gges(A, B, select)
    return GschurResult(S, T, Q, Z, list(zip(alpha.tolist(), beta.tolist())), k)


def _gges(A, B, select: Callable | None = None, left=True):
    """``(S, T, Q, Z, alpha, beta, k)``: the real QZ form ``Q.T @ A @ Z = S``,
    ``Q.T @ B @ Z = T`` (``T`` with nonnegative diagonal) and its eigenvalues
    ``alpha / beta``, from one LAPACK ``dgges`` call.  Given ``select``, it
    sorts inside LAPACK: the first ``k`` positions hold the eigenvalues with
    ``select(alpha, |beta|)``, a conjugate pair moving together and counting
    2 if either member is selected.  Without ``left``, ``Q`` is not formed
    (``None``).  A nonzero ``info`` raises ``IterationFailure``."""
    def sort(alphar, alphai, beta):
        return select(complex(alphar, alphai), abs(beta))

    S, T, k, ar, ai, beta, Q, Z, _, info = sla.lapack.dgges(sort, A, B, jobvsl=int(left), sort_t=int(select is not None))
    if info:
        raise IterationFailure(f"QZ iteration or reordering failed (dgges info {info})")
    return S, T, Q if left else None, Z, ar + 1j * ai, beta, k


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
    eigs, i, n = [], 0, T.shape[0]
    while i < n:
        size = 2 if i + 1 < n and T[i + 1, i] != 0.0 else 1
        w = 0.0 if size == 1 else np.sqrt(abs(T[i, i + 1])) * np.sqrt(abs(T[i + 1, i]))
        eigs += [complex(T[i, i], w), complex(T[i, i], -w)][:size]
        i += size
    return T, Z, eigs, k[0] if k else 0


def gsylv_separation(A11, A12, A22, E11, E12, E22):
    """Solve the block-decoupling generalized Sylvester system.

    Returns ``(L, R)`` with ``A11 @ R - L @ A22 = -A12`` and
    ``E11 @ R - L @ E22 = -E12``.  Requires the spectra of the pencils
    ``(A11, E11)`` and ``(A22, E22)`` to be disjoint; either may hold
    infinite eigenvalues (a nilpotent ``E11``).

    Each diagonal pencil is brought to real generalized Schur form by one
    :func:`_gges` and the transformed system is solved by LAPACK ``dtgsyl``
    (Kagstrom & Poromaa, 1996): O(n1^3 + n2^3 + n1 n2 (n1 + n2)) work,
    O(n1 n2) memory.
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

    S1, T1, Q1, Z1 = _gges(A11, E11)[:4]
    S2, T2, Q2, Z2 = _gges(A22, E22)[:4]
    # in the Schur bases: S1 R~ - L~ S2 = -Q1^T A12 Z2, T1 R~ - L~ T2 = -Q1^T E12 Z2
    Rt, Lt, scl, _, info = sla.lapack.dtgsyl(S1, S2, -Q1.T @ A12 @ Z2, T1, T2, -Q1.T @ E12 @ Z2)
    if info != 0 or scl == 0.0:
        raise SpectraNotDisjoint("generalized Sylvester system is singular")
    R = Z1 @ Rt @ Z2.T / scl
    L = Q1 @ Lt @ Q2.T / scl
    terms = [np.hstack([A11 @ R, E11 @ R]), -L @ np.hstack([A22, E22]), np.hstack([A12, E12])]
    _accepted(terms, SpectraNotDisjoint, "block-decoupling Sylvester")
    return L, R


def _accepted(terms, exc, what, tol=RESIDUAL_TOL):
    """Raise ``exc`` unless the residual ``sum(terms)`` of ``what`` is finite
    and ``||sum(terms)||_F <= tol * sum(||term||_F)``: a normwise backward
    error against the terms that cancel in it (Higham, BIT 33, 1993)."""
    res, scale = np.linalg.norm(sum(terms)), sum(np.linalg.norm(T) for T in terms)
    if not (np.isfinite(res) and res <= tol * scale):
        raise exc(f"{what} residual too large: {res:.2e} against terms of {scale:.2e}")


def _sylv_quasi(T11, T12, T22):
    """``R`` with ``T11 @ R - R @ T22 = -T12`` for quasi-triangular ``T11``,
    ``T22`` of disjoint spectra: :func:`gsylv_separation` at ``E = I``, where
    ``L = R``, by LAPACK ``dtrsyl`` and checked by :func:`_accepted`."""
    if T12.size == 0:
        return np.zeros(T12.shape)
    R, scl, info = sla.lapack.dtrsyl(T11, T22, -T12, isgn=-1)
    if info != 0 or scl == 0.0:
        raise SpectraNotDisjoint("Sylvester equation is singular")
    R /= scl
    _accepted([T11 @ R, -R @ T22, T12], SpectraNotDisjoint, "Sylvester")
    return R


def glyap(A, E, W, domain) -> np.ndarray:
    """Solve the generalized Lyapunov equation for a stable pair ``(A, E)``.

    Continuous:  ``A X E^T + E X A^T + W = 0``.
    Discrete:    ``A X A^T - E X E^T + W = 0``.

    ``W`` must be symmetric; the stable region is the open left half-plane or
    the open unit disk according to ``domain``.  The QZ form
    ``Q^T (A, E) Z = (S, T)`` standardizes the pair (Penzl, 1998): the
    standard equation in the quasi-triangular ``M = T^-1 S`` and
    ``T^-1 Q^T W Q T^-T`` goes, with the QZ eigenvalues ``alpha / beta``, to
    :func:`_lyap_quasi`, which refuses one not inside the region, and its
    solution ``Y`` gives ``X = Z Y Z^T``.  A QZ beta at most
    ``stair_tol(None, n, E)`` is an infinite, hence unstable, eigenvalue.
    """
    A, E, W = as_matrix(A, "A"), as_matrix(E, "E"), as_matrix(W, "W")
    kind, n = _domain_kind(domain), A.shape[0]
    if A.shape != (n, n) or E.shape != (n, n) or W.shape != (n, n):
        raise DimensionMismatch("glyap blocks must be square of equal order")
    if np.linalg.norm(W - W.T) > SYMMETRY_TOL * (1.0 + np.linalg.norm(W)):
        raise ValueError("W must be symmetric")
    W = 0.5 * (W + W.T)

    qz = gschur_ordered(A, E)
    if any(beta <= stair_tol(None, n, E) for _, beta in qz.eigenvalues):
        raise UnstablePair("pencil has an infinite eigenvalue")
    M = sla.solve_triangular(qz.T, qz.S)
    Wt = sla.solve_triangular(qz.T, sla.solve_triangular(qz.T, qz.Q.T @ W @ qz.Q).T)
    Y = _lyap_quasi(M, [a / b for a, b in qz.eigenvalues], Wt, kind, UnstablePair)
    X = qz.Z @ Y @ qz.Z.T
    X = 0.5 * (X + X.T)
    AXE = A @ X @ (E if kind == "continuous" else A).T
    _accepted([AXE, AXE.T, W] if kind == "continuous" else [AXE, -E @ X @ E.T, W], IterationFailure, "Lyapunov")
    return X


def _lyap_quasi(T, eigs, W, domain, unstable) -> np.ndarray:
    """``Y`` with ``T Y + Y T^T + W = 0`` (continuous) or ``T Y T^T - Y + W = 0``
    (discrete) for a quasi-upper-triangular ``T`` with eigenvalues ``eigs``
    and a symmetric ``W``.  An eigenvalue not :meth:`StabilityRegion.inside`
    the stable region raises ``unstable``; LAPACK ``dtrsyl`` solves ``T Y + Y
    T^T = -W``, in discrete time after the Cayley map ``T -> I - 2 (T +
    I)^-1``.  ``Y`` is not checked here: each caller checks its equation."""
    region, n = stability_region(domain), T.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    for lam in eigs:
        if not region.inside(lam):
            raise unstable(f"eigenvalue {lam} not inside the stable {region.kind}, off its boundary")
    S, Wt = T, -W
    if not region.is_half_plane:
        P = _quasi_inv(T + np.eye(n))
        S, Wt = np.eye(n) - 2.0 * P, 2.0 * P @ Wt @ P.T
    Y, scl, _ = sla.lapack.dtrsyl(S, S, Wt, tranb="T")
    Y /= scl
    return 0.5 * (Y + Y.T)


def _quasi_inv(T) -> np.ndarray:
    """Inverse of the quasi-upper-triangular ``T``, which has ``T``'s blocks:
    ``dtrsyl`` reads them off the subdiagonal, so what roundoff left below
    them is zeroed.  An exactly singular ``T`` raises ``IterationFailure``."""
    P = _solve(T, np.eye(T.shape[0]), IterationFailure, "quasi-triangular block is singular")
    P[np.tril(T == 0.0, -1)] = 0.0
    return P
