"""Structural analysis of descriptor systems.

Normal rank, pole/zero structure (finite values plus infinite multiplicities),
McMillan degree, stability and minimum-phase predicates, the five-condition
minimality report, minimal realization and the H2/L2 system norm.  The report
and :func:`minreal` share one split, its absolute tolerance and one non-dynamic-mode
primitive (:func:`_nondynamic`); a finite Neumann sum decouples the split, no QZ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    IterationFailure,
    NonstrictlyProperContinuous,
    RegionInvalid,
    UnstableSystem,
)
from .kernels import (
    BOUNDARY_TOL,
    EPS,
    _checked_decoupling,
    _diag2,
    _stable_lyap,
    _svd,
    _svd_rank,
    default_tol,
    rank_tol,
    stair_tol,
)
from .pencil import _regular_deflate, klf, pencil_normal_rank
from .system import DescriptorSystem, TimeDomain, _trusted_system

__all__ = [
    "PoleZeroInfo",
    "MinimalityReport",
    "StabilityRegion",
    "stability_region",
    "normal_rank",
    "poles",
    "zeros",
    "mcmillan_degree",
    "is_stable",
    "is_minimum_phase",
    "minimality_report",
    "minreal",
    "h2_norm",
]


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class StabilityRegion:
    """An open "good" region of the complex plane, symmetric about the real
    axis: a shifted half-plane ``Re z < alpha`` or a scaled disk ``|z| < rho``.
    """

    kind: str  # "half-plane" | "disk"
    alpha: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("half-plane", "disk"):
            raise RegionInvalid(f"unknown region kind {self.kind!r}")
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

    def contains(self, z) -> bool:
        z = complex(z)
        if self.kind == "half-plane":
            return z.real < self.alpha
        return abs(z) < self.rho

    def boundary_distance(self, z) -> float:
        z = complex(z)
        if self.kind == "half-plane":
            return abs(z.real - self.alpha)
        return abs(abs(z) - self.rho)

    def on_boundary(self, z, tol=BOUNDARY_TOL) -> bool:
        return self.boundary_distance(z) <= tol * (1.0 + abs(complex(z)))

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


def stability_region(domain) -> StabilityRegion:
    """The stable region of a time domain: open left half-plane or unit disk."""
    domain = TimeDomain(getattr(domain, "value", domain))
    if domain is TimeDomain.CONTINUOUS:
        return StabilityRegion.left_half_plane()
    return StabilityRegion.unit_disk()


# ---------------------------------------------------------------------------
# result records


@dataclass
class PoleZeroInfo:
    """Finite values, infinite multiplicity count, and their total, together
    with the Kronecker rank defects (nr, nl) of the system matrix pencil,
    which :func:`zeros` fills and :func:`poles` leaves ``None``."""

    finite: list
    infinite_count: int
    total: int
    kronecker_ranks: tuple | None = None


@dataclass
class MinimalityReport:
    """Outcome of the five minimality conditions at order ``order``."""

    finite_controllable: bool
    infinite_controllable: bool
    finite_observable: bool
    infinite_observable: bool
    no_nondynamic_modes: bool
    order: int

    @property
    def irreducible(self) -> bool:
        return (
            self.finite_controllable
            and self.infinite_controllable
            and self.finite_observable
            and self.infinite_observable
        )

    @property
    def minimal(self) -> bool:
        return self.irreducible and self.no_nondynamic_modes


def _value_info(vals, inf_count, kronecker_ranks=None) -> PoleZeroInfo:
    """Poles or zeros from finite values and the infinite count; eigenvalue
    rounding is zeroed out of the imaginary parts of nearly real values."""
    finite = []
    for v in vals:
        v = complex(v)
        if abs(v.imag) <= 1e-10 * max(1.0, abs(v)):
            v = complex(v.real)
        finite.append(v)
    return PoleZeroInfo(finite, inf_count, len(finite) + inf_count, kronecker_ranks)


def _system_pencil(sys):
    """System matrix pencil of the TFM.

    The input column carries ``-B`` so that the pencil's kernel and regular
    eigenstructure describe ``G = C (A - lam E)^{-1} B + D`` itself under the
    library's evaluation convention (a kernel vector ``(x, u)`` then satisfies
    ``G(lam) u = 0``).  Rank counts are unaffected by the sign.
    """
    n, m, p = sys.n, sys.m, sys.p
    M = np.zeros((n + p, n + m))
    M[:n, :n] = sys.A
    M[:n, n:] = -sys.B
    M[n:, :n] = sys.C
    M[n:, n:] = sys.D
    N = np.zeros((n + p, n + m))
    N[:n, :n] = sys.E
    return M, N


def normal_rank(sys: DescriptorSystem) -> int:
    """Normal rank of the TFM: the normal rank of the system matrix pencil
    ``[[A - lam E, B], [C, D]]`` minus ``n``."""
    return pencil_normal_rank(*_system_pencil(sys)) - sys.n


# ---------------------------------------------------------------------------
# minimal realization


ORTH_TOL = EPS  # a Krylov staircase basis of k columns is re-orthonormalized past max |V^T V - I| = ORTH_TOL * k


def _ctrb_reduce(A, B, C, tol_abs):
    """Truncate to the controllable part by a block Krylov staircase: a thin SVD
    of ``W = (I - V V^T) A V_k`` (``B`` first; ``V_k`` the last stair), projected
    by two classical Gram--Schmidt passes, cuts each stair at ``tol_abs``, and
    its leading left singular vectors join ``V``, kept by rows so that each
    product is one contiguous ``dot``.  A Cholesky QR keeps every leading span
    and restores lost orthogonality.  Returns ``(V^T A V, V^T B, C V)``."""
    n = A.shape[0]
    Vt, W, k = np.empty((n, n)), B, 0
    while k < n:
        U, s, _ = _svd(W, full=False)
        r = min(_svd_rank(s, W.shape, tol_abs), n - k)
        if r == 0:
            break
        Vt[k : k + r], W, k = U[:, :r].T, A.dot(U[:, :r]), k + r
        for _ in range(2 if k < n else 0):
            W -= Vt[:k].T.dot(Vt[:k].dot(W))
    Vt, G = Vt[:k], Vt[:k] @ Vt[:k].T
    if np.abs(G - np.eye(k)).max(initial=0.0) > ORTH_TOL * k:
        try:
            Vt = np.linalg.solve(np.linalg.cholesky(G), Vt)
        except np.linalg.LinAlgError:
            # the basis lost rank; re-orthonormalizing it would return a wrong system
            raise IterationFailure("Krylov staircase basis lost rank") from None
    return Vt @ A @ Vt.T, Vt @ B, C @ Vt.T


def _standard_minreal(A, B, C, tol_abs):
    A, B, C = _ctrb_reduce(A, B, C, tol_abs)
    At, Bt, Ct = _ctrb_reduce(A.T, C.T, B.T, tol_abs)
    return At.T, Ct.T, Bt.T


def _nondynamic(A, E, tol_abs):
    """Orthogonal ``L``, ``R`` exposing the non-dynamic modes of ``A - lam E``.

    One SVD of ``E`` gives its rank ``r`` and left/right kernels ``U2``,
    ``V2``; one SVD of ``U2^T A V2`` gives the rest.  In the coordinates
    ``L^T (A - lam E) R``, ``E`` is zero outside its leading r-by-r block and
    ``A`` is ``diag(s)`` on the next ``len(s)`` positions, with no coupling to
    the rest of the kernel block.  Returns ``(L, R, r, s)``; ``s`` holds the
    singular values above ``tol_abs``, one per non-dynamic mode.
    """
    U, se, Vh = _svd(E)
    r = _svd_rank(se, E.shape, tol_abs)
    P, s, Qh = _svd(U[:, r:].T @ A @ Vh[r:].T)
    L = np.hstack([U[:, :r], U[:, r:] @ P])
    R = np.hstack([Vh[:r].T, Vh[r:].T @ Qh.T])
    return L, R, r, s[: _svd_rank(s, s.shape, tol_abs)]


def _split(sys: DescriptorSystem, tol):
    """One deflation pass: the pencil ``Mk - lam Nk`` with its infinite
    eigenvalues leading, ``B`` and ``C`` in its coordinates, the infinite
    divisor degrees and the absolute staircase tolerance."""
    Mk, Nk, U, V, divisors = _regular_deflate(sys.A, sys.E, stair_tol(tol, sys.n, sys.A, sys.E))
    # the staircases run on standardized data, whose scale the raw norms miss
    scale = max(np.linalg.norm(X) for X in (sys.A, sys.E, sys.B, sys.C)) + 1.0
    tol_abs = tol if tol is not None else default_tol(max(sys.n, sys.m, sys.p), scale)
    return Mk, Nk, U @ sys.B, sys.C @ V, divisors, tol_abs


def _neumann_decouple(Ah, P, Q, As, d):
    """``(L, R)`` decoupling ``[[I - lam Ah, P - lam Q], [0, As - lam I]]``:
    ``R - L As = -P`` and ``L = Ah R + Q``, i.e. ``R - Ah R As = Q As - P``,
    whose Neumann sum is finite since ``Ah^d = 0``; residual checked."""
    R = F = Q @ As - P
    for _ in range(d - 1):
        R = F + Ah @ R @ As
    L = Ah @ R + Q
    return _checked_decoupling(L, R, [R - L @ As + P], [Ah, P, Q, As])


def minreal(sys: DescriptorSystem, tol=None) -> DescriptorSystem:
    """Minimal descriptor realization with the same TFM.

    The pencil is split orthogonally into its infinite and finite parts
    (:func:`_split`), divided by their ``A`` and ``E`` blocks and decoupled by
    a finite Neumann sum (:func:`_neumann_decouple`).  Both are reduced by the
    standard staircases, the infinite one in the form ``(I - lam Ah, Bh, Ch)``
    with nilpotent ``Ah``, which is then residualized once: its non-dynamic
    modes (:func:`_nondynamic`) are solved out into ``D``.  Every rank
    decision uses the split's absolute tolerance.  The result satisfies all
    five minimality conditions and its order never exceeds the input order.
    """
    return _reduce(sys, tol)[0]


def _reduce(sys: DescriptorSystem, tol):
    """:func:`minreal` and its pole structure ``(g, nf, ninf)``: ``g`` is block
    diagonal, its leading ``nf`` states finite with ``E = I`` exactly, and
    ``ninf``, the infinite pole count, is the rank of the trailing ``E``."""
    if sys.n == 0:
        return sys, 0, 0
    Mk, Nk, B1, C1, divisors, tol_abs = _split(sys, tol)
    n, k = sys.n, int(sum(divisors))
    As, Bs = np.linalg.solve(Nk[k:, k:], Mk[k:, k:]), np.linalg.solve(Nk[k:, k:], B1[k:, :])
    Ah, Bh, Ch, Cf = Nk[:k, :k], B1[:k, :], C1[:, :k], C1[:, k:]
    if k:
        # an LU keeps the deflation's zero stairs: Ah is strictly block upper triangular in max(divisors) blocks
        X = np.linalg.solve(Mk[:k, :k], np.hstack([Nk[:k, :], Mk[:k, k:], Bh]))
        Ah, Q, P, Bh = np.split(X, [k, n, 2 * n - k], axis=1)
        L, R = _neumann_decouple(Ah, P, Q, As, max(divisors))
        Bh, Cf = Bh - L @ Bs, Cf + Ch @ R
        Ah, Bh, Ch = _standard_minreal(Ah, Bh, Ch, tol_abs)
    Am, Bm, Cm = _standard_minreal(As, Bs, Cf, tol_abs)

    # infinite half; dividing by s below is the one non-orthogonal step
    Ai, Ei, D, r = np.eye(Ah.shape[0]), Ah, sys.D, 0
    if Ah.size:
        L, R, r, s = _nondynamic(Ai, Ah, tol_abs)
        if s.size:
            q = Ah.shape[0] - s.size  # kept states first, non-dynamic ones last
            order = np.r_[:r, r + s.size : Ah.shape[0], r : r + s.size]
            L, R = L[:, order], R[:, order]
            At, Bt, Ct = L.T @ R, L.T @ Bh, Ch @ R
            X, Y = At[q:, :q] / s[:, None], Bt[q:] / s[:, None]
            Ai, Bh = At[:q, :q] - At[:q, q:] @ X, Bt[:q] - At[:q, q:] @ Y
            Ch, D = Ct[:, :q] - Ct[:, q:] @ X, D + Ct[:, q:] @ Y
            Ei = _diag2(L[:, :r].T @ Ah @ R[:, :r], np.zeros((q - r, q - r)))

    A, E = _diag2(Am, Ai), _diag2(np.eye(Am.shape[0]), Ei)
    return _trusted_system(A, E, np.vstack([Bm, Bh]), np.hstack([Cm, Ch]), D, sys.domain), Am.shape[0], r


# ---------------------------------------------------------------------------
# poles, zeros, predicates


def _poles(g, nf, ninf) -> PoleZeroInfo:
    """:func:`poles` from the output of :func:`_reduce`."""
    return _value_info(np.linalg.eigvals(g.A[:nf, :nf]), ninf)


def poles(sys: DescriptorSystem, tol=None) -> PoleZeroInfo:
    """Pole structure of the TFM as :func:`minreal` splits it, deflating
    nothing again: finite poles (eigenvalues of its ``E = I`` block), the
    infinite pole count ``sum(divisor degree - 1)`` (rank of its infinite
    ``E`` block) and their total, the McMillan degree; no ``kronecker_ranks``."""
    return _poles(*_reduce(sys, tol))


def zeros(sys: DescriptorSystem, tol=None) -> PoleZeroInfo:
    """Zero structure of the TFM: finite eigenvalues of the regular part of the
    system matrix pencil, infinite zero count, and (nr, nl) defects, read off the
    checked staircase of :func:`_structure` (a misread one raises :class:`IterationFailure`)."""
    return _zeros(_structure(minreal(sys, tol=tol), tol)[3])


def _structure(g, tol):
    """The system-pencil staircase ``(Mk, Nk, V, ks, r)`` of a minimal ``g``: one
    :func:`klf` and one probe normal rank ``r``; any count other than ``m - r``
    right and ``p - r`` left Kronecker blocks raises :class:`IterationFailure`."""
    Mk, Nk, _, V, ks = klf(*_system_pencil(g), tol=tol)
    r = normal_rank(g)
    found, want = (len(ks.right_indices), len(ks.left_indices)), (g.m - r, g.p - r)
    if found != want:
        raise IterationFailure(f"staircase found {found} (right, left) Kronecker blocks where the normal rank leaves {want}")
    return Mk, Nk, V, ks, r


def _zeros(ks) -> PoleZeroInfo:
    """:func:`zeros` from the Kronecker structure ``ks`` of :func:`_structure`."""
    inf_count = sum(d - 1 for d in ks.infinite_divisor_degrees)
    return _value_info(ks.finite_eigenvalues, int(inf_count), (ks.nr, ks.nl))


def mcmillan_degree(sys: DescriptorSystem, tol=None) -> int:
    """Total pole count of the TFM: the finite plus the infinite count of :func:`_reduce`."""
    return sum(_reduce(sys, tol)[1:])


def _all_stable(finite, infinite, domain) -> bool:
    """No infinite values, and every finite one in the stable region, off its boundary."""
    region = stability_region(domain)
    return not infinite and all(region.contains(z) and not region.on_boundary(z) for z in finite)


def is_stable(sys: DescriptorSystem, tol=None) -> bool:
    """True when every pole lies in the stable region, off its boundary.

    An improper system has an infinite pole outside any stable region and is
    therefore never stable.
    """
    info = poles(sys, tol=tol)
    return _all_stable(info.finite, info.infinite_count, sys.domain)


def is_minimum_phase(sys: DescriptorSystem, tol=None) -> bool:
    """True when all zeros are finite and lie in the stable region, off its boundary."""
    info = zeros(sys, tol=tol)
    return _all_stable(info.finite, info.infinite_count, sys.domain)


def minimality_report(sys: DescriptorSystem, tol=None) -> MinimalityReport:
    """Evaluate the five minimality conditions on the given realization.

    Every rank decision uses the absolute staircase tolerance of
    :func:`minreal`'s split.  Finite controllability holds when the
    staircase on the finite part of that split removes no state (the
    decoupling from the infinite part leaves ``(A, B)`` there unchanged, so
    it is skipped); finite observability is the same test on the transposed
    dual, so the report is dual-symmetric.  Infinite controllability and
    observability are full rank of ``[E, B]`` and ``[E; C]``, and the
    non-dynamic modes are those of :func:`_nondynamic`."""
    A, E, B, C = sys.A, sys.E, sys.B, sys.C

    def _finite_controllable(g):
        Mk, Nk, B1, C1, divisors, tol_abs = _split(g, tol)
        k = int(sum(divisors))
        As, Bs = np.linalg.solve(Nk[k:, k:], Mk[k:, k:]), np.linalg.solve(Nk[k:, k:], B1[k:, :])
        return _ctrb_reduce(As, Bs, C1[:, k:], tol_abs)[0].shape == As.shape, tol_abs

    fc, tol_abs = _finite_controllable(sys)
    fo = _finite_controllable(_trusted_system(A.T, E.T, C.T, B.T, sys.D.T, sys.domain))[0]
    ic = rank_tol(np.hstack([E, B]), tol_abs) == sys.n
    io = rank_tol(np.vstack([E, C]), tol_abs) == sys.n
    nd = _nondynamic(A, E, tol_abs)[3].size == 0
    return MinimalityReport(fc, ic, fo, io, nd, sys.n)


# ---------------------------------------------------------------------------
# system norm


def _strictly_proper(g) -> bool:
    """Whether the feedthrough of ``g`` vanishes beside ``||B|| ||C||``."""
    return np.linalg.norm(g.D) <= 1e-10 * (1.0 + np.linalg.norm(g.B) * np.linalg.norm(g.C))


def h2_norm(sys: DescriptorSystem, tol=None) -> float:
    """H2 norm of a stable system via the controllability Gramian.

    An improper TFM (``minreal(sys)`` has ``E != I``) raises
    :class:`UnstableSystem`, and so does a pole outside the stable region,
    read off the one real Schur form of ``A`` that also solves the Lyapunov
    equation of the Gramian.  Continuous time requires a strictly proper TFM
    (``D = 0`` after reduction); in discrete time the feedthrough contributes
    ``trace(D D^T)``.
    """
    g = minreal(sys, tol=tol)
    if not g.is_standard:
        raise UnstableSystem("H2 norm requires all poles in the stable region")
    X = _stable_lyap(g.A, g.B @ g.B.T, g.domain, UnstableSystem)
    if g.domain is TimeDomain.CONTINUOUS and not _strictly_proper(g):
        raise NonstrictlyProperContinuous("continuous-time H2 norm needs a strictly proper system")
    val = float(np.trace(g.C @ X @ g.C.T))
    if g.domain is TimeDomain.DISCRETE:
        val += float(np.trace(g.D @ g.D.T))
    return float(np.sqrt(max(val, 0.0)))
