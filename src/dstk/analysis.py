"""Structural analysis of descriptor systems.

Normal rank, pole/zero structure (finite values plus infinite
multiplicities), McMillan degree, stability and minimum-phase predicates,
the five-condition minimality report, minimal realization, and the H2/L2
system norm.  The report decides its finite conditions on the split that
:func:`minreal` reduces, observability as the transposed dual's
controllability.
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
    _diag2,
    _row_compress,
    _svd_rank,
    default_tol,
    glyap,
    gsylv_separation,
    null_basis,
    rank_tol,
)
from .pencil import _regular_deflate, klf, pencil_normal_rank, weierstrass_structure
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

    def on_boundary(self, z, tol=1e-8) -> bool:
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


def _value_info(vals, divisors, kronecker_ranks=None) -> PoleZeroInfo:
    """Poles or zeros from finite values and infinite divisor degrees; QZ
    rounding is zeroed out of the imaginary parts of nearly real values."""
    finite = []
    for v in vals:
        v = complex(v)
        if abs(v.imag) <= 1e-10 * max(1.0, abs(v)):
            v = complex(v.real)
        finite.append(v)
    inf_count = int(sum(d - 1 for d in divisors))
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


def _ctrb_reduce(A, B, C, tol_abs):
    """Truncate to the controllable part via the orthogonal staircase."""
    n = A.shape[0]
    A = A.copy()
    B = B.copy()
    C = C.copy()
    k0 = 0
    W = B
    while k0 < n:
        U, r = _row_compress(W, tol_abs)
        if r == 0:
            break
        A[k0:, :] = U.T @ A[k0:, :]
        A[:, k0:] = A[:, k0:] @ U
        B[k0:, :] = U.T @ B[k0:, :]
        C[:, k0:] = C[:, k0:] @ U
        prev = k0
        k0 += r
        W = A[k0:, prev:k0]
    nc = k0
    return A[:nc, :nc], B[:nc, :], C[:, :nc]


def _standard_minreal(A, B, C, tol_abs):
    A, B, C = _ctrb_reduce(A, B, C, tol_abs)
    At, Bt, Ct = _ctrb_reduce(A.T, C.T, B.T, tol_abs)
    return At.T, Ct.T, Bt.T


def _drop_simple_chains(W, B, C):
    """Split the degree-one chains off the nilpotent block ``(I - lam W, B, C)``.

    Any subspace of ``ker W`` transversal to ``range W`` decouples under a
    similarity with exactly zero coupling blocks; its states act as a pure
    feedthrough.  Returns ``(W', B', C', D_extra, dropped)`` with the constant
    contribution of the removed states in ``D_extra``.
    """
    n = W.shape[0]
    zero = np.zeros((C.shape[0], B.shape[1]))
    if n == 0:
        return W, B, C, zero, False
    K = null_basis(W)
    if K.shape[1] == 0:
        return W, B, C, zero, False
    U, s, _ = np.linalg.svd(W)
    R = U[:, : _svd_rank(s, W.shape)]
    G = K - R @ (R.T @ K)
    Ug, sg, Vgh = np.linalg.svd(G, full_matrices=False)
    q = _svd_rank(sg, G.shape, 1e-8 * max(1.0, sg[0] if sg.size else 0.0))
    if q == 0:
        return W, B, C, zero, False
    S = K @ Vgh[:q].T
    Y = null_basis(np.hstack([R, S]).T)
    T = np.hstack([R, Y, S])
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise IterationFailure("chain-splitting similarity is ill conditioned")
    Ti = np.linalg.inv(T)
    Wt = Ti @ W @ T
    Bt = Ti @ B
    Ct = C @ T
    keep = n - q
    D_extra = Ct[:, keep:] @ Bt[keep:, :]
    return Wt[:keep, :keep], Bt[:keep, :], Ct[:, :keep], D_extra, True


def _split(sys: DescriptorSystem, tol):
    """One deflation pass: the pencil ``Mk - lam Nk`` with its ``ninf``
    infinite eigenvalues leading, ``B`` and ``C`` in its coordinates, and the
    absolute staircase tolerance."""
    Mk, Nk, U, V, divisors = _regular_deflate(sys.A, sys.E, tol)
    scale = max(np.linalg.norm(X) for X in (sys.A, sys.E, sys.B, sys.C)) + 1.0
    tol_abs = tol if tol is not None else default_tol(max(sys.n, sys.m, sys.p), scale)
    return Mk, Nk, U @ sys.B, sys.C @ V, int(sum(divisors)), tol_abs


def minreal(sys: DescriptorSystem, tol=None) -> DescriptorSystem:
    """Minimal descriptor realization with the same TFM.

    The pencil is first split orthogonally into its infinite and finite
    parts (:func:`_split`) and the two are decoupled by a generalized
    Sylvester solve.  The finite part is reduced by the standard
    controllability/observability staircases; the infinite part is rebuilt
    as a minimal nilpotent-E block from the coefficients of the polynomial
    action, with any constant part absorbed into ``D``.  The result
    satisfies all five minimality conditions and its order never exceeds
    the input order.
    """
    if sys.n == 0:
        return sys
    Mk, Nk, B1, C1, ninf, tol_abs = _split(sys, tol)
    Ai, Ei, Af, Ef = Mk[:ninf, :ninf], Nk[:ninf, :ninf], Mk[ninf:, ninf:], Nk[ninf:, ninf:]
    Bi, Bf = B1[:ninf, :], B1[ninf:, :]
    Ci, Cf = C1[:, :ninf], C1[:, ninf:]
    if ninf and ninf < sys.n:
        L, R = gsylv_separation(Ai, Mk[:ninf, ninf:], Af, Ei, Nk[:ninf, ninf:], Ef)
        Bi = Bi - L @ Bf
        Cf = Ci @ R + Cf
    As, Bs = np.linalg.solve(Ef, Af), np.linalg.solve(Ef, Bf)
    Ah, Bh, Ch = np.linalg.solve(Ai, Ei), np.linalg.solve(Ai, Bi), Ci
    Am, Bm, Cm = _standard_minreal(As, Bs, Cf, tol_abs)

    # infinite half: reduce the nilpotent action, then strip the degree-one
    # chains (non-dynamic modes), absorbing their constant action into D
    D_new = sys.D
    while True:
        Ah, Bh, Ch = _standard_minreal(Ah, Bh, Ch, tol_abs)
        Ah, Bh, Ch, Dx, dropped = _drop_simple_chains(Ah, Bh, Ch)
        D_new = D_new + Dx
        if not dropped:
            break

    A = _diag2(Am, np.eye(Ah.shape[0]))
    E = _diag2(np.eye(Am.shape[0]), Ah)
    B = np.vstack([Bm, Bh])
    C = np.hstack([Cm, Ch])
    return _trusted_system(A, E, B, C, D_new, sys.domain)


# ---------------------------------------------------------------------------
# poles, zeros, predicates


def poles(sys: DescriptorSystem, tol=None) -> PoleZeroInfo:
    """Pole structure of the TFM from the Weierstrass structure of
    ``minreal(sys)``: finite poles, the infinite pole count
    ``sum(divisor degree - 1)`` and their total, the McMillan degree.
    ``kronecker_ranks`` is ``None``."""
    g = minreal(sys, tol=tol)
    ws = weierstrass_structure(g.A, g.E, tol=tol)
    return _value_info(ws.finite_eigenvalues, ws.infinite_divisor_degrees)


def zeros(sys: DescriptorSystem, tol=None) -> PoleZeroInfo:
    """Zero structure of the TFM: finite eigenvalues of the regular part of
    the system matrix pencil, infinite zero count, and (nr, nl) defects."""
    g = minreal(sys, tol=tol)
    Ms, Ns = _system_pencil(g)
    _, _, _, _, ks = klf(Ms, Ns, tol=tol)
    return _value_info(ks.finite_eigenvalues, ks.infinite_divisor_degrees, (ks.nr, ks.nl))


def mcmillan_degree(sys: DescriptorSystem, tol=None) -> int:
    """Total pole count (finite plus infinite) of the TFM."""
    return poles(sys, tol=tol).total


def _all_stable(finite, infinite, domain) -> bool:
    """No infinite values, and every finite one in the stable region."""
    region = stability_region(domain)
    return not infinite and all(region.contains(z) for z in finite)


def is_stable(sys: DescriptorSystem, tol=None) -> bool:
    """True when every pole lies in the stable region of the time domain.

    An improper system has an infinite pole outside any stable region and is
    therefore never stable.
    """
    info = poles(sys, tol=tol)
    return _all_stable(info.finite, info.infinite_count, sys.domain)


def is_minimum_phase(sys: DescriptorSystem, tol=None) -> bool:
    """True when all zeros are finite and lie in the stable region."""
    info = zeros(sys, tol=tol)
    return _all_stable(info.finite, info.infinite_count, sys.domain)


def minimality_report(sys: DescriptorSystem, tol=None) -> MinimalityReport:
    """Evaluate the five minimality conditions on the given realization.

    Finite controllability holds when the staircase on the finite part of
    :func:`minreal`'s split removes no state (the decoupling from the
    infinite part leaves ``(A, B)`` there unchanged, so it is skipped);
    finite observability is the same test on the transposed dual, so the
    report is dual-symmetric."""
    A, E, B, C = sys.A, sys.E, sys.B, sys.C

    def _finite_controllable(g):
        Mk, Nk, B1, C1, ninf, tol_abs = _split(g, tol)
        Ef = Nk[ninf:, ninf:]
        As, Bs = np.linalg.solve(Ef, Mk[ninf:, ninf:]), np.linalg.solve(Ef, B1[ninf:, :])
        return _ctrb_reduce(As, Bs, C1[:, ninf:], tol_abs)[0].shape == As.shape

    fc = _finite_controllable(sys)
    ic = rank_tol(np.hstack([E, B]), tol) == sys.n
    fo = _finite_controllable(_trusted_system(A.T, E.T, C.T, B.T, sys.D.T, sys.domain))
    io = rank_tol(np.vstack([E, C]), tol) == sys.n
    Z = null_basis(E, tol)
    nd = rank_tol(np.hstack([E, A @ Z]), tol) == rank_tol(E, tol)
    return MinimalityReport(fc, ic, fo, io, nd, sys.n)


# ---------------------------------------------------------------------------
# system norm


def h2_norm(sys: DescriptorSystem, tol=None) -> float:
    """H2 norm of a stable system via the controllability Gramian.

    Continuous time requires a strictly proper TFM (``D = 0`` after
    reduction); in discrete time the feedthrough contributes ``trace(D D^T)``.
    """
    g = minreal(sys, tol=tol)
    ws = weierstrass_structure(g.A, g.E, tol=tol)
    if not _all_stable(ws.finite_eigenvalues, ws.infinite_divisor_degrees, g.domain):
        raise UnstableSystem("H2 norm requires all poles in the stable region")
    dscale = np.linalg.norm(g.D)
    if g.domain is TimeDomain.CONTINUOUS and dscale > 1e-10 * (1.0 + np.linalg.norm(g.B) * np.linalg.norm(g.C)):
        raise NonstrictlyProperContinuous("continuous-time H2 norm needs a strictly proper system")
    if g.n == 0:
        return float(np.linalg.norm(g.D)) if g.domain is TimeDomain.DISCRETE else 0.0
    X = glyap(g.A, g.E, g.B @ g.B.T, g.domain)
    val = float(np.trace(g.C @ X @ g.C.T))
    if g.domain is TimeDomain.DISCRETE:
        val += float(np.trace(g.D @ g.D.T))
    return float(np.sqrt(max(val, 0.0)))
