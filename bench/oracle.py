"""Checks made apart from dstk.

Every check reads only the matrices of a result (any object with ``A, E,
B, C, D`` arrays and a ``domain``) and evaluates ``G(lam) = C (A - lam E)^-1
B + D`` with its own ``numpy.linalg.solve``; eigenvalues come from scipy,
H2 norms from ``scipy.linalg.solve_*_lyapunov``.  A check returns ``None``
when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

# complex probe points at least ~2.4 away from every planted spectrum
# (|Re|, |Im| <= 3 in continuous time, |z| <= 2.2 in discrete time), so that
# no evaluation sits near a pole and loses digits to it
PROBES = (4.2 + 5.1j, -5.3 + 3.6j, 5.6 - 3.1j, -3.4 - 5.9j)
# stability-boundary samples for the inner (all-pass) checks
BOUNDARY = {
    "continuous": [1j * w for w in (0.0, 0.05, 0.3, 1.0, 3.7, 20.0)],
    "discrete": [np.exp(1j * t) for t in (0.0, 0.1, 0.9, 2.0, 3.0, np.pi)],
}
TFM_RTOL = 1e-7
EIG_RTOL = 1e-6


@dataclass
class Sys:
    """Plain realization, used for corrupted copies and own combinations."""

    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: str

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


def dom(s) -> str:
    return getattr(s.domain, "value", s.domain)


def plain(s) -> Sys:
    return Sys(*(np.array(getattr(s, k), dtype=float) for k in "AEBCD"), dom(s))


def tfm(s, lam) -> np.ndarray:
    """``C (A - lam E)^-1 B + D`` by a dense solve on the given matrices."""
    if s.A.shape[0] == 0:
        return np.asarray(s.D, dtype=complex)
    return s.C @ np.linalg.solve(s.A - lam * s.E, s.B.astype(complex)) + s.D


def relerr(got, want) -> float:
    return float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))


def tfm_mismatch(s, want_fn, rtol=TFM_RTOL, points=PROBES):
    """Reason string if ``tfm(s, lam)`` differs from ``want_fn(lam)``."""
    for lam in points:
        want = np.atleast_2d(want_fn(lam))
        got = tfm(s, lam)
        if got.shape != want.shape:
            return f"shape {got.shape} != {want.shape}"
        err = relerr(got, want)
        if not err <= rtol:
            return f"TFM error {err:.2e} at {lam:.3g}"
    return None


def set_mismatch(got, want, rtol=EIG_RTOL):
    """Largest relative distance after pairing by assignment, or a reason."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    if got.size != want.size:
        return f"{got.size} values, expected {want.size}"
    if not got.size:
        return None
    cost = np.abs(got[:, None] - want[None, :]) / (1.0 + np.abs(want[None, :]))
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return None if worst <= rtol else f"values off by {worst:.2e}"


def inside(z, domain) -> bool:
    z = complex(z)
    return z.real < 0.0 if domain == "continuous" else abs(z) < 1.0


def pencil_eigs(s) -> np.ndarray:
    """Generalized eigenvalues of ``A - lam E``; infinite ones come back as inf."""
    if s.A.shape[0] == 0:
        return np.zeros(0, complex)
    return sla.eigvals(s.A, s.E)


def unstable_reason(s, what):
    vals = pencil_eigs(s)
    bad = [z for z in vals if not (np.isfinite(z) and inside(z, dom(s)))]
    return f"{what} has {len(bad)} poles outside the stable region" if bad else None


def square_zeros(s) -> np.ndarray:
    """Finite zeros of a square system with invertible ``D``:
    eigenvalues of ``A + B D^-1 C - lam E``."""
    return sla.eigvals(s.A + s.B @ np.linalg.solve(s.D, s.C), s.E)


# ---------------------------------------------------------------------------
# own state-space algebra (standard convention x' = A x + B u, y = C x + D u)


def standard(s):
    """``(As, Bs, Cs, D)`` with ``Cs (lam I - As)^-1 Bs + D = G(lam)``;
    needs invertible ``E``."""
    if s.A.shape[0] == 0:
        m, p = s.D.shape[1], s.D.shape[0]
        return np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), np.array(s.D, float)
    As = np.linalg.solve(s.E, s.A)
    Bs = np.linalg.solve(s.E, s.B)
    return As, Bs, -np.array(s.C, float), np.array(s.D, float)


def std_series(g1, g2):
    """``G1 G2`` of two standard quadruples."""
    A1, B1, C1, D1 = g1
    A2, B2, C2, D2 = g2
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1], A[:n1, n1:], A[n1:, n1:] = A1, B1 @ C2, A2
    return A, np.vstack([B1 @ D2, B2]), np.hstack([C1, D1 @ C2]), D1 @ D2


def std_sub(g1, g2):
    """``G1 - G2`` of two standard quadruples."""
    A1, B1, C1, D1 = g1
    A2, B2, C2, D2 = g2
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1], A[n1:, n1:] = A1, A2
    return A, np.vstack([B1, B2]), np.hstack([C1, -C2]), D1 - D2


def h2(g, domain) -> float:
    """H2 norm of a stable standard quadruple through a Lyapunov solve."""
    A, B, C, D = g
    val = 0.0
    if A.shape[0]:
        if domain == "continuous":
            P = sla.solve_continuous_lyapunov(A, -B @ B.T)
        else:
            P = sla.solve_discrete_lyapunov(A, B @ B.T)
        val = float(np.trace(C @ P @ C.T))
    if domain == "discrete":
        val += float(np.sum(D * D))
    elif np.linalg.norm(D) > 1e-9 * (1.0 + np.linalg.norm(B) * np.linalg.norm(C)):
        return float("inf")
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# checks, one per operation family


def check_poles(info, planted):
    why = set_mismatch(info.finite, planted.finite_poles)
    if why:
        return "finite poles: " + why
    want_inf = sum(k - 1 for k in planted.chains)
    if info.infinite_count != want_inf:
        return f"infinite pole count {info.infinite_count}, expected {want_inf}"
    if info.total != planted.degree:
        return f"pole total {info.total}, expected {planted.degree}"
    return None


def check_zeros(info, planted):
    why = set_mismatch(info.finite, square_zeros(planted), rtol=1e-5)
    if why:
        return "finite zeros: " + why
    if info.infinite_count:
        return f"{info.infinite_count} infinite zeros, expected none"
    return None


def check_equal(got, want, what):
    return None if got == want else f"{what} {got!r}, expected {want!r}"


def expected_stable(planted) -> bool:
    return not planted.chains and all(inside(z, planted.domain) for z in planted.finite_poles)


def check_minimum_phase(got, planted):
    zs = square_zeros(planted)
    if any(abs(abs(z) - 1.0) < 1e-6 if planted.domain == "discrete" else abs(z.real) < 1e-6 for z in zs):
        return None  # a zero on the boundary: either answer is defensible
    return check_equal(bool(got), all(inside(z, planted.domain) for z in zs), "is_minimum_phase")


def check_minimality(rep, planted):
    flags = (
        rep.finite_controllable,
        rep.infinite_controllable,
        rep.finite_observable,
        rep.infinite_observable,
        rep.no_nondynamic_modes,
    )
    if not all(flags):
        return f"minimal realization reported as {flags}"
    return check_equal(rep.order, planted.n, "order")


def check_klf(ks, pp):
    for got, want, what in (
        (list(ks.right_indices), pp.right, "right indices"),
        (list(ks.left_indices), pp.left, "left indices"),
        (list(ks.infinite_divisor_degrees), pp.infinite, "infinite divisor degrees"),
    ):
        if sorted(got) != sorted(want):
            return f"{what} {sorted(got)}, expected {sorted(want)}"
    why = set_mismatch(ks.finite_eigenvalues, pp.finite)
    return "finite eigenvalues: " + why if why else None


def check_reduced(s, order, want_fn):
    """Minimal realization: known order and the original TFM."""
    if s.A.shape[0] != order:
        return f"order {s.A.shape[0]}, expected {order}"
    why = tfm_mismatch(s, want_fn)
    return "TFM: " + why if why else None


def check_additive(pair, planted):
    g, b = pair.first, pair.second
    why = tfm_mismatch(plain_sum(g, b), lambda lam: tfm(planted, lam))
    if why:
        return "Gg + Gb != G: " + why
    d = planted.domain
    good = [z for z in planted.finite_poles if inside(z, d)]
    bad = [z for z in planted.finite_poles if not inside(z, d)]
    why = set_mismatch(pencil_eigs(g), good) or set_mismatch(pencil_eigs(b), bad)
    return "part poles: " + why if why else None


def plain_sum(s1, s2) -> Sys:
    z12 = np.zeros((s1.A.shape[0], s2.A.shape[0]))
    A = np.block([[s1.A, z12], [z12.T, s2.A]])
    E = np.block([[s1.E, z12], [z12.T, s2.E]])
    return Sys(A, E, np.vstack([s1.B, s2.B]), np.hstack([s1.C, s2.C]), s1.D + s2.D, dom(s1))


def check_h2(value, planted):
    want = h2(standard(planted), planted.domain)
    err = abs(value - want) / (1.0 + want)
    return None if err <= 1e-6 else f"H2 norm {value!r}, Lyapunov gives {want!r}"


def check_coprime(pair, planted, right=True):
    N, M = pair.first, pair.second

    def quotient(lam):
        n, m = tfm(N, lam), tfm(M, lam)
        return n @ np.linalg.inv(m) if right else np.linalg.solve(m, n)

    for lam in PROBES:
        err = relerr(quotient(lam), tfm(planted, lam))
        if not err <= 1e-5:
            return f"factor quotient differs from G by {err:.2e}"
    return unstable_reason(N, "N") or unstable_reason(M, "M")


def check_inner_outer(pair, planted, co=False):
    """``G = Q R`` (or ``R Q``) with Q inner and R stable, minimum phase."""
    R, Q = (pair.first, pair.second) if co else (pair.second, pair.first)
    for lam in BOUNDARY[planted.domain]:
        q = tfm(Q, lam)
        err = float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])))
        if not err <= 1e-6:
            return f"Q not inner: |Q*Q - I| = {err:.2e}"
    prod = (lambda lam: tfm(R, lam) @ tfm(Q, lam)) if co else (lambda lam: tfm(Q, lam) @ tfm(R, lam))
    for lam in PROBES:
        err = relerr(prod(lam), tfm(planted, lam))
        if not err <= 1e-6:
            return f"product differs from G by {err:.2e}"
    why = unstable_reason(R, "R")
    if why:
        return why
    zs = square_zeros(R)
    if not all(inside(z, planted.domain) for z in zs):
        return "R is not minimum phase"
    return None


def match_error(G, F, X) -> float:
    """``||F - G X||_2`` of stable systems, on own realizations."""
    return h2(std_sub(standard(F), std_series(standard(G), standard(X))), dom(F))


def check_model_match(X, reported, G, F, delta):
    """Stable X, the reported error equal to ``||F - G X||``, and no step
    ``+-eps * delta`` along a stable system lowering it.

    The error is compared to 1e-4 of ``||F||``: when G is minimum phase the
    optimal error is zero and the computed one is the rounding left in X,
    up to ~1e-5 of ``||F||`` on correct answers.  ``eps`` is sized so that
    the step raises the error well above that rounding.
    """
    why = unstable_reason(X, "X")
    if why:
        return why
    err = match_error(G, F, X)
    if not np.isfinite(err):
        return "F - G X has an infinite H2 norm"
    fnorm = h2(standard(F), dom(F))
    if not abs(reported - err) <= 1e-4 * fnorm + 1e-6 * err:
        return f"reported error {reported!r}, own computation {err!r}"
    eps = 1e-3 * (err + 1e-2 * fnorm) / h2(std_series(standard(G), standard(delta)), dom(F))
    for sign in (1.0, -1.0):
        Y = plain_sum(plain(X), Sys(delta.A, delta.E, delta.B, sign * eps * delta.C, sign * eps * delta.D, dom(F)))
        e2 = match_error(G, F, Y)
        if e2 < err - 1e-9 * (err + fnorm):
            return f"X is not optimal: a stable perturbation lowers the error to {e2!r} from {err!r}"
    return None


def check_solve(X, G, F):
    why = tfm_mismatch(X, lambda lam: np.linalg.solve(tfm(G, lam), tfm(F, lam)), rtol=1e-6)
    return "G X != F: " + why if why else None


def check_nullspace(N, G, left=False):
    if N.A.shape[0] > G.n:
        return f"basis order {N.A.shape[0]} exceeds the order {G.n} of G"
    for lam in PROBES:
        g, nv = tfm(G, lam), tfm(N, lam)
        res = nv @ g if left else g @ nv
        scale = (1.0 + np.linalg.norm(g)) * (1.0 + np.linalg.norm(nv))
        if not np.linalg.norm(res) <= 1e-7 * scale:
            return f"basis residual {np.linalg.norm(res) / scale:.2e}"
        sv = np.linalg.svd(nv, compute_uv=False)
        if not sv.size or sv[-1] <= 1e-6 * sv[0]:
            return "basis is not of full rank"
    return None
